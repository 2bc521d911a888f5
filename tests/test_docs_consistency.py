"""Docs-code consistency: names the documentation promises must exist."""

import re
from pathlib import Path

import pytest

import repro
from repro.core.registry import available_algorithms

REPO_ROOT = Path(__file__).resolve().parents[1]


def read(path):
    return (REPO_ROOT / path).read_text()


class TestReadme:
    def test_registry_names_in_readme_exist(self):
        text = read("README.md")
        names = set(available_algorithms())
        # Every backticked token that looks like a registry name must
        # actually be registered.
        for token in re.findall(r"`([a-z][a-z0-9+-]*)`", text):
            if token in ("pip", "python", "pytest", "repro", "numpy"):
                continue
            if "-" in token or "+" in token:
                candidates = {t.strip() for t in token.split(",")}
                for cand in candidates:
                    if cand in names:
                        continue
            # Only enforce for tokens that *look like* algorithm ids.
            if token in {
                "subsim", "hist", "opim-c", "imm", "ssa", "d-ssa", "tim+",
                "hist+subsim", "greedy-mc", "degree", "degree-discount",
                "random", "pagerank", "borgs-ris", "opim-c-lt", "hist-lt",
                "imm-lt",
            }:
                assert token in names, token

    def test_quickstart_snippet_imports_exist(self):
        text = read("README.md")
        block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
        for name in re.findall(r"from repro import \(?([^)\n]+)", block):
            for symbol in name.split(","):
                symbol = symbol.strip()
                if symbol:
                    assert hasattr(repro, symbol), symbol

    def test_documented_example_files_exist(self):
        text = read("README.md")
        for match in re.findall(r"examples/(\w+)\.py", text):
            assert (REPO_ROOT / "examples" / f"{match}.py").exists(), match


class TestDesignAndExperiments:
    def test_design_lists_every_benchmark_file(self):
        text = read("DESIGN.md")
        for match in re.findall(r"benchmarks/(test_\w+)\.py", text):
            assert (REPO_ROOT / "benchmarks" / f"{match}.py").exists(), match

    def test_experiments_md_bench_names_exist(self):
        text = read("EXPERIMENTS.md")
        bench_dir = REPO_ROOT / "benchmarks"
        bench_sources = "\n".join(
            p.read_text() for p in bench_dir.glob("test_*.py")
        )
        for match in re.findall(r"`(test_\w+)`", text):
            # Accept either a test function name or a benchmark file name.
            assert match in bench_sources or (
                bench_dir / f"{match}.py"
            ).exists(), match

    def test_api_doc_run_signature_matches_code(self):
        import inspect

        from repro.algorithms.base import IMAlgorithm

        text = read("docs/API.md")
        match = re.search(r"`run\(([^)`]*)\) -> IMResult`", text)
        assert match, "docs/API.md lost its run(...) signature"
        documented = [
            part.split("=")[0].strip() for part in match.group(1).split(",")
        ]
        expected = [
            name
            for name in inspect.signature(IMAlgorithm.run).parameters
            if name != "self"
        ]
        assert [name for name in documented if name != "*"] == expected

    def test_api_doc_mentions_every_registry_name(self):
        text = read("docs/API.md")
        for name in available_algorithms():
            if name.startswith("test-"):
                continue  # registered by the test suite itself
            assert name in text, name


def _cli_commands():
    """``(doc, subcommand, argument text)`` for every documented CLI call.

    Matches ``python -m repro <sub> ...`` anywhere and ``repro <sub> ...``
    as inline code, joining shell line continuations first.
    """
    docs = [
        REPO_ROOT / "README.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
        # the build-and-run notes kept beside the repository's tooling
        *sorted(REPO_ROOT.glob(".*/skills/*/SKILL.md")),
    ]
    pattern = re.compile(
        r"(?:python -m repro|`repro)[ \t]+([a-z][a-z0-9-]*)([^`\n]*)"
    )
    found = []
    for path in docs:
        text = re.sub(r"\\\n\s*", " ", path.read_text())
        for sub, rest in pattern.findall(text):
            found.append((path.relative_to(REPO_ROOT).as_posix(), sub, rest))
    return found


def _subparsers():
    import argparse

    from repro.cli import build_parser

    action = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


class TestCliCommandsInDocs:
    """Documented CLI invocations must still parse: no stale flags,
    subcommands or algorithm names."""

    def test_docs_contain_cli_commands(self):
        assert len(_cli_commands()) >= 20

    def test_subcommands_and_flags_exist(self):
        parsers = _subparsers()
        stale = []
        for doc, sub, rest in _cli_commands():
            if sub not in parsers:
                stale.append(f"{doc}: unknown subcommand {sub!r}")
                continue
            known = set(parsers[sub]._option_string_actions)
            for flag in re.findall(r"(?<![\w-])(--[a-z][a-z0-9-]*)", rest):
                if flag not in known:
                    stale.append(f"{doc}: `{sub} {flag}` is not accepted")
        assert not stale, "\n".join(stale)

    def test_algorithm_and_generator_names_exist(self):
        from repro.cli import _GENERATOR_CLASSES

        algorithms = set(available_algorithms())
        stale = []
        for doc, sub, rest in _cli_commands():
            for name in re.findall(r"--algorithm[ =]([A-Za-z0-9+_.-]+)", rest):
                if name not in algorithms:
                    stale.append(f"{doc}: --algorithm {name} is not registered")
            for names in re.findall(r"--generators[ =]([a-z0-9,-]+)", rest):
                for name in names.split(","):
                    if name not in _GENERATOR_CLASSES:
                        stale.append(f"{doc}: generator {name!r} is unknown")
        assert not stale, "\n".join(stale)


class TestPackageMetadata:
    def test_version_attribute(self):
        assert re.match(r"\d+\.\d+\.\d+", repro.__version__)

    def test_all_exports_resolve(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol), symbol
