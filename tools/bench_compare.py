"""Compare fresh full-size benchmark results against committed baselines.

The nightly ``bench-full`` workflow re-runs every benchmark at full size
and calls this script to diff the fresh headline metrics against the JSON
files committed under ``benchmarks/results/``.  A headline metric that
regresses by more than the threshold (default 25%) fails the run, unless
the triggering commit message carries a ``[bench-waiver]`` marker — the
escape hatch for intentional trade-offs, which still prints the full
comparison so the regression is reviewed, not hidden.

Headline metrics are kernel speedups (ratios), so they are *less* noisy
than raw wall-clock on shared runners, but noise is still real: the
threshold is deliberately loose and this gate runs nightly, not on every
push.  Query-level claims (warm-session reuse, HTTP serving, delta repair)
are not gated here: the end-to-end harness in ``benchmarks/e2e/`` measures
them (``warm-hi``'s ``bank.reuse_ratio``; ``serve-mixed``'s latency,
throughput, ``bank.repair_share`` and ``bank.sets_repaired``).

Usage::

    python tools/bench_compare.py --current-dir fresh-results \
        [--baseline-dir benchmarks/results] [--threshold 0.25] \
        [--commit-message "$(git log -1 --pretty=%B)"]

Every headline file must exist on both sides and its baseline must carry
the headline path: a missing baseline, a file this run did not produce, or
a baseline without the metric fails the gate, so coverage cannot be lost
silently.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

#: commit-message marker that downgrades regressions to warnings
WAIVER_MARKER = "[bench-waiver]"

#: per-file headline metrics: (file, dotted path, direction).  A ``*``
#: path segment fans out over every key at that level (e.g. one entry per
#: general-weight workload).  Direction ``higher`` means bigger is better.
HEADLINES: List[Tuple[str, str, str]] = [
    ("BENCH_rrgen.json", "generators.*.batched_speedup", "higher"),
    ("BENCH_generalw.json", "workloads.*.batched_speedup", "higher"),
    ("BENCH_sharded.json", "realloc.speedup", "higher"),
]


def resolve_path(doc: Any, dotted: str) -> Iterator[Tuple[str, float]]:
    """Yield ``(concrete_path, value)`` for a dotted path, expanding ``*``."""
    parts = dotted.split(".")

    def walk(node: Any, idx: int, trail: List[str]) -> Iterator[Tuple[str, float]]:
        if idx == len(parts):
            if isinstance(node, (int, float)) and not isinstance(node, bool):
                yield ".".join(trail), float(node)
            return
        part = parts[idx]
        if part == "*":
            if isinstance(node, dict):
                for key in sorted(node):
                    yield from walk(node[key], idx + 1, trail + [key])
        elif isinstance(node, dict) and part in node:
            yield from walk(node[part], idx + 1, trail + [part])

    yield from walk(doc, 0, [])


def compare_dirs(
    baseline_dir: Path, current_dir: Path, threshold: float
) -> Tuple[List[str], List[str]]:
    """Returns ``(failures, notes)`` comparing every headline metric.

    A failure is a headline that regressed past ``threshold`` or that
    cannot be checked at all (file or metric missing).
    """
    regressions: List[str] = []
    notes: List[str] = []
    for filename, dotted, direction in HEADLINES:
        base_file = baseline_dir / filename
        cur_file = current_dir / filename
        if not base_file.exists():
            regressions.append(f"{filename}: no committed baseline")
            continue
        if not cur_file.exists():
            regressions.append(f"{filename}: not produced by this run")
            continue
        base_doc = json.loads(base_file.read_text())
        cur_doc = json.loads(cur_file.read_text())
        base_values = dict(resolve_path(base_doc, dotted))
        cur_values = dict(resolve_path(cur_doc, dotted))
        if not base_values:
            regressions.append(f"{filename}: baseline lacks {dotted!r}")
            continue
        for path, base in sorted(base_values.items()):
            cur = cur_values.get(path)
            if cur is None:
                regressions.append(
                    f"{filename}: {path}: present in baseline "
                    f"({base:.4g}) but missing from this run"
                )
                continue
            if direction == "higher":
                regressed = cur < base * (1.0 - threshold)
            else:
                regressed = cur > base * (1.0 + threshold)
            ratio = cur / base if base else float("inf")
            line = (
                f"{filename}: {path}: baseline {base:.4g} -> current "
                f"{cur:.4g} ({ratio:.2f}x)"
            )
            if regressed:
                regressions.append(line + f"  [>{threshold:.0%} regression]")
            else:
                notes.append(line)
    return regressions, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path(__file__).resolve().parents[1]
        / "benchmarks"
        / "results",
    )
    parser.add_argument("--current-dir", type=Path, required=True)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed relative regression of a headline metric",
    )
    parser.add_argument(
        "--commit-message",
        default="",
        help=f"triggering commit message; {WAIVER_MARKER!r} waives failure",
    )
    args = parser.parse_args(argv)

    regressions, notes = compare_dirs(
        args.baseline_dir, args.current_dir, args.threshold
    )
    for line in notes:
        print(f"  ok    {line}")
    for line in regressions:
        print(f"  FAIL  {line}")
    if not regressions:
        print("bench-compare: all headline metrics within threshold")
        return 0
    if WAIVER_MARKER in args.commit_message:
        print(
            f"bench-compare: {len(regressions)} regression(s) WAIVED by "
            f"{WAIVER_MARKER} in the commit message"
        )
        return 0
    print(
        f"bench-compare: {len(regressions)} headline check(s) failed "
        f"(missing, or regressed more than {args.threshold:.0%})"
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
