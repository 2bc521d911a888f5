"""Graph persistence: plain edge lists and compressed NumPy archives.

The text format is one edge per line — ``src dst [prob]`` — with ``#``
comments, matching SNAP/KONECT-style downloads so real datasets can be
plugged in when available.

Error contract: every loader failure — missing file, permission problem,
truncated archive, malformed line — surfaces as
:class:`~repro.utils.exceptions.GraphFormatError` with the underlying
exception chained as ``__cause__``, so callers catch one type and can still
distinguish transient I/O faults (``isinstance(exc.__cause__, OSError)``)
from permanent format errors.  :func:`is_transient` is that test; retrying
callers pass it to :class:`~repro.serving.retry.RetryPolicy` so only
transient failures are retried and format errors fail at once.
"""

from __future__ import annotations

import os
import zipfile
from typing import Optional, Union

import numpy as np

from repro.graphs.csr import CSRGraph, build_graph
from repro.utils.exceptions import GraphFormatError

PathLike = Union[str, "os.PathLike[str]"]


def is_transient(exc: BaseException) -> bool:
    """Whether a loader failure is worth retrying: an ``OSError`` cause.

    A vanished file, a permission flap or a network-filesystem hiccup may
    clear on its own; malformed content never does.
    """
    return isinstance(exc, GraphFormatError) and isinstance(
        exc.__cause__, OSError
    )


def load_edge_list(
    path: PathLike,
    default_prob: float = 1.0,
    n: Optional[int] = None,
    weight_model: str = "file",
) -> CSRGraph:
    """Parse a whitespace-separated edge-list file into a :class:`CSRGraph`.

    Lines are ``src dst`` or ``src dst prob``; blank lines and lines starting
    with ``#`` are skipped.  Node ids must be non-negative integers; ``n``
    defaults to ``max(id) + 1``.  Raises :class:`GraphFormatError` (cause
    chained) on unreadable files and malformed content alike.
    """
    src_list, dst_list, prob_list = [], [], []
    try:
        handle = open(path)
    except OSError as exc:
        raise GraphFormatError(f"{path}: cannot open edge list: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'src dst [prob]', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
                p = float(parts[2]) if len(parts) == 3 else default_prob
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
            src_list.append(u)
            dst_list.append(v)
            prob_list.append(p)
    if not src_list:
        raise GraphFormatError(f"{path}: no edges found")
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    probs = np.asarray(prob_list, dtype=np.float64)
    if n is None:
        n = int(max(src.max(), dst.max())) + 1
    return build_graph(n, src, dst, probs, weight_model=weight_model)


def save_edge_list(graph: CSRGraph, path: PathLike, write_probs: bool = True) -> None:
    """Write the graph as a text edge list (optionally omitting probabilities)."""
    src, dst, probs = graph.edges()
    with open(path, "w") as handle:
        handle.write(f"# n={graph.n} m={graph.m} weight_model={graph.weight_model}\n")
        if write_probs:
            for u, v, p in zip(src, dst, probs):
                handle.write(f"{u} {v} {p:.17g}\n")
        else:
            for u, v in zip(src, dst):
                handle.write(f"{u} {v}\n")


def save_npz(graph: CSRGraph, path: PathLike) -> None:
    """Persist the graph losslessly as a compressed ``.npz`` archive."""
    np.savez_compressed(
        path,
        n=np.int64(graph.n),
        out_indptr=graph.out_indptr,
        out_indices=graph.out_indices,
        out_probs=graph.out_probs,
        in_indptr=graph.in_indptr,
        in_indices=graph.in_indices,
        in_probs=graph.in_probs,
        weight_model=np.str_(graph.weight_model),
    )


def load_npz(path: PathLike) -> CSRGraph:
    """Load a graph previously written by :func:`save_npz`.

    Truncated or corrupt archives, missing arrays, and unreadable files all
    raise :class:`GraphFormatError` with the original error chained.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            return CSRGraph(
                int(data["n"]),
                data["out_indptr"],
                data["out_indices"],
                data["out_probs"],
                data["in_indptr"],
                data["in_indices"],
                data["in_probs"],
                weight_model=str(data["weight_model"]),
            )
    except OSError as exc:
        raise GraphFormatError(f"{path}: cannot read archive: {exc}") from exc
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        # np.load raises BadZipFile on a broken archive, ValueError on
        # corrupt zip members, KeyError on missing arrays, EOFError on
        # short reads — all format problems.
        raise GraphFormatError(
            f"{path}: invalid graph archive: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# sidecar cache
# ----------------------------------------------------------------------

def sidecar_path(path: PathLike) -> str:
    """The binary sidecar a text edge list is cached under."""
    return f"{os.fspath(path)}.graph.npz"


def load_graph_auto(path: PathLike) -> CSRGraph:
    """Load a graph file, preferring a fresh binary sidecar for text input.

    ``.npz`` paths load directly.  For a text edge list the loader first
    looks for ``<path>.graph.npz``: a sidecar at least as new as the text
    file (by mtime) is trusted and loaded — an order of magnitude faster
    than re-parsing at n >= 10^6 — while a stale or unreadable sidecar is
    ignored and the text re-parsed.  After a successful parse the sidecar
    is (re)written atomically via a temp file + ``os.replace``; a failure
    to write it (read-only directory, quota) is silently ignored — the
    cache is an optimization, never a correctness requirement.
    """
    text_path = os.fspath(path)
    if text_path.endswith(".npz"):
        return load_npz(text_path)
    cache = sidecar_path(text_path)
    try:
        if os.path.getmtime(cache) >= os.path.getmtime(text_path):
            return load_npz(cache)
    except (OSError, GraphFormatError):
        pass  # missing, unreadable, or corrupt sidecar: re-parse
    graph = load_edge_list(text_path)
    # np.savez appends ".npz" to names lacking it — keep the suffix so
    # the temp file lands where we expect to replace from.
    tmp = f"{cache}.{os.getpid()}.tmp.npz"
    try:
        save_npz(graph, tmp)
        os.replace(tmp, cache)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
    return graph
