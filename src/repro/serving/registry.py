"""Named graph registry with resilient lazy loading.

The daemon serves queries against *named* graphs.  A name maps either to
an already-built :class:`~repro.graphs.csr.CSRGraph` (registered
in-process, e.g. by tests and the load harness) or to a path loaded
lazily on first use.  Loads go through the registry's
:class:`~repro.serving.retry.RetryPolicy` (failures that
:func:`repro.graphs.io.is_transient` accepts are retried with jittered,
capped backoff; the error that finally surfaces records ``attempts``)
and a per-name :class:`~repro.serving.retry.CircuitBreaker` (a
persistently failing path fails fast with a retry-after instead of
stalling a worker per request).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.graphs import io, weights
from repro.graphs.csr import CSRGraph
from repro.serving.retry import CircuitBreaker, RetryPolicy
from repro.utils.exceptions import ConfigurationError


class GraphRegistry:
    """Thread-safe name -> graph mapping with lazy, guarded loading."""

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
    ) -> None:
        self._retry = retry if retry is not None else RetryPolicy()
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._graphs: Dict[str, CSRGraph] = {}
        self._paths: Dict[str, Tuple[str, Optional[str], int]] = {}
        #: source-file mtime (ns) captured when a path-backed graph was
        #: loaded; :meth:`get` re-stats on every access so a replaced file
        #: is noticed instead of the stale cached graph being served forever.
        self._mtimes: Dict[str, Optional[int]] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def add_graph(self, name: str, graph: CSRGraph) -> None:
        """Register an already-built graph under ``name``."""
        with self._lock:
            self._graphs[name] = graph
            self._paths.pop(name, None)

    def add_path(
        self,
        name: str,
        path: str,
        weight_scheme: Optional[str] = None,
        seed: int = 0,
    ) -> None:
        """Register a graph file to be loaded lazily on first use.

        ``weight_scheme`` (e.g. ``"wc"``, ``"uniform:0.01"``) is applied
        after loading with :func:`repro.graphs.weights.apply_scheme`.  It
        is parsed here, so a bad scheme raises :class:`ConfigurationError`
        at registration rather than on every query of the graph.
        """
        if weight_scheme:
            weights.parse_scheme(weight_scheme)
        with self._lock:
            self._paths[name] = (path, weight_scheme, seed)
            self._graphs.pop(name, None)
            self._breakers[name] = CircuitBreaker(
                threshold=self._breaker_threshold,
                cooldown=self._breaker_cooldown,
                name=f"graph {name!r}",
            )

    def names(self) -> List[str]:
        with self._lock:
            return sorted(set(self._graphs) | set(self._paths))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._graphs or name in self._paths

    # ------------------------------------------------------------------
    def get(self, name: str) -> CSRGraph:
        """The named graph, loading (with retry + breaker) if needed.

        Path-backed names re-validate their source file on *every* access:
        when the file has been replaced since the cached load (a different
        ``st_mtime_ns``), the stale graph is dropped and the new file is
        loaded — in-process mutations of a still-current graph (e.g. a
        ``/delta`` application) are untouched, because those never change
        the file.

        Raises :class:`ConfigurationError` for unknown names,
        :class:`~repro.serving.retry.CircuitOpenError` while the name's
        breaker is open, and :class:`GraphFormatError` when loading
        ultimately fails.
        """
        with self._lock:
            graph = self._graphs.get(name)
            spec = self._paths.get(name)
            breaker = self._breakers.get(name)
            known_mtime = self._mtimes.get(name)
        if graph is not None:
            if spec is None:
                return graph
            if self._stat_ns(spec[0]) == known_mtime:
                return graph
            with self._lock:
                # Drop only the exact object we validated: a racing reload
                # may already have installed the fresh graph.
                if self._graphs.get(name) is graph:
                    self._graphs.pop(name)
        if spec is None:
            raise ConfigurationError(f"unknown graph {name!r}")
        path, scheme, seed = spec

        def load() -> Tuple[CSRGraph, Optional[int]]:
            # Stat *before* reading: if the file is replaced mid-load the
            # recorded mtime mismatches on the next access and the graph
            # is reloaded then, rather than being trusted stale.
            mtime = self._stat_ns(path)
            loaded = self._retry.call(
                lambda: self._load(path, scheme, seed),
                transient=io.is_transient,
            )
            return loaded, mtime

        graph, mtime = breaker.call(load) if breaker is not None else load()
        with self._lock:
            # Another thread may have raced the load; first write wins so
            # every caller sees one graph object (and one sampler cache).
            existing = self._graphs.get(name)
            if existing is not None:
                return existing
            self._graphs[name] = graph
            self._mtimes[name] = mtime
            return graph

    @staticmethod
    def _stat_ns(path: str) -> Optional[int]:
        try:
            return os.stat(path).st_mtime_ns
        except OSError:
            return None

    @staticmethod
    def _load(path: str, scheme: Optional[str], seed: int) -> CSRGraph:
        # load_graph_auto prefers (and maintains) a binary sidecar for
        # text edge lists, so a restarted server skips the re-parse.
        graph = io.load_graph_auto(path)
        if scheme:
            graph = weights.apply_scheme(graph, scheme, seed=seed)
        return graph
