"""Checkpoint persistence for interruptible runs.

A checkpoint is one compressed ``.npz`` archive holding a JSON metadata
blob (algorithm identity, query parameters, phase state, RNG state,
generator counters) plus the RR pools flattened into data/size arrays.
Writes go through a temp file and ``os.replace`` so a crash mid-write
leaves the previous checkpoint intact — which is exactly the scenario the
fault-injection tests exercise.

The format is deliberately self-validating: :meth:`CheckpointStore.load`
raises :class:`~repro.utils.exceptions.CheckpointError` (with the
underlying cause chained) on truncated archives, and algorithms verify the
metadata matches the resuming query before trusting it.
"""

from __future__ import annotations

import json
import os
import zipfile
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.rrsets.base import GenerationCounters
from repro.rrsets.collection import RRCollection
from repro.utils.exceptions import CheckpointError

PathLike = Union[str, "os.PathLike[str]"]

FORMAT_VERSION = 1


def _json_default(value):
    """Coerce numpy scalars that leak into metadata (counters, seed lists)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"checkpoint metadata must be JSON-able, got {type(value).__name__}"
    )


# ----------------------------------------------------------------------
# RRCollection <-> flat arrays
# ----------------------------------------------------------------------

def collection_to_arrays(coll: RRCollection) -> Dict[str, np.ndarray]:
    """Flatten a collection into ``data`` (concatenated sets) + ``sizes``.

    The collection already stores its pool flat, so this is two array views
    (``data`` widened to int64 to keep the archive format stable).
    """
    return {
        "data": coll.rr_nodes.astype(np.int64),
        "sizes": coll.set_sizes(),
        "n": np.int64(coll.n),
    }


def collection_from_arrays(
    data: np.ndarray, sizes: np.ndarray, n: int
) -> RRCollection:
    """Rebuild a collection from flat arrays (one bulk append)."""
    coll = RRCollection(int(n))
    if len(sizes):
        coll.add_batch(data, sizes)
    return coll


def counters_to_dict(counters: GenerationCounters) -> Dict[str, int]:
    return {
        "edges_examined": counters.edges_examined,
        "rng_draws": counters.rng_draws,
        "nodes_added": counters.nodes_added,
        "sets_generated": counters.sets_generated,
        "sentinel_hits": counters.sentinel_hits,
    }


def counters_from_dict(payload: Dict[str, int]) -> GenerationCounters:
    return GenerationCounters(**{k: int(v) for k, v in payload.items()})


class RestoredCounters:
    """Counter-only stand-in for a finished generator.

    ``IMAlgorithm._result_from`` only reads ``generator.counters``; after a
    resume, phases that already completed exist only as their counters, and
    this shim lets the result assembly treat them uniformly.
    """

    def __init__(self, payload: Dict[str, int]) -> None:
        self.counters = counters_from_dict(payload)


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------

class CheckpointStore:
    """Atomic save/load of run state, with a configurable save interval.

    ``every`` thins round-boundary saves: ``maybe_save`` persists only every
    ``every``-th call (the first call always saves, so short runs still
    leave a checkpoint behind).  ``fault_injector`` — when set by the run
    control — receives one I/O event per physical read or write, which is
    how the test suite kills a run "during a checkpoint".
    """

    def __init__(self, path: PathLike, every: int = 1) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1, got {every}")
        self.path = os.fspath(path)
        self.every = int(every)
        self.fault_injector = None
        self._calls = 0

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(
        self,
        meta: dict,
        pools: Optional[Dict[str, RRCollection]] = None,
    ) -> None:
        """Persist ``meta`` (JSON-able) plus named RR pools atomically."""
        if self.fault_injector is not None:
            self.fault_injector.on_io()
        arrays: Dict[str, np.ndarray] = {}
        pool_names = []
        for name, coll in (pools or {}).items():
            if "__" in name:
                raise CheckpointError(f"pool name {name!r} may not contain '__'")
            flat = collection_to_arrays(coll)
            arrays[f"{name}__data"] = flat["data"]
            arrays[f"{name}__sizes"] = flat["sizes"]
            arrays[f"{name}__n"] = flat["n"]
            pool_names.append(name)
        envelope = {
            "format_version": FORMAT_VERSION,
            "pools": pool_names,
            "meta": meta,
        }
        tmp = f"{self.path}.tmp"
        try:
            with open(tmp, "wb") as handle:
                np.savez_compressed(
                    handle,
                    envelope=np.str_(json.dumps(envelope, default=_json_default)),
                    **arrays,
                )
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - crash-path cleanup
                os.unlink(tmp)

    def maybe_save(self, builder) -> bool:
        """Call ``builder() -> (meta, pools)`` and save on interval ticks."""
        self._calls += 1
        if (self._calls - 1) % self.every != 0:
            return False
        meta, pools = builder()
        self.save(meta, pools)
        return True

    def load(self) -> Tuple[dict, Dict[str, RRCollection]]:
        """Read back ``(meta, pools)``; raises CheckpointError when invalid."""
        if self.fault_injector is not None:
            self.fault_injector.on_io()
        try:
            with np.load(self.path, allow_pickle=False) as archive:
                envelope = json.loads(str(archive["envelope"]))
                if envelope.get("format_version") != FORMAT_VERSION:
                    raise CheckpointError(
                        f"{self.path}: unsupported checkpoint format "
                        f"{envelope.get('format_version')!r}"
                    )
                pools = {
                    name: collection_from_arrays(
                        archive[f"{name}__data"],
                        archive[f"{name}__sizes"],
                        int(archive[f"{name}__n"]),
                    )
                    for name in envelope["pools"]
                }
                return envelope["meta"], pools
        except CheckpointError:
            raise
        except (
            OSError,
            ValueError,
            KeyError,
            json.JSONDecodeError,
            zipfile.BadZipFile,
        ) as exc:
            raise CheckpointError(
                f"{self.path}: cannot read checkpoint: {exc}"
            ) from exc

    def clear(self) -> None:
        """Delete the checkpoint file if present (after a completed run)."""
        if self.exists():
            os.unlink(self.path)


def coerce_store(
    checkpoint: Union[None, PathLike, CheckpointStore],
) -> Optional[CheckpointStore]:
    """Accept a path or a ready store (or None) at API boundaries.

    A path saves at every round boundary; a thinner interval is a
    property of the store, ``CheckpointStore(path, every=N)``.
    """
    if checkpoint is None:
        return None
    if isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(checkpoint)
