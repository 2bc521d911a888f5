"""Random-number-generator plumbing.

All stochastic components in this library accept either ``None`` (fresh
entropy), an integer seed, or a ready :class:`numpy.random.Generator`.
:func:`as_generator` normalises those three spellings; experiments that need
several independent streams use :func:`spawn_generators`.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed spelling.

    Passing a generator returns it unchanged so callers can share one stream;
    passing an int gives a reproducible stream; ``None`` draws OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"expected None, int, SeedSequence or numpy Generator, got {type(seed)!r}"
    )


def spawn_generators(seed: SeedLike, count: int) -> Sequence[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed.

    Independence comes from ``SeedSequence.spawn``; the parent seed fully
    determines every child, so experiment sweeps stay reproducible.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive a child seed sequence from the generator's own bit stream.
        root = np.random.SeedSequence(seed.integers(0, 2**63 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]


def random_unit(rng: np.random.Generator) -> float:
    """Draw a uniform float in the open interval (0, 1).

    ``Generator.random`` may return exactly 0.0, which breaks ``log(U)``
    style transforms; this helper redraws until the value is positive.
    """
    value = rng.random()
    while value <= 0.0:
        value = rng.random()
    return value
