"""Deterministic random number generation helpers.

Every stochastic component of the simulator (network jitter, compute-time
noise, synthetic workloads) draws from a :class:`SeededRNG` so that an entire
experiment is reproducible from a single integer seed.  Sub-streams are
derived with :func:`derive_seed` so that, for example, every simulated process
and every network link gets an independent but deterministic stream.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SeededRNG", "derive_seed", "spawn_rng"]


def derive_seed(base_seed: int, *keys: object) -> int:
    """Derive a child seed from ``base_seed`` and an arbitrary key path.

    The derivation is stable across processes and Python versions (it uses
    SHA-256 rather than ``hash()``), so the same ``(base_seed, keys)`` pair
    always yields the same child seed.

    Parameters
    ----------
    base_seed:
        The experiment-level seed.
    keys:
        Arbitrary hashable/strings identifying the sub-stream, e.g.
        ``("network", link_id)`` or ``("rank", 3)``.

    Returns
    -------
    int
        A 63-bit non-negative integer suitable for seeding NumPy generators.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode("utf-8"))
    for key in keys:
        digest.update(b"\x1f")
        digest.update(repr(key).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "little") & ((1 << 63) - 1)


def spawn_rng(base_seed: int, *keys: object) -> np.random.Generator:
    """Return a NumPy generator seeded from ``derive_seed(base_seed, *keys)``."""
    from repro._numpy import np

    return np.random.default_rng(derive_seed(base_seed, *keys))


class SeededRNG:
    """A small façade over :class:`numpy.random.Generator`.

    It adds the distribution helpers the simulator needs (truncated normal
    jitter, exponential backoff, bounded integers) and keeps track of the seed
    it was created with, which is convenient for logging and for re-creating
    identical streams in tests.

    Parameters
    ----------
    seed:
        Base seed for the generator.
    keys:
        Optional derivation path (see :func:`derive_seed`).
    """

    def __init__(self, seed: int, *keys: object) -> None:
        self.seed = int(seed)
        self.keys = tuple(keys)
        self._rng = spawn_rng(seed, *keys)

    # -- generic passthroughs -------------------------------------------------
    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return float(self._rng.random())

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform integer, same semantics as ``Generator.integers``."""
        return int(self._rng.integers(low, high))

    def choice(self, seq: Iterable):
        """Uniform choice from a sequence."""
        seq = list(seq)
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self._rng.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle of a Python list."""
        self._rng.shuffle(seq)

    # -- distributions used by the simulator ----------------------------------
    def jitter(self, scale: float) -> float:
        """Non-negative timing jitter.

        Drawn from a half-normal distribution with the given scale; this is
        the noise source that perturbs physical message arrival order relative
        to the logical program order (the paper's "random effects").
        """
        if scale <= 0.0:
            return 0.0
        return abs(float(self._rng.normal(0.0, scale)))

    def jitter_block(self, scale: float, n: int) -> list[float]:
        """A block of ``n`` jitter variates, sequence-identical to ``n``
        successive :meth:`jitter` calls (numpy array sampling consumes the
        underlying bit stream exactly like repeated scalar draws)."""
        if scale <= 0.0:
            return [0.0] * n
        return abs(self._rng.normal(0.0, scale, size=n)).tolist()

    def lognormal_factor(self, sigma: float) -> float:
        """Multiplicative noise factor with median 1.0."""
        if sigma <= 0.0:
            return 1.0
        return float(self._rng.lognormal(0.0, sigma))

    def lognormal_block(self, sigma: float, n: int) -> list[float]:
        """A block of ``n`` noise factors, sequence-identical to ``n``
        successive :meth:`lognormal_factor` calls (numpy array sampling
        consumes the underlying bit stream exactly like scalar draws)."""
        if sigma <= 0.0:
            return [1.0] * n
        return self._rng.lognormal(0.0, sigma, size=n).tolist()

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (0 if mean <= 0)."""
        if mean <= 0.0:
            return 0.0
        return float(self._rng.exponential(mean))

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return bool(self._rng.random() < p)

    def normal(self, loc: float, scale: float) -> float:
        """Gaussian variate."""
        return float(self._rng.normal(loc, scale))

    def child(self, *keys: object) -> "SeededRNG":
        """Create an independent child RNG derived from this one's seed path."""
        return SeededRNG(self.seed, *(self.keys + keys))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRNG(seed={self.seed}, keys={self.keys!r})"
