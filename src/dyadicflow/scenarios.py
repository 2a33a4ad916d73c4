"""Initial-data families and the piecewise-linear profile reconstruction.

All generators produce admissible data: non-negative, non-decreasing in k,
with ``a_0 = 0`` exactly.
"""

from __future__ import annotations

import numpy as np

from dyadicflow.model import DomainError, DyadicState

SQRT2 = np.sqrt(2.0)


def gen_bump(kmax: int) -> DyadicState:
    """Bump profile sampled at dyadic points: ``a_k = (1 - 4**-k)**2``.

    This is the classic even bump ``(1 - x**2)**2`` on [-1, 1] evaluated at
    ``x = 2**-k``; the value at ``x = 1`` pins ``a_0 = 0`` exactly and the
    sequence increases to 1 as k grows (``a_K >= 1 - 1e-6`` for K >= 12).
    """
    if kmax < 2:
        raise DomainError(f"bump data needs K >= 2, got {kmax}")
    karr = np.arange(kmax + 1, dtype=float)
    a = (1.0 - np.exp2(-2.0 * karr)) ** 2
    return DyadicState(t=0.0, a=a)


def gen_front(kmax: int, k0: int, q: float, r: float, amplitude: float = 1.0) -> DyadicState:
    """Front-structured data from an explicit slope profile.

    Slopes grow geometrically up to the front index and decay beyond it:
    ``b_k = q**k`` for ``k <= k0`` and ``b_k = q**k0 * r**(k-k0)`` after,
    then ``a_k = a_{k-1} + b_k * 2**-k`` with ``a_0 = 0``.  With
    ``1 < q < sqrt(2)`` and ``0 < r < 1`` the slopes increase strictly up to
    their maximum at ``k0``, decrease strictly beyond it, and every
    consecutive ratio stays below sqrt(2).

    ``amplitude`` rescales the whole slope profile (the front configuration
    constrains ratios only).  The quadratic transport term makes amplitude a
    pure time rescaling in the inviscid dynamics, but against fixed
    dissipation it decides whether the cascade ignites, so dichotomy
    experiments need amplitudes well above 1.
    """
    if not (2 <= k0 < kmax):
        raise DomainError(f"need 2 <= k0 < K, got k0={k0}, K={kmax}")
    if not (1.0 < q < SQRT2):
        raise DomainError(f"need 1 < q < sqrt(2), got q={q}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"need 0 < r < 1, got r={r}")
    if not (amplitude > 0.0):
        raise DomainError(f"need amplitude > 0, got {amplitude}")
    karr = np.arange(kmax + 1, dtype=float)
    b = amplitude * np.where(karr <= k0, q**karr, q**k0 * r ** (karr - k0))
    b[0] = 0.0
    a = np.concatenate([[0.0], np.cumsum(b[1:] * np.exp2(-karr[1:]))])
    return DyadicState(t=0.0, a=a)


def gen_geometric(kmax: int, rate: float) -> DyadicState:
    """Geometric-increment control data normalized to ``sup a = 1``.

    ``a_k`` is the partial geometric sum ``(1 - rate**k) / (1 - rate)``
    scaled by its final value; the weighted slopes decay like
    ``(2**s * rate)**k``, so membership in X^s degrades as s approaches
    ``log2(1/rate)`` (reported by the norm diagnostics, not asserted).
    """
    if not (0.0 < rate < 1.0):
        raise DomainError(f"need 0 < rate < 1, got rate={rate}")
    karr = np.arange(kmax + 1, dtype=float)
    g = (1.0 - rate**karr) / (1.0 - rate)
    return DyadicState(t=0.0, a=g / g[-1])


def profile_reconstruction(state: DyadicState) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``x = 2**-k`` and ``y = a_k`` in increasing x, ready for linear interpolation.

    This is the piecewise-linear reconstruction of the profile the sequence
    approximates, with ``a_k`` placed at the dyadic point ``2**-k``.
    """
    return np.ldexp(1.0, -np.arange(state.k, -1, -1)), state.a[::-1]
