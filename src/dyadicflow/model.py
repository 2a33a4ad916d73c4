"""Core state types, the discrete dissipation operator and right-hand sides.

The model is an ODE system for a sequence ``a_0, a_1, ..., a_K`` where index
``k`` represents the spatial scale ``2**-k``.  The inviscid evolution is

    a_k' = -(a_k - a_{k-1})**2 * 2**k        (a_0 pinned at 0)

and the dissipative evolution subtracts a nonlocal discrete operator

    (L a)_k = sum_{n<k} (a_k - a_n) 2**(2*alpha*n)
            + sum_{n>k} (a_k - a_n) 2**(2*alpha*k) 2**(k-n).

Sequences are truncated at ``K`` and extended by the plateau ``a_n = a_K``
for ``n > K``: the tail sum then has a closed form and the telescoped-sum
identity stays exact.

In the increments ``d_j = a_j - a_{j-1}`` the operator has the
closed form ``(L a)_k = sum_{j<=k} P_j d_j - w_k S_k`` with
``w_k = 2**(2*alpha*k)``, ``P_k = sum_{n<k} w_n`` and
``S_k = sum_{j>k} 2**(k-j+1) d_j``.  The O(K) evaluation and the dense
matrix both take ``w`` and ``P`` from one helper; the direct double sum is
the reference.  ``S`` is a scaled reversed cumulative sum, so the O(K)
kernel needs numpy alone.

Everything in this module is a pure function of immutable values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class InvalidInputError(ValueError):
    """Malformed input: wrong dimensions or non-finite entries."""


class DomainError(ValueError):
    """A parameter lies outside the domain an operation is defined on."""


class Tail(Enum):
    """Extension convention for indices beyond the truncation K: the plateau only."""

    PLATEAU = "plateau"  # a_n := a_K for n > K


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: dissipation strength, truncation and norm index.

    ``alpha = 0`` means the dissipation term is absent; the supercritical
    range of interest is ``0 < alpha < 1/2``.  ``trunc_k`` is the truncation
    index K; ``norm_s`` the default smoothness index used for diagnostics.
    ``tail`` has the one value ``Tail.PLATEAU``, which every operator form uses.
    """

    alpha: float
    trunc_k: int
    norm_s: float = 1.5
    tail: Tail = Tail.PLATEAU

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.trunc_k < 2:
            raise DomainError(f"trunc_k must be >= 2, got {self.trunc_k}")
        _check_norm_s(self.norm_s, "norm_s")
        if not isinstance(self.tail, Tail):
            raise DomainError(f"tail must be a Tail value, got {self.tail!r}")

    @property
    def n_modes(self) -> int:
        return self.trunc_k + 1


@dataclass(frozen=True, eq=False)
class DyadicState:
    """The sequence ``a_0 .. a_K`` at a time ``t``.

    ``a[k]`` plays the role of the transported scalar at scale ``2**-k``.
    Admissible data (checked by the analysis layer, never enforced here) is
    non-negative and non-decreasing in ``k``.
    """

    t: float
    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidInputError("state must be a 1-d sequence of length >= 2")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("state entries must all be finite")
        if not math.isfinite(self.t):
            raise InvalidInputError("state time must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)

    @property
    def k(self) -> int:
        """Truncation index K of the stored range."""
        return self.a.size - 1


def _check_norm_s(s: float, name: str = "s") -> None:
    """Refuse a smoothness index ``s`` of the X^s norm that is not finite and > 0."""
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"{name} must be finite and > 0, got {s}")


def cs_constant(s: float) -> float:
    """Threshold constant ``c_s = (3/4)(2**s-1)^{-1}(1 - 1/(2**(s+1)-1))``.

    Used as the dominance threshold in the coercivity inequality: the
    inequality applies at indices where ``b_{k,s} > c_s * ||a||_{X^s}``.
    """
    _check_norm_s(s)
    return 0.75 / (2.0**s - 1.0) * (1.0 - 1.0 / (2.0 ** (s + 1.0) - 1.0))


def coercivity_constant(alpha: float) -> float:
    """Coercivity constant ``C(alpha) = 2**(-2*alpha) / (2**(2*alpha) - 1)``.

    Satisfies the exact identity
    ``(2**(2*alpha*(k-1)) - 1) / (2**(2*alpha) - 1)
      == C(alpha) * (2**(2*alpha*k) - 2**(2*alpha))``
    and diverges as ``alpha -> 0+`` (a pole, not an error of this routine).
    """
    if not (0.0 < alpha < 0.5):
        raise DomainError(f"alpha must lie in (0, 1/2), got {alpha}")
    ta = 2.0 * alpha
    return 2.0**-ta / (2.0**ta - 1.0)


def default_goodbad_threshold(delta: float) -> float:
    """Default good/bad split threshold: largest c with ``(1+c)**2 = 0.9 * 2**(delta+1)``.

    The 0.9 factor keeps the required strict inequality
    ``(c+1)**-2 * 2**(delta+1) > 1`` satisfied with uniform slack.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(0.9 * 2.0 ** (delta + 1.0)) - 1.0


@dataclass(frozen=True)
class Constants:
    """Named constants bundle for a given (s, alpha, delta) choice."""

    c_s: float
    c_alpha: float
    delta: float
    c_goodbad: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
        if not (self.c_alpha > 0.0):
            raise DomainError("c_alpha must be positive")
        if not ((self.c_goodbad + 1.0) ** -2 * 2.0 ** (self.delta + 1.0) > 1.0):
            raise DomainError(
                "c_goodbad too large: (c+1)**-2 * 2**(delta+1) must exceed 1"
            )

    @classmethod
    def for_model(cls, s: float, alpha: float, delta: float) -> "Constants":
        return cls(
            c_s=cs_constant(s),
            c_alpha=coercivity_constant(alpha),
            delta=delta,
            c_goodbad=default_goodbad_threshold(delta),
        )


def _check_state(params: ModelParams, state: DyadicState) -> np.ndarray:
    a = state.a
    if a.size != params.trunc_k + 1:
        raise InvalidInputError(
            f"state has {a.size} entries, params.trunc_k={params.trunc_k} "
            f"requires {params.trunc_k + 1}"
        )
    return a


def dissipation(params: ModelParams, state: DyadicState) -> np.ndarray:
    """Evaluate the dissipation operator ``(L a)_k`` for ``k = 0..K`` in O(K).

    Uses the closed form in the increments (module docstring): one
    cumulative sum of ``P_j d_j``, and ``S`` from the bidiagonal system
    ``S_k - S_{k+1}/2 = d_{k+1}``, ``S_K = 0``.  On monotone data all terms
    are non-negative, so only the last subtraction can cancel; constant
    states give exact zeros.
    """
    a = _check_state(params, state)
    return _dissipation_array(a, params.alpha)


def _operator_weights(size: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Operator coefficients ``w_k = 2**(2*alpha*k)`` and ``P_k = sum_{n<k} w_n``, k < size."""
    w = np.concatenate([[1.0], _xs_weights(size, 2.0 * alpha)])
    return w, np.concatenate([[0.0], np.cumsum(w[:-1])])


# indices per cumulative sum in _tail_sums: the scaled increments stay
# normal, and the sums bitwise equal to back substitution, while |d_j| >= 2**-510
_TAIL_BLOCK = 512


def _tail_sums(d: np.ndarray) -> np.ndarray:
    """``S_k = sum_{j>k} 2**(k-j+1) d_j`` for k = 0 .. K-1, given ``d[k] = d_{k+1}``.

    Solves ``S_k - S_{k+1}/2 = d_{k+1}``, ``S_K = 0``, as a reversed
    cumulative sum of ``2**-(k-lo+1) d[k]`` in blocks ``[lo, hi)`` of
    ``_TAIL_BLOCK`` indices, from the top block down, with ``S_hi`` carried
    into the block below.  Power-of-two scalings are exact in the normal
    range, so every addition rounds as in the back substitution
    ``S_k = d_{k+1} + S_{k+1}/2``, and the result is bitwise equal to it.
    """
    s = np.empty(d.size)
    carry = 0.0
    for hi in range(d.size, 0, -_TAIL_BLOCK):
        lo = max(hi - _TAIL_BLOCK, 0)
        e = _transport_exponents(hi - lo + 1)
        x = np.ldexp(d[lo:hi], -e)
        x[-1] += math.ldexp(carry, -(hi - lo + 1))
        np.ldexp(np.cumsum(x[::-1])[::-1], e, out=s[lo:hi])
        carry = s[lo]
    return s


def _dissipation_array(a: np.ndarray, alpha: float) -> np.ndarray:
    w, p = _operator_weights(a.size, alpha)
    d = np.diff(a)
    out = np.zeros(a.size)
    np.cumsum(p[1:] * d, out=out[1:])
    out[:-1] -= w[:-1] * _tail_sums(d)
    return out


def dissipation_direct(params: ModelParams, state: DyadicState) -> np.ndarray:
    """Reference O(K^2) evaluation of ``(L a)_k`` by direct summation.

    Kept deliberately close to the defining double sum; the fast
    :func:`dissipation` must agree with this to 1e-12 relative.
    """
    a = _check_state(params, state)
    kmax = params.trunc_k
    ta = 2.0 * params.alpha
    narr = np.arange(kmax + 1, dtype=float)
    w_low = np.exp2(ta * narr)
    out = np.empty(kmax + 1)
    for k in range(kmax + 1):
        lower = (a[k] - a[:k]) * w_low[:k]
        upper = (a[k] - a[k + 1 :]) * np.exp2(ta * k + k - narr[k + 1 :])
        plateau = (a[k] - a[kmax]) * np.exp2(ta * k + k - kmax)
        out[k] = np.sum(lower) + np.sum(upper) + plateau
    return out


def rhs_inviscid(state: DyadicState) -> np.ndarray:
    """Right-hand side of the inviscid system; component 0 is exactly 0."""
    return _rhs_inviscid_array(state.a)


def _rhs_inviscid_array(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The transport term at ``a``, written into ``out`` (a new array if None)."""
    if out is None:
        out = np.empty(a.size)
    out[0] = 0.0
    d = np.subtract(a[1:], a[:-1], out=out[1:])
    np.square(d, out=d)
    scale = _transport_scale(a.size)
    if scale is None:
        # -d**2 * 2**k as an exact scaling by 2**k: a zero d stays -0.0 also where
        # 2**k is not a finite double (k >= 1024), instead of 0 * inf = NaN
        np.ldexp(np.negative(d, out=d), _transport_exponents(a.size), out=d)
    else:
        np.multiply(d, scale, out=d)  # the same exact scaling, by a finite -2**k
    return out


@functools.lru_cache(maxsize=64)
def _transport_exponents(size: int) -> np.ndarray:
    """Read-only exponents k = 1 .. size - 1 of the transport scale ``2**k``.

    They also scale the blocks of :func:`_tail_sums`.
    """
    k = np.arange(1, size)
    k.flags.writeable = False
    return k


@functools.lru_cache(maxsize=64)
def _transport_scale(size: int) -> np.ndarray | None:
    """Read-only ``-2**k`` for k = 1 .. size - 1; None when one is not finite."""
    if size > 1024:
        return None
    scale = -np.ldexp(1.0, _transport_exponents(size))
    scale.flags.writeable = False
    return scale


def rhs_full(params: ModelParams, state: DyadicState) -> np.ndarray:
    """Right-hand side of the dissipative system.

    Unlike the inviscid case, component 0 evolves: ``a_0' = -(L a)_0``.
    Requires ``alpha > 0``; use :func:`rhs_inviscid` for the inviscid model.
    """
    if params.alpha <= 0.0:
        raise DomainError("rhs_full requires alpha > 0; use rhs_inviscid at alpha = 0")
    a = _check_state(params, state)
    return _rhs_inviscid_array(a) - _dissipation_array(a, params.alpha)


@functools.lru_cache(maxsize=64)
def _xs_weights(size: int, s: float) -> np.ndarray:
    """Read-only ``2**(s*k)`` for k = 1 .. size - 1; inf where it overflows.

    The one weight table of the model: the slope scale (``s = 1``), the
    X^s norm, the operator weights ``2**(2*alpha*k)`` and every ``2**(c*k)``
    weight of the analysis layer.
    """
    with np.errstate(over="ignore"):
        w = np.exp2(s * np.arange(1, size, dtype=float))
    w.flags.writeable = False
    return w


def xs_norm(state: DyadicState, s: float) -> float:
    """Norm ``sup_k |a_k| + sup_{k>=1} |a_k - a_{k-1}| * 2**(s*k)``."""
    _check_norm_s(s)
    return float(_xs_norms(state.a, np.diff(state.a), s))


def _xs_norms(a: np.ndarray, d: np.ndarray, s: float):
    """X^s norms of one state or of each row of a stacked block, given ``d = diff(a)``.

    Where a weight ``2**(s*k)`` overflows, ``|d| * 2**(s*k)`` is only formed
    where ``d != 0``, so 0 * inf counts as 0; where all are finite, ``|±0|``
    times a weight is +0.0 as it is.  A norm past the float range is inf,
    with no overflow warning.
    """
    w = _xs_weights(a.shape[-1], s)
    with np.errstate(over="ignore"):
        if w[-1] < math.inf:
            wd = np.abs(d)
            wd *= w
        else:
            wd = np.multiply(np.abs(d), w, out=np.zeros(d.shape), where=d != 0.0)
        return np.maximum.reduce(np.abs(a), axis=-1) + np.maximum.reduce(wd, axis=-1)


def slopes(state: DyadicState) -> np.ndarray:
    """Slope variables ``b_k = (a_k - a_{k-1}) * 2**k`` with ``b_0 = 0``."""
    return _slopes_array(state.a)


def _slopes_array(a: np.ndarray) -> np.ndarray:
    """Slopes of one state, or of each row of a stacked block, along the last axis.

    ``d * 2**k`` is only formed where ``d = a_k - a_{k-1}`` is non-zero; elsewhere
    ``b_k`` keeps the signed zero of ``d``, also where the weight overflows (k >= 1024).
    """
    b = np.zeros(a.shape)
    d = b[..., 1:]
    np.subtract(a[..., 1:], a[..., :-1], out=d)
    np.multiply(d, _xs_weights(a.shape[-1], 1.0), out=d, where=d != 0.0)
    return b


def weighted_slopes(state: DyadicState, s: float) -> np.ndarray:
    """Weighted slopes ``b_{k,s} = (a_k - a_{k-1}) * 2**(s*k)`` with ``b_{0,s} = 0``.

    ``b_{k,s} = b_k * 2**((s-1)*k)``; an entry with ``a_k = a_{k-1}`` is 0
    also where the weight overflows.
    """
    _check_norm_s(s)
    d = np.diff(state.a)
    bs = np.zeros(state.a.size)
    with np.errstate(over="ignore"):
        np.multiply(d, _xs_weights(state.a.size, s), out=bs[1:], where=d != 0.0)
    return bs


def dissipation_limit(params: ModelParams, state: DyadicState) -> float:
    """Limit value ``(L a)_inf = sum_{n=0}^{K} (a_K - a_n) * 2**(2*alpha*n)``.

    Under the plateau tail ``a_inf = a_K``, and the operator is constant
    equal to this value for every index beyond the truncation.
    """
    a = _check_state(params, state)
    narr = np.arange(a.size, dtype=float)
    terms = (a[-1] - a) * np.exp2(2.0 * params.alpha * narr)
    return math.fsum(terms.tolist())


def telescoped_sum(params: ModelParams, state: DyadicState) -> float:
    """Telescoped operator sum ``sum_k (L a)_k 2**-k`` including the exact tail.

    For plateau-extended states every operator entry beyond K equals
    :func:`dissipation_limit`, so the infinite series has the closed-form
    remainder ``S * 2**-K``.  The result is 0 up to roundoff,
    ``|result| <= 1e-10 * (1 + ||a||_{X^1})``, for every state.
    """
    # The defining double sum is used here (not the fast kernel) so the
    # identity check stays independent of the production evaluation path.
    op = dissipation_direct(params, state)
    weights = np.exp2(-np.arange(op.size, dtype=float))
    partial = (op * weights).tolist()
    tail = dissipation_limit(params, state) * 2.0 ** -float(params.trunc_k)
    return math.fsum(partial + [tail])


def dissipation_matrix(params: ModelParams) -> np.ndarray:
    """Dense matrix M with ``M @ a == dissipation(params, a)``.

    The operator is linear; integrators use this matrix form for the
    semigroup and implicit-explicit splitting.  Row sums vanish (constants
    are in the kernel), so ``-M`` generates a Markov semigroup.
    """
    kmax = params.trunc_k
    w, p = _operator_weights(kmax + 1, params.alpha)
    karr = np.arange(kmax + 1)
    # -w_k 2**(k-n) right of the diagonal, an exact power-of-two scaling whose
    # exponent is capped at 0 so nothing overflows; then -w_n left of it
    m = np.ldexp(-w[:, None], np.minimum(karr[:, None] - karr, 0))
    np.copyto(m, -w, where=np.tri(kmax + 1, k=-1, dtype=bool))
    # the plateau tail: -w_k 2**(k-K) on a_K, and its sum on the diagonal
    m[:-1, -1] -= np.ldexp(w[:-1], karr[:-1] - kmax)
    diag = p + w
    diag[-1] = p[-1]
    np.fill_diagonal(m, diag)
    return m
