"""Invariant checks and blow-up diagnostics.

Every preservation property the model guarantees for admissible data is
implemented here as a mechanical check returning an :class:`InvariantReport`
with a signed worst-case margin (negative = violation).  State-level
functionals (slope ratios, the blow-up functional J, Hölder seminorms,
the good/bad index decomposition) live here too.

Trajectory-level checks accept any object with the :class:`Trajectory`
shape from :mod:`dyadicflow.integrate` (``params``, ``delta``, ``samples``
with ``t`` / ``state`` / ``diag`` fields).  They read the states as stacked
``(rows, K+1)`` blocks of at most :data:`BLOCK_ROWS` samples and make one
array pass per block (:func:`_row_blocks`); checks on consecutive pairs
overlap the blocks by one row.  Results equal a sample-by-sample loop
bitwise, ties included: the first sample, check and index wins.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from dyadicflow.model import (
    DomainError,
    DyadicState,
    InvalidInputError,
    _slopes_array,
    default_goodbad_threshold,
)

if TYPE_CHECKING:  # pragma: no cover
    from dyadicflow.integrate import Trajectory

logger = logging.getLogger(__name__)

SQRT2 = math.sqrt(2.0)

#: Samples per stacked block of the trajectory passes.  On 5,001 samples of
#: K = 20, whole-trajectory arrays raise the tracemalloc peak of the four
#: inviscid checks to 6.9 MB; blocks of 512 rows peak at 1.1 MB and run as
#: fast.
BLOCK_ROWS = 512


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of one mechanical check.

    ``worst_margin`` is signed slack: the smallest amount by which the
    checked inequality held (negative when it was violated).  ``passed``
    is equivalent to ``worst_margin >= -tolerance``.
    """

    name: str
    passed: bool
    worst_margin: float
    worst_location: tuple[float, Optional[int]]
    tolerance: float

    @classmethod
    def from_margin(cls, name, margin, location, tolerance) -> "InvariantReport":
        return cls(
            name=name,
            passed=bool(margin >= -tolerance),
            worst_margin=float(margin),
            worst_location=location,
            tolerance=float(tolerance),
        )


@dataclass(frozen=True)
class SlopeRatioReport:
    """Largest consecutive slope ratio ``b_k / b_{k-1}`` over k >= 2.

    Indices whose denominator is negligible relative to the largest slope
    are skipped and counted; ``max_ratio`` is None when no ratio is defined.
    """

    max_ratio: Optional[float]
    argmax: Optional[int]
    skipped: int


@dataclass(frozen=True)
class GoodBadDecomposition:
    """Partition of indices by increment dominance over the remaining deficit.

    Index k is "good" when ``a_k - a_{k-1} >= c * (a_inf - a_k)`` with
    ``a_inf = a_K`` under the plateau convention.  ``lhs``/``rhs`` are the
    squared-increment and squared-deficit sums weighted by ``2**(k(delta+1))``;
    ``ratio = lhs / rhs`` with an infinity sentinel when ``rhs == 0``.
    """

    c: float
    good_indices: tuple[int, ...]
    bad_indices: tuple[int, ...]
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class BlowupDiagnostics:
    """Blow-up related series extracted from a trajectory."""

    delta: float
    j_series: tuple[tuple[float, float], ...]
    riccati_t: Optional[float]
    front_series: tuple[tuple[float, int], ...]
    escape_time: Optional[float]


# ---------------------------------------------------------------------------
# state-level functionals


def check_monotone_nonneg(state: DyadicState, tolerance: float = 1e-10) -> InvariantReport:
    """Monotonicity and positivity: ``a_0 >= 0`` and ``a_k >= a_{k-1}``."""
    a = state.a
    d = np.diff(a)
    candidates = np.concatenate([[a[0]], d])
    worst = int(np.argmin(candidates))
    return InvariantReport.from_margin(
        "monotone_nonneg",
        float(candidates[worst]),
        (state.t, worst),
        tolerance,
    )


def slope_ratio_report(state: DyadicState, rel_floor: float = 1e-14) -> SlopeRatioReport:
    """Max of ``b_k / b_{k-1}`` over k >= 2, skipping negligible denominators."""
    return _slope_ratios(_slopes_array(state.a), rel_floor)


def _slope_ratios(b: np.ndarray, rel_floor: float = 1e-14) -> SlopeRatioReport:
    ratios, kept = _ratio_table(b, rel_floor)
    skipped = kept.size - int(np.count_nonzero(kept))
    if skipped == kept.size:
        return SlopeRatioReport(max_ratio=None, argmax=None, skipped=skipped)
    i = int(ratios.argmax())  # the first maximum wins ties
    return SlopeRatioReport(max_ratio=float(ratios[i]), argmax=i + 2, skipped=skipped)


def _ratio_table(b: np.ndarray, rel_floor: float = 1e-14) -> tuple[np.ndarray, np.ndarray]:
    """Ratios ``b_k / b_{k-1}`` for k >= 2 along the last axis, and the kept mask.

    A denominator at or below ``rel_floor`` times the largest slope of its
    row is skipped; its ratio reads -inf.
    """
    mag = np.abs(b)
    kept = mag[..., 1:-1] > rel_floor * mag.max(axis=-1, keepdims=True)
    ratios = np.divide(b[..., 2:], b[..., 1:-1], out=np.full(kept.shape, -np.inf), where=kept)
    return ratios, kept


def front_index(state: DyadicState) -> int:
    """Smallest index attaining ``max_k b_k`` (the front position)."""
    return int(_front_index(_slopes_array(state.a)))


def _front_index(b: np.ndarray):
    """Front index of the slopes along the last axis (one state or a block)."""
    return np.argmax(b[..., 1:], axis=-1) + 1


def holder_seminorm(state: DyadicState, beta: float) -> float:
    """Weighted slope supremum ``sup_k b_k * 2**(k(beta-1))``.

    ``beta = 1/2`` is the a-priori Hölder-1/2 diagnostic.
    """
    if not (0.0 < beta <= 1.0):
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    return float(_holder_seminorm(_slopes_array(state.a), beta))


def _holder_seminorm(b: np.ndarray, beta: float):
    """Weighted slope supremum along the last axis (one state or a block)."""
    karr = np.arange(1, b.shape[-1], dtype=float)
    return np.max(b[..., 1:] * np.exp2((beta - 1.0) * karr), axis=-1)


def j_functional(state: DyadicState, delta: float, warn: bool = True) -> float:
    """Blow-up functional ``J = sum_{k>=1} (a_K - a_k) * 2**(k*delta)``.

    ``a_K`` stands in for the limit value under the plateau convention.
    Non-monotone input is reported with a warning, not rejected.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    a = state.a
    if warn and a.size > 1 and float(np.min(np.diff(a))) < -1e-12 * (1.0 + np.max(np.abs(a))):
        logger.warning("j_functional evaluated on a non-monotone state at t=%g", state.t)
    return _j_values(a[None, :], delta)[0]


def _j_values(a: np.ndarray, delta: float) -> list[float]:
    """J of each row of a stacked block, each summed exactly (``math.fsum``)."""
    karr = np.arange(1, a.shape[1], dtype=float)
    terms = (a[:, -1:] - a[:, 1:]) * np.exp2(delta * karr)
    return [math.fsum(row.tolist()) for row in terms]


def goodbad_lower_constant(delta: float, c: float) -> float:
    """Conservative lower-bound candidate ``min(c**2, 1 - (1+c)**2 * 2**-(delta+1))``.

    Validated against brute-force enumeration, never asserted to be sharp.
    """
    return min(c * c, 1.0 - (1.0 + c) ** 2 * 2.0 ** -(delta + 1.0))


def good_bad(state: DyadicState, delta: float, c: Optional[float] = None) -> GoodBadDecomposition:
    """Good/bad index decomposition driving the lower bound on dJ/dt."""
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if c is None:
        c = default_goodbad_threshold(delta)
    if not ((c + 1.0) ** -2 * 2.0 ** (delta + 1.0) > 1.0):
        raise DomainError(
            f"threshold c={c} violates (c+1)**-2 * 2**(delta+1) > 1"
        )
    a = state.a
    d = np.diff(a)
    if a.size > 1 and float(np.min(d)) < -1e-9 * (1.0 + np.max(np.abs(a))):
        raise InvalidInputError("good_bad requires a monotone state")

    deficit = a[-1] - a[1:]
    karr = np.arange(1, a.size, dtype=float)
    weight = np.exp2((delta + 1.0) * karr)
    good_mask = d >= c * deficit
    good = tuple(int(k) for k in np.nonzero(good_mask)[0] + 1)
    bad = tuple(int(k) for k in np.nonzero(~good_mask)[0] + 1)
    lhs = math.fsum((d * d * weight).tolist())
    rhs = math.fsum((deficit * deficit * weight).tolist())
    ratio = lhs / rhs if rhs > 0.0 else math.inf
    return GoodBadDecomposition(
        c=float(c), good_indices=good, bad_indices=bad, lhs=lhs, rhs=rhs, ratio=ratio
    )


def riccati_fit(
    j_series,
    window_frac: float = 0.35,
    min_points: int = 3,
) -> Optional[float]:
    """Extrapolate a blow-up time from a J(t) series by fitting 1/J against t.

    Uses the trailing part of the strictly increasing run ending at the
    series maximum.  Returns the root of the fitted line (where 1/J hits 0)
    when the slope is negative beyond the fit noise and lies ahead of the
    data, else None.
    """
    pts = [(float(t), float(j)) for t, j in j_series if j > 0.0]
    if len(pts) < min_points:
        return None
    js = [j for _, j in pts]
    stop = int(np.argmax(js))
    start = stop
    while start > 0 and js[start - 1] < js[start]:
        start -= 1
    run = pts[start : stop + 1]
    if len(run) < min_points:
        return None
    w = max(min_points, int(math.ceil(window_frac * len(run))))
    window = run[-w:]

    t = np.array([p[0] for p in window])
    y = 1.0 / np.array([p[1] for p in window])
    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    if sxx == 0.0:
        return None
    slope = float(np.sum((t - tbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * tbar)
    resid = y - (intercept + slope * t)
    dof = max(len(window) - 2, 1)
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    if slope >= 0.0 or abs(slope) <= 3.0 * se:
        return None
    root = -intercept / slope
    if root <= t[-1]:
        return None
    return root


# ---------------------------------------------------------------------------
# trajectory-level checks


def _row_blocks(rows, overlap: int = 0):
    """Yield ``(lo, block)``: the 1-d arrays ``rows[lo:hi]`` stacked into one array.

    Each block adds up to :data:`BLOCK_ROWS` new rows; every block after the
    first also repeats the last ``overlap`` rows of the one before, so a
    pass over consecutive pairs (``overlap=1``) sees each pair once.
    """
    for start in range(0, len(rows), BLOCK_ROWS):
        lo = max(start - overlap, 0)
        yield lo, np.stack(rows[lo : start + BLOCK_ROWS])


def _state_blocks(traj, overlap: int = 0):
    return _row_blocks([s.state.a for s in traj.samples], overlap)


def _first_min(values: np.ndarray, worst: float) -> Optional[tuple]:
    """Index of the first minimum of ``values`` if it lies below ``worst``, else None.

    With ``worst`` carried from block to block this is a loop in C order
    that updates on strict improvement only, so ties keep the first location.
    """
    i = np.unravel_index(int(np.argmin(values)), values.shape)
    return i if values[i] < worst else None


def check_monotone_traj(traj, tolerance: float = 1e-10) -> InvariantReport:
    """Monotonicity/positivity preservation over every sample."""
    worst = math.inf
    loc = (traj.samples[0].t, None)
    for lo, a in _state_blocks(traj):
        candidates = np.concatenate([a[:, :1], np.diff(a, axis=1)], axis=1)
        hit = _first_min(candidates, worst)
        if hit is not None:
            worst = float(candidates[hit])
            loc = (traj.samples[lo + hit[0]].state.t, int(hit[1]))
    return InvariantReport.from_margin("monotone_nonneg", worst, loc, tolerance)


def check_max_principle(traj, tolerance: float = 1e-8) -> InvariantReport:
    """Maximum principle along a trajectory.

    Dissipative runs: ``sup_k a_k`` non-increasing and ``a_0`` non-decreasing.
    Inviscid runs: ``sup_k a_k`` constant and ``a_0`` identically zero.
    """
    n = len(traj.samples)
    sups, a0s = np.empty(n), np.empty(n)
    for lo, a in _state_blocks(traj):
        sups[lo : lo + len(a)] = a.max(axis=1)
        a0s[lo : lo + len(a)] = a[:, 0]
    ts = np.array([s.t for s in traj.samples])
    if traj.params.alpha > 0.0:
        if len(sups) < 2:
            return InvariantReport.from_margin("max_principle", 0.0, (ts[0], None), tolerance)
        sup_margins = sups[:-1] - sups[1:]
        a0_margins = a0s[1:] - a0s[:-1]
        margins = np.minimum(sup_margins, a0_margins)
        worst = int(np.argmin(margins))
        return InvariantReport.from_margin(
            "max_principle", float(margins[worst]), (float(ts[worst + 1]), None), tolerance
        )
    dev = -np.maximum(np.abs(sups - sups[0]), np.abs(a0s))
    worst = int(np.argmin(dev))
    return InvariantReport.from_margin(
        "max_principle", float(dev[worst]), (float(ts[worst]), None), tolerance
    )


def _split_margins(b: np.ndarray, require_increasing_prefix: bool) -> np.ndarray:
    """Margins of the front structure for every split index K' = 1..K.

    The structure at split K' demands strictly decreasing slopes beyond K'
    and the sqrt(2) ratio bound up to K' (optionally also increasing slopes
    up to K').  Entry i holds the worst slack for split K' = i + 1, along
    the last axis of ``b`` (one slope vector or a block of them).
    """
    kmax = b.shape[-1] - 1
    if kmax < 2:
        return np.full(b.shape[:-1] + (max(kmax, 1),), math.inf)
    dec = b[..., 1:-1] - b[..., 2:]                  # b_{k-1} - b_k at k = 2..K
    up = SQRT2 * b[..., 1:-1] - b[..., 2:]           # sqrt(2) b_{k-1} - b_k
    if require_increasing_prefix:
        up = np.minimum(up, b[..., 2:] - b[..., 1:-1])
    inf = np.full(b.shape[:-1] + (1,), math.inf)
    suffix = np.concatenate(
        [np.minimum.accumulate(dec[..., ::-1], axis=-1)[..., ::-1], inf], axis=-1
    )
    prefix = np.concatenate([inf, np.minimum.accumulate(up, axis=-1)], axis=-1)
    return np.minimum(suffix, prefix)


def check_sqrt2_structure(traj, tolerance: float = 1e-9) -> InvariantReport:
    """Front structure persistence for dissipative runs.

    Every sample must admit a split index K_t at or above the initial front
    K_0 with strictly decreasing slopes beyond K_t and the sqrt(2) ratio
    bound up to K_t; the largest admissible split must never move left.
    """
    b0 = _slopes_array(traj.samples[0].state.a)
    k0 = int(np.argmax(b0[1:])) + 1
    worst = math.inf
    loc = (traj.samples[0].t, None)
    prev_split = 0  # no split yet: every split is at least k0 >= 1
    for lo, a in _state_blocks(traj):
        eligible = _split_margins(_slopes_array(a), require_increasing_prefix=False)[:, k0 - 1 :]
        valid = eligible >= -tolerance
        has_split = valid.any(axis=1)
        split = k0 + eligible.shape[1] - 1 - np.argmax(valid[:, ::-1], axis=1)
        # the split of the last earlier sample that had one, across blocks too
        seen = np.concatenate([[prev_split], split[has_split]])
        before = seen[np.cumsum(has_split) - has_split]
        retreat = np.where(has_split & (split < before), split - before, math.inf)
        # per sample the margin comes before the retreat, as in the loop
        candidates = np.stack([eligible.max(axis=1), retreat], axis=1)
        hit = _first_min(candidates, worst)
        if hit is not None:
            row, col = hit
            worst = float(candidates[hit])
            t = traj.samples[lo + row].t
            loc = (t, None) if col == 0 else (t, int(split[row]))
        prev_split = int(seen[-1])
    return InvariantReport.from_margin("sqrt2_structure", worst, loc, tolerance)


def check_ordering_persistence_inviscid(traj, tolerance: float = 1e-9) -> InvariantReport:
    """Conditional ordering persistence for inviscid runs.

    Both slope orderings are persistence statements with hypotheses: a
    relation at index k (plain ordering in either direction, or the sqrt(2)
    ratio bound) may only break after the same relation at k-1 has broken.
    Each consecutive sample pair is checked: wherever the relation held at
    the earlier sample and its hypothesis held at both samples, it must
    still hold at the later one.  The sqrt(2) hypothesis at k = 2 is
    vacuous (it reads b_1 < sqrt(2) b_0 = 0), so that index is exempt from
    the ratio bound - the persistence argument only reaches k >= 3, and the
    ratio there genuinely drifts above sqrt(2) in inviscid runs.
    """
    if traj.params.alpha != 0.0:
        raise DomainError("ordering persistence check applies to inviscid runs")
    worst = math.inf
    loc = (traj.samples[0].t, None)
    n = traj.samples[0].state.a.size
    # the index k of each column of _ordering_margins
    karr = np.concatenate([np.arange(3, n), np.arange(2, n), np.arange(3, n)])
    for lo, a in _state_blocks(traj, overlap=1):
        if len(a) < 2 or n < 3:
            continue
        b = _slopes_array(a)
        candidates = _ordering_margins(b[:-1], b[1:], tolerance)  # row i: samples lo + i, + 1
        hit = _first_min(candidates, worst)
        if hit is not None:
            worst = float(candidates[hit])
            loc = (traj.samples[lo + hit[0] + 1].t, int(karr[hit[1]]))
    return InvariantReport.from_margin("ordering_inviscid", worst, loc, tolerance)


def _ordering_margins(prev: np.ndarray, cur: np.ndarray, tolerance: float) -> np.ndarray:
    """Margins of the persistence relations from slope rows ``prev`` to ``cur``.

    A relation that does not apply reads +inf.  The columns follow the
    checks, then k: the sqrt(2) bound at k = 3..K (its hypothesis is the
    bound at k-1), the increasing ordering at k = 2..K (its base
    b_1 > b_0 = 0 always holds) and the decreasing one at k = 3..K (its
    base hypothesis never holds).
    """
    n, floor = prev.shape[1], -tolerance
    out = np.full((len(cur), 3 * n - 8), math.inf)
    ratio, inc, dec = out[:, : n - 3], out[:, n - 3 : 2 * n - 5], out[:, 2 * n - 5 :]
    ok_prev = SQRT2 * prev[:, 1:-1] - prev[:, 2:] >= floor  # at k = 2..K
    gap = SQRT2 * cur[:, 1:-1] - cur[:, 2:]
    np.copyto(ratio, gap[:, 1:], where=ok_prev[:, 1:] & ok_prev[:, :-1] & (gap[:, :-1] >= floor))
    up_prev = prev[:, 2:] - prev[:, 1:-1] >= floor  # at k = 2..K
    up = cur[:, 2:] - cur[:, 1:-1]
    hyp = np.empty_like(up_prev)
    hyp[:, 0] = (prev[:, 1] >= floor) & (cur[:, 1] >= floor)
    hyp[:, 1:] = up_prev[:, :-1] & (up[:, :-1] >= floor)
    np.copyto(inc, up, where=up_prev & hyp)
    down_prev = prev[:, 1:-1] - prev[:, 2:] >= floor  # at k = 2..K
    down = cur[:, 1:-1] - cur[:, 2:]
    np.copyto(
        dec, down[:, 1:], where=down_prev[:, 1:] & down_prev[:, :-1] & (down[:, :-1] >= floor)
    )
    return out


def _j_series(traj, delta: Optional[float]) -> tuple[float, list[float], list[float]]:
    if delta is None or delta == traj.delta:
        delta = traj.delta
        js = [s.diag.j_value for s in traj.samples]
    else:
        js = [j for _, a in _state_blocks(traj) for j in _j_values(a, delta)]
    ts = [s.t for s in traj.samples]
    return delta, ts, js


def fit_riccati_constants(traj, delta: Optional[float] = None) -> tuple[float, float]:
    """Fit (C1, C2) so that ``dJ/dt >= C1 J**2 - C2 (1 + sup|a|)`` on the data.

    C1 comes from a least-squares regression of the finite-difference dJ/dt
    against J**2 over the growth window (the strictly increasing run of J
    ending at its maximum; truncated runs saturate once the cascade hits
    the cutoff and the flat region would wash the coefficient out).  C2 is
    then the smallest non-negative constant making the inequality hold at
    every interior sample of the whole run.  Both are empirical fits.
    """
    delta, ts, js = _j_series(traj, delta)
    if len(ts) < 3:
        raise DomainError("need at least 3 samples to fit Riccati constants")
    t = np.asarray(ts)
    j = np.asarray(js)
    fd = (j[2:] - j[:-2]) / (t[2:] - t[:-2])
    x = (j**2)[1:-1]

    stop = int(np.argmax(j))
    start = stop
    while start > 0 and j[start - 1] < j[start]:
        start -= 1
    # interior indices (offset by one against fd/x) inside the growth run,
    # cut where dJ/dt peaks: beyond that the truncation cap throttles the
    # cascade and the infinite-system inequality no longer informs the fit
    lo, hi = max(start - 1, 0), max(stop - 1, 0)
    if hi - lo >= 1:
        hi = lo + int(np.argmax(fd[lo:hi])) + 1
    xw, yw = (x[lo:hi], fd[lo:hi]) if hi - lo >= 3 else (x, fd)
    xbar, ybar = xw.mean(), yw.mean()
    sxx = float(np.sum((xw - xbar) ** 2))
    c1 = float(np.sum((xw - xbar) * (yw - ybar)) / sxx) if sxx > 0 else 0.0
    sup_a = max(float(np.abs(a).max()) for _, a in _state_blocks(traj))
    c2 = max(0.0, float(np.max(c1 * x - fd))) / (1.0 + sup_a)
    return c1, c2


def riccati_inequality_check(
    traj, delta: Optional[float] = None, tol_per_cadence: float = 1.0
) -> InvariantReport:
    """Differential identity / inequality for the blow-up functional J.

    Inviscid runs: verifies the exact identity
    ``dJ/dt = sum_k b_k**2 2**(k(delta-1))`` sample by sample with a
    centered finite difference; the tolerance scales linearly with the
    sampling cadence.  Dissipative runs: fits (C1, C2) and asserts C1 > 0,
    reporting the fitted constants via the log.
    """
    delta, ts, js = _j_series(traj, delta)
    if traj.params.alpha > 0.0:
        c1, c2 = fit_riccati_constants(traj, delta)
        logger.info("riccati inequality fit: C1=%.6g C2=%.6g (delta=%g)", c1, c2, delta)
        return InvariantReport.from_margin(
            "riccati_inequality_dissipative", c1, (ts[-1], None), 0.0
        )
    if len(ts) < 3:
        raise DomainError("need at least 3 samples for the identity check")
    t = np.asarray(ts)
    j = np.asarray(js)
    cadence = float(np.median(np.diff(t)))
    karr = np.arange(1, traj.samples[0].state.a.size, dtype=float)
    weight = np.exp2((delta - 1.0) * karr)
    rhs = np.empty(len(t))
    for lo, a in _state_blocks(traj):
        terms = _slopes_array(a)[:, 1:] ** 2 * weight
        rhs[lo : lo + len(a)] = [math.fsum(row.tolist()) for row in terms]
    rhs = rhs[1:-1]
    fd = (j[2:] - j[:-2]) / (t[2:] - t[:-2])
    resid = np.abs(fd - rhs) / (1.0 + np.abs(rhs))
    i = int(np.argmax(resid))  # the first maximum wins ties
    return InvariantReport.from_margin(
        "riccati_identity", -resid[i], (float(t[i + 1]), None), tol_per_cadence * cadence
    )


def blowup_diagnostics(traj, delta: Optional[float] = None) -> BlowupDiagnostics:
    """Collect blow-up series (J, fitted T, front index, escape time)."""
    delta, ts, js = _j_series(traj, delta)
    fronts = tuple((s.t, s.diag.front_index) for s in traj.samples)
    return BlowupDiagnostics(
        delta=delta,
        j_series=tuple(zip(ts, js)),
        riccati_t=riccati_fit(list(zip(ts, js))),
        front_series=fronts,
        escape_time=traj.escape_time,
    )


#: Named trajectory-level checks selectable from run configurations.
CHECKS: dict[str, Callable] = {
    "monotone_nonneg": check_monotone_traj,
    "max_principle": check_max_principle,
    "sqrt2_structure": check_sqrt2_structure,
    "ordering_inviscid": check_ordering_persistence_inviscid,
    "riccati_identity": riccati_inequality_check,
}


def run_checks(traj, names) -> list[InvariantReport]:
    """Run the named checks against a trajectory, in the given order."""
    reports = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check identifier: {name!r}")
        reports.append(CHECKS[name](traj))
    return reports
