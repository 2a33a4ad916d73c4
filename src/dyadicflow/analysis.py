"""Invariant checks and blow-up diagnostics.

Every preservation property the model guarantees for admissible data is
implemented here as a mechanical check returning an :class:`InvariantReport`
with a signed worst-case margin (negative = violation).  State-level
functionals (slope ratios, the blow-up functional J, Hölder seminorms,
the good/bad index decomposition) live here too.

Trajectory-level checks take a :class:`~dyadicflow.integrate.Trajectory`:
its ``times`` (n,), ``states`` (n, K+1) and ``diag`` columns.  They read the
states in blocks of at most :data:`BLOCK_ROWS` rows, views of ``states``,
and make one array pass per block (:func:`_row_blocks`); checks on
consecutive pairs overlap the blocks by one row.  Results equal a
sample-by-sample loop bitwise, ties included: the first sample, check and
index wins.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from dyadicflow.model import (
    DomainError,
    DyadicState,
    InvalidInputError,
    _slopes_array,
    _xs_weights,
    default_goodbad_threshold,
)

logger = logging.getLogger(__name__)

SQRT2 = math.sqrt(2.0)

#: Rows per block of the trajectory passes.  On 5,001 samples of
#: K = 20, whole-trajectory temporaries raise the tracemalloc peak of the
#: four inviscid checks to 6.0 MB; blocks of 512 rows peak at 0.95 MB and
#: run as fast.
BLOCK_ROWS = 512

#: A slope ratio ``b_k / b_{k-1}`` is skipped when its denominator is at or
#: below this fraction of the largest slope of the same state.
RATIO_FLOOR = 1e-14


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


@dataclass(frozen=True, eq=False)
class BlowupDiagnostics:
    """Blow-up series of a trajectory as ``(n,)`` columns (its own arrays at its delta)."""

    delta: float
    times: np.ndarray
    j_value: np.ndarray
    front_index: np.ndarray
    riccati_t: Optional[float]
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


def slope_ratio_report(state: DyadicState) -> SlopeRatioReport:
    """Max of ``b_k / b_{k-1}`` over k >= 2, skipping negligible denominators."""
    ratios, kept = _ratio_table(_slopes_array(state.a))
    skipped = kept.size - int(np.count_nonzero(kept))
    if skipped == kept.size:
        return SlopeRatioReport(max_ratio=None, argmax=None, skipped=skipped)
    i = int(ratios.argmax())  # the first maximum wins ties
    return SlopeRatioReport(max_ratio=float(ratios[i]), argmax=i + 2, skipped=skipped)


def _ratio_table(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ratios ``b_k / b_{k-1}`` for k >= 2 along the last axis, and the kept mask.

    A denominator at or below :data:`RATIO_FLOOR` times the largest slope of
    its row is skipped; its ratio reads -inf.
    """
    mag = np.abs(b)
    kept = mag[..., 1:-1] > RATIO_FLOOR * mag.max(axis=-1, keepdims=True)
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
    return np.max(b[..., 1:] * _xs_weights(b.shape[-1], beta - 1.0), axis=-1)


def j_functional(state: DyadicState, delta: float) -> float:
    """Blow-up functional ``J = sum_{k>=1} (a_K - a_k) * 2**(k*delta)``.

    ``a_K`` stands in for the limit value under the plateau convention.
    Non-monotone input is reported with a warning, not rejected.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    a = state.a
    if a.size > 1 and float(np.min(np.diff(a))) < -1e-12 * (1.0 + np.max(np.abs(a))):
        logger.warning("j_functional evaluated on a non-monotone state at t=%g", state.t)
    return _j_values(a[None, :], delta)[0]


def _j_values(a: np.ndarray, delta: float) -> list[float]:
    """J of each row of a stacked block, each summed exactly."""
    return _row_fsums((a[:, -1:] - a[:, 1:]) * _xs_weights(a.shape[1], delta))


def _row_fsums(terms: np.ndarray) -> list[float]:
    """The exact sum (``math.fsum``) of each row of a 2-d block."""
    return [math.fsum(row) for row in terms.tolist()]


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
    weight = _xs_weights(a.size, delta + 1.0)
    good_mask = d >= c * deficit
    good = tuple(int(k) for k in np.nonzero(good_mask)[0] + 1)
    bad = tuple(int(k) for k in np.nonzero(~good_mask)[0] + 1)
    lhs = math.fsum((d * d * weight).tolist())
    rhs = math.fsum((deficit * deficit * weight).tolist())
    ratio = lhs / rhs if rhs > 0.0 else math.inf
    return GoodBadDecomposition(
        c=float(c), good_indices=good, bad_indices=bad, lhs=lhs, rhs=rhs, ratio=ratio
    )


def _growth_run(js: np.ndarray) -> tuple[int, int]:
    """``(start, stop)`` of the strictly increasing run ending at the first maximum."""
    stop = int(np.argmax(js))
    fails = np.concatenate([[True], ~(js[:stop] < js[1 : stop + 1])])
    return int(np.flatnonzero(fails)[-1]), stop


def riccati_fit(times: np.ndarray, j_value: np.ndarray) -> Optional[float]:
    """Extrapolate a blow-up time from a J(t) series by fitting 1/J against t.

    Uses the trailing 35% (at least 3 points) of the strictly increasing run
    of positive J ending at the series maximum.  Returns the root of the
    fitted line (where 1/J hits 0) when the slope is negative beyond the fit
    noise and lies ahead of the data, else None.
    """
    pos = j_value > 0.0
    t, j = times[pos], j_value[pos]
    if len(j) < 3:
        return None
    start, stop = _growth_run(j)
    if stop - start < 2:
        return None
    lo = stop + 1 - max(3, int(math.ceil(0.35 * (stop + 1 - start))))
    t, y = t[lo : stop + 1], 1.0 / j[lo : stop + 1]
    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    if sxx == 0.0:
        return None
    slope = float(np.sum((t - tbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * tbar)
    resid = y - (intercept + slope * t)
    dof = max(len(t) - 2, 1)
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    if slope >= 0.0 or abs(slope) <= 3.0 * se:
        return None
    root = -intercept / slope
    if root <= t[-1]:
        return None
    return root


# ---------------------------------------------------------------------------
# trajectory-level checks


def _row_blocks(a: np.ndarray, overlap: int = 0):
    """Yield ``(lo, a[lo:hi])``: views of consecutive row ranges of a 2-d array.

    Each block adds up to :data:`BLOCK_ROWS` new rows; every block after the
    first also repeats the last ``overlap`` rows of the one before, so a
    pass over consecutive pairs (``overlap=1``) sees each pair once.
    """
    for start in range(0, len(a), BLOCK_ROWS):
        lo = max(start - overlap, 0)
        yield lo, a[lo : start + BLOCK_ROWS]


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
    loc = (float(traj.times[0]), None)
    for lo, a in _row_blocks(traj.states):
        candidates = np.concatenate([a[:, :1], np.diff(a, axis=1)], axis=1)
        hit = _first_min(candidates, worst)
        if hit is not None:
            worst = float(candidates[hit])
            loc = (float(traj.times[lo + hit[0]]), int(hit[1]))
    return InvariantReport.from_margin("monotone_nonneg", worst, loc, tolerance)


def check_max_principle(traj, tolerance: float = 1e-8) -> InvariantReport:
    """Maximum principle along a trajectory.

    Dissipative runs: ``sup_k a_k`` non-increasing and ``a_0`` non-decreasing.
    Inviscid runs: ``sup_k a_k`` constant and ``a_0`` identically zero.
    """
    sups, a0s, ts = traj.diag.sup_a, traj.diag.a0, traj.times
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


def _split_margins(b: np.ndarray) -> np.ndarray:
    """Margins of the front structure for every split index K' = 1..K.

    The structure at split K' demands strictly decreasing slopes beyond K'
    and the sqrt(2) ratio bound up to K'.  Entry i holds the worst slack for
    split K' = i + 1, along the last axis of ``b`` (one slope vector or a
    block of them, with K >= 2).
    """
    dec = b[..., 1:-1] - b[..., 2:]                  # b_{k-1} - b_k at k = 2..K
    up = SQRT2 * b[..., 1:-1] - b[..., 2:]           # sqrt(2) b_{k-1} - b_k
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
    b0 = _slopes_array(traj.states[0])
    k0 = int(np.argmax(b0[1:])) + 1
    worst = math.inf
    loc = (float(traj.times[0]), None)
    prev_split = 0  # no split yet: every split is at least k0 >= 1
    for lo, a in _row_blocks(traj.states):
        eligible = _split_margins(_slopes_array(a))[:, k0 - 1 :]
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
            t = float(traj.times[lo + row])
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
    loc = (float(traj.times[0]), None)
    n = traj.states.shape[1]
    # the index k of each column of _ordering_margins
    karr = np.concatenate([np.arange(3, n), np.arange(2, n), np.arange(3, n)])
    for lo, a in _row_blocks(traj.states, overlap=1):
        if len(a) < 2 or n < 3:
            continue
        b = _slopes_array(a)
        candidates = _ordering_margins(b[:-1], b[1:], tolerance)  # row i: samples lo + i, + 1
        hit = _first_min(candidates, worst)
        if hit is not None:
            worst = float(candidates[hit])
            loc = (float(traj.times[lo + hit[0] + 1]), int(karr[hit[1]]))
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


def fit_riccati_constants(traj) -> tuple[float, float]:
    """Fit (C1, C2) so that ``dJ/dt >= C1 J**2 - C2 (1 + sup|a|)`` on the data.

    J is the trajectory's own column, at ``traj.delta``.  C1 comes from a
    least-squares regression of the finite-difference dJ/dt against J**2
    over the growth window (the strictly increasing run of J ending at its
    maximum; truncated runs saturate once the cascade hits the cutoff and
    the flat region would wash the coefficient out).  C2 is then the
    smallest non-negative constant making the inequality hold at every
    interior sample of the whole run.  Both are empirical fits.
    """
    j, t = traj.diag.j_value, traj.times
    if len(t) < 3:
        raise DomainError("need at least 3 samples to fit Riccati constants")
    fd = (j[2:] - j[:-2]) / (t[2:] - t[:-2])
    x = (j**2)[1:-1]

    start, stop = _growth_run(j)
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
    sup_a = max(float(np.abs(a).max()) for _, a in _row_blocks(traj.states))
    c2 = max(0.0, float(np.max(c1 * x - fd))) / (1.0 + sup_a)
    return c1, c2


def riccati_inequality_check(traj) -> InvariantReport:
    """Differential identity / inequality for the blow-up functional J.

    J is the trajectory's own column, at ``traj.delta``.  Inviscid runs:
    verifies the exact identity ``dJ/dt = sum_k b_k**2 2**(k(delta-1))``
    sample by sample with a centered finite difference; the tolerance is the
    sampling cadence (the median sample spacing).  Dissipative runs: fits
    (C1, C2) and asserts C1 > 0, reporting the fitted constants via the log.
    """
    delta, j, t = traj.delta, traj.diag.j_value, traj.times
    if traj.params.alpha > 0.0:
        c1, c2 = fit_riccati_constants(traj)
        logger.info("riccati inequality fit: C1=%.6g C2=%.6g (delta=%g)", c1, c2, delta)
        return InvariantReport.from_margin(
            "riccati_inequality_dissipative", c1, (float(t[-1]), None), 0.0
        )
    if len(t) < 3:
        raise DomainError("need at least 3 samples for the identity check")
    cadence = float(np.median(np.diff(t)))
    weight = _xs_weights(traj.states.shape[1], delta - 1.0)
    rhs = np.empty(len(t))
    for lo, a in _row_blocks(traj.states):
        rhs[lo : lo + len(a)] = _row_fsums(_slopes_array(a)[:, 1:] ** 2 * weight)
    rhs = rhs[1:-1]
    fd = (j[2:] - j[:-2]) / (t[2:] - t[:-2])
    resid = np.abs(fd - rhs) / (1.0 + np.abs(rhs))
    i = int(np.argmax(resid))  # the first maximum wins ties
    return InvariantReport.from_margin(
        "riccati_identity", -resid[i], (float(t[i + 1]), None), cadence
    )


def blowup_diagnostics(traj) -> BlowupDiagnostics:
    """Collect blow-up series (J, fitted T, front index, escape time).

    The series are the trajectory's own columns, J at ``traj.delta``; a J at
    another delta comes from integrating at that delta.
    """
    return BlowupDiagnostics(
        delta=traj.delta,
        times=traj.times,
        j_value=traj.diag.j_value,
        front_index=traj.diag.front_index,
        riccati_t=riccati_fit(traj.times, traj.diag.j_value),
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
