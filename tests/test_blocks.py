"""Block-wise diagnostics and trajectory checks against sample-by-sample loops.

The records of a trajectory and the trajectory checks are computed from
stacked blocks of samples.  The loops below compute them one sample at a
time; they are the reference, and every result must match them bitwise
(compared through ``repr``, which tells -0.0 from 0.0 and numpy scalars
from Python numbers), whatever the block size.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dyadicflow import analysis
from dyadicflow.analysis import SQRT2, InvariantReport, run_checks
from dyadicflow.cli import inject_fault
from dyadicflow.integrate import (
    DiagnosticsRecord,
    Scheme,
    StepControls,
    Termination,
    Trajectory,
    TrajectorySample,
    _diagnostics,
    detect_escape,
    integrate,
)
from dyadicflow.model import DomainError, DyadicState, ModelParams, _xs_norm_array, _xs_norms
from dyadicflow.scenarios import gen_bump, gen_front

BLOCK_SIZES = [1, 7, analysis.BLOCK_ROWS, 10**6]

# ---------------------------------------------------------------------------
# sample-by-sample references


def _loop_slopes(a):
    b = np.empty(a.size)
    b[0] = 0.0
    b[1:] = np.diff(a) * np.exp2(np.arange(1, a.size, dtype=float))
    return b


def _loop_j_functional(a, delta):
    karr = np.arange(1, a.size, dtype=float)
    terms = (a[-1] - a[1:]) * np.exp2(delta * karr)
    return math.fsum(terms.tolist())


def _loop_diagnostics(state, norm_s, delta):
    a = state.a
    b = _loop_slopes(a)
    mag = np.abs(b)
    kept = mag[1:-1] > 1e-14 * mag.max()
    if not kept.any():
        max_ratio = math.nan
    else:
        ratios = np.divide(b[2:], b[1:-1], out=np.full(kept.size, -np.inf), where=kept)
        max_ratio = float(ratios[int(ratios.argmax())])
    with np.errstate(over="ignore"):
        xs = _xs_norm_array(a, norm_s)
    karr = np.arange(1, b.size, dtype=float)
    return DiagnosticsRecord(
        xs_norm=xs,
        sup_a=float(np.max(a)),
        a0=float(a[0]),
        j_value=_loop_j_functional(a, delta),
        max_ratio=max_ratio,
        front_index=int(np.argmax(b[1:])) + 1,
        holder_half=float(np.max(b[1:] * np.exp2(-0.5 * karr))),
    )


def _loop_monotone(traj, tolerance=1e-10):
    worst, loc = math.inf, (traj.samples[0].t, None)
    for s in traj.samples:
        a = s.state.a
        candidates = np.concatenate([[a[0]], np.diff(a)])
        k = int(np.argmin(candidates))
        if float(candidates[k]) < worst:
            worst, loc = float(candidates[k]), (s.state.t, k)
    return InvariantReport.from_margin("monotone_nonneg", worst, loc, tolerance)


def _loop_max_principle(traj, tolerance=1e-8):
    sups = np.array([float(np.max(s.state.a)) for s in traj.samples])
    a0s = np.array([float(s.state.a[0]) for s in traj.samples])
    ts = np.array([s.t for s in traj.samples])
    if traj.params.alpha > 0.0:
        if len(sups) < 2:
            return InvariantReport.from_margin("max_principle", 0.0, (ts[0], None), tolerance)
        margins = np.minimum(sups[:-1] - sups[1:], a0s[1:] - a0s[:-1])
        worst = int(np.argmin(margins))
        return InvariantReport.from_margin(
            "max_principle", float(margins[worst]), (float(ts[worst + 1]), None), tolerance
        )
    dev = -np.maximum(np.abs(sups - sups[0]), np.abs(a0s))
    worst = int(np.argmin(dev))
    return InvariantReport.from_margin(
        "max_principle", float(dev[worst]), (float(ts[worst]), None), tolerance
    )


def _loop_split_margins(b):
    kmax = b.size - 1
    if kmax < 2:
        return np.full(max(kmax, 1), math.inf)
    dec = b[1:-1] - b[2:]
    up = SQRT2 * b[1:-1] - b[2:]
    suffix = np.concatenate([np.minimum.accumulate(dec[::-1])[::-1], [math.inf]])
    prefix = np.concatenate([[math.inf], np.minimum.accumulate(up)])
    return np.minimum(suffix, prefix)


def _loop_sqrt2(traj, tolerance=1e-9):
    b0 = _loop_slopes(traj.samples[0].state.a)
    k0 = int(np.argmax(b0[1:])) + 1
    worst, loc, prev_split = math.inf, (traj.samples[0].t, None), None
    for s in traj.samples:
        eligible = _loop_split_margins(_loop_slopes(s.state.a))[k0 - 1 :]
        margin = float(np.max(eligible)) if eligible.size else math.inf
        if margin < worst:
            worst, loc = margin, (s.t, None)
        valid = np.nonzero(eligible >= -tolerance)[0]
        split = k0 + int(valid[-1]) if valid.size else None
        if split is not None and prev_split is not None and split < prev_split:
            retreat = float(split - prev_split)
            if retreat < worst:
                worst, loc = retreat, (s.t, split)
        if split is not None:
            prev_split = split
    return InvariantReport.from_margin("sqrt2_structure", worst, loc, tolerance)


def _loop_ordering(traj, tolerance=1e-9):
    if traj.params.alpha != 0.0:
        raise DomainError("ordering persistence check applies to inviscid runs")
    worst, loc, prev = math.inf, (traj.samples[0].t, None), None
    for s in traj.samples:
        b = _loop_slopes(s.state.a)
        if prev is not None and b.size >= 3:
            ok_prev = SQRT2 * prev[1:-1] - prev[2:] >= -tolerance
            cur_gap = SQRT2 * b[1:-1] - b[2:]
            ok_cur = cur_gap >= -tolerance
            checks = [(ok_prev[1:] & ok_prev[:-1] & ok_cur[:-1], cur_gap[1:], np.arange(3, b.size))]
            inc_prev = prev[2:] - prev[1:-1] >= -tolerance
            inc_hyp = np.concatenate(
                [[prev[1] >= -tolerance and b[1] >= -tolerance],
                 (prev[2:-1] - prev[1:-2] >= -tolerance) & (b[2:-1] - b[1:-2] >= -tolerance)]
            )
            checks.append((inc_prev & inc_hyp, b[2:] - b[1:-1], np.arange(2, b.size)))
            dec_prev = prev[1:-1] - prev[2:] >= -tolerance
            dec_hyp = (prev[1:-2] - prev[2:-1] >= -tolerance) & (b[1:-2] - b[2:-1] >= -tolerance)
            checks.append((dec_prev[1:] & dec_hyp, b[2:-1] - b[3:], np.arange(3, b.size)))
            for applicable, margin, karr in checks:
                if np.any(applicable):
                    vals = margin[applicable]
                    i = int(np.argmin(vals))
                    if vals[i] < worst:
                        worst, loc = float(vals[i]), (s.t, int(karr[applicable][i]))
        prev = b
    return InvariantReport.from_margin("ordering_inviscid", worst, loc, tolerance)


def _loop_j_series(traj, delta):
    return [_loop_j_functional(s.state.a, delta) for s in traj.samples]


def _loop_fit_riccati_constants(traj, delta):
    t = np.array([s.t for s in traj.samples])
    j = np.array(_loop_j_series(traj, delta))
    if len(t) < 3:
        raise DomainError("need at least 3 samples to fit Riccati constants")
    fd = (j[2:] - j[:-2]) / (t[2:] - t[:-2])
    x = (j**2)[1:-1]
    stop = int(np.argmax(j))
    start = stop
    while start > 0 and j[start - 1] < j[start]:
        start -= 1
    lo, hi = max(start - 1, 0), max(stop - 1, 0)
    if hi - lo >= 1:
        hi = lo + int(np.argmax(fd[lo:hi])) + 1
    xw, yw = (x[lo:hi], fd[lo:hi]) if hi - lo >= 3 else (x, fd)
    xbar, ybar = xw.mean(), yw.mean()
    sxx = float(np.sum((xw - xbar) ** 2))
    c1 = float(np.sum((xw - xbar) * (yw - ybar)) / sxx) if sxx > 0 else 0.0
    sup_a = max(float(np.max(np.abs(s.state.a))) for s in traj.samples)
    c2 = max(0.0, float(np.max(c1 * x - fd))) / (1.0 + sup_a)
    return c1, c2


def _loop_riccati_identity(traj, tol_per_cadence=1.0):
    delta = traj.delta
    if traj.params.alpha > 0.0:
        c1, _ = _loop_fit_riccati_constants(traj, delta)
        loc = (traj.samples[-1].t, None)
        return InvariantReport.from_margin("riccati_inequality_dissipative", c1, loc, 0.0)
    if len(traj.samples) < 3:
        raise DomainError("need at least 3 samples for the identity check")
    t = np.array([s.t for s in traj.samples])
    j = np.array([s.diag.j_value for s in traj.samples])
    cadence = float(np.median(np.diff(t)))
    worst, loc = -math.inf, (t[0], None)
    for i in range(1, len(t) - 1):
        fd = (j[i + 1] - j[i - 1]) / (t[i + 1] - t[i - 1])
        b = _loop_slopes(traj.samples[i].state.a)
        karr = np.arange(1, b.size, dtype=float)
        rhs = math.fsum((b[1:] ** 2 * np.exp2((delta - 1.0) * karr)).tolist())
        resid = abs(fd - rhs) / (1.0 + abs(rhs))
        if resid > worst:
            worst, loc = resid, (float(t[i]), None)
    return InvariantReport.from_margin("riccati_identity", -worst, loc, tol_per_cadence * cadence)


def _loop_detect_escape(traj, threshold, s):
    with np.errstate(over="ignore"):
        for sample in traj.samples:
            if _xs_norm_array(sample.state.a, s) > threshold:
                return sample.t
    return None


LOOP_CHECKS = {
    "monotone_nonneg": _loop_monotone,
    "max_principle": _loop_max_principle,
    "sqrt2_structure": _loop_sqrt2,
    "ordering_inviscid": _loop_ordering,
    "riccati_identity": _loop_riccati_identity,
}


def _outcome(fn, traj):
    """``repr`` of the result, or the type and message of the error raised."""
    try:
        return repr(fn(traj))
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# trajectories


def _bump20():
    # more than two blocks of 512 samples; the last one is partial
    p = ModelParams(alpha=0.0, trunc_k=20)
    c = StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=1e-4)
    return integrate(p, gen_bump(20), 0.12, c)


def _front():
    p = ModelParams(alpha=0.3, trunc_k=12, norm_s=1.5)
    c = StepControls(dt_init=5e-4, scheme=Scheme.REFERENCE_FIXED_RK4, record_every=0.02)
    return integrate(p, gen_front(12, 4, 1.2, 0.5), 1.0, c)


def _escape_cell():
    # the alpha 0.15, K 12 cell of the criterion-09 scan
    p = ModelParams(alpha=0.15, trunc_k=12)
    c = StepControls(rel_tol=1e-9, abs_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE,
                     record_every=0.005)
    return integrate(p, gen_front(12, 7, 1.3, 0.5, 10.0), 1.5, c, escape_threshold=1e4)


def _k2():
    c = StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=0.01)
    return integrate(ModelParams(alpha=0.0, trunc_k=2), gen_bump(2), 0.3, c)


def _single_sample():
    return integrate(ModelParams(alpha=0.3, trunc_k=12), gen_front(12, 4, 1.2, 0.5), 0.0,
                     StepControls())


def _flat():
    flat = DyadicState(t=0.0, a=[0.7] * 9)
    return integrate(ModelParams(alpha=0.3, trunc_k=8), flat, 0.1, StepControls(record_every=0.02))


def _flat_inviscid():
    # an exact equilibrium: every margin and residual ties at every sample
    flat = DyadicState(t=0.0, a=[0.7] * 9)
    return integrate(ModelParams(alpha=0.0, trunc_k=8), flat, 0.1, StepControls(record_every=0.02))


def _from_slopes(slopes, alpha):
    """A trajectory sampled every 0.1 whose rows of slopes b_0 = 0, b_1, .. are given."""
    b = np.asarray(slopes, dtype=float)
    a = np.cumsum(b * np.exp2(-np.arange(b.shape[1], dtype=float)), axis=1)
    p = ModelParams(alpha=alpha, trunc_k=b.shape[1] - 1)
    diags = _diagnostics(a, p.norm_s, 0.5)
    samples = tuple(
        TrajectorySample(t=0.1 * i, state=DyadicState(t=0.1 * i, a=row), diag=d)
        for i, (row, d) in enumerate(zip(a, diags))
    )
    return Trajectory(p, 0.5, samples, Termination.REACHED_T_END)


def _split_retreat():
    """Five states whose largest sqrt(2) split drops from K = 6 to 5 at t = 0.4."""
    settled = [0.0, 1.0, 1.2, 1.0, 0.5, 0.25, 0.1]
    # b_6 = 1.2 b_5 < 0 breaks the sqrt(2) bound at k = 6 but keeps b_5 > b_6
    dropped = [0.0, 1.0, 1.2, 1.0, 0.5, -1.0, -1.2]
    return _from_slopes([settled] * 4 + [dropped], alpha=0.3)


BUILDERS = {
    "bump20": _bump20,
    "front": _front,
    "escape_cell": _escape_cell,
    "k2": _k2,
    "single_sample": _single_sample,
    "flat": _flat,
    "flat_inviscid": _flat_inviscid,
    "split_retreat": _split_retreat,
}


@pytest.fixture(scope="module")
def trajectories():
    """Each trajectory, plain and with both injected faults, at the default block size."""
    out = {}
    for name, build in BUILDERS.items():
        traj = build()
        out[name] = traj
        for kind in ("sign-flip", "sqrt2-ratio"):
            out[f"{name}+{kind}"] = inject_fault(traj, kind)
    return out


def _fault_at(traj, i):
    """The first ``i + 1`` samples of ``traj``, the last one pushed out of order."""
    # inject_fault corrupts the middle one of three samples
    hit = inject_fault(dataclasses.replace(traj, samples=traj.samples[i - 1 : i + 2]),
                       "sign-flip").samples[1]
    return dataclasses.replace(traj, samples=traj.samples[:i] + (hit,))


# ---------------------------------------------------------------------------


class TestTrajectoryShapes:
    def test_cases_cover_what_they_claim(self, trajectories):
        n = len(trajectories["bump20"].samples)
        assert n > 2 * analysis.BLOCK_ROWS and n % analysis.BLOCK_ROWS
        assert trajectories["escape_cell"].escape_time is not None
        assert len(trajectories["single_sample"].samples) == 1
        assert math.isnan(trajectories["flat"].samples[0].diag.max_ratio)
        assert trajectories["k2"].samples[0].state.k == 2
        rep = analysis.check_sqrt2_structure(trajectories["split_retreat"])
        assert (rep.worst_margin, rep.worst_location) == (-1.0, (0.4, 5))


class TestRecords:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_match_sample_loop(self, trajectories, name):
        traj = trajectories[name]
        for s in traj.samples:
            assert repr(s.diag) == repr(_loop_diagnostics(s.state, traj.params.norm_s, traj.delta))

    @pytest.mark.parametrize("kind", ["sign-flip", "sqrt2-ratio"])
    def test_injected_fault_record(self, trajectories, kind):
        traj = trajectories[f"bump20+{kind}"]
        s = traj.samples[len(traj.samples) // 2]
        assert repr(s.diag) == repr(_loop_diagnostics(s.state, traj.params.norm_s, traj.delta))

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("name", ["bump20", "escape_cell", "single_sample"])
    def test_independent_of_block_size(self, trajectories, monkeypatch, name, block):
        monkeypatch.setattr(analysis, "BLOCK_ROWS", block)
        again = BUILDERS[name]()
        ref = trajectories[name]
        assert again.termination is ref.termination and again.escape_time == ref.escape_time
        assert [repr(s.diag) for s in again.samples] == [repr(s.diag) for s in ref.samples]

    def test_block_of_rows(self, trajectories):
        traj = trajectories["front"]
        block = np.stack([s.state.a for s in traj.samples])
        got = _diagnostics(block, traj.params.norm_s, traj.delta)
        assert [repr(d) for d in got] == [repr(s.diag) for s in traj.samples]


class TestChecks:
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_match_loop_checks(self, trajectories, monkeypatch, block):
        monkeypatch.setattr(analysis, "BLOCK_ROWS", block)
        for name, traj in trajectories.items():
            for check in LOOP_CHECKS:
                got = _outcome(analysis.CHECKS[check], traj)
                assert got == _outcome(LOOP_CHECKS[check], traj), (name, check)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_j_series_at_another_delta(self, trajectories, monkeypatch, block):
        monkeypatch.setattr(analysis, "BLOCK_ROWS", block)
        for name in ("bump20", "front", "k2"):
            traj = trajectories[name]
            _, _, js = analysis._j_series(traj, 0.3)
            assert repr(js) == repr(_loop_j_series(traj, 0.3))

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("delta", [0.3, 0.5])
    def test_fit_riccati_constants(self, trajectories, monkeypatch, block, delta):
        monkeypatch.setattr(analysis, "BLOCK_ROWS", block)
        for name in ("front", "front+sign-flip", "bump20"):
            traj = trajectories[name]
            got = analysis.fit_riccati_constants(traj, delta)
            assert repr(got) == repr(_loop_fit_riccati_constants(traj, delta)), name

    @pytest.mark.parametrize("block", [1, 7, analysis.BLOCK_ROWS])
    def test_ties_on_small_integer_slopes(self, rng, monkeypatch, block):
        # slopes from {-2, .., 2} make margins tie across samples, checks and k
        monkeypatch.setattr(analysis, "BLOCK_ROWS", block)
        for alpha in (0.0, 0.3):
            for _ in range(20):
                slopes = rng.integers(-2, 3, size=(30, 6))
                slopes[:, 0] = 0
                traj = _from_slopes(slopes, alpha)
                for check in LOOP_CHECKS:
                    got = _outcome(analysis.CHECKS[check], traj)
                    assert got == _outcome(LOOP_CHECKS[check], traj), (check, slopes.tolist())

    def test_pairs_straddle_block_borders(self, trajectories):
        # the faulty sample opens the last block; its only pair starts in the block before
        traj = trajectories["bump20"]
        i = 2 * analysis.BLOCK_ROWS
        faulty = _fault_at(traj, i)
        rep = analysis.check_ordering_persistence_inviscid(faulty)
        assert not rep.passed and rep.worst_location[0] == traj.samples[i].t
        assert repr(rep) == repr(_loop_ordering(faulty))

    def test_run_checks_memory(self):
        # the inviscid_diag setup: 5,001 samples of K = 20
        p = ModelParams(alpha=0.0, trunc_k=20)
        c = StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=1e-4)
        traj = integrate(p, gen_bump(20), 0.5, c)
        names = ["monotone_nonneg", "max_principle", "ordering_inviscid", "riccati_identity"]
        tracemalloc.start()
        try:
            reports = run_checks(traj, names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in reports)
        assert peak <= 2e6


class TestDetectEscape:
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("threshold", [1e3, 9e3, 1e4, 1e9])
    def test_matches_loop(self, trajectories, monkeypatch, block, threshold):
        monkeypatch.setattr(analysis, "BLOCK_ROWS", block)
        traj = trajectories["escape_cell"]
        got = detect_escape(traj, threshold, 1.5)
        assert repr(got) == repr(_loop_detect_escape(traj, threshold, 1.5))

    def test_first_sample_rule(self, trajectories):
        traj = trajectories["escape_cell"]
        with pytest.raises(DomainError):
            detect_escape(traj, traj.samples[0].diag.xs_norm, 1.5)


class TestLeanXsNorm:
    def _compare(self, rows, s):
        with np.errstate(over="ignore"):
            ref = [_xs_norm_array(a, s) for a in rows]
        block = np.stack(rows)
        assert repr(_xs_norms(block, np.diff(block, axis=1), s).tolist()) == repr(ref)
        for a, r in zip(rows, ref):
            assert repr(float(_xs_norms(a, np.diff(a), s))) == repr(r)

    def test_overflowing_weights_at_k700(self, rng):
        # 2**(1.5 k) overflows from k = 683: zero diffs there count 0, others inf
        n = 701
        flat_top = np.concatenate([np.linspace(0.0, 1.0, 600), np.ones(n - 600)])
        rising = np.linspace(0.0, 1.0, n)
        rough = np.cumsum(rng.random(n))
        rough[650:] = rough[650]
        self._compare([flat_top, rising, rough, np.zeros(n)], 1.5)

    def test_zeros_and_negative_diffs(self, rng):
        rows = [rng.normal(size=13) for _ in range(5)]
        rows[0][3:6] = 0.0
        rows[1][:] = -0.25
        rows.append(np.array([0.0, -0.0, 1.0, 1.0, 0.5, 0.5, -2.0, 0.0, 0.0, 3.0, 3.0, 0.0, 0.0]))
        for s in (0.5, 1.5, 2.0):
            self._compare(rows, s)
