import math

import numpy as np
import pytest

from dyadicflow.model import (
    DomainError,
    DyadicState,
    InvalidInputError,
    ModelParams,
    dissipation,
    slopes,
    weighted_slopes,
    xs_norm,
)
from dyadicflow.analysis import (
    CHECKS,
    InvariantReport,
    blowup_diagnostics,
    check_max_principle,
    check_monotone_nonneg,
    check_monotone_traj,
    check_ordering_persistence_inviscid,
    check_sqrt2_structure,
    fit_riccati_constants,
    front_index,
    good_bad,
    goodbad_lower_constant,
    holder_seminorm,
    j_functional,
    riccati_fit,
    riccati_inequality_check,
    run_checks,
    slope_ratio_report,
)
from dyadicflow.integrate import Scheme, StepControls, integrate
from dyadicflow.scenarios import gen_bump, gen_front
from conftest import random_monotone_state


def state(a, t=0.0):
    return DyadicState(t=t, a=np.asarray(a, dtype=float))


def state_from_slopes(b):
    """Build a state whose slope vector is exactly b (b[0] ignored)."""
    b = np.asarray(b, dtype=float)
    karr = np.arange(1, b.size)
    a = np.concatenate([[0.0], np.cumsum(b[1:] * np.exp2(-karr.astype(float)))])
    return DyadicState(t=0.0, a=a)


class TestMonotoneNonneg:
    def test_passing(self):
        rep = check_monotone_nonneg(state([0, 1, 2]))
        assert rep.passed and rep.worst_margin == 0.0

    def test_failing_located(self):
        rep = check_monotone_nonneg(state([0, 1, 0.5]))
        assert not rep.passed
        assert rep.worst_margin == pytest.approx(-0.5)
        assert rep.worst_location == (0.0, 2)

    def test_negative_origin(self):
        rep = check_monotone_nonneg(state([-0.2, 1, 2]))
        assert not rep.passed and rep.worst_location == (0.0, 0)


class TestSlopeRatios:
    def test_geometric_slopes(self):
        rep = slope_ratio_report(state_from_slopes([0] + [1.3**k for k in range(1, 8)]))
        assert rep.max_ratio == pytest.approx(1.3, rel=1e-12)

    def test_worked_example(self):
        rep = slope_ratio_report(state_from_slopes([0, 1, 1.2, 1.5, 1.2]))
        assert rep.max_ratio == pytest.approx(1.25)
        assert rep.argmax == 3

    def test_all_zero_undefined(self):
        rep = slope_ratio_report(state([0, 0, 0, 0]))
        assert rep.max_ratio is None
        assert rep.argmax is None
        assert rep.skipped == 2

    def test_matches_loop_reference(self, rng):
        from dyadicflow.model import _slopes_array

        def loop_report(st, rel_floor=1e-14):
            b = _slopes_array(st.a)
            floor = rel_floor * float(np.max(np.abs(b)))
            best = arg = None
            skipped = 0
            for k in range(2, b.size):
                if abs(b[k - 1]) <= floor:
                    skipped += 1
                    continue
                ratio = b[k] / b[k - 1]
                if best is None or ratio > best:
                    best, arg = ratio, k
            return best, arg, skipped

        cases = [
            state([0, 1]),
            state([0, 0, 0, 0]),
            state_from_slopes([0, 1, 2, 2, 4, 4]),  # tied maxima at k = 2 and 4
            state_from_slopes([0, 1, 0, 5, 0, 3]),  # two zero denominators
            state_from_slopes([0, 1, 1e-20, 5, -2, 3]),  # one negligible
        ]
        cases += [random_monotone_state(rng, 12) for _ in range(20)]
        cases += [state(rng.standard_normal(9)) for _ in range(20)]
        for st in cases:
            rep = slope_ratio_report(st)
            assert (rep.max_ratio, rep.argmax, rep.skipped) == loop_report(st)


class TestFrontIndex:
    def test_examples(self):
        assert front_index(state_from_slopes([0, 1, 2, 1])) == 2
        assert front_index(state_from_slopes([0, 2, 2, 1])) == 1

    def test_front_data_construction(self):
        assert front_index(gen_front(10, 5, 1.25, 0.5)) == 5


class TestHolderSeminorm:
    def test_exact_cancellation(self):
        b = [0] + [2.0 ** (k / 2.0) for k in range(1, 9)]
        assert holder_seminorm(state_from_slopes(b), 0.5) == pytest.approx(1.0)

    def test_zero_state(self):
        assert holder_seminorm(state([0, 0, 0]), 0.5) == 0.0

    def test_worked_example(self):
        val = holder_seminorm(state_from_slopes([0, 1, 1.2]), 0.5)
        assert val == pytest.approx(max(2**-0.5, 1.2 / 2.0), abs=1e-12)
        assert val == pytest.approx(0.70711, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            holder_seminorm(state([0, 1]), 0.0)


class TestJFunctional:
    def test_plateau_at_origin(self):
        assert j_functional(state([0, 1, 1]), 0.5) == 0.0

    def test_worked_example(self):
        assert j_functional(state([0, 0.5, 1]), 0.5) == pytest.approx(
            0.5 * math.sqrt(2.0), rel=1e-12
        )

    def test_norm_bound_property(self, rng):
        # J <= ||a||_{X^1} * sum_k 2**(k(delta-1)) on the stored range
        for _ in range(50):
            kmax = int(rng.integers(2, 30))
            s = random_monotone_state(rng, kmax)
            for delta in (0.25, 0.5, 0.75):
                bound = xs_norm(s, 1.0) * sum(
                    2.0 ** (k * (delta - 1.0)) for k in range(1, kmax + 1)
                )
                assert j_functional(s, delta) <= bound + 1e-12

    def test_warns_on_non_monotone(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="dyadicflow.analysis"):
            j_functional(state([0, 1, 0.5]), 0.5)
        assert any("non-monotone" in r.message for r in caplog.records)


class TestGoodBad:
    def test_halving_profile_all_good(self):
        # a_k = 1 - 2**-k: increment equals the (infinite) deficit, and the
        # truncated deficit is smaller, so every index is good whenever
        # c <= 1; c = 0.6 is the largest admissible kind at delta = 0.5
        a = 1.0 - np.exp2(-np.arange(13, dtype=float))
        gb = good_bad(DyadicState(t=0.0, a=a), delta=0.5, c=0.6)
        assert gb.bad_indices == ()
        assert set(gb.good_indices) == set(range(1, 13))

    def test_degenerate_plateau_ratio_inf(self):
        gb = good_bad(state([0, 0.7, 0.7, 0.7]), delta=0.5)
        assert gb.rhs == 0.0
        assert math.isinf(gb.ratio)

    def test_partition_exhaustive(self, rng):
        s = random_monotone_state(rng, 15)
        gb = good_bad(s, delta=0.5)
        assert sorted(gb.good_indices + gb.bad_indices) == list(range(1, 16))
        assert set(gb.good_indices).isdisjoint(gb.bad_indices)

    def test_random_states_respect_candidate_constant(self, rng):
        from dyadicflow.model import default_goodbad_threshold

        c0 = goodbad_lower_constant(0.5, default_goodbad_threshold(0.5))
        for _ in range(200):
            kmax = int(rng.integers(2, 21))
            s = random_monotone_state(rng, kmax, normalize=False)
            assert good_bad(s, 0.5).ratio >= c0

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            good_bad(state([0, 1, 2]), delta=0.5, c=5.0)

    def test_rejects_non_monotone(self):
        with pytest.raises(InvalidInputError):
            good_bad(state([0, 1, 0.2]), delta=0.5)


class TestRiccatiFit:
    def test_exact_riccati_series(self):
        ts = np.linspace(0.0, 1.5, 40)
        fit = riccati_fit(ts, 1.0 / (2.0 - ts))
        assert fit == pytest.approx(2.0, abs=1e-9)

    def test_constant_series_none(self):
        assert riccati_fit(np.linspace(0, 1, 10), np.ones(10)) is None

    def test_too_few_points_none(self):
        assert riccati_fit(np.array([0.0, 0.1]), np.array([1.0, 2.0])) is None

    def test_decreasing_series_none(self):
        ts = np.linspace(0, 1, 10)
        assert riccati_fit(ts, 2.0 - ts) is None


@pytest.fixture(scope="module")
def dissipative_traj():
    p = ModelParams(alpha=0.3, trunc_k=12, norm_s=1.5)
    c = StepControls(dt_init=5e-4, scheme=Scheme.REFERENCE_FIXED_RK4, record_every=0.02)
    return integrate(p, gen_front(12, 4, 1.2, 0.5), 1.0, c)


@pytest.fixture(scope="module")
def inviscid_traj():
    # pre-contact window: the cascade front stays well below the
    # truncation, so the infinite-system lemmas apply to the run
    p = ModelParams(alpha=0.0, trunc_k=16, norm_s=1.5)
    c = StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=0.01)
    traj = integrate(p, gen_front(16, 4, 1.2, 0.5), 0.7, c, escape_threshold=1e30)
    assert traj.diag.front_index.max() <= 13
    return traj


class TestTrajectoryChecks:

    def test_monotone_preserved(self, dissipative_traj):
        rep = check_monotone_traj(dissipative_traj, tolerance=1e-10)
        assert rep.passed

    def test_max_principle_dissipative(self, dissipative_traj):
        rep = check_max_principle(dissipative_traj)
        assert rep.passed
        # a_0 strictly increases and the sup strictly decreases
        a0s = dissipative_traj.states[:, 0]
        sups = dissipative_traj.states.max(axis=1)
        assert a0s[-1] > a0s[0]
        assert sups[-1] < sups[0]

    def test_max_principle_inviscid_conserves_sup(self, inviscid_traj):
        rep = check_max_principle(inviscid_traj, tolerance=1e-8)
        assert rep.passed
        assert np.all(inviscid_traj.states[:, 0] == 0.0)

    def test_single_sample_trivially_passes(self):
        p = ModelParams(alpha=0.3, trunc_k=4)
        traj = integrate(p, state([0, 0.5, 0.8, 0.9, 0.95]), 0.0, StepControls())
        assert check_max_principle(traj).passed

    def test_sqrt2_structure_front_run(self, dissipative_traj):
        rep = check_sqrt2_structure(dissipative_traj)
        assert rep.passed

    def test_sqrt2_structure_detects_corruption(self, dissipative_traj):
        from dyadicflow.cli import inject_fault

        bad = inject_fault(dissipative_traj, "sqrt2-ratio")
        rep = check_sqrt2_structure(bad)
        assert not rep.passed
        t_bad = bad.times[len(bad.times) // 2]
        assert rep.worst_location[0] == pytest.approx(t_bad)

    def test_ordering_inviscid(self, inviscid_traj):
        rep = check_ordering_persistence_inviscid(inviscid_traj)
        assert rep.passed

    def test_ordering_rejects_dissipative(self, dissipative_traj):
        with pytest.raises(DomainError):
            check_ordering_persistence_inviscid(dissipative_traj)

    def test_ordering_detects_corruption(self, inviscid_traj):
        from dyadicflow.cli import inject_fault

        rep = check_ordering_persistence_inviscid(inject_fault(inviscid_traj, "sqrt2-ratio"))
        assert not rep.passed

    def test_riccati_identity_inviscid(self, inviscid_traj):
        # cadence 0.01 here; the acceptance suite runs the tight-cadence case
        rep = riccati_inequality_check(inviscid_traj)
        assert rep.name == "riccati_identity"
        assert rep.passed

    def test_riccati_identity_needs_three_samples(self):
        # the centred difference needs a sample on each side of an interior one
        p = ModelParams(alpha=0.0, trunc_k=4)
        traj = integrate(p, state([0, 0.5, 0.8, 0.9, 0.95]), 0.1, StepControls(record_every=0.1))
        assert len(traj.times) == 2
        with pytest.raises(DomainError, match="need at least 3 samples"):
            riccati_inequality_check(traj)

    def test_riccati_identity_equilibrium(self):
        p = ModelParams(alpha=0.0, trunc_k=4)
        traj = integrate(p, state([0, 0, 0, 0, 0]), 0.5, StepControls(record_every=0.1))
        rep = riccati_inequality_check(traj)
        assert rep.passed and rep.worst_margin == 0.0

    def test_riccati_dissipative_growth_window_c1_positive(self):
        # supercritical run with an active cascade: the fitted quadratic
        # coefficient over the growth window must come out positive
        p = ModelParams(alpha=0.15, trunc_k=12, norm_s=1.5)
        c = StepControls(rel_tol=1e-9, abs_tol=1e-12,
                         scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=0.002)
        traj = integrate(p, gen_front(12, 7, 1.3, 0.5, amplitude=10.0), 1.0, c,
                         escape_threshold=10_000.0)
        from dyadicflow.integrate import Termination

        assert traj.termination is Termination.ESCAPE_DETECTED
        c1, c2 = fit_riccati_constants(traj)
        assert c1 > 0.0
        assert c2 >= 0.0

    def test_ordering_to_ninety_percent_of_fitted_t(self):
        # the conditional persistence form holds all the way to 90% of the
        # extrapolated blow-up time, ratio drift and cutoff contact included
        p = ModelParams(alpha=0.0, trunc_k=16, norm_s=1.5)
        c = StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=0.01)
        probe = integrate(p, gen_front(16, 4, 1.2, 0.5), 2.0, c, escape_threshold=1e30)
        t_fit = riccati_fit(probe.times, probe.diag.j_value)
        assert t_fit is not None
        traj = integrate(p, gen_front(16, 4, 1.2, 0.5), 0.9 * t_fit, c,
                         escape_threshold=1e30)
        assert check_ordering_persistence_inviscid(traj).passed

    def test_riccati_dissipative_fit(self, dissipative_traj):
        c1, c2 = fit_riccati_constants(dissipative_traj)
        rep = riccati_inequality_check(dissipative_traj)
        assert rep.name == "riccati_inequality_dissipative"
        assert rep.worst_margin == pytest.approx(c1)
        # inequality holds with the fitted constants by construction
        ts = dissipative_traj.times.tolist()
        js = dissipative_traj.diag.j_value.tolist()
        sup_a = float(np.max(dissipative_traj.states))
        for i in range(1, len(ts) - 1):
            fd = (js[i + 1] - js[i - 1]) / (ts[i + 1] - ts[i - 1])
            assert fd >= c1 * js[i] ** 2 - c2 * (1.0 + sup_a) - 1e-12

    def test_j_monotone_along_inviscid_run(self, inviscid_traj):
        js = inviscid_traj.diag.j_value.tolist()
        assert all(j1 >= j0 - 1e-12 for j0, j1 in zip(js, js[1:]))

    def test_blowup_diagnostics_collection(self, inviscid_traj):
        diag = blowup_diagnostics(inviscid_traj)
        assert diag.delta == inviscid_traj.delta
        assert len(diag.j_value) == len(diag.times) == len(inviscid_traj.times)
        # the trajectory's own columns, not copies
        assert diag.times is inviscid_traj.times
        assert diag.j_value is inviscid_traj.diag.j_value
        assert diag.front_index is inviscid_traj.diag.front_index
        assert all(j >= 0.0 for j in diag.j_value)
        fronts = diag.front_index.tolist()
        assert all(f1 >= f0 for f0, f1 in zip(fronts, fronts[1:]))

    def test_checks_registry(self, dissipative_traj):
        reports = run_checks(dissipative_traj, ["monotone_nonneg", "max_principle"])
        assert [r.name for r in reports] == ["monotone_nonneg", "max_principle"]
        with pytest.raises(KeyError):
            run_checks(dissipative_traj, ["nope"])
        assert set(CHECKS) == {
            "monotone_nonneg", "max_principle", "sqrt2_structure",
            "ordering_inviscid", "riccati_identity",
        }


class TestEq17Consistency:
    @staticmethod
    def residual(cadence):
        # centered finite differences of b_{k,s} against the closed-form
        # evolution: -b_k b_{k,s} + 2**s b_{k-1} b_{k-1,s} - (op difference)
        s_idx = 1.5
        p = ModelParams(alpha=0.3, trunc_k=10, norm_s=s_idx)
        c = StepControls(dt_init=1e-4, scheme=Scheme.REFERENCE_FIXED_RK4,
                         record_every=cadence)
        traj = integrate(p, gen_front(10, 4, 1.2, 0.5), 0.05, c)
        samples = [DyadicState(t=t, a=a) for t, a in zip(traj.times.tolist(), traj.states)]
        worst = 0.0
        for i in range(1, len(samples) - 1):
            sm, s0, sp = samples[i - 1], samples[i], samples[i + 1]
            fd = (weighted_slopes(sp, s_idx) - weighted_slopes(sm, s_idx)) / (sp.t - sm.t)
            b = slopes(s0)
            bs = weighted_slopes(s0, s_idx)
            op = dissipation(p, s0)
            karr = np.arange(1, 11, dtype=float)
            rhs = (
                -b[1:] * bs[1:]
                + 2.0**s_idx * b[:-1] * bs[:-1]
                - (op[1:] - op[:-1]) * np.exp2(s_idx * karr)
            )
            worst = max(worst, float(np.max(np.abs(fd[1:] - rhs))))
        scale = max(
            float(np.max(np.abs(weighted_slopes(s, s_idx)))) for s in samples
        )
        return worst, scale

    def test_weighted_slope_evolution_identity(self):
        worst, scale = self.residual(1e-3)
        # linear-in-cadence envelope (the stiffest mode rate here is ~140,
        # so the second-order FD error sits well inside rate**3 * h / 6)
        assert worst <= 1e3 * 1e-3 * scale
        # the residual is pure discretization error: second-order decay
        worst_half, _ = self.residual(5e-4)
        assert worst_half <= 0.35 * worst
