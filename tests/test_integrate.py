import math
import warnings

import numpy as np
import pytest

from dyadicflow.model import (
    DomainError,
    DyadicState,
    ModelParams,
    dissipation_matrix,
    xs_norm,
)
from dyadicflow.integrate import (
    EscapeSignal,
    IntegrationAbortError,
    Scheme,
    StepControls,
    StepUnderflowError,
    Termination,
    Trajectory,
    detect_escape,
    integrate,
    linear_semigroup,
    step,
)
from dyadicflow.scenarios import gen_bump, gen_front, gen_geometric
from conftest import random_monotone_state


def constant_state(n, c=0.7):
    return DyadicState(t=0.0, a=[c] * (n + 1))


class TestStepControls:
    def test_validation(self):
        with pytest.raises(DomainError):
            StepControls(rel_tol=0.0)
        with pytest.raises(DomainError):
            StepControls(dt_min=1.0, dt_init=0.1)
        with pytest.raises(DomainError):
            StepControls(max_steps=0)
        with pytest.raises(DomainError):
            StepControls(record_every=0.0)


class TestStep:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_constant_state_unchanged(self, scheme):
        p = ModelParams(alpha=0.3, trunc_k=4)
        s = constant_state(4)
        out, err, dt_next = step(p, s, StepControls(scheme=scheme), 1e-3)
        np.testing.assert_allclose(out.a, s.a, atol=1e-13)
        assert err <= 1e-20
        assert dt_next > 0

    def test_riccati_single_mode(self):
        # the inviscid coupling is lower-triangular, so component 1 follows
        # the single-mode law x' = -2 x**2 exactly whatever sits above it
        p = ModelParams(alpha=0.0, trunc_k=2)
        s = DyadicState(t=0.0, a=[0.0, 1.0, 1.0])
        c = StepControls(rel_tol=1e-10, abs_tol=1e-13)
        out, err, _ = step(p, s, c, 1e-3)
        exact = 1.0 / (1.0 + 2.0 * 1e-3)
        assert out.a[1] == pytest.approx(exact, rel=1e-10)

    def test_invalid_dt(self):
        p = ModelParams(alpha=0.0, trunc_k=2)
        with pytest.raises(DomainError):
            step(p, DyadicState(t=0.0, a=[0, 1, 1]), StepControls(), 0.0)

    @pytest.mark.parametrize(
        "scheme, tol",
        [
            (Scheme.EXPLICIT_ADAPTIVE, 0.0),
            (Scheme.DUHAMEL_IMEX, 0.0),
            # step() builds a fresh stepper each call, dropping the Kahan carry
            (Scheme.REFERENCE_FIXED_RK4, 1e-15),
        ],
    )
    def test_chained_steps_match_integrate(self, scheme, tol):
        # step() and integrate() share one controller: chaining step() on
        # its own proposals retraces integrate() over a single record interval
        t_end = 0.2
        p = ModelParams(alpha=0.35, trunc_k=8)
        c = StepControls(scheme=scheme, record_every=t_end)
        s, dt = gen_front(8, 3, 1.2, 0.5), c.dt_init
        while s.t < t_end:
            s, _, dt = step(p, s, c, min(dt, t_end - s.t))
        traj = integrate(p, gen_front(8, 3, 1.2, 0.5), t_end, c)
        assert s.t == traj.final_state.t == t_end
        assert np.max(np.abs(s.a - traj.final_state.a)) <= tol

    def test_underflow_raises(self):
        # the setup of TestIntegrate.test_step_underflow_termination
        p = ModelParams(alpha=0.45, trunc_k=12)
        c = StepControls(
            rel_tol=1e-13, abs_tol=1e-16, dt_init=1e-2, dt_min=8e-3,
            scheme=Scheme.EXPLICIT_ADAPTIVE,
        )
        with pytest.raises(StepUnderflowError):
            step(p, gen_front(12, 4, 1.3, 0.5), c, c.dt_init)

    def test_nonfinite_raises_escape(self):
        # the setup of TestIntegrate.test_nonfinite_state_is_escape: fixed
        # RK4 overflows within a few steps, without leaking numpy warnings
        p = ModelParams(alpha=0.45, trunc_k=12)
        c = StepControls(dt_init=0.05, scheme=Scheme.REFERENCE_FIXED_RK4)
        s = gen_front(12, 4, 1.3, 0.5)
        with pytest.raises(EscapeSignal):
            for _ in range(20):
                s, _, _ = step(p, s, c, c.dt_init)


class TestIntegrate:
    def test_zero_length_run(self):
        p = ModelParams(alpha=0.25, trunc_k=4)
        s = constant_state(4)
        traj = integrate(p, s, 0.0, StepControls())
        assert traj.termination is Termination.REACHED_T_END
        assert len(traj.samples) == 1
        assert traj.samples[0].t == 0.0

    def test_riccati_to_t1(self):
        p = ModelParams(alpha=0.0, trunc_k=2)
        s = DyadicState(t=0.0, a=[0.0, 1.0, 1.0])
        c = StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=0.1)
        traj = integrate(p, s, 1.0, c)
        assert traj.termination is Termination.REACHED_T_END
        assert traj.final_state.a[1] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_inviscid_pins_origin_exactly(self):
        p = ModelParams(alpha=0.0, trunc_k=10)
        c = StepControls(record_every=0.1)
        traj = integrate(p, gen_bump(10), 1.0, c)
        assert all(s.state.a[0] == 0.0 for s in traj.samples)

    def test_sample_times_and_cadence(self):
        p = ModelParams(alpha=0.3, trunc_k=6)
        traj = integrate(p, gen_geometric(6, 0.5), 0.55, StepControls(record_every=0.1))
        ts = traj.times
        assert ts[0] == 0.0
        assert ts[-1] == 0.55
        np.testing.assert_allclose(np.diff(ts)[:-1], 0.1, atol=1e-12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_determinism_bitwise(self, scheme):
        p = ModelParams(alpha=0.35, trunc_k=8)
        c = StepControls(scheme=scheme, record_every=0.05, dt_init=1e-3)
        t1 = integrate(p, gen_front(8, 3, 1.2, 0.5), 0.4, c)
        t2 = integrate(p, gen_front(8, 3, 1.2, 0.5), 0.4, c)
        assert len(t1.samples) == len(t2.samples)
        for s1, s2 in zip(t1.samples, t2.samples):
            assert np.array_equal(s1.state.a, s2.state.a)

    def test_scheme_agreement_smooth_regime(self):
        # adaptive explicit vs the fixed-step reference on a dissipative run
        p = ModelParams(alpha=0.3, trunc_k=12)
        s0 = gen_front(12, 4, 1.2, 0.5)
        adaptive = integrate(
            p, s0, 1.0,
            StepControls(rel_tol=1e-9, abs_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE,
                         record_every=1.0),
        )
        reference = integrate(
            p, s0, 1.0,
            StepControls(dt_init=1e-4, scheme=Scheme.REFERENCE_FIXED_RK4, record_every=1.0),
        )
        diff = np.max(np.abs(adaptive.final_state.a - reference.final_state.a))
        assert diff < 1e-6

    def test_imex_matches_reference(self):
        p = ModelParams(alpha=0.3, trunc_k=10)
        s0 = gen_front(10, 4, 1.2, 0.5)
        imex = integrate(
            p, s0, 0.5,
            StepControls(rel_tol=1e-9, abs_tol=1e-12, scheme=Scheme.DUHAMEL_IMEX,
                         record_every=0.5),
        )
        reference = integrate(
            p, s0, 0.5,
            StepControls(dt_init=1e-4, scheme=Scheme.REFERENCE_FIXED_RK4, record_every=0.5),
        )
        assert np.max(np.abs(imex.final_state.a - reference.final_state.a)) < 1e-7

    def test_pure_linear_run_matches_semigroup(self):
        p = ModelParams(alpha=0.35, trunc_k=10, norm_s=1.5)
        s0 = gen_geometric(10, 0.6)
        traj = integrate(
            p, s0, 1.0,
            StepControls(scheme=Scheme.DUHAMEL_IMEX, record_every=0.25),
            nonlinear=False,
        )
        for sample in traj.samples[1:]:
            ref = linear_semigroup(p, s0, sample.t)
            assert np.max(np.abs(sample.state.a - ref.a)) < 1e-8

    def test_max_steps_flagging(self):
        p = ModelParams(alpha=0.0, trunc_k=6)
        c = StepControls(max_steps=3, record_every=0.5, dt_init=1e-4)
        traj = integrate(p, gen_bump(6), 1.0, c)
        assert traj.termination is Termination.MAX_STEPS_EXCEEDED

    def test_escape_detection_online(self):
        # low threshold turns the blow-up proxy into an escape termination
        p = ModelParams(alpha=0.0, trunc_k=12, norm_s=1.5)
        c = StepControls(rel_tol=1e-9, abs_tol=1e-12, record_every=0.01)
        traj = integrate(p, gen_bump(12), 3.0, c, escape_threshold=500.0)
        assert traj.termination is Termination.ESCAPE_DETECTED
        assert traj.escape_time is not None
        assert traj.samples[-1].diag.xs_norm > 500.0

    def test_step_underflow_termination(self):
        # dt_min close to dt_init leaves the controller no room on a stiff
        # problem at an unreachable tolerance: the run must stop and say so
        p = ModelParams(alpha=0.45, trunc_k=12)
        c = StepControls(
            rel_tol=1e-13, abs_tol=1e-16, dt_init=1e-2, dt_min=8e-3,
            scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=0.1,
        )
        traj = integrate(p, gen_front(12, 4, 1.3, 0.5), 1.0, c,
                         monotone_abort_tol=math.inf)
        assert traj.termination is Termination.STEP_UNDERFLOW

    def test_nonfinite_state_is_escape(self):
        # fixed RK4 far outside its stability region overflows; the run
        # terminates with the escape signal rather than crashing
        p = ModelParams(alpha=0.45, trunc_k=12)
        c = StepControls(dt_init=0.05, scheme=Scheme.REFERENCE_FIXED_RK4,
                         record_every=0.2)
        with np.errstate(all="ignore"):
            traj = integrate(p, gen_front(12, 4, 1.3, 0.5), 1.0, c,
                             monotone_abort_tol=math.inf)
        assert traj.termination is Termination.ESCAPE_DETECTED

    @pytest.mark.parametrize("scheme", [Scheme.EXPLICIT_ADAPTIVE, Scheme.REFERENCE_FIXED_RK4])
    def test_overflow_warnings_do_not_leak(self, scheme):
        # a large front at K=64 overflows inside the step attempts; the
        # isfinite checks stop the run, so numpy must stay silent
        p = ModelParams(alpha=0.25, trunc_k=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(p, gen_front(64, 4, 1.2, 0.5, 10.0), 0.2,
                             StepControls(scheme=scheme))
        assert traj.termination is not Termination.REACHED_T_END

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_cadence_longer_than_run(self, scheme):
        p = ModelParams(alpha=0.3, trunc_k=2)
        traj = integrate(p, gen_geometric(2, 0.5), 0.05,
                         StepControls(scheme=scheme, record_every=0.2))
        assert traj.termination is Termination.REACHED_T_END
        assert traj.times.tolist() == [0.0, 0.05]

    def test_escape_time_refines_with_truncation(self):
        # deeper truncations see larger weighted norms, so a fixed threshold
        # is crossed no later as K grows
        times = []
        for kmax in (12, 16, 20):
            p = ModelParams(alpha=0.0, trunc_k=kmax, norm_s=1.5)
            c = StepControls(rel_tol=1e-9, abs_tol=1e-12, record_every=0.01,
                             max_steps=10_000_000)
            traj = integrate(p, gen_bump(kmax), 3.0, c, escape_threshold=1e30)
            times.append(detect_escape(traj, threshold=1e3, s=1.5))
        assert all(t is not None for t in times)
        assert all(t1 <= t0 for t0, t1 in zip(times, times[1:]))

    def test_monotone_guard_aborts_on_gross_violation(self):
        # a deliberately coarse fixed step on a stiff system wrecks the
        # solution; the admissibility guard must catch it
        p = ModelParams(alpha=0.45, trunc_k=12)
        c = StepControls(dt_init=0.05, scheme=Scheme.REFERENCE_FIXED_RK4, record_every=0.05)
        with pytest.raises((IntegrationAbortError, OverflowError)):
            integrate(p, gen_front(12, 4, 1.3, 0.5), 1.0, c, monotone_abort_tol=1e-6)

    def test_diagnostics_recomputable(self, rng):
        from dyadicflow.integrate import _diagnostics

        p = ModelParams(alpha=0.3, trunc_k=8, norm_s=1.5)
        traj = integrate(p, gen_front(8, 3, 1.25, 0.5), 0.3, StepControls(record_every=0.05))
        for s in traj.samples:
            again = _diagnostics(s.state, p.norm_s, traj.delta)
            assert again == s.diag


class TestLinearSemigroup:
    def test_identity_at_zero(self):
        p = ModelParams(alpha=0.25, trunc_k=6)
        s = gen_geometric(6, 0.5)
        out = linear_semigroup(p, s, 0.0)
        np.testing.assert_array_equal(out.a, s.a)

    def test_constant_state_invariant(self):
        p = ModelParams(alpha=0.25, trunc_k=6)
        out = linear_semigroup(p, constant_state(6, 0.9), 5.0)
        np.testing.assert_allclose(out.a, 0.9, rtol=1e-12)

    def test_semigroup_property(self):
        p = ModelParams(alpha=0.35, trunc_k=10)
        s = gen_bump(10)
        one = linear_semigroup(p, s, 1.0)
        two = linear_semigroup(p, linear_semigroup(p, s, 0.4), 0.6)
        assert np.max(np.abs(one.a - two.a)) < 1e-8

    def test_contraction_random_states(self, rng):
        for alpha in (0.15, 0.35):
            p = ModelParams(alpha=alpha, trunc_k=12)
            for _ in range(10):
                s = random_monotone_state(rng, 12)
                for s_idx in (1.0, 1.5, 2.0):
                    norms = [
                        xs_norm(linear_semigroup(p, s, t), s_idx)
                        for t in (0.0, 0.1, 1.0, 10.0)
                    ]
                    for n0, n1 in zip(norms, norms[1:]):
                        assert n1 <= n0 + 1e-9

    def test_domain_errors(self):
        p = ModelParams(alpha=0.25, trunc_k=4)
        s = constant_state(4)
        with pytest.raises(DomainError):
            linear_semigroup(p, s, -1.0)
        with pytest.raises(DomainError):
            linear_semigroup(ModelParams(alpha=0.0, trunc_k=4), s, 1.0)

    def test_monotonicity_preserved(self, rng):
        p = ModelParams(alpha=0.3, trunc_k=10)
        for _ in range(5):
            s = random_monotone_state(rng, 10)
            out = linear_semigroup(p, s, 0.5)
            assert float(np.min(np.diff(out.a))) >= -1e-10
            assert out.a[0] >= -1e-12


class TestDetectEscape:
    def test_flat_trajectory_none(self):
        p = ModelParams(alpha=0.3, trunc_k=4)
        traj = integrate(p, constant_state(4), 0.5, StepControls(record_every=0.1))
        assert detect_escape(traj, threshold=10.0, s=1.5) is None

    def test_threshold_crossing_time(self):
        p = ModelParams(alpha=0.0, trunc_k=12, norm_s=1.5)
        c = StepControls(rel_tol=1e-9, abs_tol=1e-12, record_every=0.01)
        traj = integrate(p, gen_bump(12), 2.5, c, escape_threshold=1e30)
        t_esc = detect_escape(traj, threshold=1000.0, s=1.5)
        assert t_esc is not None
        norms = {s.t: s.diag.xs_norm for s in traj.samples}
        assert norms[t_esc] > 1000.0
        before = [t for t in norms if t < t_esc]
        assert all(norms[t] <= 1000.0 for t in before)

    def test_threshold_below_initial_rejected(self):
        p = ModelParams(alpha=0.3, trunc_k=4)
        traj = integrate(p, gen_geometric(4, 0.5), 0.2, StepControls(record_every=0.1))
        with pytest.raises(DomainError):
            detect_escape(traj, threshold=0.0, s=1.5)


class TestPhiTables:
    def test_augmented_exponential_blocks(self, rng):
        # E, phi1, phi2 from the block trick against their series on a
        # small random matrix
        from dyadicflow.integrate import _ImexEtd2

        a = rng.standard_normal((5, 5)) * 0.3
        stepper = _ImexEtd2(-a, lambda y: np.zeros(5))  # m = -a so A = dt*a
        e, p1, p2 = stepper._tables(1.0)
        # series: exp(A), phi1 = sum A^j/(j+1)!, phi2 = sum A^j/(j+2)!
        exp_s = np.eye(5)
        phi1_s = np.eye(5)
        phi2_s = 0.5 * np.eye(5)
        term = np.eye(5)
        for j in range(1, 25):
            term = term @ a / j
            exp_s += term
            phi1_s += term / (j + 1)
            phi2_s += term / ((j + 1) * (j + 2))
        np.testing.assert_allclose(e, exp_s, atol=1e-12)
        np.testing.assert_allclose(p1, phi1_s, atol=1e-12)
        np.testing.assert_allclose(p2, phi2_s, atol=1e-12)
