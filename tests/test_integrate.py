import dataclasses
import functools
import importlib
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dyadicflow.model import (
    DomainError,
    DyadicState,
    InvalidInputError,
    ModelParams,
    dissipation_matrix,
    xs_norm,
)
from dyadicflow.integrate import (
    Diagnostics,
    IntegrationAbortError,
    Scheme,
    StepControls,
    Termination,
    Trajectory,
    _diagnostics,
    detect_escape,
    integrate,
    linear_semigroup,
    linear_semigroup_samples,
)
from dyadicflow.analysis import front_index, holder_seminorm, slope_ratio_report
from dyadicflow.cli import inject_fault
from dyadicflow.scenarios import gen_bump, gen_front, gen_geometric
from conftest import random_monotone_state
from phi_literals import PHI_ACTIONS

# the package re-exports the function ``integrate`` under the module's name
integrate_module = importlib.import_module("dyadicflow.integrate")


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

    def test_scheme_name_refused(self):
        # the config file spells the default "auto"; the dataclass takes None
        with pytest.raises(DomainError, match="scheme must be a Scheme value, got 'auto'"):
            StepControls(scheme="auto")


def _run_bytes(traj):
    """Everything a trajectory holds, as bytes and reprs, for bitwise comparison."""
    columns = [getattr(traj.diag, f.name).tobytes() for f in dataclasses.fields(traj.diag)]
    return (traj.times.tobytes(), traj.states.tobytes(), columns, traj.termination,
            repr(traj.escape_time))


class TestNoSharedState:
    """No state outlives a call: results do not depend on other calls, before or alongside."""

    MODELS = [
        (ModelParams(alpha=0.3, trunc_k=8), gen_front(8, 3, 1.2, 0.5)),
        (ModelParams(alpha=0.35, trunc_k=10), gen_front(10, 4, 1.2, 0.5)),
    ]

    def test_concurrent_runs_match_serial(self):
        jobs = [(p, s, scheme) for (p, s), scheme in
                zip(self.MODELS, (Scheme.DUHAMEL_IMEX, Scheme.EXPLICIT_ADAPTIVE))]

        def run(job):
            p, s, scheme = job
            return integrate(p, s, 0.5, StepControls(scheme=scheme, record_every=0.05))

        serial = [_run_bytes(run(job)) for job in jobs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = [_run_bytes(t) for t in pool.map(run, jobs * 2)]
        assert concurrent == serial * 2


class TestIntegrate:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_zero_length_run(self, scheme):
        p = ModelParams(alpha=0.25, trunc_k=4)
        s = constant_state(4)
        traj = integrate(p, s, 0.0, StepControls(scheme=scheme))
        assert traj.termination is Termination.REACHED_T_END
        assert traj.escape_time is None
        assert traj.times.tolist() == [0.0] and traj.states.shape == (1, 5)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_non_finite_t_end_rejected(self, t_end):
        s = gen_front(8, 4, 1.2, 0.5)
        with pytest.raises(DomainError, match="t_end must be finite"):
            integrate(ModelParams(alpha=0.25, trunc_k=8), s, t_end, StepControls())

    def test_nan_escape_threshold_rejected(self):
        # NaN compares False, so it would switch the escape test off: this
        # run escapes at t = 1.4 with a threshold of 500, but reached t_end
        p, s = ModelParams(alpha=0.0, trunc_k=12), gen_bump(12)
        c = StepControls(record_every=0.1)
        with pytest.raises(DomainError, match="escape_threshold"):
            integrate(p, s, 3.0, c, escape_threshold=math.nan)
        traj = integrate(p, s, 3.0, c, escape_threshold=math.inf)
        assert traj.termination is Termination.REACHED_T_END

    def test_nan_monotone_abort_tol_rejected(self):
        # NaN would switch the monotone guard off; inf still means "never"
        p, s = ModelParams(alpha=0.3, trunc_k=8), gen_front(8, 4, 1.2, 0.5)
        with pytest.raises(DomainError, match="monotone_abort_tol"):
            integrate(p, s, 0.1, StepControls(), monotone_abort_tol=math.nan)
        traj = integrate(p, s, 0.1, StepControls(), monotone_abort_tol=math.inf)
        assert traj.termination is Termination.REACHED_T_END

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_constant_state_unchanged(self, scheme):
        # a constant state is an equilibrium of every scheme, at every record
        p = ModelParams(alpha=0.3, trunc_k=4)
        s = constant_state(4)
        traj = integrate(p, s, 0.05, StepControls(scheme=scheme, record_every=0.01))
        assert traj.termination is Termination.REACHED_T_END
        assert traj.times.size == 6
        assert np.max(np.abs(traj.states - s.a)) <= 1e-13

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_riccati_to_t1(self, scheme):
        # the inviscid coupling is lower-triangular, so component 1 follows
        # the single-mode law x' = -2 x**2 exactly whatever sits above it:
        # x(1) = 1 / (1 + 2) from x(0) = 1
        p = ModelParams(alpha=0.0, trunc_k=2)
        s = DyadicState(t=0.0, a=[0.0, 1.0, 1.0])
        # fixed-step RK4 has no tolerance to meet: its step sets the error
        dt_init = 1e-4 if scheme is Scheme.REFERENCE_FIXED_RK4 else 1e-3
        c = StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=0.1, scheme=scheme,
                         dt_init=dt_init)
        traj = integrate(p, s, 1.0, c)
        assert traj.termination is Termination.REACHED_T_END
        assert traj.final_state.a[1] == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_inviscid_pins_origin_exactly(self):
        p = ModelParams(alpha=0.0, trunc_k=10)
        c = StepControls(record_every=0.1)
        traj = integrate(p, gen_bump(10), 1.0, c)
        assert np.all(traj.states[:, 0] == 0.0)

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
        assert np.array_equal(t1.times, t2.times)
        assert np.array_equal(t1.states, t2.states)

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
        # with no transport term the exponential stepper is the semigroup itself
        p = ModelParams(alpha=0.35, trunc_k=10, norm_s=1.5)
        s0 = gen_geometric(10, 0.6)
        stepper = integrate_module._Etdrk4(dissipation_matrix(p), np.zeros_like)
        y = s0.a.copy()
        for i in range(1, 5):
            y, _ = stepper.attempt((i - 1) * 0.25, y, 0.25)
            ref = linear_semigroup(p, s0, i * 0.25)
            assert np.max(np.abs(y - ref.a)) < 1e-8

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
        assert traj.diag.xs_norm[-1] > 500.0

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
        # inf error norm or RK4's finiteness scan stops the run, so numpy
        # must stay silent
        p = ModelParams(alpha=0.25, trunc_k=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(p, gen_front(64, 4, 1.2, 0.5, 10.0), 0.2,
                             StepControls(scheme=scheme))
        assert traj.termination is not Termination.REACHED_T_END

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_blowup_is_escape_in_every_scheme(self, scheme):
        # one blow-up, one termination reason: Dormand-Prince stops on step
        # underflow far past the threshold, RK4 on a non-finite step and
        # IMEX at a recorded sample; all three report the escape
        p = ModelParams(alpha=0.25, trunc_k=64)
        traj = integrate(p, gen_front(64, 4, 1.2, 0.5, 10.0), 0.2,
                         StepControls(scheme=scheme))
        assert traj.termination is Termination.ESCAPE_DETECTED
        assert traj.escape_time is not None

    def test_imex_accuracy_at_benchmark_setup(self):
        # the default dissipative run (front amplitude 10, alpha 0.25, K 16)
        # against a tight Dormand-Prince solve; 1e-6 relative sup-gap
        p = ModelParams(alpha=0.25, trunc_k=16)
        s0 = gen_front(16, 4, 1.2, 0.5, 10.0)
        imex = integrate(p, s0, 0.25, StepControls(scheme=Scheme.DUHAMEL_IMEX))
        reference = integrate(
            p, s0, 0.25,
            StepControls(rel_tol=1e-12, abs_tol=1e-14, scheme=Scheme.EXPLICIT_ADAPTIVE,
                         record_every=0.25),
        )
        ref = reference.final_state.a
        gap = np.max(np.abs(imex.final_state.a - ref)) / np.max(np.abs(ref))
        assert gap <= 1e-6

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
        columns = [f.name for f in dataclasses.fields(Diagnostics)]
        for i, a in enumerate(traj.states):
            again = _diagnostics(a[None, :], p.norm_s, traj.delta)
            assert repr([c.tolist() for c in again]) == repr(
                [getattr(traj.diag, f)[i : i + 1].tolist() for f in columns]
            )
        # one slope pass gives what the public functionals give, bitwise;
        # the flat state has no slope ratio
        states = [DyadicState(t=t, a=a) for t, a in zip(traj.times, traj.states)]
        for state in states + [constant_state(8)]:
            d = Diagnostics(*_diagnostics(state.a[None, :], p.norm_s, traj.delta))
            ratio = slope_ratio_report(state).max_ratio
            assert d.max_ratio[0] == ratio if ratio is not None else math.isnan(d.max_ratio[0])
            assert d.front_index[0] == front_index(state)
            assert d.holder_half[0] == holder_seminorm(state, 0.5)


def _special_entries(rng, shape, zeros=True):
    """Normal entries scaled by 2**-40 .. 2**40, with about 5% each of inf,
    -inf and nan, and unless ``zeros`` is false 5% each of 0.0 and -0.0."""
    x = rng.standard_normal(shape) * np.exp2(rng.integers(-40, 40, shape))
    u = rng.random(shape)
    specials = [np.inf, -np.inf, np.nan] + ([0.0, -0.0] if zeros else [])
    for j, value in enumerate(specials):
        x[(u >= 0.05 * j) & (u < 0.05 * (j + 1))] = value
    return x


class TestVectorProducts:
    """The run path's vector products go through ``ndarray.dot``, which makes
    the BLAS call of ``np.matmul`` without its dispatch: the bits must be the
    same, inf and nan included, or the outputs would move."""

    @pytest.mark.parametrize("n", [3, 13, 21, 65, 1025])
    def test_stage_sums_match_matmul(self, rng, n):
        # the tableau rows, (i,) for i = 1..7, and random rows of each length;
        # numpy takes a row of length 1 as a scalar (daxpy), which skips a zero
        # coefficient, so there 0 * inf reads 0, not nan: the tableau's one
        # such row, (1/5,), has none
        rows = [*integrate_module._DP_A[1:], integrate_module._DP_E, integrate_module._DP_D]
        rows += [_special_entries(rng, i, zeros=i > 1) for i in range(1, 8)]
        with np.errstate(invalid="ignore", over="ignore"):
            for v in rows:
                for _ in range(4):
                    ks = _special_entries(rng, (v.size, n))
                    out = np.empty(n)
                    assert v.dot(ks, out=out) is out
                    assert out.tobytes() == np.matmul(v, ks).tobytes()
                    assert v.dot(ks).tobytes() == (v @ ks).tobytes()

    @pytest.mark.parametrize("n", [3, 13, 21, 65, 1025])
    def test_matvecs_match_matmul(self, rng, n):
        with np.errstate(invalid="ignore", over="ignore"):
            for m, y in [(rng.standard_normal((n, n)), rng.standard_normal(n)),
                         (_special_entries(rng, (n, n)), _special_entries(rng, n))]:
                out = np.empty(n)
                assert m.dot(y, out=out) is out
                assert out.tobytes() == np.matmul(m, y).tobytes()
                assert m.dot(y).tobytes() == (m @ y).tobytes()


class _StackDormandPrince(integrate_module._DormandPrince):
    """Reference: one stack of the stages per product, seven RHS per attempt,
    and dopri5's dense output of the last attempt one state at a time."""

    B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
    D = np.array([
        -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
        -10690763975 / 1880347072, 701980252875 / 199316789632,
        -1453857185 / 822651844, 69997945 / 29380423,
    ])

    def attempt(self, t, y, dt):
        a, e = integrate_module._DP_A, integrate_module._DP_E
        k = [self.rhs(y, np.empty_like(y))]
        for i in range(1, 7):
            yi = y + dt * (a[i] @ np.stack(k[: len(a[i])]))
            k.append(self.rhs(yi, np.empty_like(yi)))
        ks = np.stack(k)
        y_new = y + dt * (self.B @ ks)
        self.last = (y, y_new, ks, dt)
        return y_new, dt * (e @ ks)

    def interpolate(self, theta):
        y, y_new, ks, dt = self.last
        dy = y_new - y
        r3 = dt * ks[0] - dy
        r4 = dy - dt * ks[6] - r3
        r5 = dt * (self.D @ ks)
        return np.stack(
            [y + th * (dy + (1.0 - th) * (r3 + th * (r4 + (1.0 - th) * r5))) for th in theta]
        )


# (params, initial state, t_end, controls, integrate keywords)
DP_CASES = {
    "inviscid_bump": (
        ModelParams(alpha=0.0, trunc_k=10), gen_bump(10), 1.0,
        StepControls(scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=0.1), {},
    ),
    # the alpha 0.35, K 16 cell of the criterion-09 scan
    "front_rejections": (
        ModelParams(alpha=0.35, trunc_k=16), gen_front(16, 7, 1.3, 0.5, 10.0), 1.5,
        StepControls(rel_tol=1e-9, abs_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE,
                     record_every=0.005), {"escape_threshold": 1e4},
    ),
    # stiffer than the scan cells: over a hundred rejections
    "stiff_rejections": (
        ModelParams(alpha=0.45, trunc_k=14), gen_front(14, 7, 1.3, 0.5, 10.0), 1.5,
        StepControls(rel_tol=1e-9, abs_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE,
                     record_every=0.005), {"escape_threshold": 1e4},
    ),
    # the alpha 0.35, K 20 cell of the criterion-09 scan, where most of its
    # attempts are spent
    "scan_front_k20": (
        ModelParams(alpha=0.35, trunc_k=20), gen_front(20, 7, 1.3, 0.5, 10.0), 0.1,
        StepControls(rel_tol=1e-9, abs_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE,
                     record_every=0.005), {"escape_threshold": 1e4},
    ),
    "blowup_k64": (
        ModelParams(alpha=0.25, trunc_k=64), gen_front(64, 4, 1.2, 0.5, 10.0), 0.2,
        StepControls(scheme=Scheme.EXPLICIT_ADAPTIVE), {},
    ),
    "underflow": (
        ModelParams(alpha=0.45, trunc_k=12), gen_front(12, 4, 1.3, 0.5), 1.0,
        StepControls(rel_tol=1e-13, abs_tol=1e-16, dt_init=1e-2, dt_min=8e-3,
                     scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=0.1),
        {"monotone_abort_tol": math.inf},
    ),
}


def _count_calls(monkeypatch, stepper_cls):
    """Lists that collect the RHS calls, attempts and rejections of ``stepper_cls``.

    A rejection is an attempt from the same time as the one before it.
    """
    rhs_calls, attempts, rejected = [], [], []
    original_rhs = integrate_module._rhs_inviscid_array
    original_attempt = stepper_cls.attempt

    def rhs(y, out=None):
        rhs_calls.append(None)
        return original_rhs(y, out)

    def attempt(self, t, y, dt):
        if attempts and attempts[-1] == t:
            rejected.append(t)
        attempts.append(t)
        return original_attempt(self, t, y, dt)

    monkeypatch.setattr(integrate_module, "_rhs_inviscid_array", rhs)
    monkeypatch.setattr(stepper_cls, "attempt", attempt)
    return rhs_calls, attempts, rejected


class TestDormandPrince:
    """One stage buffer, first-same-as-last reuse, read-only results."""

    @pytest.mark.parametrize("case", list(DP_CASES))
    def test_matches_stack_reference(self, case, monkeypatch):
        p, s0, t_end, c, kw = DP_CASES[case]
        lean = integrate(p, s0, t_end, c, **kw)
        monkeypatch.setattr(integrate_module, "_DormandPrince", _StackDormandPrince)
        ref = integrate(p, s0, t_end, c, **kw)
        assert lean.termination is ref.termination
        assert lean.escape_time == ref.escape_time
        assert lean.times.tolist() == ref.times.tolist()
        assert np.array_equal(lean.states, ref.states)
        for f in dataclasses.fields(Diagnostics):
            assert repr(getattr(lean.diag, f.name).tolist()) == repr(
                getattr(ref.diag, f.name).tolist()
            )

    def test_six_rhs_per_attempt(self, monkeypatch):
        rhs_calls, attempts, rejected = _count_calls(monkeypatch, integrate_module._DormandPrince)
        p, s0, t_end, c, kw = DP_CASES["stiff_rejections"]
        traj = integrate(p, s0, t_end, c, **kw)
        assert traj.termination is Termination.REACHED_T_END
        assert len(rejected) > 100
        assert len(rhs_calls) == 6 * len(attempts) + 1

    def test_reuses_first_and_last_stage(self):
        p = ModelParams(alpha=0.35, trunc_k=8)
        rhs = integrate_module._build_rhs(p)
        calls = []

        def counted(y, out):
            calls.append(None)
            return rhs(y, out)

        def fresh(y, dt):
            return integrate_module._DormandPrince(rhs, p.n_modes).attempt(0.0, y.copy(), dt)

        stepper = integrate_module._DormandPrince(counted, p.n_modes)
        y = gen_front(8, 3, 1.2, 0.5).a.copy()
        stepper.attempt(0.0, y, 0.1)
        assert len(calls) == 7
        # a retry from the same state (a rejection) keeps the first stage
        y_new, err = stepper.attempt(0.0, y, 0.01)
        assert len(calls) == 13
        y_ref, err_ref = fresh(y, 0.01)
        assert np.array_equal(y_new, y_ref) and np.array_equal(err, err_ref)
        # the last stage of an attempt is the first of the next one
        y_next, err = stepper.attempt(0.01, y_new, 0.01)
        assert len(calls) == 19
        y_ref, err_ref = fresh(y_new, 0.01)
        assert np.array_equal(y_next, y_ref) and np.array_equal(err, err_ref)

    def test_result_is_read_only(self):
        p = ModelParams(alpha=0.0, trunc_k=6)
        rhs = integrate_module._build_rhs(p)
        y_new, _ = integrate_module._DormandPrince(rhs, p.n_modes).attempt(
            0.0, gen_bump(6).a.copy(), 1e-3
        )
        assert not y_new.flags.writeable
        with pytest.raises(ValueError):
            y_new[0] = 1.0

    def test_attempts_leave_earlier_states_alone(self):
        # the stages are written into the stepper's own buffers, through the
        # views of its stage plan, and the error norm into the run's: no
        # attempt writes into the caller's state or a state an earlier
        # attempt returned
        p, s0, _, c, _ = DP_CASES["scan_front_k20"]
        rhs = integrate_module._build_rhs(p)
        stepper = integrate_module._DormandPrince(rhs, p.n_modes)
        norm = integrate_module._ErrorNorm(p.n_modes, c)
        ks, n = stepper._ks, p.n_modes
        views = [(stepper._k0, 0, (n,)), (stepper._ks6, 0, (6, n)), (stepper._k6, 6, (n,))]
        for i, (row, prior, k) in enumerate(stepper._plan, start=1):
            assert row is integrate_module._DP_A[i]
            views += [(prior, 0, (i, n)), (k, i, (n,))]
        plan = [tuple(map(id, entry)) for entry in stepper._plan]
        for view, first, shape in views:
            assert view.base is ks and view.shape == shape
            assert view.ctypes.data == ks[first].ctypes.data
        buffers = (ks, stepper._g, stepper._err, norm._abs_y, norm._abs_new, norm._scale, norm._q)
        y = s0.a.copy()
        states, copies = [y], [y.copy()]

        def run(t, start, dt, accepted):
            y_new, err = stepper.attempt(t, start, dt)
            error = norm(err, start, y_new)
            assert repr(error) == repr(_scaled_error(err, start, y_new, c.rel_tol, c.abs_tol))
            assert (error <= 1.0) == accepted
            assert not any(np.shares_memory(y_new, a) for a in (*buffers, *states))
            assert not np.shares_memory(err, y_new)
            states.append(y_new)
            copies.append(y_new.copy())
            for a, b in zip(states, copies):
                assert a.tobytes() == b.tobytes()
            return y_new

        y1 = run(0.0, y, 1e-5, accepted=True)
        run(1e-5, y1, 1e-3, accepted=False)  # reuses the last stage of the first attempt
        y2 = run(1e-5, y1, 1e-5, accepted=True)  # the retry reuses the first stage
        run(2e-5, y2, 1e-5, accepted=True)  # and reuses the last stage again
        assert [tuple(map(id, entry)) for entry in stepper._plan] == plan


def _scaled_error(err, y_old, y_new, rtol, atol):
    """The error norm as first written, allocating: the oracle of ``_ErrorNorm``."""
    scale = np.maximum(np.abs(y_old), np.abs(y_new))
    scale *= rtol
    scale += atol
    v = float((np.abs(err) / scale).max())
    return math.inf if math.isnan(v) else v


def _reference_attempt(stepper, norm, t, y, h, controls):
    """``_attempt`` as first written: every step scanned for non-finite entries,
    then the oracle norm; ``norm`` is not used."""
    y_new, err = stepper.attempt(t, y, h)
    if not np.isfinite(y_new).all():
        err_norm = math.inf
    elif err is None:
        return y_new, h, None
    else:
        err_norm = _scaled_error(err, y, y_new, controls.rel_tol, controls.abs_tol)
    if not math.isfinite(err_norm) and (err is None or h <= 4.0 * controls.dt_min):
        return None, h, Termination.ESCAPE_DETECTED
    accepted = err_norm <= 1.0
    cap = 5.0 if accepted else 1.0
    fac = cap if err_norm == 0.0 else min(cap, max(0.2, 0.9 * err_norm**-stepper.err_exponent))
    h_next = h * fac
    if stepper.ladder:
        h_next = integrate_module._rung(h_next, controls, lift=accepted)
    if accepted:
        return y_new, h_next, None
    return None, h_next, Termination.STEP_UNDERFLOW if h_next < controls.dt_min else None


def _poisoned(f, call, index, value):
    """The right-hand side ``f`` with ``value`` written into entry ``index`` of its ``call``-th result."""
    calls = []

    def g(y, out=None):
        out = f(y) if out is None else f(y, out)
        calls.append(None)
        if len(calls) == call:
            out[index] = value
        return out

    return g


def _decision(result):
    y_new, h_next, stop = result
    return (None if y_new is None else y_new.tobytes()), repr(h_next), stop


class TestStepDecision:
    """The error norm in the run's buffers and the decision of ``_attempt``, bit for bit
    against the allocating norm and the finiteness scan of every step."""

    NON_FINITE = [math.inf, -math.inf, math.nan]

    @staticmethod
    def _steppers(scheme, p, make_f):
        """Two identical steppers of ``scheme``, each on its own right-hand side ``make_f()``."""
        if scheme is Scheme.DUHAMEL_IMEX:
            m = integrate_module.dissipation_matrix(p)
            return [integrate_module._Etdrk4(m, make_f()) for _ in range(2)]
        if scheme is Scheme.EXPLICIT_ADAPTIVE:
            return [integrate_module._DormandPrince(make_f(), p.n_modes) for _ in range(2)]
        return [integrate_module._Rk4Kahan(make_f()) for _ in range(2)]

    def test_norm_equals_oracle_over_attempt_sequence(self):
        # |y| is reused only for the state it was taken of: after accepted,
        # rejected and retried attempts, a fresh start from an equal copy or
        # from other data, and a return to an older state
        p, s0, _, c, _ = DP_CASES["scan_front_k20"]
        stepper = integrate_module._DormandPrince(integrate_module._build_rhs(p), p.n_modes)
        norm = integrate_module._ErrorNorm(p.n_modes, c)
        outcomes = []

        def run(y, dt):
            y_new, err = stepper.attempt(0.0, y, dt)
            got = norm(err, y, y_new)
            assert repr(got) == repr(_scaled_error(err, y, y_new, c.rel_tol, c.abs_tol))
            outcomes.append(got <= 1.0)
            return y_new

        y0 = s0.a.copy()
        y1 = run(y0, 1e-5)
        run(y1, 1e-3)
        y2 = run(y1, 1e-5)
        y3 = run(y2, 2e-5)
        run(y2.copy(), 1e-5)
        run(gen_front(20, 5, 1.2, 0.5, 3.0).a.copy(), 1e-5)
        run(y1, 1e-5)
        run(y3, 1e-3)
        run(y0, 1e-5)
        assert outcomes == [True, False, True, True, True, True, True, False, True]

    @pytest.mark.parametrize("case", ["stiff_rejections", "front_rejections"])
    def test_norm_equals_oracle_along_runs(self, case, monkeypatch):
        p, s0, t_end, c, kw = DP_CASES[case]
        original = integrate_module._ErrorNorm.__call__
        calls = []

        def checked(self, err, y, y_new):
            got = original(self, err, y, y_new)
            assert repr(got) == repr(_scaled_error(err, y, y_new, c.rel_tol, c.abs_tol))
            calls.append(got <= 1.0)
            return got

        monkeypatch.setattr(integrate_module._ErrorNorm, "__call__", checked)
        integrate(p, s0, t_end, c, **kw)
        assert calls.count(False) > 10 and calls.count(True) > 100

    @pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("index", [0, 7, 16])
    @pytest.mark.parametrize("scheme", [Scheme.EXPLICIT_ADAPTIVE, Scheme.DUHAMEL_IMEX])
    def test_non_finite_step_decided_as_before(self, scheme, index, value):
        # a non-finite entry forced into a stage reaches y_new; the error
        # norm is inf without a scan of y_new, so the step is rejected, or
        # ends the run as an escape within 4 dt_min, as before
        p, s0, _ = ETD_CASES["imex_front16"]
        if scheme is Scheme.DUHAMEL_IMEX:
            f = integrate_module._rhs_inviscid_array
        else:
            f = integrate_module._build_rhs(p)
        for h, dt_min in ((1e-3, 1e-13), (1e-3, 2.5e-4)):
            c = StepControls(scheme=scheme, dt_min=dt_min, record_every=1e-3)
            new, ref = self._steppers(scheme, p, lambda: _poisoned(f, 2, index, value))
            norm = integrate_module._ErrorNorm(p.n_modes, c)
            with np.errstate(over="ignore", invalid="ignore"):  # as inside integrate
                got = integrate_module._attempt(new, norm, 0.0, s0.a.copy(), h, c)
                want = _reference_attempt(ref, None, 0.0, s0.a.copy(), h, c)
            assert not np.isfinite(new._y_new).all()
            assert _decision(got) == _decision(want)
            assert got[0] is None and got[2] is (
                Termination.ESCAPE_DETECTED if h <= 4.0 * dt_min else None
            )

    @pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan"])
    def test_rk4_keeps_its_finiteness_scan(self, value):
        # a step without an error estimate is scanned: a non-finite one ends the run
        p, s0, _ = ETD_CASES["imex_front16"]
        c = StepControls(scheme=Scheme.REFERENCE_FIXED_RK4)
        f = integrate_module._build_rhs(p)
        new, ref = self._steppers(Scheme.REFERENCE_FIXED_RK4, p, lambda: _poisoned(f, 3, 5, value))
        norm = integrate_module._ErrorNorm(p.n_modes, c)
        with np.errstate(over="ignore", invalid="ignore"):
            got = integrate_module._attempt(new, norm, 0.0, s0.a.copy(), 1e-3, c)
            want = _reference_attempt(ref, None, 0.0, s0.a.copy(), 1e-3, c)
        assert got == (None, 1e-3, Termination.ESCAPE_DETECTED)
        assert _decision(got) == _decision(want)

    # (scheme, amplitude, exponents j of the sizes 0.05 * 2**-j): on the K = 64
    # front at amplitude 10 the larger Dormand-Prince attempts overflow; ETDRK4
    # is stable there, and overflows at amplitude 1e30
    OVERFLOW_CASES = [(Scheme.EXPLICIT_ADAPTIVE, 10.0, range(-4, 12)),
                      (Scheme.DUHAMEL_IMEX, 1e30, range(33, 45))]

    @pytest.mark.parametrize("scheme, amplitude, exponents", OVERFLOW_CASES,
                             ids=["dp", "etdrk4"])
    def test_overflow_front_attempts_decided_as_before(self, scheme, amplitude, exponents):
        p = ModelParams(alpha=0.25, trunc_k=64)
        y = gen_front(64, 4, 1.2, 0.5, amplitude).a.copy()
        c = StepControls(scheme=scheme, record_every=0.05)
        if scheme is Scheme.EXPLICIT_ADAPTIVE:
            f = integrate_module._build_rhs(p)
        else:
            f = integrate_module._rhs_inviscid_array
        finite = []
        with np.errstate(over="ignore", invalid="ignore"):
            for j in exponents:
                h = math.ldexp(0.05, -j)
                new, ref = self._steppers(scheme, p, lambda: f)
                norm = integrate_module._ErrorNorm(p.n_modes, c)
                got = integrate_module._attempt(new, norm, 0.0, y, h, c)
                assert _decision(got) == _decision(_reference_attempt(ref, None, 0.0, y, h, c))
                finite.append(bool(np.isfinite(new._y_new).all()))
        assert finite.count(False) >= 3 and finite.count(True) >= 3

    @pytest.mark.parametrize("scheme, amplitude, termination", [
        (Scheme.EXPLICIT_ADAPTIVE, 10.0, Termination.ESCAPE_DETECTED),
        (Scheme.DUHAMEL_IMEX, 10.0, Termination.ESCAPE_DETECTED),
        # every attempt overflows; the rungs stop short of 4 dt_min
        (Scheme.DUHAMEL_IMEX, 1e30, Termination.STEP_UNDERFLOW),
        (Scheme.REFERENCE_FIXED_RK4, 10.0, Termination.ESCAPE_DETECTED),
    ])
    def test_overflow_front_runs_unchanged(self, scheme, amplitude, termination, monkeypatch):
        p = ModelParams(alpha=0.25, trunc_k=64)
        s0 = gen_front(64, 4, 1.2, 0.5, amplitude)
        c = StepControls(scheme=scheme)
        lean = integrate(p, s0, 0.2, c)
        monkeypatch.setattr(integrate_module, "_attempt", _reference_attempt)
        ref = integrate(p, s0, 0.2, c)
        assert lean.termination is termination
        assert _run_bytes(lean) == _run_bytes(ref)


# (params, initial state, t_end, rel_tol) of the dense-output accuracy cases
DENSE_CASES = {
    "bump_k10": (ModelParams(alpha=0.0, trunc_k=10), gen_bump(10), 1.0, 1e-10),
    "bump_k20": (ModelParams(alpha=0.0, trunc_k=20), gen_bump(20), 0.5, 1e-10),
    # the alpha 0.35, K 12 cell of the criterion-09 scan; its steps sit at
    # the stability limit of the pair
    "scan_front_k12": (
        ModelParams(alpha=0.35, trunc_k=12), gen_front(12, 7, 1.3, 0.5, 10.0), 1.5, 1e-9,
    ),
}


@functools.lru_cache(maxsize=None)
def _dop853_reference(case):
    """A DOP853 solve of a dense-output case at rtol 1e-13, as a function of t.

    Its steps are capped at 1e-3: like that of any Runge-Kutta pair, its
    continuous extension is only accurate on steps well inside the
    stability region.  Uncapped, it reads 2.4e-8 off the stepped states
    (and a Radau solve) at t = 0.724 on the scan front.
    """
    p, s0, t_end, _ = DENSE_CASES[case]
    rhs = integrate_module._build_rhs(p)
    sol = solve_ivp(lambda t, y: rhs(y, np.empty_like(y)), (0.0, t_end), s0.a,
                    method="DOP853", rtol=1e-13, atol=1e-16, max_step=1e-3, dense_output=True)
    assert sol.success
    return sol.sol


def _count_attempts(monkeypatch):
    attempts = []
    original = integrate_module._DormandPrince.attempt

    def attempt(self, t, y, dt):
        attempts.append(dt)
        return original(self, t, y, dt)

    monkeypatch.setattr(integrate_module._DormandPrince, "attempt", attempt)
    return attempts


class TestDenseOutput:
    """Records inside a Dormand-Prince step come from its continuous extension."""

    def test_ends_of_the_step(self):
        p = ModelParams(alpha=0.35, trunc_k=12)
        rhs = integrate_module._build_rhs(p)
        stepper = integrate_module._DormandPrince(rhs, p.n_modes)
        y = gen_front(12, 7, 1.3, 0.5, 10.0).a.copy()
        y_new, _ = stepper.attempt(0.0, y, 4e-3)
        start, end = stepper.interpolate(np.array([0.0, 1.0]))
        assert np.array_equal(start, y)
        np.testing.assert_allclose(end, y_new, rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("every, finer", [(1e-4, True), (0.1, False)])
    @pytest.mark.parametrize("case", list(DENSE_CASES))
    def test_records_match_reference(self, case, every, finer, monkeypatch):
        p, s0, t_end, rel_tol = DENSE_CASES[case]
        attempts = _count_attempts(monkeypatch)
        c = StepControls(rel_tol=rel_tol, abs_tol=1e-3 * rel_tol,
                         scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=every)
        traj = integrate(p, s0, t_end, c)
        assert traj.termination is Termination.REACHED_T_END
        assert (every < np.median(attempts)) == finer  # than the steps
        ref = _dop853_reference(case)(traj.times).T
        assert np.max(np.abs(traj.states - ref)) <= rel_tol * np.max(np.abs(traj.states))

    def test_records_do_not_set_the_steps(self, monkeypatch):
        # the inviscid_diag benchmark run: 5,001 records from a few dozen steps
        attempts = _count_attempts(monkeypatch)
        c = StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=1e-4)
        traj = integrate(ModelParams(alpha=0.0, trunc_k=20), gen_bump(20), 0.5, c)
        assert len(traj.times) == 5001 and traj.times[-1] == 0.5
        assert len(attempts) < 100


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

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_t(self, t):
        p = ModelParams(alpha=0.25, trunc_k=4)
        with pytest.raises(DomainError, match="^t must be finite and non-negative"):
            linear_semigroup(p, constant_state(4), t)

    def test_monotonicity_preserved(self, rng):
        p = ModelParams(alpha=0.3, trunc_k=10)
        for _ in range(5):
            s = random_monotone_state(rng, 10)
            out = linear_semigroup(p, s, 0.5)
            assert float(np.min(np.diff(out.a))) >= -1e-10
            assert out.a[0] >= -1e-12

    def test_samples_match_single_applications(self):
        p = ModelParams(alpha=0.35, trunc_k=10)
        s = gen_front(10, 4, 1.2, 0.5)
        times, states = linear_semigroup_samples(p, s, 0.5, 0.1)
        assert times.tolist() == [j * 0.1 for j in range(6)]
        assert states.shape == (6, 11)
        np.testing.assert_array_equal(states[0], s.a)
        for t, a in zip(times[1:], states[1:]):
            np.testing.assert_allclose(a, linear_semigroup(p, s, t).a, rtol=1e-12)
        with pytest.raises(DomainError):
            linear_semigroup_samples(ModelParams(alpha=0.0, trunc_k=10), s, 0.5, 0.1)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["t_end", "record_every"])
    def test_samples_reject_non_finite(self, name, value):
        args = {"t_end": 1.0, "record_every": 0.1, name: value}
        p = ModelParams(alpha=0.3, trunc_k=8)
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            linear_semigroup_samples(p, gen_front(8, 4, 1.2, 0.5), **args)

    @pytest.mark.parametrize(
        "t_end, times", [(1.0, [0.0, 0.3, 0.6, 3 * 0.3, 1.0]), (0.2, [0.0, 0.2])]
    )
    def test_samples_end_at_off_cadence_t_end(self, t_end, times):
        p = ModelParams(alpha=0.3, trunc_k=8)
        s = gen_front(8, 3, 1.2, 0.5)
        got, states = linear_semigroup_samples(p, s, t_end, 0.3)
        assert got.tolist() == times
        for t, a in zip(got[1:], states[1:]):
            np.testing.assert_allclose(a, linear_semigroup(p, s, t).a, rtol=0, atol=1e-12)


class TestEdgeInputs:
    """K = 2 and alpha near 0 and 1/2 on bump data, against a tight DP run."""

    @pytest.mark.parametrize("scheme", [Scheme.EXPLICIT_ADAPTIVE, Scheme.DUHAMEL_IMEX])
    @pytest.mark.parametrize("alpha", [1e-3, 0.499])
    @pytest.mark.parametrize("trunc_k", [2, 16])
    def test_default_tolerances_match_reference(self, trunc_k, alpha, scheme):
        p = ModelParams(alpha=alpha, trunc_k=trunc_k)
        s0 = gen_bump(trunc_k)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ref = integrate(p, s0, 0.05, StepControls(
                rel_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=0.01))
            traj = integrate(p, s0, 0.05, StepControls(scheme=scheme, record_every=0.01))
        assert traj.termination is ref.termination is Termination.REACHED_T_END
        assert traj.times.tolist() == ref.times.tolist()
        a, a_ref = traj.states, ref.states
        assert np.max(np.abs(a - a_ref)) <= 1e-8 * np.max(np.abs(a_ref))

    @pytest.mark.parametrize("trunc_k", [2, 12, 20])
    def test_exponential_scheme_at_alpha_zero(self, trunc_k):
        # forced at alpha = 0 the exponential scheme steps with a zero linear
        # part, where it is classical RK4, and tracks a tight DP run
        p = ModelParams(alpha=0.0, trunc_k=trunc_k)
        s0 = gen_bump(trunc_k)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ref = integrate(p, s0, 0.3, StepControls(
                rel_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE))
            traj = integrate(p, s0, 0.3, StepControls(scheme=Scheme.DUHAMEL_IMEX))
        assert traj.termination is ref.termination is Termination.REACHED_T_END
        assert traj.times.tolist() == ref.times.tolist()
        a, a_ref = traj.states, ref.states
        assert np.max(np.abs(a - a_ref)) <= 1e-8 * np.max(np.abs(a_ref))

    def test_inviscid_run_beyond_k1024(self):
        # the transport weights overflow from k = 1024; the flat top of the
        # bump must not read as an escape at t = 0
        p = ModelParams(alpha=0.0, trunc_k=1100)
        traj = integrate(p, gen_bump(1100), 0.02, StepControls())
        assert traj.termination is Termination.REACHED_T_END
        assert traj.times[-1] == 0.02 and traj.escape_time is None

    def test_no_overflow_warning_at_large_k(self):
        # 2 * 2**(1.5 * 682) overflows: the X^s norm is inf, which integrate
        # and detect_escape read without a numpy warning (an error under the
        # pytest config)
        p = ModelParams(alpha=0.0, trunc_k=700)
        s0 = DyadicState(t=0.0, a=[0.0] * 682 + [2.0] * 19)
        assert xs_norm(s0, p.norm_s) == math.inf
        traj = integrate(p, s0, 1e-3, StepControls(scheme=Scheme.EXPLICIT_ADAPTIVE))
        assert traj.diag.xs_norm[0] == math.inf
        with pytest.raises(DomainError, match="threshold must exceed"):
            detect_escape(traj, threshold=1e300, s=p.norm_s)

    def test_infinite_threshold_accepted_over_infinite_norm(self):
        # threshold inf means never, also where the initial X^s norm is inf;
        # a finite threshold (or NaN) stays refused there
        p = ModelParams(alpha=0.0, trunc_k=700)
        s0 = DyadicState(t=0.0, a=[0.0] * 682 + [2.0] * 19)
        assert xs_norm(s0, p.norm_s) == math.inf
        c = StepControls(scheme=Scheme.EXPLICIT_ADAPTIVE)
        traj = integrate(p, s0, 1e-3, c, escape_threshold=math.inf)
        assert detect_escape(traj, threshold=math.inf, s=p.norm_s) is None
        for bad in (1e300, math.nan):
            with pytest.raises(DomainError, match="escape_threshold must exceed"):
                integrate(p, s0, 1e-3, c, escape_threshold=bad)

    def test_t_end_before_initial_time_refused(self):
        p = ModelParams(alpha=0.3, trunc_k=4)
        s0 = DyadicState(t=1.0, a=[0.0, 0.5, 0.8, 0.9, 0.95])
        with pytest.raises(DomainError, match="t_end must not precede the initial time"):
            integrate(p, s0, 0.5, StepControls())

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_cadence_longer_than_run(self, scheme):
        # record_every 1.0 past t_end 0.3: the run records t0 and t_end only
        p = ModelParams(alpha=0.3, trunc_k=10)
        s0 = gen_front(10, 4, 1.2, 0.5)
        dt_init = 1e-4 if scheme is Scheme.REFERENCE_FIXED_RK4 else 1e-3
        traj = integrate(p, s0, 0.3, StepControls(scheme=scheme, record_every=1.0,
                                                  dt_init=dt_init))
        ref = integrate(p, s0, 0.3, StepControls(
            rel_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=1.0))
        assert traj.times.tolist() == ref.times.tolist() == [0.0, 0.3]
        assert traj.termination is Termination.REACHED_T_END
        a, a_ref = traj.final_state.a, ref.final_state.a
        assert np.max(np.abs(a - a_ref)) <= 1e-8 * np.max(np.abs(a_ref))


class TestTrajectory:
    """The array layout of a run and what its constructor checks."""

    @pytest.fixture(scope="class")
    def traj(self):
        p = ModelParams(alpha=0.3, trunc_k=6)
        return integrate(p, gen_geometric(6, 0.5), 0.3, StepControls(record_every=0.1))

    def test_layout(self, traj):
        assert traj.times.shape == (4,) and traj.states.shape == (4, 7)
        for f in dataclasses.fields(Diagnostics):
            assert getattr(traj.diag, f.name).shape == (4,)
        assert traj.final_state.t == 0.3
        assert np.array_equal(traj.final_state.a, traj.states[-1])
        assert traj.max_xs_norm() == max(traj.diag.xs_norm.tolist())

    def test_read_only(self, traj):
        for arr in (traj.times, traj.states, traj.diag.xs_norm, traj.diag.front_index):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_holds_copies(self, traj):
        times, states = traj.times.copy(), traj.states.copy()
        again = dataclasses.replace(traj, times=times, states=states)
        states[1, 1] = -5.0
        assert again.states[1, 1] == traj.states[1, 1]

    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.1, 0.3], [0.0, 0.2, 0.1, 0.3]])
    def test_times_must_increase_strictly(self, traj, times):
        with pytest.raises(DomainError, match="strictly increasing"):
            dataclasses.replace(traj, times=times)

    def test_state_width_must_match_params(self, traj):
        with pytest.raises(InvalidInputError):
            dataclasses.replace(traj, states=traj.states[:, :-1])
        with pytest.raises(InvalidInputError):
            dataclasses.replace(traj, times=traj.times[:-1])

    @staticmethod
    def _columns(diag):
        return repr([getattr(diag, f.name).tolist() for f in dataclasses.fields(Diagnostics)])

    def test_diag_follows_delta(self, traj):
        again = integrate(traj.params, gen_geometric(6, 0.5), 0.3,
                          StepControls(record_every=0.1), delta=0.3)
        moved = dataclasses.replace(traj, delta=0.3)
        assert repr(moved.diag.j_value.tolist()) == repr(again.diag.j_value.tolist())
        assert moved.diag.j_value.tolist() != traj.diag.j_value.tolist()

    def test_diag_follows_samples(self, traj):
        head = dataclasses.replace(traj, times=traj.times[:2], states=traj.states[:2])
        for f in dataclasses.fields(Diagnostics):
            column = getattr(head.diag, f.name)
            assert column.shape == (2,)
            assert repr(column.tolist()) == repr(getattr(traj.diag, f.name)[:2].tolist())

    @pytest.mark.parametrize("kind", ["sign-flip", "sqrt2-ratio"])
    def test_injected_fault_carries_its_own_diag(self, traj, kind):
        hurt = inject_fault(Trajectory(traj.params, traj.delta, traj.times, traj.states,
                                       traj.termination), kind)
        assert not np.array_equal(hurt.states, traj.states)
        want = Diagnostics(*_diagnostics(hurt.states, traj.params.norm_s, traj.delta))
        assert self._columns(hurt.diag) == self._columns(want)

    def test_diag_is_not_an_argument(self, traj):
        with pytest.raises(TypeError):
            Trajectory(traj.params, traj.delta, traj.times, traj.states,
                       termination=traj.termination, diag=traj.diag)
        with pytest.raises(ValueError):
            dataclasses.replace(traj, diag=traj.diag)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_entries_must_be_finite(self, traj, bad):
        states = traj.states.copy()
        states[2, 3] = bad
        with pytest.raises(InvalidInputError):
            dataclasses.replace(traj, states=states)
        times = traj.times.copy()
        times[-1] = bad
        with pytest.raises(InvalidInputError):
            dataclasses.replace(traj, times=times)


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
        norms = dict(zip(traj.times.tolist(), traj.diag.xs_norm.tolist()))
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
        # phi_0..phi_3 from the block trick against their series on a small
        # random matrix: phi_k(A) = sum_j A^j / (j + k)!
        a = rng.standard_normal((5, 5)) * 0.3
        blocks = integrate_module._phi_blocks(a)
        assert len(blocks) == 4
        series = [np.zeros((5, 5)) for _ in range(4)]
        term = np.eye(5)  # A^j / j!
        for j in range(25):
            if j:
                term = term @ a / j
            for k in range(4):
                series[k] += term * (math.factorial(j) / math.factorial(j + k))
        for block, ref in zip(blocks, series):
            np.testing.assert_allclose(block, ref, atol=1e-12)

    @pytest.mark.parametrize("case", list(PHI_ACTIONS), ids=str)
    def test_phi_actions_match_mpmath(self, case):
        # phi_j(-h M) a of the front datum against scripts/make_phi_literals.py;
        # every entry is positive (-M is Metzler, a >= 0), so each is compared
        # relative to itself
        alpha, trunc_k, h = case
        a = gen_front(trunc_k, 4, 1.2, 0.5, 10.0).a
        m = dissipation_matrix(ModelParams(alpha=alpha, trunc_k=trunc_k))
        got = np.array([phi @ a for phi in integrate_module._phi_blocks(-h * m)])
        ref = np.array(PHI_ACTIONS[case])
        assert np.all(ref > 0.0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("n", [3, 21])
    def test_zero_linear_part(self, n):
        # the exponential scheme at alpha = 0: phi_j(0) = I / j!
        blocks = integrate_module._phi_blocks(np.zeros((n, n)))
        for block, scale in zip(blocks, (1.0, 1.0, 0.5, 1.0 / 6.0)):
            np.testing.assert_array_max_ulp(block, scale * np.eye(n), maxulp=1)


class TestExpm:
    """The Pade exponential at the edges of its domain."""

    @pytest.mark.parametrize("t", [0.01, 1.0, 10.0])
    def test_smallest_truncation(self, t):
        # K = 2: against the eigendecomposition of the 3 x 3 matrix
        p = ModelParams(alpha=0.25, trunc_k=2)
        m = dissipation_matrix(p)
        lam, v = np.linalg.eig(m)
        ref = (v @ np.diag(np.exp(-t * lam)) @ np.linalg.inv(v)).real
        np.testing.assert_allclose(integrate_module.expm(-t * m), ref, rtol=0, atol=1e-14)
        s = gen_bump(2)
        np.testing.assert_allclose(linear_semigroup(p, s, t).a, ref @ s.a, rtol=0, atol=1e-14)

    def test_near_half_long_time(self):
        # alpha 0.499, K 24, t 10: one-norm 2.7e8, 26 squarings, no
        # overflow warning (the suite turns RuntimeWarning into an error)
        p = ModelParams(alpha=0.499, trunc_k=24)
        s = gen_front(24, 4, 1.2, 0.5, 10.0)
        out = linear_semigroup(p, s, 10.0)
        assert np.all(np.isfinite(out.a))
        assert xs_norm(out, p.norm_s) <= xs_norm(s, p.norm_s)

    def test_refuses_rates_below_roundoff_fast(self):
        # alpha 0.25, K 1024, t 0.01: one-norm 4.7e152 would take 505
        # squarings, and exp of the slowest rate 0.01 scaled by 2**-505 is 1
        p = ModelParams(alpha=0.25, trunc_k=1024)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="ROADMAP item 1"):
            linear_semigroup(p, gen_bump(1024), 0.01)
        assert time.perf_counter() - start < 1.0

    def test_k64_returns(self):
        # below the bound: 25 squarings, a finite result (accurate normwise,
        # not entrywise, so its X^s norm is not checked here)
        p = ModelParams(alpha=0.25, trunc_k=64)
        out = linear_semigroup(p, gen_bump(64), 0.01)
        assert np.all(np.isfinite(out.a))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            integrate_module.expm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# (params, initial state, t_end) of the exponential-stepper accuracy cases
ETD_CASES = {
    # the default dissipative run of the benchmark
    "imex_front16": (ModelParams(alpha=0.25, trunc_k=16), gen_front(16, 4, 1.2, 0.5, 10.0), 1.0),
    # the front of the criterion-09 scan, stiffer than its cells
    "scan_front_k20": (ModelParams(alpha=0.45, trunc_k=20), gen_front(20, 7, 1.3, 0.5, 10.0), 0.05),
}


class _MatmulEtdrk4(integrate_module._Etdrk4):
    """Reference: the table applications written with ``@``, N(y) evaluated afresh."""

    def attempt(self, t, y, dt):
        e_half, p_half = self._tables(0.5 * dt)[:2]
        e, _, w1, w2, w3 = self._tables(dt)
        nl = self.nl
        n0 = nl(y)
        ey_half = e_half @ y
        a = ey_half + p_half @ n0
        na = nl(a)
        nb = nl(ey_half + p_half @ na)
        nc = nl(e_half @ a + p_half @ (2.0 * nb - n0))
        y_new = e @ y + w1 @ n0 + w2 @ (na + nb) + w3 @ nc
        return y_new, w3 @ (nl(y_new) - nc)


class TestEtdrk4:
    """The exponential stepper on its own: order, its error estimate, RK4 at M = 0."""

    def test_matches_matmul_reference(self, monkeypatch):
        p, s0, t_end = ETD_CASES["imex_front16"]
        c = StepControls(scheme=Scheme.DUHAMEL_IMEX)
        m = integrate_module.dissipation_matrix(p)
        dt = integrate_module._rung(c.dt_init, c)
        nl = integrate_module._rhs_inviscid_array
        y_new, err = integrate_module._Etdrk4(m, nl).attempt(0.0, s0.a.copy(), dt)
        y_ref, err_ref = _MatmulEtdrk4(m, nl).attempt(0.0, s0.a.copy(), dt)
        assert y_new.tobytes() == y_ref.tobytes() and err.tobytes() == err_ref.tobytes()
        # and every attempt of the benchmark's run
        lean = integrate(p, s0, t_end, c)
        monkeypatch.setattr(integrate_module, "_Etdrk4", _MatmulEtdrk4)
        ref = integrate(p, s0, t_end, c)
        assert _run_bytes(lean) == _run_bytes(ref)

    def test_fourth_order_on_rungs(self):
        # fixed rung steps h, h/2, h/4 on the imex_front16 data against a
        # tight DP run: each halving divides the error by about 2**4
        p = ModelParams(alpha=0.25, trunc_k=16)
        s0 = gen_front(16, 4, 1.2, 0.5, 10.0)
        t_end = 0.05
        ref = integrate(p, s0, t_end, StepControls(
            rel_tol=1e-12, abs_tol=1e-14, scheme=Scheme.EXPLICIT_ADAPTIVE,
            record_every=t_end)).final_state.a
        errors = []
        for j in (2, 3, 4):
            h = math.ldexp(0.01, -j)
            stepper = integrate_module._make_stepper(p, StepControls(scheme=Scheme.DUHAMEL_IMEX))
            y = s0.a.copy()
            for i in range(round(t_end / h)):
                y, _ = stepper.attempt(i * h, y, h)
            errors.append(np.max(np.abs(y - ref)) / np.max(np.abs(ref)))
        ratios = [e0 / e1 for e0, e1 in zip(errors, errors[1:])]
        assert all(12.0 <= r <= 20.0 for r in ratios), (errors, ratios)

    def test_estimate_is_fourth_order(self):
        # one attempt from the imex_front16 data on the rungs 0.01 * 2**-3
        # .. 0.01 * 2**-6: the estimate falls by about 2**4 per halving (an
        # embedded ETD2RK estimate falls by about 2**3)
        p, s0, _ = ETD_CASES["imex_front16"]
        stepper = integrate_module._make_stepper(p, StepControls(scheme=Scheme.DUHAMEL_IMEX))
        norms = []
        for j in (3, 4, 5, 6):
            _, err = stepper.attempt(0.0, s0.a.copy(), math.ldexp(0.01, -j))
            norms.append(np.max(np.abs(err)))
        ratios = [e0 / e1 for e0, e1 in zip(norms, norms[1:])]
        assert all(12.0 <= r <= 20.0 for r in ratios), (norms, ratios)

    def test_four_rhs_per_attempt(self, monkeypatch):
        # a rejected attempt is retried from the same state and keeps N(y);
        # an accepted one hands N(y_new) to the next attempt
        rhs_calls, attempts, rejected = _count_calls(monkeypatch, integrate_module._Etdrk4)
        p, s0, t_end = ETD_CASES["imex_front16"]
        # a first step far too large: rejected until it fits
        c = StepControls(dt_init=0.5, record_every=t_end, scheme=Scheme.DUHAMEL_IMEX)
        traj = integrate(p, s0, t_end, c)
        assert traj.termination is Termination.REACHED_T_END
        assert len(rejected) >= 3
        assert len(rhs_calls) == 4 * len(attempts) + 1

    def test_reuses_first_and_last_stage(self):
        p, s0, _ = ETD_CASES["imex_front16"]
        c = StepControls(scheme=Scheme.DUHAMEL_IMEX)
        calls = []

        def counted(y):
            calls.append(None)
            return integrate_module._rhs_inviscid_array(y)

        def fresh(y, dt):
            return integrate_module._make_stepper(p, c).attempt(0.0, y.copy(), dt)

        stepper = integrate_module._Etdrk4(integrate_module.dissipation_matrix(p), counted)
        y = s0.a.copy()
        stepper.attempt(0.0, y, 0.01)
        assert len(calls) == 5
        # a retry from the same state (a rejection) keeps N(y)
        y_new, err = stepper.attempt(0.0, y, 0.005)
        assert len(calls) == 9
        y_ref, err_ref = fresh(y, 0.005)
        assert np.array_equal(y_new, y_ref) and np.array_equal(err, err_ref)
        # N at the new state is the N(y) of the next attempt
        y_next, err = stepper.attempt(0.005, y_new, 0.005)
        assert len(calls) == 13
        y_ref, err_ref = fresh(y_new, 0.005)
        assert np.array_equal(y_next, y_ref) and np.array_equal(err, err_ref)

    def test_result_is_read_only(self):
        p, s0, _ = ETD_CASES["imex_front16"]
        stepper = integrate_module._make_stepper(p, StepControls(scheme=Scheme.DUHAMEL_IMEX))
        y_new, _ = stepper.attempt(0.0, s0.a.copy(), 1e-3)
        assert not y_new.flags.writeable
        with pytest.raises(ValueError):
            y_new[0] = 1.0

    @pytest.mark.parametrize("case", list(ETD_CASES))
    def test_error_follows_tolerance(self, case):
        # against a tight Dormand-Prince solve the gap stays within rel_tol
        # and shrinks with it
        p, s0, t_end = ETD_CASES[case]
        ref = integrate(p, s0, t_end, StepControls(
            rel_tol=1e-12, abs_tol=1e-14, scheme=Scheme.EXPLICIT_ADAPTIVE,
            record_every=t_end)).final_state.a
        gaps = []
        for rel_tol in (1e-8, 1e-10):
            a = integrate(p, s0, t_end, StepControls(
                rel_tol=rel_tol, scheme=Scheme.DUHAMEL_IMEX)).final_state.a
            gaps.append(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))
            assert gaps[-1] <= rel_tol, gaps
        assert 10.0 * gaps[1] <= gaps[0], gaps

    def test_zero_linear_part_is_rk4(self, rng):
        n = 9
        y = np.sort(rng.random(n))
        nl = integrate_module._rhs_inviscid_array
        stepper = integrate_module._Etdrk4(np.zeros((n, n)), nl)
        y_new, err = stepper.attempt(0.0, y, 0.01)
        rk4, _ = integrate_module._Rk4Kahan(nl).attempt(0.0, y, 0.01)
        np.testing.assert_allclose(y_new, rk4, rtol=0, atol=1e-15)
        # the estimate h/6 (N(y_new) - N(c)) is fourth order, not zero
        assert 0.0 < np.max(np.abs(err)) < 1e-4


class TestStepLadder:
    """IMEX steps are restricted to ``record_every * 2**-j``."""

    RUNGS = frozenset(math.ldexp(0.01, -j) for j in range(64))  # at the default cadence

    @staticmethod
    def _log_attempts(monkeypatch):
        log = []
        original = integrate_module._Etdrk4.attempt

        def attempt(self, t, y, dt):
            log.append((t, dt))
            return original(self, t, y, dt)

        monkeypatch.setattr(integrate_module._Etdrk4, "attempt", attempt)
        return log

    @staticmethod
    def _log_tables(monkeypatch):
        """The step sizes whose tables are built, one ``expm`` each, in order."""
        built, calls = [], []
        original_tables, original_expm = integrate_module._Etdrk4._tables, integrate_module.expm

        def tables(self, dt):
            if dt not in self._tables_cache:
                built.append(dt)
            return original_tables(self, dt)

        def expm(a):
            calls.append(a.shape)
            return original_expm(a)

        monkeypatch.setattr(integrate_module._Etdrk4, "_tables", tables)
        monkeypatch.setattr(integrate_module, "expm", expm)
        return built, calls

    @staticmethod
    def _front16(t_end, **controls):
        return integrate(ModelParams(alpha=0.25, trunc_k=16), gen_front(16, 4, 1.2, 0.5, 10.0),
                         t_end, StepControls(scheme=Scheme.DUHAMEL_IMEX, **controls))

    def test_tables_built_once(self, monkeypatch):
        # one table per rung the run visits: each attempt's size and its half
        log = self._log_attempts(monkeypatch)
        built, calls = self._log_tables(monkeypatch)
        traj = self._front16(0.25)
        assert traj.termination is Termination.REACHED_T_END
        visited = {h for _, dt in log for h in (dt, 0.5 * dt)}
        assert visited <= self.RUNGS
        assert sorted(built) == sorted(visited) and len(calls) == len(visited) <= 8

    def test_dt_init_rounded_to_ladder(self, monkeypatch):
        # dt_init 1e-3 is off the ladder of the cadence 0.01: the first
        # attempt takes the rung below it, 6.25e-4, and no table is off it
        log = self._log_attempts(monkeypatch)
        built, _ = self._log_tables(monkeypatch)
        traj = self._front16(0.05, dt_init=1e-3, record_every=0.01)
        assert traj.termination is Termination.REACHED_T_END
        assert log[0][1] == 6.25e-4
        assert built and set(built) <= self.RUNGS

    def test_short_last_gap_is_the_one_off_ladder_step(self, monkeypatch):
        # t_end 0.253 leaves a last gap of 0.003 after the record at 0.25:
        # rungs cover it up to one landing of its own size, whose table and
        # half-step table are the only two off the ladder
        log = self._log_attempts(monkeypatch)
        built, _ = self._log_tables(monkeypatch)
        traj = self._front16(0.253)
        assert traj.termination is Termination.REACHED_T_END
        assert traj.times[-2:].tolist() == [0.25, 0.253]
        off = [dt for _, dt in log if dt not in self.RUNGS]
        assert len(off) == 1 and log[-1][1] == off[0]
        assert sorted(dt for dt in built if dt not in self.RUNGS) == [0.5 * off[0], off[0]]

    def test_accepted_steps_on_ladder(self, monkeypatch):
        # tighter than the default tolerances, for enough accepted steps
        log = self._log_attempts(monkeypatch)
        c = StepControls(rel_tol=1e-11, abs_tol=1e-14, scheme=Scheme.DUHAMEL_IMEX)
        traj = integrate(ModelParams(alpha=0.25, trunc_k=16),
                         gen_front(16, 4, 1.2, 0.5, 10.0), 0.25, c)
        # an attempt is accepted when the next one starts from a later time
        starts = [t for t, _ in log] + [traj.final_state.t]
        accepted = [(t, dt) for (t, dt), t_next in zip(log, starts[1:]) if t_next > t]
        assert len(accepted) > 500
        # landings on a record included: every attempt is a rung
        assert [(t, dt) for t, dt in log if dt not in self.RUNGS] == []
        assert min(dt for _, dt in log) >= c.dt_min

    def test_attempts_at_benchmark_setup(self, monkeypatch):
        # the setup of TestIntegrate.test_imex_accuracy_at_benchmark_setup:
        # fourth order with an error estimate of its own order needs under
        # three hundred attempts here; with a second-order estimate it took
        # 1,325, and a second-order exponential scheme on the same ladder 21,100
        log = self._log_attempts(monkeypatch)
        traj = integrate(ModelParams(alpha=0.25, trunc_k=16),
                         gen_front(16, 4, 1.2, 0.5, 10.0), 0.25,
                         StepControls(scheme=Scheme.DUHAMEL_IMEX))
        assert traj.termination is Termination.REACHED_T_END
        assert 0 < len(log) <= 300

    def test_underflow_never_below_dt_min(self, monkeypatch):
        # the setup of TestIntegrate.test_step_underflow_termination, on IMEX
        log = self._log_attempts(monkeypatch)
        p = ModelParams(alpha=0.45, trunc_k=12)
        c = StepControls(
            rel_tol=1e-13, abs_tol=1e-16, dt_init=1e-2, dt_min=8e-3,
            scheme=Scheme.DUHAMEL_IMEX, record_every=0.1,
        )
        traj = integrate(p, gen_front(12, 4, 1.3, 0.5), 1.0, c,
                         monotone_abort_tol=math.inf)
        assert traj.termination is Termination.STEP_UNDERFLOW
        assert log and min(dt for _, dt in log) >= c.dt_min

    def test_snapped_proposal_below_dt_min(self):
        # near dt_min the snap can halve a proposal that was above it: an
        # accepted step then keeps the lowest rung at or above dt_min, and a
        # rejected one underflows instead of attempting below dt_min
        class Stub:
            ladder, err_exponent = True, 0.5

            def __init__(self, err_norm):
                self.err = err_norm * 1e-8

            def attempt(self, t, y, dt):
                return y, np.full_like(y, self.err)

        c = StepControls(rel_tol=1e-8, abs_tol=1e-30, dt_init=0.1, dt_min=1e-3,
                         record_every=0.1)
        rung = math.ldexp(0.1, -6)  # 1.5625e-3, the lowest rung >= dt_min
        norm = integrate_module._ErrorNorm(3, c)
        y_new, h_next, stop = integrate_module._attempt(Stub(0.99), norm, 0.0, np.ones(3), rung, c)
        assert y_new is not None and stop is None
        assert h_next == rung
        # rejected: 0.9 * 1.1**-0.5 * rung = 1.34e-3 >= dt_min, snapped 7.8e-4
        y_new, _, stop = integrate_module._attempt(Stub(1.1), norm, 0.0, np.ones(3), rung, c)
        assert y_new is None and stop is Termination.STEP_UNDERFLOW

    def test_lift_lands_on_rung_at_or_above_dt_min(self):
        # dt_min one ulp above a rung: log2(r / dt_min) rounds j - 1.6e-16 up
        # to j, and the lift must still take the rung above, not the one below
        for r in (0.01, 0.1, 1.0 / 3.0, 7.0):
            for j in range(1, 60):
                dt_min = math.nextafter(math.ldexp(r, -j), math.inf)
                c = StepControls(record_every=r, dt_min=dt_min, dt_init=max(1e-3, 4.0 * r))
                assert integrate_module._rung(0.3 * dt_min, c) == math.ldexp(r, -(j - 1)), (r, j)

    def test_rung_contract(self):
        # with no tolerance, a rung (also read back from its repr) is its own
        # rung, and any size x maps into (x/2, x (1 + 2**-52)]: one ulp or
        # 1e-12 relative below a rung takes the rung below, 1.7 rungs the rung
        rng = np.random.default_rng(0)
        for r in (0.01, 0.1, 0.005, 1e-4, 0.3, 1.0 / 3.0, 7.0):
            c = StepControls(record_every=r)
            sizes = [float(x) for x in r * np.exp2(-rng.uniform(0.0, 199.0, 2000))]
            for j in range(200):
                rung = math.ldexp(r, -j)
                assert integrate_module._rung(rung, c, lift=False) == rung
                assert integrate_module._rung(float(repr(rung)), c, lift=False) == rung
                sizes += [math.nextafter(rung, 0.0), rung * (1.0 - 1e-12), 1.7 * rung]
            for x in sizes:
                rung = integrate_module._rung(x, c, lift=False)
                assert 0.5 * x < rung <= x * (1.0 + 2.0**-52), (r, x, rung)
