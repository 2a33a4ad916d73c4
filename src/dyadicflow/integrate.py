"""Time integration for the truncated dyadic model.

Three schemes are provided:

* ``EXPLICIT_ADAPTIVE`` -- Dormand-Prince 5(4) embedded pair with error
  control; the right choice for inviscid runs and mildly stiff cases.
* ``DUHAMEL_IMEX`` -- exponential integrator of ETD2RK type: the linear
  dissipative flow enters through the exact matrix exponential (computed by
  scaling-and-squaring, i.e. a power-of-two substepped rational solve) and
  the quadratic transport term is treated explicitly, so the step size is
  set by the nonlinearity rather than the fastest dissipative rate.
* ``REFERENCE_FIXED_RK4`` -- classical fixed-step RK4 with compensated
  (Kahan) state accumulation, used as a cross-validation reference.

The default for dissipative runs is the IMEX scheme.  :func:`step` and
:func:`integrate` share one step-size controller, :func:`_attempt`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from dyadicflow import analysis
from dyadicflow.model import (
    DomainError,
    DyadicState,
    ModelParams,
    _check_state,
    _rhs_inviscid_array,
    _xs_norm_array,
    dissipation_matrix,
)


class Scheme(Enum):
    EXPLICIT_ADAPTIVE = "explicit_adaptive"
    DUHAMEL_IMEX = "duhamel_imex"
    REFERENCE_FIXED_RK4 = "reference_fixed_rk4"


class Termination(Enum):
    REACHED_T_END = "reached_t_end"
    ESCAPE_DETECTED = "escape_detected"
    STEP_UNDERFLOW = "step_underflow"
    MAX_STEPS_EXCEEDED = "max_steps_exceeded"


class StepUnderflowError(RuntimeError):
    """The controller could not accept a step at or above dt_min."""


class EscapeSignal(RuntimeError):
    """A step produced non-finite values (solution left the representable range)."""


class IntegrationAbortError(RuntimeError):
    """Admissibility was violated beyond tolerance; indicates integrator error."""

    def __init__(self, t, index, margin):
        self.t, self.index, self.margin = t, index, margin
        super().__init__(
            f"monotonicity/positivity violated at t={t:.6g}, index {index}, "
            f"undershoot {margin:.3e}"
        )


@dataclass(frozen=True)
class StepControls:
    """Error tolerances, step bounds and output cadence for a run."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-11
    dt_init: float = 1e-3
    dt_min: float = 1e-13
    max_steps: int = 2_000_000
    scheme: Optional[Scheme] = None  # None = pick by alpha (IMEX when alpha > 0)
    record_every: float = 0.01

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if not (0.0 < self.dt_min < self.dt_init):
            raise DomainError("need 0 < dt_min < dt_init")
        if self.max_steps <= 0:
            raise DomainError("max_steps must be positive")
        if not (self.record_every > 0.0):
            raise DomainError("record_every must be positive")
        if self.scheme is not None and not isinstance(self.scheme, Scheme):
            raise DomainError(f"scheme must be a Scheme value, got {self.scheme!r}")


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar diagnostics attached to each recorded sample."""

    xs_norm: float
    sup_a: float
    a0: float
    j_value: float
    max_ratio: float  # nan when no ratio is defined
    front_index: int
    holder_half: float


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    state: DyadicState
    diag: DiagnosticsRecord


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: parameters, sampled states with diagnostics, termination."""

    params: ModelParams
    delta: float
    samples: tuple[TrajectorySample, ...]
    termination: Termination
    escape_time: Optional[float] = None

    def __post_init__(self):
        ts = [s.t for s in self.samples]
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise DomainError("sample times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @property
    def final_state(self) -> DyadicState:
        return self.samples[-1].state

    def max_xs_norm(self) -> float:
        """Largest recorded X^s diagnostic norm (at params.norm_s)."""
        return max(s.diag.xs_norm for s in self.samples)


# ---------------------------------------------------------------------------
# schemes

# Dormand-Prince 5(4) tableau; the 5th-order solution is propagated and the
# difference to the embedded 4th-order one is the error estimate.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


class _DormandPrince:
    err_exponent = 1.0 / 5.0
    adaptive = True

    def __init__(self, rhs: Callable[[float, np.ndarray], np.ndarray]):
        self.rhs = rhs

    def attempt(self, t, y, dt):
        k = [self.rhs(t, y)]
        for i in range(1, 7):
            yi = y + dt * (_DP_A[i] @ np.stack(k[: len(_DP_A[i])]) if len(_DP_A[i]) else 0.0)
            k.append(self.rhs(t + _DP_C[i] * dt, yi))
        ks = np.stack(k)
        y_new = y + dt * (_DP_B @ ks)
        err = dt * (_DP_E @ ks)
        return y_new, err


class _ImexEtd2:
    """Second-order exponential integrator for a' = N(a) - M a."""

    err_exponent = 1.0 / 2.0
    adaptive = True
    _cache_limit = 256

    def __init__(self, m: Optional[np.ndarray], nonlinear: Callable[[np.ndarray], np.ndarray]):
        self.m = m
        self.nl = nonlinear
        self._tables_cache: dict[float, tuple] = {}

    def _tables(self, dt):
        hit = self._tables_cache.get(dt)
        if hit is not None:
            return hit
        n = self.m.shape[0]
        big = np.zeros((3 * n, 3 * n))
        big[:n, :n] = -dt * self.m
        big[:n, n : 2 * n] = np.eye(n)
        big[n : 2 * n, 2 * n :] = np.eye(n)
        f = expm(big)
        tables = (f[:n, :n], dt * f[:n, n : 2 * n], dt * f[:n, 2 * n :])
        if len(self._tables_cache) >= self._cache_limit:
            self._tables_cache.clear()
        self._tables_cache[dt] = tables
        return tables

    def attempt(self, t, y, dt):
        if self.m is None:
            # no linear part: degenerate to Heun's method
            n0 = self.nl(y)
            pred = y + dt * n0
            corr = 0.5 * dt * (self.nl(pred) - n0)
            return pred + corr, corr
        e, p1, p2 = self._tables(dt)
        n0 = self.nl(y)
        a1 = e @ y + p1 @ n0
        corr = p2 @ (self.nl(a1) - n0)
        return a1 + corr, corr


class _Rk4Kahan:
    """Classical RK4 with a compensated state accumulator."""

    adaptive = False

    def __init__(self, rhs):
        self.rhs = rhs
        self.carry = None

    def attempt(self, t, y, dt):
        f = self.rhs
        k1 = f(t, y)
        k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = f(t + dt, y + dt * k3)
        incr = (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if self.carry is None:
            self.carry = np.zeros_like(y)
        tmp = incr - self.carry
        y_new = y + tmp
        self.carry = (y_new - y) - tmp
        return y_new, None


def _build_rhs(params: ModelParams, nonlinear: bool):
    """Return (rhs(t, y), M, N(y)) for the configured system."""
    if params.alpha > 0.0:
        m = dissipation_matrix(params)
    else:
        m = None

    if nonlinear:
        nl = _rhs_inviscid_array
    else:
        nl = lambda y: np.zeros_like(y)  # noqa: E731

    if m is None:
        rhs = lambda t, y: nl(y)  # noqa: E731
    else:
        rhs = lambda t, y: nl(y) - m @ y  # noqa: E731
    return rhs, m, nl


def _resolve_scheme(params: ModelParams, controls: StepControls) -> Scheme:
    if controls.scheme is not None:
        return controls.scheme
    return Scheme.DUHAMEL_IMEX if params.alpha > 0.0 else Scheme.EXPLICIT_ADAPTIVE


def _make_stepper(params, controls, nonlinear):
    scheme = _resolve_scheme(params, controls)
    rhs, m, nl = _build_rhs(params, nonlinear)
    if scheme is Scheme.EXPLICIT_ADAPTIVE:
        return _DormandPrince(rhs), scheme
    if scheme is Scheme.DUHAMEL_IMEX:
        return _ImexEtd2(m, nl), scheme
    return _Rk4Kahan(rhs), scheme


def _scaled_error(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    v = float(np.max(np.abs(err) / scale))
    return math.inf if math.isnan(v) else v


def _diagnostics(state: DyadicState, norm_s: float, delta: float) -> DiagnosticsRecord:
    ratio = analysis.slope_ratio_report(state)
    return DiagnosticsRecord(
        xs_norm=_xs_norm_array(state.a, norm_s),
        sup_a=float(np.max(state.a)),
        a0=float(state.a[0]),
        j_value=analysis.j_functional(state, delta, warn=False),
        max_ratio=math.nan if ratio.max_ratio is None else float(ratio.max_ratio),
        front_index=analysis.front_index(state),
        holder_half=analysis.holder_seminorm(state, 0.5),
    )


def _attempt(stepper, t, y, h, controls: StepControls):
    """Run one attempt of size ``h`` from ``(t, y)`` and decide it.

    Returns ``(y_new, err, h_next)``, with ``y_new`` and ``err`` None when the
    step is rejected.  Raises :class:`EscapeSignal` on a non-finite step that
    cannot shrink and :class:`StepUnderflowError` below ``dt_min``.
    """
    y_new, err = stepper.attempt(t, y, h)
    if not np.all(np.isfinite(y_new)):
        err_norm = math.inf
    elif stepper.adaptive:
        err_norm = _scaled_error(err, y, y_new, controls.rel_tol, controls.abs_tol)
    else:
        return y_new, err, h
    if not math.isfinite(err_norm) and (not stepper.adaptive or h <= 4.0 * controls.dt_min):
        raise EscapeSignal(f"non-finite state after step at t={t + h:.6g}")
    # embedded-pair rule (Hairer-Norsett-Wanner, Solving ODEs I, II.4)
    accepted = err_norm <= 1.0
    cap = 5.0 if accepted else 1.0
    fac = cap if err_norm == 0.0 else min(cap, max(0.2, 0.9 * err_norm**-stepper.err_exponent))
    if accepted:
        return y_new, err, h * fac
    if h * fac < controls.dt_min:
        raise StepUnderflowError(f"step size underflow at t={t:.6g}")
    return None, None, h * fac


def step(
    params: ModelParams,
    state: DyadicState,
    controls: StepControls,
    dt: float,
) -> tuple[DyadicState, float, float]:
    """Advance one accepted step of the configured scheme.

    Returns the new state, the infinity norm of the local error estimate and
    the controller's proposed next step size.  Raises
    :class:`StepUnderflowError` when acceptance would need dt below dt_min
    and :class:`EscapeSignal` when the step produces non-finite values.
    """
    if not (dt > 0.0):
        raise DomainError("dt must be positive")
    _check_state(params, state)
    stepper, _ = _make_stepper(params, controls, nonlinear=True)
    y = state.a.copy()
    y_new, h_next = None, dt
    with np.errstate(over="ignore", invalid="ignore"):
        while y_new is None:
            h = h_next
            y_new, err, h_next = _attempt(stepper, state.t, y, h, controls)
    err_max = 0.0 if err is None else float(np.max(np.abs(err)))
    return DyadicState(t=state.t + h, a=y_new), err_max, h_next


def integrate(
    params: ModelParams,
    state0: DyadicState,
    t_end: float,
    controls: StepControls,
    delta: float = 0.5,
    escape_threshold: Optional[float] = None,
    nonlinear: bool = True,
    monotone_abort_tol: Optional[float] = None,
) -> Trajectory:
    """Integrate to ``t_end``, sampling on the ``record_every`` cadence.

    Escape is declared when the X^s diagnostic norm of a recorded sample
    exceeds ``escape_threshold`` (default: 1e6 times the initial norm; the
    truncated system cannot truly blow up, so this is a proxy refined by
    truncation-scaling studies).  When the initial data is admissible,
    monotonicity is watched at every sample and a violation beyond
    ``monotone_abort_tol`` aborts the run: the model preserves admissibility,
    so a violation means integrator error, not dynamics.  The default abort
    tolerance scales with the step-error tolerances, marking only gross
    violations; pass an explicit value for tighter runs.
    """
    a0 = _check_state(params, state0)
    t0 = state0.t
    if t_end < t0:
        raise DomainError("t_end must not precede the initial time")

    n0 = _xs_norm_array(a0, params.norm_s)
    if escape_threshold is None:
        threshold = 1e6 * n0 if n0 > 0.0 else math.inf
    else:
        threshold = float(escape_threshold)
        if threshold <= n0:
            raise DomainError("escape threshold must exceed the initial norm")

    if monotone_abort_tol is None:
        monotone_abort_tol = max(
            1e-7,
            1e4 * (controls.abs_tol + controls.rel_tol * (1.0 + float(np.max(np.abs(a0))))),
        )
    guard = monotone_abort_tol < math.inf and a0[0] >= -1e-12 and (
        a0.size < 2 or float(np.min(np.diff(a0))) >= -1e-12
    )

    stepper, scheme = _make_stepper(params, controls, nonlinear)
    samples: list[TrajectorySample] = []
    termination: Optional[Termination] = None
    escape_time: Optional[float] = None

    def snapshot(t, y, check_escape=True) -> bool:
        """Record a sample; True when the run should stop (escape/guard)."""
        nonlocal termination, escape_time
        st = DyadicState(t=t, a=y)
        diag = _diagnostics(st, params.norm_s, delta)
        samples.append(TrajectorySample(t=t, state=st, diag=diag))
        if guard:
            d = np.diff(y)
            worst = min(float(y[0]), float(np.min(d)) if d.size else 0.0)
            if worst < -monotone_abort_tol:
                idx = int(np.argmin(np.concatenate([[y[0]], d])))
                raise IntegrationAbortError(t, idx, worst)
        if check_escape and diag.xs_norm > threshold:
            termination = Termination.ESCAPE_DETECTED
            escape_time = t
            return True
        return False

    if snapshot(t0, a0.copy()):
        return Trajectory(params, delta, tuple(samples), termination, escape_time)
    if t_end == t0:
        return Trajectory(params, delta, tuple(samples), Termination.REACHED_T_END)

    # record grid: t0 + j * cadence, always ending exactly at t_end
    n_rec = int(math.floor((t_end - t0) / controls.record_every + 1e-9))
    rec = [t0 + j * controls.record_every for j in range(1, n_rec + 1)]
    if not rec or rec[-1] < t_end - 1e-12 * max(1.0, abs(t_end)):
        rec.append(t_end)
    else:
        rec[-1] = t_end

    y = a0.copy()
    t = t0
    dt = min(controls.dt_init, controls.record_every)
    attempts = 0

    # overflow inside an attempt is caught by the isfinite checks of _attempt
    with np.errstate(over="ignore", invalid="ignore"):
        for target in rec:
            while t < target:
                attempts += 1
                if attempts > controls.max_steps:
                    termination = Termination.MAX_STEPS_EXCEEDED
                    break
                remaining = target - t
                h = min(dt, remaining)
                lands = h >= remaining
                try:
                    y_new, _, prop = _attempt(stepper, t, y, h, controls)
                except EscapeSignal:
                    termination, escape_time = Termination.ESCAPE_DETECTED, t
                    break
                except StepUnderflowError:
                    termination = Termination.STEP_UNDERFLOW
                    break
                if y_new is None:
                    dt = prop
                    continue
                dt = prop if (not lands or prop > dt) else dt
                y = y_new
                t = target if lands else t + h
            if termination is not None:
                break
            if snapshot(t, y.copy()):
                break

    if termination is None:
        termination = Termination.REACHED_T_END
    elif termination is not Termination.ESCAPE_DETECTED and samples[-1].t < t:
        # partial run: keep the last reached point for post-mortem inspection
        if np.all(np.isfinite(y)):
            snapshot(t, y.copy(), check_escape=False)

    return Trajectory(params, delta, tuple(samples), termination, escape_time)


def linear_semigroup(params: ModelParams, state0: DyadicState, t: float) -> DyadicState:
    """Apply the pure dissipative flow ``exp(-t L)`` to a state.

    Computed through the dense matrix exponential (scaling and squaring);
    ``-L`` generates a Markov semigroup on the truncated range, which keeps
    the computation well conditioned even at extreme stiffness.
    """
    if params.alpha <= 0.0:
        raise DomainError("the semigroup requires alpha > 0")
    if t < 0.0:
        raise DomainError("the semigroup is defined for t >= 0")
    a0 = _check_state(params, state0)
    if t == 0.0:
        return DyadicState(t=state0.t, a=a0.copy())
    e = expm(-t * dissipation_matrix(params))
    return DyadicState(t=state0.t + t, a=e @ a0)


def detect_escape(traj: Trajectory, threshold: float, s: float) -> Optional[float]:
    """Earliest sample time whose X^s norm exceeds the threshold, if any."""
    first = traj.samples[0]
    n0 = _xs_norm_array(first.state.a, s)
    if not (threshold > n0):
        raise DomainError("threshold must exceed the initial norm")
    for sample in traj.samples:
        if _xs_norm_array(sample.state.a, s) > threshold:
            return sample.t
    return None
