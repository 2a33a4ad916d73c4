"""Time integration for the truncated dyadic model.

Three schemes are provided:

* ``EXPLICIT_ADAPTIVE`` -- Dormand-Prince 5(4) embedded pair with error
  control; the right choice for inviscid runs and mildly stiff cases.  Its
  stages share one buffer per run, and the last stage of an attempt serves
  as the first of the next one (first same as last), so an attempt costs
  six right-hand sides, a rejected one too.
* ``DUHAMEL_IMEX`` -- fourth-order exponential integrator (Cox-Matthews
  ETDRK4 in phi-form, with an embedded ETD2RK error estimate): the linear
  dissipative flow enters through the exact matrix exponential and its
  phi-functions (one scaling-and-squaring ``expm`` of an augmented block)
  and the quadratic transport term is treated explicitly, so the step size
  is set by the nonlinearity rather than the fastest dissipative rate.  Its
  step sizes are rounded down to the ladder ``record_every * 2**-j``, so
  each exponential table is built once per run and size, not per attempt;
  the half step of a rung is the next rung.  At alpha = 0 it steps with a
  zero linear part, where it is classical RK4.
* ``REFERENCE_FIXED_RK4`` -- classical fixed-step RK4 with compensated
  (Kahan) state accumulation, used as a cross-validation reference.

The default for dissipative runs is the IMEX scheme.  :func:`step` and
:func:`integrate` share one step-size controller, :func:`_attempt`; it
snaps the proposals of a stepper whose ``ladder`` attribute is set.

A run is stored as arrays: :class:`Trajectory` holds the sample times
``(n,)``, the states ``(n, K+1)`` and their :class:`Diagnostics`, one
``(n,)`` column per scalar.  At each recorded sample :func:`integrate` only
keeps ``t`` and the state and runs the monotone guard and the escape test;
after the run :func:`_trajectory` stacks the states once and fills the
diagnostics by :func:`_diagnostics`, one block of ``analysis.BLOCK_ROWS``
rows per call, with results equal to a per-sample computation bitwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from dyadicflow import analysis
from dyadicflow.model import (
    DomainError,
    DyadicState,
    InvalidInputError,
    ModelParams,
    _check_state,
    _rhs_inviscid_array,
    _slopes_array,
    _xs_norms,
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


def _frozen(x, dtype=None) -> np.ndarray:
    """A read-only copy of ``x``."""
    arr = np.array(x, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Scalar diagnostics of the recorded samples, one read-only ``(n,)`` column each."""

    xs_norm: np.ndarray
    sup_a: np.ndarray
    a0: np.ndarray
    j_value: np.ndarray
    max_ratio: np.ndarray  # nan where no ratio is defined
    front_index: np.ndarray  # integers
    holder_half: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _frozen(getattr(self, f.name)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded run: parameters, sample times, states and diagnostics, termination.

    ``times`` (n,) and ``states`` (n, K+1) are read-only copies of what was
    passed; times must increase strictly and every entry must be finite.
    """

    params: ModelParams
    delta: float
    times: np.ndarray
    states: np.ndarray
    diag: Diagnostics
    termination: Termination
    escape_time: Optional[float] = None

    def __post_init__(self):
        times = _frozen(self.times, float)
        states = _frozen(self.states, float)
        if times.ndim != 1 or times.size < 1 or states.shape != (times.size, self.params.n_modes):
            raise InvalidInputError(
                f"need n >= 1 times and an (n, {self.params.n_modes}) state array, "
                f"got {times.shape} and {states.shape}"
            )
        if not (np.isfinite(times).all() and np.isfinite(states).all()):
            raise InvalidInputError("trajectory times and states must all be finite")
        if (times[1:] <= times[:-1]).any():
            raise DomainError("sample times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def final_state(self) -> DyadicState:
        return DyadicState(t=float(self.times[-1]), a=self.states[-1])

    def max_xs_norm(self) -> float:
        """Largest recorded X^s diagnostic norm (at params.norm_s)."""
        return float(self.diag.xs_norm.max())


# ---------------------------------------------------------------------------
# schemes

# Dormand-Prince 5(4) tableau; the 5th-order solution is propagated and the
# difference to the embedded 4th-order one is the error estimate.  Its weight
# row b is _DP_A[6] followed by 0, so the last stage is taken at the new state.
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
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


class _DormandPrince:
    """Dormand-Prince 5(4), first same as last, on an autonomous ``rhs``.

    The seventh stage is evaluated at the new state, so it is the first stage
    of the next attempt.  ``attempt`` reuses it when called from the state it
    returned last, and reuses the first stage when retried from the state it
    started from last.  Both are recognised by identity, which is sound
    because the returned state is read-only and callers do not mutate theirs.
    """

    err_exponent = 1.0 / 5.0
    adaptive = True
    ladder = False

    def __init__(self, rhs: Callable[[float, np.ndarray], np.ndarray], n: int):
        self.rhs = rhs
        self._ks = np.empty((7, n))  # one row per stage
        self._y = self._y_new = None  # start and result of the last attempt

    def attempt(self, t, y, dt):
        ks = self._ks
        if y is self._y_new:
            ks[0] = ks[6]
        elif y is not self._y:
            ks[0] = self.rhs(t, y)
        for i in range(1, 7):
            yi = y + dt * (_DP_A[i] @ ks[:i])
            ks[i] = self.rhs(t + _DP_C[i] * dt, yi)
        err = dt * (_DP_E @ ks)
        yi.flags.writeable = False
        self._y, self._y_new = y, yi
        return yi, err


def _phi_blocks(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """phi_0..phi_3 of ``a`` from one ``expm`` of a 4n x 4n augmented block.

    The exponential of ``[[a, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0]`` holds
    ``exp(a), phi_1(a), phi_2(a), phi_3(a)`` in its top block row (Sidje,
    Expokit, 1998; Al-Mohy & Higham 2011).
    """
    n = a.shape[0]
    big = np.zeros((4 * n, 4 * n))
    big[:n, :n] = a
    for j in range(1, 4):
        big[(j - 1) * n : j * n, j * n : (j + 1) * n] = np.eye(n)
    f = expm(big)
    # copies, so a cached table does not keep the whole 4n x 4n result alive
    return tuple(f[:n, j * n : (j + 1) * n].copy() for j in range(4))


class _Etdrk4:
    """Cox-Matthews ETDRK4 in phi-form for a' = N(a) - M a (Hochbruck-Ostermann 2005).

    The half-step stages use the tables of ``dt/2``, itself a rung of the
    ladder, so each table serves both as a step and as a half step.  The
    error estimate is the gap to the embedded ETD2RK solution
    ``E y + h phi_1 N(y) + h phi_2 (N(c) - N(y))`` from the same four stages,
    which is ``2h (phi_2 - 2 phi_3) (N(a) + N(b) - N(y) - N(c))``.  At M = 0
    the scheme is classical RK4.
    """

    err_exponent = 1.0 / 3.0
    adaptive = True
    ladder = True  # step sizes record_every * 2**-j, so each table is built once
    _cache_limit = 256

    def __init__(self, m: np.ndarray, nonlinear: Callable[[np.ndarray], np.ndarray]):
        self.m = m
        self.nl = nonlinear
        self._tables_cache: dict[float, tuple] = {}

    def _tables(self, dt):
        """``exp(-dt M)``, ``dt phi_1`` and the three ETDRK4 weights of ``dt``."""
        hit = self._tables_cache.get(dt)
        if hit is not None:
            return hit
        e, p1, p2, p3 = _phi_blocks(-dt * self.m)
        tables = (
            e,
            dt * p1,
            dt * (p1 - 3.0 * p2 + 4.0 * p3),
            2.0 * dt * (p2 - 2.0 * p3),
            dt * (4.0 * p3 - p2),
        )
        if len(self._tables_cache) >= self._cache_limit:
            self._tables_cache.clear()
        self._tables_cache[dt] = tables
        return tables

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
        nab = na + nb
        y_new = e @ y + w1 @ n0 + w2 @ nab + w3 @ nc
        return y_new, w2 @ (nab - n0 - nc)


class _Rk4Kahan:
    """Classical RK4 with a compensated state accumulator."""

    adaptive = False
    ladder = False

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


def _build_rhs(params: ModelParams):
    """Return (rhs(t, y), M) for the configured system; M is None at alpha = 0."""
    nl = _rhs_inviscid_array
    if params.alpha <= 0.0:
        return (lambda t, y: nl(y)), None
    m = dissipation_matrix(params)
    return (lambda t, y: nl(y) - m @ y), m


def _resolve_scheme(params: ModelParams, controls: StepControls) -> Scheme:
    if controls.scheme is not None:
        return controls.scheme
    return Scheme.DUHAMEL_IMEX if params.alpha > 0.0 else Scheme.EXPLICIT_ADAPTIVE


def _make_stepper(params, controls):
    scheme = _resolve_scheme(params, controls)
    rhs, m = _build_rhs(params)
    if scheme is Scheme.EXPLICIT_ADAPTIVE:
        return _DormandPrince(rhs, params.n_modes), scheme
    if scheme is Scheme.DUHAMEL_IMEX:
        # only this scheme gets a zero linear part at alpha = 0: there it is RK4
        if m is None:
            m = np.zeros((params.n_modes, params.n_modes))
        return _Etdrk4(m, _rhs_inviscid_array), scheme
    return _Rk4Kahan(rhs), scheme


def _scaled_error(err, y_old, y_new, rtol, atol):
    scale = np.maximum(np.abs(y_old), np.abs(y_new))
    scale *= rtol
    scale += atol
    v = float((np.abs(err) / scale).max())
    return math.inf if math.isnan(v) else v


def _diagnostics(a: np.ndarray, norm_s: float, delta: float) -> tuple[np.ndarray, ...]:
    """The :class:`Diagnostics` columns of the rows of an ``(rows, K+1)`` block of states."""
    b = _slopes_array(a)  # one slope pass serves the three slope functionals
    ratios, kept = analysis._ratio_table(b)
    # the entry at the first maximum, as the state-level report takes it: a
    # max reduction may return 0.0 where that entry is -0.0
    top = np.take_along_axis(ratios, ratios.argmax(axis=1)[:, None], axis=1)[:, 0]
    return (
        _xs_norms(a, np.diff(a, axis=1), norm_s),
        a.max(axis=1),
        a[:, 0],
        np.array(analysis._j_values(a, delta)),
        np.where(kept.any(axis=1), top, math.nan),
        analysis._front_index(b),
        analysis._holder_seminorm(b, 0.5),
    )


def _trajectory(params, delta, times, states, termination, escape_time=None) -> Trajectory:
    """Stack the recorded times and states and fill their diagnostics, one block at a time."""
    states = np.stack(states)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = [_diagnostics(a, params.norm_s, delta) for _, a in analysis._row_blocks(states)]
    diag = Diagnostics(*map(np.concatenate, zip(*blocks)))
    return Trajectory(params, delta, times, states, diag, termination, escape_time)


def _record_times(t0: float, t_end: float, every: float) -> tuple[list[float], bool]:
    """The record grid ``t0 + j * every`` after ``t0``, ending exactly at ``t_end``.

    Also returns whether the last gap is short: when ``t_end`` is not on the
    cadence it is appended as its own record.  Needs ``t_end > t0``.
    """
    n = int(math.floor((t_end - t0) / every + 1e-9))
    rec = [t0 + j * every for j in range(1, n + 1)]
    short = not rec or rec[-1] < t_end - 1e-12 * max(1.0, abs(t_end))
    if short:
        rec.append(t_end)
    else:
        rec[-1] = t_end
    return rec, short


def _attempt(stepper, t, y, h, controls: StepControls):
    """Run one attempt of size ``h`` from ``(t, y)`` and decide it.

    Returns ``(y_new, err, h_next)``, with ``y_new`` and ``err`` None when the
    step is rejected.  Raises :class:`EscapeSignal` on a non-finite step that
    cannot shrink and :class:`StepUnderflowError` below ``dt_min``.
    """
    y_new, err = stepper.attempt(t, y, h)
    if not np.isfinite(y_new).all():
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
    h_next = h * fac
    if stepper.ladder:
        # down to the ladder record_every * 2**-j, on which record times fall
        r = controls.record_every
        h_next = math.ldexp(r, -max(0, math.ceil(math.log2(r / h_next))))
        if accepted and h_next < controls.dt_min:
            # the lowest rung at or above dt_min
            h_next = math.ldexp(r, -max(0, math.floor(math.log2(r / controls.dt_min))))
    if accepted:
        return y_new, err, h_next
    if h_next < controls.dt_min:
        raise StepUnderflowError(f"step size underflow at t={t:.6g}")
    return None, None, h_next


@functools.lru_cache(maxsize=1)
def _imex_stepper(params: ModelParams) -> _Etdrk4:
    """The IMEX stepper of the last :func:`step` model, kept for its phi-tables.

    Chained steps then build each table once, as :func:`integrate` does.  The
    stepper holds no other state, so sharing it leaves every step unchanged.
    """
    return _make_stepper(params, StepControls(scheme=Scheme.DUHAMEL_IMEX))[0]


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
    Chained IMEX steps on one model reuse their exponential tables.
    """
    if not (dt > 0.0):
        raise DomainError("dt must be positive")
    _check_state(params, state)
    if _resolve_scheme(params, controls) is Scheme.DUHAMEL_IMEX:
        stepper = _imex_stepper(params)
    else:
        stepper, _ = _make_stepper(params, controls)
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
    violations; pass an explicit value for tighter runs.  The diagnostics
    are computed after the run, in blocks of samples.
    """
    a0 = _check_state(params, state0)
    t0 = state0.t
    if t_end < t0:
        raise DomainError("t_end must not precede the initial time")

    n0 = float(_xs_norms(a0, np.diff(a0), params.norm_s))
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

    stepper, scheme = _make_stepper(params, controls)
    times: list[float] = []
    states: list[np.ndarray] = []  # steps return new arrays, so none is written later
    termination: Optional[Termination] = None
    escape_time: Optional[float] = None

    def snapshot(t, y) -> bool:
        """Record a state; True when the run should stop (escape/guard).

        Only the guard and the escape test run here; the diagnostics are
        computed after the run, in blocks.
        """
        nonlocal termination, escape_time
        times.append(t)
        states.append(y)
        d = y[1:] - y[:-1]  # np.diff, without its call overhead
        if guard:
            worst = min(float(y[0]), float(d.min()))
            if worst < -monotone_abort_tol:
                idx = int(np.argmin(np.concatenate([[y[0]], d])))
                raise IntegrationAbortError(t, idx, worst)
        if _xs_norms(y, d, params.norm_s) > threshold:
            termination = Termination.ESCAPE_DETECTED
            escape_time = t
            return True
        return False

    if snapshot(t0, a0):
        return _trajectory(params, delta, times, states, termination, escape_time)
    if t_end == t0:
        return _trajectory(params, delta, times, states, Termination.REACHED_T_END)

    rec, _ = _record_times(t0, t_end, controls.record_every)
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
                # rounding drifts t off the ladder: land rather than leave a sliver
                lands = dt >= remaining or (stepper.ladder and remaining - dt < controls.dt_min)
                h = remaining if lands else dt
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
            if snapshot(t, y):
                break

    if termination is None:
        termination = Termination.REACHED_T_END
    elif termination is not Termination.ESCAPE_DETECTED and times[-1] < t:
        # partial run: keep the last reached point for post-mortem inspection;
        # a state past the threshold reports the escape, whatever stopped the run
        if np.all(np.isfinite(y)):
            snapshot(t, y)

    return _trajectory(params, delta, times, states, termination, escape_time)


def linear_semigroup(params: ModelParams, state0: DyadicState, t: float) -> DyadicState:
    """Apply the pure dissipative flow ``exp(-t L)`` to a state.

    Computed through the dense matrix exponential (scaling and squaring),
    which is accurate normwise, not entrywise.  The X^s diagnostics weight
    the top indices by up to ``2**(s*K)``, so its roundoff there shows above
    K = 32: at alpha = 0.35, front (4, 1.2, 0.5, 1) and t = 1e-3 the X^s
    norm reads 9.54 for K <= 32 but 513 at K = 40 and 3.7e13 at K = 64
    (initially 9.64), where monotonicity also breaks by -2.4e-7.  ROADMAP
    item 1 has the entrywise-accurate remedy.
    """
    if params.alpha <= 0.0:
        raise DomainError("the semigroup requires alpha > 0")
    if t < 0.0:
        raise DomainError("the semigroup is defined for t >= 0")
    a0 = _check_state(params, state0)
    if t == 0.0:
        return DyadicState(t=state0.t, a=a0.copy())
    return DyadicState(t=state0.t + t, a=_semigroup_matrix(params, t) @ a0)


def linear_semigroup_samples(
    params: ModelParams, state0: DyadicState, t_end: float, record_every: float
) -> list[DyadicState]:
    """The pure dissipative flow from ``state0`` for a time ``t_end``, on the record grid.

    The grid is that of :func:`integrate`, so the last sample lies at
    ``state0.t + t_end``.  One ``exp(-record_every L)`` is built and applied
    once per record; a last gap shorter than ``record_every`` gets its own
    ``exp(-gap L)``.
    """
    if params.alpha <= 0.0:
        raise DomainError("the semigroup requires alpha > 0")
    if not (t_end > 0.0):
        raise DomainError("t_end must be positive")
    y = _check_state(params, state0)
    rec, short = _record_times(state0.t, state0.t + t_end, record_every)
    full = rec[:-1] if short else rec
    step_op = _semigroup_matrix(params, record_every) if full else None
    samples = [state0]
    for t in full:
        y = step_op @ y
        samples.append(DyadicState(t=t, a=y))
    if short:
        y = _semigroup_matrix(params, rec[-1] - samples[-1].t) @ y
        samples.append(DyadicState(t=rec[-1], a=y))
    return samples


def _semigroup_matrix(params: ModelParams, t: float) -> np.ndarray:
    """``exp(-t L)`` as a dense matrix, built here for both semigroup functions."""
    return expm(-t * dissipation_matrix(params))


def detect_escape(traj: Trajectory, threshold: float, s: float) -> Optional[float]:
    """Earliest sample time whose X^s norm exceeds the threshold, if any.

    The norms are computed one block of samples at a time.
    """
    a0 = traj.states[0]
    if not (threshold > _xs_norms(a0, np.diff(a0), s)):
        raise DomainError("threshold must exceed the initial norm")
    for lo, a in analysis._row_blocks(traj.states):
        above = np.flatnonzero(_xs_norms(a, np.diff(a, axis=1), s) > threshold)
        if above.size:
            return float(traj.times[lo + int(above[0])])
    return None
