"""Time integration for the truncated dyadic model.

Three schemes are provided:

* ``EXPLICIT_ADAPTIVE`` -- Dormand-Prince 5(4) embedded pair with error
  control; the right choice for inviscid runs and mildly stiff cases.  Its
  stages, their inputs and the error estimate are written in place into
  buffers of the run by one right-hand side closure ``rhs(y, out)``
  (:func:`_build_rhs`), so an attempt allocates only the state it returns.
  The last stage of an attempt serves as the first of the next one (first
  same as last), so an attempt costs six right-hand sides, a rejected one
  too.  Its steps run towards ``t_end`` whatever the record cadence: the
  records inside a step are read off the order-4 continuous extension of
  the pair (dense output, from the same seven stages), and a record on the
  step end takes the stepped state.
* ``DUHAMEL_IMEX`` -- fourth-order exponential integrator (Cox-Matthews
  ETDRK4 in phi-form): the linear dissipative flow enters through the
  exact matrix exponential and its phi-functions (one scaling-and-squaring
  ``expm`` of an augmented block) and the quadratic transport term is
  treated explicitly, so the step size is set by the nonlinearity rather
  than the fastest dissipative rate.  The nonlinearity at the new state is
  the first stage of the next attempt (first same as last) and gives an
  O(h**4) error estimate, so an attempt costs four right-hand sides and the
  error follows the tolerance.  Its step sizes, ``dt_init`` and the
  landings on record times included, are whole rungs of the ladder
  ``record_every * 2**-j``, so each exponential table is built once per run
  and rung, not per attempt; the half step of a rung is the next rung.
  Only a last record gap shorter than the cadence ends on a step of its own
  size.  At alpha = 0 it steps with a zero linear part, where it is
  classical RK4.
* ``REFERENCE_FIXED_RK4`` -- classical fixed-step RK4 with compensated
  (Kahan) state accumulation, used as a cross-validation reference.

The default for dissipative runs is the IMEX scheme.  One step-size
controller, :func:`_attempt`, decides every attempt of :func:`integrate`
(an attempt that returns no error estimate is accepted as it is); for a
stepper whose ``ladder`` attribute is set, :func:`_rung` rounds the
proposals and ``dt_init`` down to a rung.  IMEX and RK4 have no continuous
extension and land a step on every record time; within a record interval
the IMEX position is an exact dyadic fraction of it, so its steps add up to
the interval in whole rungs, as in the binary expansion of what is left.

A run ends with one of the four :class:`Termination` values.
:func:`_attempt` returns ``STEP_UNDERFLOW``, or ``ESCAPE_DETECTED`` for a
non-finite step, whose ``escape_time`` is the start of the failed attempt;
the escape test of the records gives ``ESCAPE_DETECTED`` at the first
sample past the threshold; the loop itself sets ``REACHED_T_END`` and
``MAX_STEPS_EXCEEDED``.  The loop runs until one of them is set, and
:func:`integrate` builds its :class:`Trajectory` at one exit.

A run is stored as arrays: :class:`Trajectory` holds the sample times
``(n,)``, the states ``(n, K+1)`` and their :class:`Diagnostics`, one
``(n,)`` column per scalar.  After each accepted step :func:`integrate`
keeps the records that fall inside it and runs the monotone guard and the
escape test on them as one block (:func:`_first_escape`); after the run it
stacks the states once into a :class:`Trajectory`, which derives its
diagnostics from them by :func:`_diagnostics`, one block of
``analysis.BLOCK_ROWS`` rows per call, with results equal to a per-sample
computation bitwise.

Vector products go through ``ndarray.dot``: it skips the gufunc dispatch of
``np.matmul`` and makes the same BLAS call, so the bits are the same.  A
Dormand-Prince attempt on the scan's K = 20 front with its step decision
costs 31 us (one BLAS thread), 37 us before the stage plan of
:class:`_DormandPrince` and the run buffers of :class:`_ErrorNorm`.

The matrix exponential :func:`expm` is Pade scaling and squaring on numpy
alone.  ``_phi_blocks`` and ``_semigroup_matrix`` look ``expm`` up as a
module global at call time, which makes ``integrate.expm`` the seam that
the tests and perfbench's tracer patch to count and time the exponentials.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Optional

import numpy as np

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
    """Error tolerances, step bounds and output cadence for a run.

    ``max_steps`` bounds the step attempts of a run, rejected ones included.
    Dormand-Prince steps do not stop at record times, so for that scheme the
    count does not grow with the number of records.  The IMEX scheme rounds
    ``dt_init`` down to its ladder ``record_every * 2**-j``, but not below
    the lowest rung at or above ``dt_min``.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-11
    dt_init: float = 1e-3
    dt_min: float = 1e-13
    max_steps: int = 2_000_000
    scheme: Optional[Scheme] = None  # None = pick by alpha (IMEX when alpha > 0)
    record_every: float = 0.01

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "dt_init", "dt_min", "record_every"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} must be finite and positive, got {value}")
        if not (self.dt_min < self.dt_init):
            raise DomainError("need dt_min < dt_init")
        if self.max_steps <= 0:
            raise DomainError("max_steps must be positive")
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
    ``diag`` is not passed but derived from the states, at ``params.norm_s``
    and ``delta``, so ``dataclasses.replace`` recomputes it.
    """

    params: ModelParams
    delta: float
    times: np.ndarray
    states: np.ndarray
    diag: Diagnostics = field(init=False)
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
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = [_diagnostics(a, self.params.norm_s, self.delta)
                      for _, a in analysis._row_blocks(states)]
        object.__setattr__(self, "diag", Diagnostics(*map(np.concatenate, zip(*blocks))))

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
# the order-4 continuous extension: the weights d of Hairer's dopri5 (Hairer,
# Norsett & Wanner, Solving ODEs I, II.6; Shampine 1986, Math. Comp. 46)
_DP_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
])


class _DormandPrince:
    """Dormand-Prince 5(4), first same as last, on an autonomous ``rhs(y, out)``.

    The seventh stage is evaluated at the new state, so it is the first stage
    of the next attempt.  ``attempt`` reuses it when called from the state it
    returned last, and reuses the first stage when retried from the state it
    started from last.  Both are recognised by identity, which is sound
    because the returned state is read-only, callers do not mutate theirs,
    and a stepper serves one :func:`integrate` call only.  As
    in dopri5, the stages, their inputs and the error estimate go into arrays
    of the stepper, which the next attempt overwrites; the state it returns
    is its only new array.
    """

    err_exponent = 1.0 / 5.0
    ladder = False
    interpolates = True

    def __init__(self, rhs: Callable[[np.ndarray, np.ndarray], np.ndarray], n: int):
        self.rhs = rhs
        self._ks = ks = np.empty((7, n))  # one row per stage
        self._g = np.empty(n)  # the input of each stage but the first and last
        self._err = np.empty(n)
        # the stage plan, built once so that an attempt creates no views: for
        # stages 1 to 5 the tableau row, the stages it sums and the row it fills
        self._plan = [(_DP_A[i], ks[:i], ks[i]) for i in range(1, 6)]
        self._k0, self._ks6, self._k6 = ks[0], ks[:6], ks[6]
        self._y = self._y_new = None  # start and result of the last attempt
        self._dt = None

    def attempt(self, t, y, dt):
        g, rhs = self._g, self.rhs
        h = np.array(dt)  # scales in place faster than the float dt, with the same bits
        if y is self._y_new:
            self._k0[...] = self._k6
        elif y is not self._y:
            rhs(y, self._k0)
        for a, prior, k in self._plan:
            a.dot(prior, out=g)
            g *= h
            g += y
            rhs(g, k)
        y_new = _DP_A[6].dot(self._ks6)
        y_new *= h
        y_new += y
        rhs(y_new, self._k6)
        err = _DP_E.dot(self._ks, out=self._err)
        err *= h
        y_new.flags.writeable = False
        self._y, self._y_new, self._dt = y, y_new, dt
        return y_new, err

    def interpolate(self, theta: np.ndarray) -> np.ndarray:
        """States at ``t + theta * dt`` of the last attempt, one row per ``theta``.

        The order-4 continuous extension in dopri5's form
        ``y + th (dy + th1 (r3 + th (r4 + th1 r5)))`` with ``th1 = 1 - th``;
        it needs no right-hand side beyond the attempt's seven stages.
        """
        ks, y, dt = self._ks, self._y, self._dt
        dy = self._y_new - y
        r3 = dt * ks[0] - dy
        r4 = dy - dt * ks[6] - r3
        r5 = dt * _DP_D.dot(ks)
        th = theta[:, None]
        th1 = 1.0 - th
        return y + th * (dy + th1 * (r3 + th * (r4 + th1 * r5)))


# Pade degrees m with the one-norm bounds theta_m up to which r_m(A) meets
# unit roundoff without scaling, and degree 13's bound (Higham 2005, Table 2.3)
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152
# numerator coefficients b_0 .. b_m of the [m/m] Pade approximant of exp
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def expm(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` by Pade scaling and squaring (Higham 2005, SIAM J. Matrix Anal. Appl. 26).

    The degree m is the lowest in 3, 5, 7, 9 whose bound theta_m holds the
    one-norm of ``a``; above theta_9 it is 13, on ``a / 2**s`` with the least
    ``s >= 0`` that brings the norm under theta_13, and the result is squared
    ``s`` times.  One ``np.linalg.solve`` gives r_m = q_m(a)^-1 p_m(a).

    Raises :class:`DomainError` when the smallest non-zero ``|a_kk| 2**-s``
    falls below ``2**-53``: ``exp`` of that scaled rate rounds to 1, and the
    squarings cannot recover the rate, so the result would be wrong, and
    ``s`` squarings are slow besides.  For ``-t M`` and the phi-block of
    ``-h M`` this depends on K and alpha, hardly on t or h: it starts at
    K = 107 for alpha = 0.25.  ROADMAP item 1's entrywise-accurate
    exponential lifts the bound.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise InvalidInputError("matrix entries must all be finite")
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    rates = np.abs(np.diagonal(a))
    slow = rates[rates > 0.0]
    if slow.size and math.ldexp(float(slow.min()), -s) < 2.0**-53:
        raise DomainError(
            f"exp of a matrix with one-norm {norm:.3g} needs 2**-{s} scaling, "
            f"which rounds its slowest rate {slow.min():.3g} away "
            "(ROADMAP item 1 lifts this bound)"
        )
    m = next((m for m, theta in _PADE_THETA if norm <= theta), 13)
    u, v = _pade_uv(np.ldexp(a, -s), _PADE_B[m])
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _pade_uv(a: np.ndarray, b: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Odd and even parts ``u``, ``v`` of the Pade numerator ``p_m(a) = v + u``.

    The denominator is ``q_m(a) = v - u``.  Degree 13 takes the split
    evaluation of Higham 2005, eq. (2.12), with the powers a^2, a^4, a^6.
    """
    n = a.shape[0]
    a2 = a @ a
    if len(b) == 14:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        u += b[7] * a6 + b[5] * a4 + b[3] * a2
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        v += b[6] * a6 + b[4] * a4 + b[2] * a2
    else:
        # the even powers a^2 .. a^(m-1); b[1] and b[0] go on the diagonal below
        u = b[3] * a2
        v = b[2] * a2
        power = a2
        for j in range(4, len(b) - 1, 2):
            power = power @ a2
            u += b[j + 1] * power
            v += b[j] * power
    u.flat[:: n + 1] += b[1]
    v.flat[:: n + 1] += b[0]
    return a @ u, v


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
    nonlinearity is evaluated at the new state too, first same as last: it
    is the ``N(y)`` of the next attempt, and it gives the error estimate
    ``h (4 phi_3 - phi_2) (N(y_new) - N(c))``, the ETDRK4 quadrature with its
    endpoint node at the computed solution instead of the second-order
    stage ``c``.  The estimate is O(h**4), so the error follows the
    tolerance.  ``attempt`` reuses ``N(y_new)`` when called from the state
    it returned last, and ``N(y)`` when retried from the state it started
    from last, so an attempt costs four right-hand sides.  Both are
    recognised by identity, which is sound because the returned state is
    read-only, callers do not mutate theirs, and a stepper serves one
    :func:`integrate` call only.  At M = 0 the scheme is classical RK4.
    """

    err_exponent = 1.0 / 4.0
    ladder = True  # step sizes record_every * 2**-j, so each table is built once
    interpolates = False
    _cache_limit = 256

    def __init__(self, m: np.ndarray, nonlinear: Callable[[np.ndarray], np.ndarray]):
        self.m = m
        self.nl = nonlinear
        self._tables_cache: dict[float, tuple] = {}
        # start and result of the last attempt, with N at each
        self._y = self._n0 = self._y_new = self._n_new = None

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
        if y is self._y_new:
            n0 = self._n_new
        elif y is self._y:
            n0 = self._n0
        else:
            n0 = nl(y)
        ey_half = e_half.dot(y)
        a = ey_half + p_half.dot(n0)
        na = nl(a)
        nb = nl(ey_half + p_half.dot(na))
        nc = nl(e_half.dot(a) + p_half.dot(2.0 * nb - n0))
        y_new = e.dot(y) + w1.dot(n0) + w2.dot(na + nb) + w3.dot(nc)
        n_new = nl(y_new)
        y_new.flags.writeable = False
        self._y, self._n0, self._y_new, self._n_new = y, n0, y_new, n_new
        return y_new, w3.dot(n_new - nc)


class _Rk4Kahan:
    """Classical RK4 with a compensated state accumulator; it has no error estimate."""

    ladder = False
    interpolates = False

    def __init__(self, rhs):
        self.rhs = rhs
        self.carry = None

    def attempt(self, t, y, dt):
        f, n = self.rhs, y.size
        k1 = f(y, np.empty(n))
        k2 = f(y + 0.5 * dt * k1, np.empty(n))
        k3 = f(y + 0.5 * dt * k2, np.empty(n))
        k4 = f(y + dt * k3, np.empty(n))
        incr = (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if self.carry is None:
            self.carry = np.zeros_like(y)
        tmp = incr - self.carry
        y_new = y + tmp
        self.carry = (y_new - y) - tmp
        return y_new, None


def _build_rhs(params: ModelParams):
    """The right-hand side ``rhs(y, out)``, which writes y' into out and returns it."""
    nl = _rhs_inviscid_array
    if params.alpha <= 0.0:
        return nl
    m = dissipation_matrix(params)
    mv = np.empty(params.n_modes)  # M y, per run

    def rhs(y, out):
        nl(y, out)
        return np.subtract(out, m.dot(y, out=mv), out=out)

    return rhs


def _make_stepper(params, controls):
    """The stepper of ``controls.scheme``; by default IMEX when alpha > 0, else Dormand-Prince."""
    scheme = controls.scheme
    if scheme is None:
        scheme = Scheme.DUHAMEL_IMEX if params.alpha > 0.0 else Scheme.EXPLICIT_ADAPTIVE
    if scheme is Scheme.DUHAMEL_IMEX:
        # a zero linear part at alpha = 0, where the scheme is classical RK4
        n = params.n_modes
        m = dissipation_matrix(params) if params.alpha > 0.0 else np.zeros((n, n))
        return _Etdrk4(m, _rhs_inviscid_array)
    rhs = _build_rhs(params)
    if scheme is Scheme.EXPLICIT_ADAPTIVE:
        return _DormandPrince(rhs, params.n_modes)
    return _Rk4Kahan(rhs)


class _ErrorNorm:
    """``max |err| / (rtol max(|y|, |y_new|) + atol)`` of a run's attempts, nan read as inf.

    It is computed in buffers of the run.  |y_new| is kept with the state it
    was taken of, so an attempt from the state returned last, or a retry
    from the state started from last, reuses |y|; both are recognised by
    identity, as in the steppers.
    """

    def __init__(self, n: int, controls: StepControls):
        self._rtol, self._atol = np.array(controls.rel_tol), np.array(controls.abs_tol)
        self._abs_y, self._abs_new, self._scale, self._q = np.empty((4, n))
        self._y = self._y_new = None

    def __call__(self, err, y, y_new) -> float:
        if y is self._y_new:
            self._abs_y, self._abs_new = self._abs_new, self._abs_y
        elif y is not self._y:
            np.abs(y, out=self._abs_y)
        self._y, self._y_new = y, y_new
        scale = np.maximum(self._abs_y, np.abs(y_new, out=self._abs_new), out=self._scale)
        scale *= self._rtol
        scale += self._atol
        q = np.divide(np.abs(err, out=self._q), scale, out=self._q)
        v = float(np.maximum.reduce(q))
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


def _first_escape(ts, ys, norm_s, threshold, abort_tol) -> Optional[int]:
    """The row of the first record of a block whose X^s norm exceeds ``threshold``.

    ``ys`` holds the states of the records at times ``ts``, one row each.
    Unless ``abort_tol`` is None, a row whose monotonicity undershoot exceeds
    it raises :class:`IntegrationAbortError` instead, when no earlier row
    escapes; within a row the guard comes first.  The outcome is that of
    testing the rows one at a time, in order.  Returns None when no row
    trips either test.
    """
    d = ys[:, 1:] - ys[:, :-1]
    trips = _xs_norms(ys, d, norm_s) > threshold
    if abort_tol is not None:
        worst = np.minimum(ys[:, 0], d.min(axis=1))
        trips |= worst < -abort_tol
    if not trips.any():
        return None
    r = int(trips.argmax())
    if abort_tol is not None and worst[r] < -abort_tol:
        idx = int(np.argmin(np.concatenate([ys[r, :1], d[r]])))
        raise IntegrationAbortError(ts[r], idx, float(worst[r]))
    return r


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


def _rung(size: float, controls: StepControls, lift: bool = True) -> float:
    """``size`` rounded down to the ladder ``record_every * 2**-j``.

    With ``lift``, not below the lowest rung at or above ``dt_min``.
    """
    r = controls.record_every
    rung = math.ldexp(r, -max(0, math.ceil(math.log2(r / size))))
    if lift and rung < controls.dt_min:
        # log2 may round r / dt_min up to a power of two it lies just under
        j = math.floor(math.log2(r / controls.dt_min))
        if math.ldexp(r, -j) < controls.dt_min:
            j -= 1
        rung = math.ldexp(r, -max(0, j))
    return rung


def _attempt(stepper, norm: _ErrorNorm, t, y, h, controls: StepControls):
    """Run one attempt of size ``h`` from ``(t, y)`` and decide it by ``norm``.

    Returns ``(y_new, h_next, stop)``, with ``y_new`` None when the step is
    rejected.  ``stop`` is the :class:`Termination` that ends the run here,
    else None: ``ESCAPE_DETECTED`` for a non-finite step that cannot shrink
    (a stepper without an error estimate, or ``h`` within 4 ``dt_min``), and
    ``STEP_UNDERFLOW`` for a rejected step whose proposal falls below
    ``dt_min``.  An accepted step below it proposes the lowest rung at or
    above it instead.

    Only a step without an error estimate (RK4) is scanned for non-finite
    entries.  Dormand-Prince and ETDRK4 take the transport term at ``y_new``
    into their estimate through finite weights, and that term,
    ``-(y_k - y_{k-1})**2 2**k``, is non-finite at k >= 1 where y_k or
    y_{k-1} is; so a non-finite ``y_new`` makes the estimate non-finite, and
    the norm is inf without a scan.
    """
    y_new, err = stepper.attempt(t, y, h)
    if err is None:
        if np.isfinite(y_new).all():
            return y_new, h, None
        return None, h, Termination.ESCAPE_DETECTED
    err_norm = norm(err, y, y_new)
    if not math.isfinite(err_norm) and h <= 4.0 * controls.dt_min:
        return None, h, Termination.ESCAPE_DETECTED
    # embedded-pair rule (Hairer-Norsett-Wanner, Solving ODEs I, II.4)
    accepted = err_norm <= 1.0
    cap = 5.0 if accepted else 1.0
    fac = cap if err_norm == 0.0 else min(cap, max(0.2, 0.9 * err_norm**-stepper.err_exponent))
    h_next = h * fac
    if stepper.ladder:
        h_next = _rung(h_next, controls, lift=accepted)
    if accepted:
        return y_new, h_next, None
    return None, h_next, Termination.STEP_UNDERFLOW if h_next < controls.dt_min else None


# the terminations of a run that neither escaped nor reached t_end
_STOPPED_SHORT = (Termination.STEP_UNDERFLOW, Termination.MAX_STEPS_EXCEEDED)


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
    exceeds ``escape_threshold`` (default: 1e6 times the initial norm; inf
    means never, whatever the initial norm; the truncated system cannot
    truly blow up, so this is a proxy refined by truncation-scaling studies).  When the initial data is admissible,
    monotonicity is watched at every sample and a violation beyond
    ``monotone_abort_tol`` aborts the run: the model preserves admissibility,
    so a violation means integrator error, not dynamics.  The default abort
    tolerance scales with the step-error tolerances, marking only gross
    violations; pass an explicit value for tighter runs.  The guard and the
    escape test run once per accepted step, on the records it holds; the
    diagnostics are computed after the run, in blocks of samples.

    Dormand-Prince steps run towards ``t_end``, and the records inside a
    step come from its order-4 continuous extension, so they carry the
    error the tolerances ask for; IMEX and RK4 land a step on every record.
    ``controls.max_steps`` counts attempts, which for Dormand-Prince no
    longer grow with the number of records.
    """
    a0 = _check_state(params, state0)
    t0 = state0.t
    if not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite, got {t_end}")
    if t_end < t0:
        raise DomainError("t_end must not precede the initial time")

    n0 = float(_xs_norms(a0, np.diff(a0), params.norm_s))
    if escape_threshold is None:
        threshold = 1e6 * n0 if n0 > 0.0 else math.inf
    else:
        threshold = float(escape_threshold)
        if not (threshold > n0 or threshold == math.inf):  # NaN would switch it off
            raise DomainError(
                f"escape_threshold must exceed the initial norm {n0!r} or be inf, "
                f"got {threshold!r}"
            )

    if monotone_abort_tol is None:
        monotone_abort_tol = max(
            1e-7,
            1e4 * (controls.abs_tol + controls.rel_tol * (1.0 + float(np.max(np.abs(a0))))),
        )
    elif math.isnan(monotone_abort_tol):
        raise DomainError("monotone_abort_tol must be a number or inf, got nan")
    guard = monotone_abort_tol < math.inf and a0[0] >= -1e-12 and (
        a0.size < 2 or float(np.min(np.diff(a0))) >= -1e-12
    )

    stepper = _make_stepper(params, controls)
    norm = _ErrorNorm(params.n_modes, controls)
    abort_tol = monotone_abort_tol if guard else None
    times: list[float] = []
    blocks: list[np.ndarray] = []  # (rows, K+1) states; none is written later
    termination: Optional[Termination] = None
    escape_time: Optional[float] = None

    def keep(ts, ys):
        """Keep a block of records; one that escapes ends the block, and the run, there."""
        nonlocal termination, escape_time
        row = _first_escape(ts, ys, params.norm_s, threshold, abort_tol)
        if row is not None:
            ts, ys = ts[: row + 1], ys[: row + 1]
            termination, escape_time = Termination.ESCAPE_DETECTED, ts[-1]
        times.extend(ts)
        blocks.append(ys)

    keep([t0], a0[None])
    r = controls.record_every
    rec, short = _record_times(t0, t_end, r) if t_end > t0 else ([], False)
    # the record intervals a ladder stepper covers in whole rungs: all but a short last one
    n_rungs = len(rec) - short if stepper.ladder else 0
    y = a0.copy()
    t = t0
    dt = _rung(controls.dt_init, controls) if stepper.ladder else min(controls.dt_init, r)
    left = 1.0  # record interval i not yet stepped, in units of r: a dyadic fraction, exact
    attempts = i = 0  # i: the next record

    # overflow inside an attempt makes its error norm inf, or fails RK4's finiteness scan
    with np.errstate(over="ignore", invalid="ignore"):
        while termination is None:
            if i == len(rec):
                termination = Termination.REACHED_T_END
                continue
            # a stepper with a continuous extension steps freely to t_end
            target = t_end if stepper.interpolates else rec[i]
            attempts += 1
            if attempts > controls.max_steps:
                termination = Termination.MAX_STEPS_EXCEEDED
                continue
            if i < n_rungs:
                # the largest rung in what is left, as in its binary expansion
                h = min(dt, math.ldexp(r, math.frexp(left)[1] - 1))
                lands = h / r == left
            else:
                # off the ladder, or a short last gap: land rather than leave a sliver
                remaining = target - t
                lands = dt >= remaining or (stepper.ladder and remaining - dt < controls.dt_min)
                h = remaining if lands else dt
            y_new, prop, termination = _attempt(stepper, norm, t, y, h, controls)
            if termination is Termination.ESCAPE_DETECTED:
                escape_time = t  # the start of the failed attempt, which has no sample
            if y_new is None:
                dt = prop
                continue
            # a step shortened to fit keeps the larger of dt and its proposal
            if h >= dt or prop > dt:
                dt = prop
            t_start, t = t, (target if lands else t + h)
            left = 1.0 if lands else left - h / r
            y = y_new
            if rec[i] > t:
                continue
            # the records in (t_start, t]: the one on the step end is the stepped state
            j = bisect.bisect_right(rec, t, i)
            if stepper.interpolates:
                ts = rec[i:j]
                ys = stepper.interpolate((np.array(ts) - t_start) / h)
                if ts[-1] == t:
                    ys[-1] = y
            else:
                ts, ys = [t], y[None]  # a landing step ends on its record
            i = j
            keep(ts, ys)

    if termination in _STOPPED_SHORT and times[-1] < t:
        # partial run: keep the last reached point for post-mortem inspection;
        # a state past the threshold reports the escape, whatever stopped the run
        keep([t], y[None])
    return Trajectory(params, delta, times, np.vstack(blocks), termination, escape_time)


def linear_semigroup(params: ModelParams, state0: DyadicState, t: float) -> DyadicState:
    """Apply the pure dissipative flow ``exp(-t L)`` to a state.

    Computed through the dense matrix exponential (scaling and squaring),
    which is accurate normwise, not entrywise.  The X^s diagnostics weight
    the top indices by up to ``2**(s*K)``, so its roundoff there shows above
    K = 32: at alpha = 0.35, front (4, 1.2, 0.5, 1) and t = 1e-3 the X^s
    norm reads 9.5356 for K <= 32 but 91.9 at K = 40, 3.7e5 at K = 48 and
    1.76e13 at K = 64 (initially 9.64), where monotonicity also breaks by
    -7.6e-7.  From K = 107 at alpha = 0.25, :func:`expm` refuses the matrix
    with :class:`DomainError`.  ROADMAP item 1 has the entrywise remedy.
    """
    if params.alpha <= 0.0:
        raise DomainError("the semigroup requires alpha > 0")
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and non-negative, got {t}")
    a0 = _check_state(params, state0)
    if t == 0.0:
        return DyadicState(t=state0.t, a=a0.copy())
    return DyadicState(t=state0.t + t, a=_semigroup_matrix(params, t).dot(a0))


def linear_semigroup_samples(
    params: ModelParams, state0: DyadicState, t_end: float, record_every: float
) -> tuple[np.ndarray, np.ndarray]:
    """The pure dissipative flow from ``state0`` for a time ``t_end``, on the record grid.

    Returns the sample times (n,) and states (n, K+1), ``state0`` first.
    The grid is that of :func:`integrate`, so the last sample lies at
    ``state0.t + t_end``.  One ``exp(-record_every L)`` is built and applied
    once per record; a last gap shorter than ``record_every`` gets its own
    ``exp(-gap L)``.
    """
    if params.alpha <= 0.0:
        raise DomainError("the semigroup requires alpha > 0")
    for name, value in (("t_end", t_end), ("record_every", record_every)):
        if not (value > 0.0 and math.isfinite(value)):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    y = _check_state(params, state0)
    rec, short = _record_times(state0.t, state0.t + t_end, record_every)
    full = rec[:-1] if short else rec
    step_op = _semigroup_matrix(params, record_every) if full else None
    times = np.array([state0.t, *rec])
    states = np.empty((times.size, y.size))
    states[0] = y
    for i in range(1, len(full) + 1):
        y = states[i] = step_op.dot(y)
    if short:
        states[-1] = _semigroup_matrix(params, rec[-1] - times[-2]).dot(y)
    if not np.isfinite(states).all():
        raise InvalidInputError("state entries must all be finite")
    return times, states


def _semigroup_matrix(params: ModelParams, t: float) -> np.ndarray:
    """``exp(-t L)`` as a dense matrix, built here for both semigroup functions."""
    return expm(-t * dissipation_matrix(params))


def detect_escape(traj: Trajectory, threshold: float, s: float) -> Optional[float]:
    """Earliest sample time whose X^s norm exceeds the threshold, if any.

    The norms are computed one block of samples at a time, by the escape
    test of :func:`integrate` (:func:`_first_escape`).  A threshold of inf
    never fires, whatever the initial norm.
    """
    a0 = traj.states[0]
    if not (threshold > _xs_norms(a0, np.diff(a0), s) or threshold == math.inf):
        raise DomainError("threshold must exceed the initial norm or be inf")
    for lo, a in analysis._row_blocks(traj.states):
        row = _first_escape(traj.times[lo:], a, s, threshold, None)
        if row is not None:
            return float(traj.times[lo + row])
    return None
