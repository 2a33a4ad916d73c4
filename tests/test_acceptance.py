"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dyadicflow.model import (
    DyadicState,
    ModelParams,
    cs_constant,
    coercivity_constant,
    default_goodbad_threshold,
    dissipation,
    dissipation_direct,
    telescoped_sum,
    weighted_slopes,
    xs_norm,
)
from dyadicflow.analysis import (
    check_max_principle,
    check_monotone_traj,
    check_sqrt2_structure,
    good_bad,
    goodbad_lower_constant,
    riccati_fit,
    riccati_inequality_check,
)
from dyadicflow.config import FrontScenario, RunConfig, SweepSpec
from dyadicflow.cli import run_scan
from dyadicflow.integrate import (
    Scheme,
    StepControls,
    Termination,
    integrate,
    linear_semigroup,
)
from dyadicflow.scenarios import gen_bump, gen_front, gen_geometric
from conftest import random_monotone_array, random_monotone_state

SQRT2 = math.sqrt(2.0)


def report(num, ok, detail):
    print(f"ACCEPTANCE-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_operator_equivalence():
    """O(K) and O(K**2) dissipation agree to 1e-12 relative, K up to 1024."""
    rng = np.random.default_rng(101)
    alphas = [0.05, 0.15, 0.25, 0.35, 0.45]
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for i in range(100):
        kmax = 1024 if i < 5 else int(np.exp2(rng.uniform(4, 10)))
        a = random_monotone_array(rng, kmax)
        state = DyadicState(t=0.0, a=a)
        for alpha in alphas:
            p = ModelParams(alpha=alpha, trunc_k=kmax)
            fast = dissipation(p, state)
            direct = dissipation_direct(p, state)
            rel = float(np.max(np.abs(fast - direct)) / np.max(np.abs(direct)))
            worst = max(worst, rel)
            cases += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-12 and cases == 500 and elapsed < 10.0,
        f"{cases} cases, worst relative gap {worst:.3e} (<= 1e-12), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_telescoped_identity():
    """Telescoped operator sum vanishes on plateau states."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    exact = telescoped_sum(
        ModelParams(alpha=0.25, trunc_k=2), DyadicState(t=0.0, a=[0.0, 1.0, 1.0])
    )
    worst = 0.0
    for _ in range(200):
        kmax = int(rng.integers(2, 64))
        alpha = float(rng.choice([0.1, 0.25, 0.4]))
        s = random_monotone_state(rng, kmax)
        p = ModelParams(alpha=alpha, trunc_k=kmax)
        bound = 1e-10 * (1.0 + xs_norm(s, 1.0))
        worst = max(worst, abs(telescoped_sum(p, s)) / bound)
    elapsed = time.perf_counter() - t0
    report(
        2,
        exact == 0.0 and worst <= 1.0 and elapsed < 5.0,
        f"worked example = {exact!r} (exactly 0), worst scaled residual {worst:.3e} "
        f"(<= 1), {elapsed:.1f}s (< 5s)",
    )


def _engineered_dominant_state(rng, kmax, k_dom, s):
    inc = rng.random(kmax) * 0.2 * 2.0 ** (-s * np.arange(1, kmax + 1))
    cs = cs_constant(s)
    for _ in range(80):
        a = np.concatenate([[0.0], np.cumsum(inc)])
        st = DyadicState(t=0.0, a=a)
        if weighted_slopes(st, s).bs[k_dom] > cs * xs_norm(st, s) * 1.000001:
            return st
        inc[k_dom - 1] *= 1.7
    raise AssertionError("failed to engineer slope dominance")


def test_criterion_03_coercivity():
    """Operator-difference lower bound at dominant-slope indices."""
    rng = np.random.default_rng(303)
    worst = math.inf
    cases = 0
    for s in (1.0, 1.5):
        for _ in range(100):
            kmax = int(rng.integers(4, 16))
            k = int(rng.integers(2, kmax + 1))
            alpha = float(rng.uniform(0.05, 0.45))
            st = _engineered_dominant_state(rng, kmax, k, s)
            op = dissipation(ModelParams(alpha=alpha, trunc_k=kmax), st)
            lhs = (op[k] - op[k - 1]) * 2.0 ** (s * k)
            ta = 2.0 * alpha
            rhs = coercivity_constant(alpha) * (2.0 ** (ta * k) - 2.0**ta)
            rhs *= weighted_slopes(st, s).bs[k]
            worst = min(worst, lhs - rhs)
            cases += 1
    report(
        3,
        worst >= -1e-10 and cases == 200,
        f"{cases} engineered states, worst slack {worst:.3e} (>= -1e-10)",
    )


def test_criterion_04_semigroup_contraction():
    """X^s norm non-increasing along the pure linear flow."""
    rng = np.random.default_rng(404)
    worst = math.inf
    for alpha in (0.15, 0.35):
        p = ModelParams(alpha=alpha, trunc_k=12)
        for _ in range(50):
            st = random_monotone_state(rng, 12)
            for s_idx in (1.0, 1.5, 2.0):
                norms = [
                    xs_norm(linear_semigroup(p, st, t), s_idx)
                    for t in (0.0, 0.1, 1.0, 10.0)
                ]
                for n0, n1 in zip(norms, norms[1:]):
                    worst = min(worst, n0 - n1)
    report(
        4,
        worst >= -1e-9,
        f"50 states x 3 norms x 2 alphas, worst step slack {worst:.3e} "
        f"(negative would mean a norm increase; allowed down to -1e-9)",
    )


def test_criterion_05_preservation():
    """Monotonicity/positivity and the maximum principle along runs."""
    datasets = [
        gen_front(12, 4, 1.2, 0.5),
        gen_front(12, 5, 1.3, 0.6),
        gen_front(12, 3, 1.1, 0.4),
        gen_geometric(12, 0.5),
        gen_bump(12),
    ]
    worst_mono = math.inf
    worst_maxp = math.inf
    runs = 0
    for alpha in (0.1, 0.2, 0.3, 0.4):
        p = ModelParams(alpha=alpha, trunc_k=12, norm_s=1.5)
        c = StepControls(
            dt_init=5e-4, scheme=Scheme.REFERENCE_FIXED_RK4, record_every=0.05
        )
        for data in datasets:
            traj = integrate(p, data, 1.0, c)
            worst_mono = min(worst_mono, check_monotone_traj(traj, 1e-10).worst_margin)
            worst_maxp = min(worst_maxp, check_max_principle(traj, 1e-8).worst_margin)
            runs += 1

    # inviscid: sup conserved, a_0 pinned at zero, pre-contact windows
    sup_drift = 0.0
    a0_exact = True
    inv = StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=0.01)
    for data, kmax, t_end in (
        (gen_bump(16), 16, 1.2),
        (gen_front(16, 4, 1.2, 0.5), 16, 0.7),
    ):
        p = ModelParams(alpha=0.0, trunc_k=kmax, norm_s=1.5)
        traj = integrate(p, data, t_end, inv, escape_threshold=1e30)
        sups = np.array([float(np.max(s.state.a)) for s in traj.samples])
        sup_drift = max(sup_drift, float(np.max(np.abs(sups - sups[0]))))
        a0_exact = a0_exact and all(s.state.a[0] == 0.0 for s in traj.samples)
    report(
        5,
        runs == 20
        and worst_mono >= -1e-10
        and worst_maxp >= -1e-8
        and sup_drift <= 1e-8
        and a0_exact,
        f"{runs} dissipative runs: monotone margin {worst_mono:.2e} (>= -1e-10), "
        f"max-principle margin {worst_maxp:.2e}; inviscid sup drift {sup_drift:.2e} "
        f"(<= 1e-8), a_0 identically 0: {a0_exact}",
    )


def test_criterion_06_goodbad_and_riccati_identity():
    """Exhaustive good/bad lower bound and the exact dJ/dt identity."""
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    worst_ratio = {}
    for delta in (0.25, 0.5, 0.75):
        c0 = goodbad_lower_constant(delta, default_goodbad_threshold(delta))
        worst = math.inf
        for length in range(2, 13):
            for seq in itertools.combinations_with_replacement(grid, length):
                if seq[-1] == seq[0]:
                    continue
                gb = good_bad(DyadicState(t=0.0, a=list(seq)), delta)
                if math.isfinite(gb.ratio):
                    worst = min(worst, gb.ratio)
        worst_ratio[delta] = (worst, c0)
    grid_ok = all(w >= c0 for w, c0 in worst_ratio.values())

    p = ModelParams(alpha=0.0, trunc_k=12, norm_s=1.5)
    c = StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=1e-4)
    traj = integrate(p, gen_bump(12), 0.3, c, delta=0.5, escape_threshold=1e30)
    rep = riccati_inequality_check(traj, 0.5)
    identity_ok = rep.passed and rep.tolerance == pytest.approx(1e-4)
    ratios = {d: round(w, 4) for d, (w, _) in worst_ratio.items()}
    report(
        6,
        grid_ok and identity_ok,
        f"grid min ratios {ratios} all >= C0 = 0.1; identity residual "
        f"{-rep.worst_margin:.2e} <= 1e-4 at cadence 1e-4",
    )


def test_criterion_07_inviscid_blowup_proxy():
    """Riccati-fitted blow-up time stable in K; norm cascade reaches cutoff."""
    fits = {}
    max_norms = {}
    c = StepControls(
        rel_tol=1e-9, abs_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE,
        record_every=0.01, max_steps=10_000_000,
    )
    for kmax in (12, 16, 20):
        p = ModelParams(alpha=0.0, trunc_k=kmax, norm_s=1.5)
        traj = integrate(p, gen_bump(kmax), 6.0, c, delta=0.5, escape_threshold=1e30)
        fits[kmax] = riccati_fit([(s.t, s.diag.j_value) for s in traj.samples])
        max_norms[kmax] = traj.max_xs_norm()
    finite = all(t is not None and math.isfinite(t) for t in fits.values())
    ts = list(fits.values())
    spread = (max(ts) - min(ts)) / (sum(ts) / len(ts)) if finite else math.inf
    growth_12_16 = max_norms[16] / max_norms[12]
    growth_16_20 = max_norms[20] / max_norms[16]
    report(
        7,
        finite and spread <= 0.10 and growth_12_16 >= 4.0 and growth_16_20 >= 4.0,
        f"fitted T {dict((k, round(v, 3)) for k, v in fits.items())}, spread "
        f"{100 * spread:.1f}% (<= 10%); max-norm growth x{growth_12_16:.1f}, "
        f"x{growth_16_20:.1f} per K+4 (>= 4)",
    )


def test_criterion_08_sqrt2_structure_and_holder():
    """sqrt(2) ratio bound, Hölder-1/2 chain bound, and front-split stability."""
    worst_ratio = math.inf
    worst_chain = math.inf
    structure_ok = True
    for alpha, dt in ((0.1, 2e-3), (0.3, 5e-4)):
        for kmax in (12, 16):
            p = ModelParams(alpha=alpha, trunc_k=kmax, norm_s=1.5)
            c = StepControls(
                dt_init=dt, scheme=Scheme.REFERENCE_FIXED_RK4, record_every=0.02
            )
            traj = integrate(p, gen_front(kmax, 4, 1.2, 0.5), 2.0, c)
            for s in traj.samples:
                from dyadicflow.model import _slopes_array

                b = _slopes_array(s.state.a)
                worst_ratio = min(worst_ratio, float(np.min(SQRT2 * b[1:-1] - b[2:])))
                karr = np.arange(1, b.size, dtype=float)
                chain = np.exp2((karr - 1.0) / 2.0) * b[1] - b[1:]
                worst_chain = min(worst_chain, float(np.min(chain)))
            structure_ok = structure_ok and check_sqrt2_structure(traj, 1e-9).passed
    report(
        8,
        worst_ratio >= -1e-9 and worst_chain >= -1e-9 and structure_ok,
        f"worst sqrt2 margin {worst_ratio:.2e}, worst chain margin {worst_chain:.2e} "
        f"(slack 1e-9); split-index structure non-retreating: {structure_ok}",
    )


def test_criterion_09_dichotomy_scan():
    """Escape below the critical exponent, uniform boundedness above it."""
    t0 = time.perf_counter()
    front = FrontScenario(k0=7, q=1.3, r=0.5, amplitude=10.0)
    base = RunConfig(
        params=ModelParams(alpha=0.15, trunc_k=16, norm_s=1.5),
        controls=StepControls(
            rel_tol=1e-9, abs_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE,
            record_every=0.005, max_steps=20_000_000,
        ),
        scenario=front,
        t_end=1.5,
        checks=(),
    )

    # t_end must lie beyond the inviscid fitted blow-up time for this data
    # (the 64-fold amplitude rescales inviscid time by 1/64, so the fit
    # needs a correspondingly fine cadence)
    p_inv = ModelParams(alpha=0.0, trunc_k=16, norm_s=1.5)
    traj_inv = integrate(
        p_inv,
        gen_front(16, 7, 1.3, 0.5, amplitude=10.0),
        0.2,
        StepControls(
            rel_tol=1e-9, abs_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE,
            record_every=2e-4, max_steps=20_000_000,
        ),
        delta=0.5,
        escape_threshold=1e30,
    )
    t_fit = riccati_fit([(s.t, s.diag.j_value) for s in traj_inv.samples])
    assert t_fit is not None and base.t_end > t_fit

    spec = SweepSpec(alphas=(0.15, 0.35), ks=(12, 16, 20), base=base)
    rows = run_scan(spec, escape_threshold=10_000.0)
    by_cell = {(a, k): (m, e) for a, k, m, e in rows}

    esc = [by_cell[(0.15, k)][1] for k in (12, 16, 20)]
    supercritical_ok = (
        all(e is not None for e in esc)
        and all(e1 <= e0 for e0, e1 in zip(esc, esc[1:]))
        and esc[2] < esc[0]
    )

    sup35 = [by_cell[(0.35, k)][0] for k in (12, 16, 20)]
    no_escape = all(by_cell[(0.35, k)][1] is None for k in (12, 16, 20))
    spread = (max(sup35) - min(sup35)) / (sum(sup35) / 3.0)
    elapsed = time.perf_counter() - t0
    report(
        9,
        supercritical_ok and no_escape and spread < 0.05 and elapsed < 300.0,
        f"alpha=0.15 escape times {esc} (finite, non-increasing, strictly earlier "
        f"at K=20 than K=12; t_end {base.t_end} > inviscid T_fit {t_fit:.3f}); "
        f"alpha=0.35: no escape, sup-norm spread {100 * spread:.2f}% (< 5%); "
        f"{elapsed:.0f}s (< 5 min)",
    )


def test_criterion_10_integrator_validation():
    """Scheme cross-agreement and the closed-form single-mode solution."""
    p = ModelParams(alpha=0.3, trunc_k=12, norm_s=1.5)
    s0 = gen_front(12, 4, 1.2, 0.5)
    adaptive = integrate(
        p, s0, 1.0,
        StepControls(rel_tol=1e-9, abs_tol=1e-12, scheme=Scheme.EXPLICIT_ADAPTIVE,
                     record_every=1.0),
    )
    reference = integrate(
        p, s0, 1.0,
        StepControls(dt_init=1e-5, scheme=Scheme.REFERENCE_FIXED_RK4, record_every=1.0),
    )
    gap = float(np.max(np.abs(adaptive.final_state.a - reference.final_state.a)))

    # single-mode closed form x(t) = x0 / (1 + 2 x0 t): the inviscid
    # coupling is lower-triangular, so component 1 evolves autonomously
    p1 = ModelParams(alpha=0.0, trunc_k=2)
    riccati = integrate(
        p1,
        DyadicState(t=0.0, a=[0.0, 1.0, 1.0]),
        1.0,
        StepControls(rel_tol=1e-10, abs_tol=1e-13, record_every=0.1),
    )
    riccati_err = abs(riccati.final_state.a[1] - 1.0 / 3.0)
    report(
        10,
        gap <= 1e-6 and riccati_err <= 1e-6,
        f"adaptive vs fixed RK4 sup-gap {gap:.2e} (<= 1e-6); single-mode "
        f"closed-form error {riccati_err:.2e} (<= 1e-6)",
    )
