"""Workload definitions: seeded inputs rendered as dyadicflow config files.

Pure standard library, so the launcher can write the config files without
importing numpy (BLAS thread settings must be in place before that import).

Seed 0 reproduces the reference configurations exactly.  Any other seed
multiplies the scenario parameters by factors drawn uniformly from
``1 +/- PERTURB[name]``:

* ``q`` (front slope growth) within 0.5%,
* ``r`` (front slope decay) within 1%,
* ``amplitude`` within 1%.

These ranges keep every workload's verification true (final state within
1e-6 of the reference solve, criterion-09 verdict, configured checks) while
moving the amount of work by well under the benchmark's bounds.  The bump
data of ``inviscid_diag`` has no parameters of its own; its seeds scale the
bump by the amplitude factor and pass it as ``custom`` data.
"""

from __future__ import annotations

import random

WORKLOADS = ("imex_front16", "explicit_scan", "inviscid_diag")

PERTURB = {"q": 0.005, "r": 0.01, "amplitude": 0.01}

# the scan escapes through the X^s norm threshold given to cli.run_scan
SCAN_ESCAPE_THRESHOLD = 1e4
SCAN_ALPHAS = (0.15, 0.35)
SCAN_KS = (12, 16, 20)

INVISCID_K = 20
INVISCID_CHECKS = ("monotone_nonneg", "max_principle", "ordering_inviscid", "riccati_identity")


def scenario_factors(seed: int) -> dict[str, float]:
    """Multipliers for q, r and amplitude; all exactly 1 for seed 0."""
    if seed == 0:
        return {name: 1.0 for name in PERTURB}
    rng = random.Random(seed)
    return {name: 1.0 + rng.uniform(-w, w) for name, w in PERTURB.items()}


def _front(k0: int, q: float, r: float, amplitude: float, f: dict[str, float]) -> list[str]:
    return [
        "kind = front",
        f"k0 = {k0}",
        f"q = {q * f['q']!r}",
        f"r = {r * f['r']!r}",
        f"amplitude = {amplitude * f['amplitude']!r}",
    ]


def _bump(kmax: int, f: dict[str, float]) -> list[str]:
    if f["amplitude"] == 1.0:
        return ["kind = bump"]
    # same formula as scenarios.gen_bump, scaled
    values = [f["amplitude"] * (1.0 - 4.0**-k) ** 2 for k in range(kmax + 1)]
    return ["kind = custom", "values = " + ",".join(repr(v) for v in values)]


T_END = {"imex_front16": 1.0, "explicit_scan": 1.5, "inviscid_diag": 0.5}
# a few record intervals: enough to reach every code path once
WARMUP_T_END = {"imex_front16": 0.05, "explicit_scan": 0.05, "inviscid_diag": 0.001}


def config_text(workload: str, seed: int, warmup: bool = False) -> str:
    """The workload's config file; ``warmup`` shortens the run to a few samples."""
    f = scenario_factors(seed)
    t = (WARMUP_T_END if warmup else T_END)[workload]
    if workload == "imex_front16":
        sections = {
            "model": ["alpha = 0.25", "trunc_k = 16"],
            "controls": ["scheme = auto"],
            "scenario": _front(4, 1.2, 0.5, 10.0, f),
            "run": [f"t_end = {t!r}"],
        }
    elif workload == "explicit_scan":
        sections = {
            "model": [f"alpha = {SCAN_ALPHAS[0]!r}", "trunc_k = 16", "norm_s = 1.5"],
            "controls": [
                "rel_tol = 1e-9", "abs_tol = 1e-12", "scheme = explicit_adaptive",
                "record_every = 0.005", "max_steps = 20000000",
            ],
            "scenario": _front(7, 1.3, 0.5, 10.0, f),
            "run": [f"t_end = {t!r}"],
            # no parallelism field: the pool size comes from DYADIC_FLOW_THREADS
            "sweep": [
                "alphas = " + ",".join(repr(a) for a in SCAN_ALPHAS),
                "ks = " + ",".join(str(k) for k in SCAN_KS),
            ],
        }
    elif workload == "inviscid_diag":
        sections = {
            "model": ["alpha = 0.0", f"trunc_k = {INVISCID_K}"],
            "controls": ["rel_tol = 1e-10", "abs_tol = 1e-13", "record_every = 1e-4"],
            "scenario": _bump(INVISCID_K, f),
            "run": [f"t_end = {t!r}", "checks = " + ",".join(INVISCID_CHECKS)],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    lines = []
    for name, body in sections.items():
        lines += [f"[{name}]", *body, ""]
    return "\n".join(lines)
