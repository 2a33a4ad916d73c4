"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread settings already in the environment.  Runs
operations back to back (a closed loop with one client) for ``--seconds``,
verifies each one outside the timed region, and prints one JSON object with
the raw per-operation timings.  With ``--trace 1`` the loop alternates
untraced and traced operations and then runs the layer probes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import specs

MIN_OPS = 3          # untraced operations per run, whatever --seconds says
MIN_TRACED_OPS = 2   # of each kind in a traced run
REL_GAP_TOL = 1e-6   # final state against the reference solve (criterion 10)
SPREAD_TOL = 0.05    # criterion 09: sup-norm spread of the subcritical cells


def _mod(name):
    return sys.modules[f"dyadicflow.{name}"]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# operations


class SimulateOp:
    """``dyadicflow simulate`` through ``cli.main``; documented exit 0 expected."""

    SUFFIXES = ("_trajectory.csv", "_state.csv", "_profile.csv", "_reports.json",
                "_blowup.json")

    def __init__(self, cfg_path, prefix):
        self.cfg_path = str(cfg_path)
        self.prefix = str(prefix)
        self.cfg = _mod("config").load_config(self.cfg_path)

    def files(self):
        return [self.prefix + s for s in self.SUFFIXES]

    def run(self):
        return _mod("cli").main(
            ["simulate", "--config", self.cfg_path, "--out", self.prefix, "--quiet"]
        )

    def verify(self, rc) -> dict:
        out = _mod("output")
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc} (expected 0: reached t_end)")
        rows = out.read_trajectory_csv(self.prefix + "_trajectory.csv")
        last = rows[-1]
        if last["termination"] != "reached_t_end" or abs(last["t"] - self.cfg.t_end) > 1e-12:
            problems.append(f"terminated {last['termination']} at t={last['t']!r}")
        kk = self.cfg.params.trunc_k
        final = [r["a_k"] for r in out.read_state_csv(self.prefix + "_state.csv")]
        if len(final) != kk + 1:
            problems.append(f"state file has {len(final)} entries, expected {kk + 1}")
        if len(out.read_profile_csv(self.prefix + "_profile.csv")) != kk + 1:
            problems.append("profile file has the wrong length")
        reports = out.read_reports_json(self.prefix + "_reports.json")
        if [r.name for r in reports] != list(self.cfg.checks):
            problems.append("reports do not match the configured checks")
        with open(self.prefix + "_blowup.json", encoding="utf-8") as fh:
            json.load(fh)
        return {
            "problems": problems,
            "checks_failed": sum(not r.passed for r in reports),
            "final": final,
        }

    def check_reference(self, results) -> None:
        """Compare each final state with an independent Dormand-Prince solve."""
        ref = reference_final_state(self.cfg)
        scale = max(abs(x) for x in ref)
        for res in results:
            if "final" not in res:
                continue
            gap = max(abs(a - b) for a, b in zip(res["final"], ref)) / scale
            res["gap"] = gap
            if not gap <= REL_GAP_TOL:
                res["problems"].append(f"final state off the reference by {gap:.2e}")


class ScanOp:
    """The criterion-09 sweep: ``load_sweep``, ``run_scan``, ``write_scan_csv``."""

    def __init__(self, cfg_path, prefix):
        self.cfg_path = str(cfg_path)
        self.csv = str(prefix) + "_scan.csv"

    def files(self):
        return [self.csv]

    def run(self):
        spec = _mod("config").load_sweep(self.cfg_path)
        rows = _mod("cli").run_scan(spec, escape_threshold=specs.SCAN_ESCAPE_THRESHOLD)
        _mod("output").write_scan_csv(rows, self.csv)
        return rows

    def verify(self, rows) -> dict:
        problems = []
        back = _mod("output").read_scan_csv(self.csv)
        if [tuple(r) for r in back] != [tuple(r) for r in rows]:
            problems.append("scan CSV does not read back equal to the returned rows")
        cells = {(a, k): (m, e) for a, k, m, e in back}
        want = {(a, k) for a in specs.SCAN_ALPHAS for k in specs.SCAN_KS}
        if set(cells) != want:
            return {"problems": problems + [f"scan cells {sorted(cells)}"]}
        lo, hi = specs.SCAN_ALPHAS
        esc = [cells[(lo, k)][1] for k in specs.SCAN_KS]
        # non-increasing, not strictly decreasing: escape times are quantised to
        # the record cadence, so neighbouring K can share one
        if not (all(e is not None for e in esc)
                and all(e1 <= e0 for e0, e1 in zip(esc, esc[1:]))):
            problems.append(f"alpha={lo} escape times {esc} not finite and non-increasing in K")
        sups = [cells[(hi, k)][0] for k in specs.SCAN_KS]
        spread = (max(sups) - min(sups)) / (sum(sups) / len(sups))
        if any(cells[(hi, k)][1] is not None for k in specs.SCAN_KS) or not spread < SPREAD_TOL:
            problems.append(f"alpha={hi} escaped or sup spread {spread:.3f} >= {SPREAD_TOL}")
        return {"problems": problems, "checks_failed": 0}

    def check_reference(self, results) -> None:
        """The scan writes no final state; its verdict is the check."""


OPS = {"imex_front16": SimulateOp, "explicit_scan": ScanOp, "inviscid_diag": SimulateOp}


# ---------------------------------------------------------------------------
# independent reference


def reference_final_state(cfg) -> list[float]:
    """Tight-tolerance Dormand-Prince 8(5,3) solve from scipy.

    The operator matrix is built here from the defining double sum (plateau
    tail), not from dyadicflow, so the check does not share its kernel.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    p = cfg.params
    a0 = np.array(_mod("config").build_initial_state(cfg.scenario, p.trunc_k).a, dtype=float)
    kk = p.trunc_k
    k = np.arange(kk + 1, dtype=float)[:, None]
    n = np.arange(kk + 1, dtype=float)[None, :]
    ta = 2.0 * p.alpha
    w = np.where(n < k, np.exp2(ta * n), np.where(n > k, np.exp2(ta * k + k - n), 0.0))
    if p.tail.value == "plateau":
        w[:, kk] += np.exp2(ta * k[:, 0] + k[:, 0] - kk)
    m = np.diag(w.sum(axis=1)) - w if p.alpha > 0.0 else None
    scale = np.exp2(np.arange(1, kk + 1, dtype=float))

    def rhs(_t, a):
        out = np.zeros_like(a)
        out[1:] = -np.diff(a) ** 2 * scale
        return out if m is None else out - m @ a

    sol = solve_ivp(rhs, (0.0, cfg.t_end), a0, method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y[:, -1].tolist()


# ---------------------------------------------------------------------------
# run


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "DYADIC_FLOW_THREADS")},
    }


def measure(args) -> dict:
    import dyadicflow.cli  # noqa: F401

    import tracing

    workdir = Path(args.workdir)
    op_cls = OPS[args.workload]
    try:
        # first-call costs (lazy imports, allocator growth) stay out of the timings
        op_cls(workdir / "warmup.cfg", workdir / "warmup").run()
    except Exception as exc:  # the timed operations will fail and say why
        print(f"perfbench: warm-up raised {type(exc).__name__}: {exc}", file=sys.stderr)
    op = op_cls(workdir / "run.cfg", workdir / "run")
    tracer = tracing.Tracer() if args.trace else None
    need_plain = MIN_TRACED_OPS if tracer else MIN_OPS
    need_traced = MIN_TRACED_OPS if tracer else 0

    results = []
    start = time.perf_counter()
    while True:
        n_traced = sum(r["traced"] for r in results)
        if (time.perf_counter() - start >= args.seconds
                and len(results) - n_traced >= need_plain and n_traced >= need_traced):
            break
        traced = tracer is not None and len(results) % 2 == 1
        for f in op.files():
            Path(f).unlink(missing_ok=True)
        if traced:
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            ret = op.run()
            err = None
        except Exception as exc:  # an operation that raises counts as failed
            ret, err = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            tracer.uninstall()
        res = {"wall": wall, "cpu": cpu, "traced": traced}
        if err is not None:
            res["problems"] = [f"raised {err}"]
        else:
            try:
                res.update(op.verify(ret))
                res["digest"] = _digest(op.files())
            except Exception as exc:  # unreadable outputs fail verification
                res["problems"] = [f"verification raised {type(exc).__name__}: {exc}"]
        if traced:
            res["layers"] = tracer.layer_values()
        results.append(res)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op.check_reference(results)
    digests = [r.get("digest") for r in results]
    for r in results:
        if r.get("digest") != digests[0]:
            r["problems"].append("outputs differ from the first repeat")

    plain = [r for r in results if not r["traced"]]
    out = {
        "walls": [r["wall"] for r in plain],
        "cpus": [r["cpu"] for r in plain],
        "attempted": len(results),
        "failed": sum(bool(r["problems"]) for r in results),
        "problems": sorted({p for r in results for p in r["problems"]}),
        "gaps": sorted({r["gap"] for r in results if "gap" in r}),
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if tracer is not None:
        out["layers"], out["absent"] = trace_summary(args.workload, results, tracer)
    return out


def trace_summary(workload, results, tracer) -> tuple[dict, list]:
    import tracing

    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    layers = {}
    for k in sorted({k for r in traced for k in r["layers"]}):
        vals = [r["layers"].get(k, 0) for r in traced]
        if all(isinstance(v, int) for v in vals):
            # counts must repeat exactly; say so when they do not
            if len(set(vals)) > 1:
                print(f"perfbench: count {k} differs between repeats: {vals}", file=sys.stderr)
            layers[k] = statistics.median_low(vals)
        else:
            layers[k] = statistics.median(vals)
    wall = statistics.median(r["wall"] for r in plain)
    layers["analysis.checks_failed"] = statistics.median_low(
        r.get("checks_failed", 0) for r in results
    )
    layers["cli.run_scan.cpu_ratio"] = (
        statistics.median(r["cpu"] for r in plain) / wall if workload == "explicit_scan" else 0.0
    )
    layers["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - wall
    probes, probe_absent = tracing.layer_probes()
    layers.update(probes)
    absent = tracer.absent_metrics() | probe_absent
    for k in list(layers):
        if k in absent or math.isnan(layers[k]):
            del layers[k]
    return layers, sorted(absent)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
