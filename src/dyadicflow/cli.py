"""Command-line front end.

Four subcommands, one per experiment family:

* ``simulate`` -- integrate one configuration, write trajectory/report files.
  Exit 0 when t_end was reached, 2 on escape, 1 on any error.
* ``check``    -- run a simulation and the configured invariant checks.
  Exit 0 when all pass, 3 when any fail, 1 on error.  ``--fault-inject``
  corrupts the trajectory first (test harness for the checks themselves).
* ``scan``     -- (alpha, K) sweep; writes a summary table
  ``alpha,K,max_norm,escape_time``.  Exit 0 on success.
* ``semigroup``-- pure linear flow on the record grid of ``simulate``, up to
  t_end; writes the X^s norm series.  Exit 0 when it is non-increasing (to
  within 1e-9 per record), 3 when the norm increases, 1 on error (alpha = 0
  is unsupported).

stdout carries a one-line summary (suppressed by ``--quiet``), stderr the
diagnostics.  Outputs contain no timestamps; identical inputs reproduce
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from typing import Optional

import numpy as np

from dyadicflow import analysis, output
from dyadicflow.config import (
    ConfigError,
    RunConfig,
    SweepSpec,
    build_initial_state,
    cell_config,
    load_config,
    load_sweep,
)
from dyadicflow.integrate import (
    IntegrationAbortError,
    Termination,
    Trajectory,
    integrate,
    linear_semigroup_samples,
)
from dyadicflow.model import _xs_norms

logger = logging.getLogger("dyadicflow")

FAULT_KINDS = ("sign-flip", "sqrt2-ratio")


def run_simulation(cfg: RunConfig, escape_threshold: Optional[float] = None) -> Trajectory:
    """Integrate the configured scenario to t_end."""
    state0 = build_initial_state(cfg.scenario, cfg.params.trunc_k)
    return integrate(
        cfg.params,
        state0,
        cfg.t_end,
        cfg.controls,
        delta=cfg.delta,
        escape_threshold=escape_threshold,
    )


def inject_fault(traj: Trajectory, kind: str) -> Trajectory:
    """Deterministically corrupt one interior sample (check test harness)."""
    if kind not in FAULT_KINDS:
        raise ConfigError(f"unknown fault kind {kind!r}; known: {list(FAULT_KINDS)}")
    states = traj.states.copy()
    i = max(1, len(states) // 2) if len(states) > 1 else 0
    a = states[i]  # a view: the corruption below writes into the copy
    k = max(1, (a.size - 1) // 2)
    if kind == "sign-flip":
        # push a_k below its predecessor: breaks monotonicity outright
        a[k] = a[k - 1] - 0.1 * (1.0 + float(np.max(np.abs(a))))
    else:
        # force b_k = 1.5 * b_{k-1} by shifting the suffix, so monotonicity
        # survives but both slope-ordering regimes are violated at k
        b_prev = (a[k - 1] - a[k - 2]) * 2.0 ** (k - 1) if k >= 2 else 1.0
        shift = a[k - 1] + 1.5 * abs(b_prev) * 2.0**-k - a[k]
        a[k:] += max(shift, 1e-6)
    return dataclasses.replace(traj, states=states)


def run_scan(
    spec: SweepSpec, escape_threshold: Optional[float] = None
) -> list[tuple[float, int, float, Optional[float]]]:
    """Run every (alpha, K) cell in sorted order; summarize max norm and escape time."""
    rows = []
    for alpha, kk in sorted((a, k) for a in spec.alphas for k in spec.ks):
        cfg = cell_config(spec.base, alpha, kk)
        traj = run_simulation(cfg, escape_threshold=escape_threshold)
        rows.append((alpha, kk, traj.max_xs_norm(), traj.escape_time))
    return rows


# ---------------------------------------------------------------------------
# subcommand drivers


def _emit(args, line: str) -> None:
    if not args.quiet:
        print(line)


def _prefix(cfg: RunConfig, args) -> str:
    return args.out if args.out else cfg.output_prefix


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    traj = run_simulation(cfg)
    reports = analysis.run_checks(traj, cfg.checks)
    prefix = _prefix(cfg, args)
    output.save_outputs(traj, reports, prefix)
    esc = "" if traj.escape_time is None else f" escape_t={traj.escape_time!r}"
    _emit(args, f"simulate: {traj.termination.value} samples={len(traj.times)}{esc} -> {prefix}")
    return 2 if traj.termination is Termination.ESCAPE_DETECTED else 0


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    traj = run_simulation(cfg)
    if args.fault_inject:
        traj = inject_fault(traj, args.fault_inject)
    reports = analysis.run_checks(traj, cfg.checks)
    prefix = _prefix(cfg, args)
    output.write_reports_json(reports, prefix + "_reports.json")
    failed = [r.name for r in reports if not r.passed]
    _emit(
        args,
        f"check: {len(reports) - len(failed)}/{len(reports)} passed"
        + (f" (failed: {','.join(failed)})" if failed else "")
        + f" -> {prefix}_reports.json",
    )
    return 3 if failed else 0


def cmd_scan(args) -> int:
    spec = load_sweep(args.config)
    rows = run_scan(spec)
    prefix = _prefix(spec.base, args)
    path = output.write_scan_csv(rows, prefix + "_scan.csv")
    escapes = sum(1 for r in rows if r[3] is not None)
    _emit(args, f"scan: {len(rows)} cells, {escapes} escaped -> {path}")
    return 0


def cmd_semigroup(args) -> int:
    cfg = load_config(args.config)
    p = cfg.params
    state0 = build_initial_state(cfg.scenario, p.trunc_k)
    times, states = linear_semigroup_samples(p, state0, cfg.t_end, cfg.controls.record_every)
    norms = _xs_norms(states, np.diff(states, axis=1), p.norm_s)
    prefix = _prefix(cfg, args)
    path = output.write_series_csv((times, norms), prefix + "_semigroup.csv")
    ok = bool(np.all(norms[1:] <= norms[:-1] + 1e-9))
    _emit(args, f"semigroup: {'contracting' if ok else 'NORM INCREASED'} -> {path}")
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadicflow",
        description="Simulate the dyadic nonlocal-transport model and check its invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
        ("simulate", cmd_simulate, ()),
        ("check", cmd_check, ("fault",)),
        ("scan", cmd_scan, ()),
        ("semigroup", cmd_semigroup, ()),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--out", default=None, help="output prefix override")
        p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
        if "fault" in extra:
            p.add_argument(
                "--fault-inject",
                default=None,
                choices=FAULT_KINDS,
                help="corrupt the trajectory before checking (harness mode)",
            )
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(message)s", force=True
    )
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, IntegrationAbortError) as exc:
        logger.error("%s", exc)
        return 1
    except Exception as exc:  # keep the contract: any error exits 1
        logger.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
