"""Alternating A/B pairs of ``perfbench/run.py`` runs on two checkouts.

    python scripts/ab_pairs.py BASE CHANGE --workload explicit_scan \\
        --first-seed 101 --pairs 10 --seconds 35

Pair i runs the benchmark of both checkouts on seed ``first_seed + i``, each
from its own root (``perfbench/run.py`` builds what it runs from the
checkout's ``src``).  The order alternates from pair to pair (base first on
even i), so a drift of the host does not favour one side.  For every
end-to-end metric of BASE's ``BENCHMARK.json`` it prints each pair's ratio
change/base, the pairs the change wins (strictly better in the metric's
direction), the median ratio, and the medians of both sides with the
interquartile range of the base runs (inclusive quartiles).  ``--json``
also writes every run and the summary to a file.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metric values of one benchmark run of the checkout at ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_pairs: {root} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="root of the checkout compared against")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--json", type=Path, help="write the runs and the summary here")
    args = ap.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()
    metrics = json.loads((base / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []  # (seed, base values, change values)
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("base", base), ("change", change)]
        if i % 2:
            order.reverse()
        values = {side: run_once(root, args.workload, seed, args.seconds) for side, root in order}
        runs.append((seed, values["base"], values["change"]))
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0][0]} first): " + "  ".join(
            f"{m['name']} {values['base'][m['name']]:.4g}->{values['change'][m['name']]:.4g}"
            for m in metrics), flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, seeds {args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}, {args.seconds:g} s runs")
    summary = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        before = [b[name] for _, b, _ in runs]
        after = [c[name] for _, _, c in runs]
        ratios = [a / b if b else float("nan") for b, a in zip(before, after)]
        wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        q1, _, q3 = (statistics.quantiles(before, n=4, method="inclusive")
                     if len(before) > 1 else before * 3)
        summary[name] = {
            "ratios": ratios, "wins": wins, "median_ratio": statistics.median(ratios),
            "base_median": statistics.median(before), "change_median": statistics.median(after),
            "base_iqr": q3 - q1,
        }
        print(f"{name}: ratios " + " ".join(f"{r:.3f}" for r in ratios))
        print(f"  wins {wins}/{len(runs)}, median ratio {statistics.median(ratios):.4f}, "
              f"median {statistics.median(before):.4g} -> {statistics.median(after):.4g}, "
              f"base IQR {q3 - q1:.3g}")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "summary": summary,
            "pairs": [{"seed": seed, "base": b, "change": c} for seed, b, c in runs],
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
