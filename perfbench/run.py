"""dyadicflow benchmark: one workload, one seed, one JSON line of metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload imex_front16 --seed 0 --seconds 35 --trace 0

Workloads (see ``specs.py`` for the configs and ``BENCHMARK.json`` for why
each was chosen): ``imex_front16``, ``explicit_scan``, ``inviscid_diag``.
Each is a closed loop with one client: an operation starts only after the
previous one has finished and been verified.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* ``wall_s``, ``cpu_s``: median wall and process CPU seconds per operation;
* ``setup_s``: median over fresh interpreters of importing dyadicflow,
  loading the workload's config and building its initial state;
* ``peak_rss_mb``: peak resident memory of the fresh process that ran the
  operations;
* ``ok_rate``: share of attempted operations that neither raised, nor
  returned an undocumented exit code, nor failed verification.  The
  failure share (``fail_rate``) is ``failed / attempted`` of the same line
  and is printed on stderr.

``--trace 1`` prints the per-layer metrics instead (see ``tracing.py``).

The program runs from the checkout's ``src`` with one BLAS thread and two
scan workers (``DYADIC_FLOW_THREADS=2``).  Everything written goes under
``.perfbench_out/`` in the checkout and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import signal
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import specs  # noqa: E402

SETUP_REPEATS = 5
WORKER_TIMEOUT = 150.0
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DYADIC_FLOW_THREADS": "2",
}

# what a user pays before the first step: interpreter, package and CLI
# imports, config parsing and the initial data
SETUP_CODE = """
import sys
import dyadicflow.cli
from dyadicflow import config
workload, path = sys.argv[1:]
if workload == "explicit_scan":
    spec = config.load_sweep(path)
    for k in spec.ks:
        config.build_initial_state(spec.base.scenario, k)
else:
    cfg = config.load_config(path)
    config.build_initial_state(cfg.scenario, cfg.params.trunc_k)
"""


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def timed_process(cmd, env, limit: float = 60.0) -> float:
    """Wall seconds from start to exit of a child process.

    ``Popen.wait(timeout)`` polls in steps of up to 50 ms, which would
    quantise the time; a blocking wait with a watchdog kill does not.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    return elapsed


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the worker is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.seconds > 0:
        return fail("--seconds must be positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "dyadicflow" / "__init__.py").is_file():
        return fail(f"no dyadicflow sources under {src}; run from the root of a checkout")

    out_root = root / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_root))
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, root: Path, workdir: Path) -> int:
    (workdir / "run.cfg").write_text(specs.config_text(args.workload, args.seed))
    (workdir / "warmup.cfg").write_text(specs.config_text(args.workload, args.seed, warmup=True))

    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--workdir", str(workdir)]

    proc = subprocess.run(
        worker + ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = res["attempted"], res["failed"]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"perfbench env: {json.dumps(res['env'], sort_keys=True)}", file=sys.stderr)
    for p in res["problems"]:
        print(f"perfbench: FAILED {p}", file=sys.stderr)

    if args.trace:
        layers = res["layers"]
        listed = {m["name"] for m in bench["per_layer"]}
        for name in sorted(set(res["absent"]) | (listed - layers.keys())):
            print(f"perfbench: absent {name}", file=sys.stderr)
        # a layer value the benchmark does not list (say, a newly added check) is not reported
        metrics = {k: metric(v, units[k]) for k, v in layers.items() if k in units}
    else:
        setup_cmd = [sys.executable, "-c", SETUP_CODE, args.workload, str(workdir / "run.cfg")]
        setups = [timed_process(setup_cmd, env) for _ in range(SETUP_REPEATS)]
        metrics = {
            "wall_s": statistics.median(res["walls"]),
            "cpu_s": statistics.median(res["cpus"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_rate": (attempted - failed) / attempted,
        }
        print(
            f"perfbench {args.workload} seed={args.seed}: n={len(res['walls'])} "
            f"wall_s={metrics['wall_s']:.4f} cpu_s={metrics['cpu_s']:.4f} "
            f"setup_s={metrics['setup_s']:.4f} "
            f"peak_rss_mb={res['peak_rss_mb']:.1f} fail_rate={failed / attempted:.4f} "
            f"wall_range=[{min(res['walls']):.4f}, {max(res['walls']):.4f}] "
            f"ref_gap={max(res['gaps'], default=float('nan')):.2e}",
            file=sys.stderr,
        )
        metrics = {k: metric(v, units[k]) for k, v in metrics.items()}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
