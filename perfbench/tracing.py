"""Per-layer tracing of dyadicflow from outside the package.

Hooks replace module attributes at the names each layer looks up at call
time, so nothing under ``src/`` changes:

* ``integrate.expm``, ``integrate._rhs_inviscid_array``,
  ``integrate.dissipation_matrix`` and ``integrate._diagnostics``;
* the ``attempt`` method of every stepper class in ``dyadicflow.integrate``
  (a repeated ``t`` on the next attempt of one stepper marks a rejection);
* the entries of ``analysis.CHECKS`` and ``analysis.blowup_diagnostics``;
* ``output.save_outputs`` and ``output.write_scan_csv``;
* ``cli.integrate``, ``cli.run_simulation``, ``cli.run_scan``,
  ``cli.load_config``, ``cli.build_initial_state`` and ``config.load_sweep``.

Modules are reached through ``sys.modules``: the package attribute
``dyadicflow.integrate`` is the re-exported function, not the module.  A
target that no longer exists is skipped and every metric derived from it is
reported as absent; tracing never fails a run.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import threading
import time
import warnings

perf = time.perf_counter


def module(name: str):
    return sys.modules.get(f"dyadicflow.{name}")


class Meter:
    """Call count and busy seconds of one hooked name.

    Each thread accumulates in its own slot, so the scan's pool threads never
    race on a shared counter and counts repeat exactly.
    """

    def __init__(self):
        self._slots: dict[int, list] = {}

    def add(self, seconds: float) -> None:
        s = self._slots.get(threading.get_ident())
        if s is None:
            s = self._slots.setdefault(threading.get_ident(), [0, 0.0])
        s[0] += 1
        s[1] += seconds

    @property
    def count(self) -> int:
        return sum(s[0] for s in self._slots.values())

    @property
    def seconds(self) -> float:
        return sum(s[1] for s in self._slots.values())


def _timed(meter: Meter, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            meter.add(perf() - t0)

    return wrapper


def _attempt_hook(meter: Meter, rejected: Meter, fn):
    @functools.wraps(fn)
    def attempt(self, t, y, dt):
        if self.__dict__.get("_trace_last_t") == t:
            rejected.add(0.0)
        self.__dict__["_trace_last_t"] = t
        t0 = perf()
        try:
            return fn(self, t, y, dt)
        finally:
            meter.add(perf() - t0)

    return attempt


def _bytes_hook(meter: Meter, nbytes: list, fn):
    """Time a writer and add up the sizes of the files it returns."""

    @functools.wraps(fn)
    def writer(*args, **kwargs):
        t0 = perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            meter.add(perf() - t0)
        paths = out.values() if isinstance(out, dict) else [out]
        nbytes.append(sum(p.stat().st_size for p in paths))
        return out

    return writer


class Tracer:
    """Installs the hooks for one traced operation and reads them out."""

    def __init__(self):
        self.meters: dict[str, Meter] = {}
        self.nbytes: list[int] = []
        self._undo: list[tuple] = []
        self.absent: set[str] = set()

    def _meter(self, key: str) -> Meter:
        return self.meters.setdefault(key, Meter())

    def _patch(self, modname: str, attr: str, make) -> None:
        """Replace ``modname.attr`` by ``make(original)``, remembering how to undo it."""
        owner = module(modname)
        if owner is None or not hasattr(owner, attr):
            self.absent.add(f"{modname}.{attr}")
            return
        self._swap(owner, attr, make)

    def _swap(self, owner, attr, make) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = make(original)
        else:
            setattr(owner, attr, make(original))

    def _patch_timed(self, modname: str, attr: str, key: str) -> None:
        self._patch(modname, attr, lambda fn: _timed(self._meter(key), fn))

    def install(self) -> None:
        self.meters = {}
        self.nbytes = []
        self._patch_timed("integrate", "expm", "expm")
        self._patch_timed("integrate", "_rhs_inviscid_array", "rhs")
        self._patch_timed("integrate", "dissipation_matrix", "matrix")
        self._patch_timed("integrate", "_diagnostics", "diagnostics")
        im = module("integrate")
        steppers = [
            c for c in (vars(im).values() if im is not None else ())
            if isinstance(c, type) and c.__module__ == im.__name__ and "attempt" in vars(c)
        ]
        if not steppers:
            self.absent.add("integrate.<stepper>.attempt")
        rejected = self._meter("rejected")
        for cls in steppers:
            meter = self._meter(f"attempt.{cls.__name__}")
            self._swap(cls, "attempt", lambda fn, m=meter: _attempt_hook(m, rejected, fn))
        checks = getattr(module("analysis"), "CHECKS", None)
        if isinstance(checks, dict):
            for name in list(checks):
                meter = self._meter(f"check.{name}")
                self._swap(checks, name, lambda fn, m=meter: _timed(m, fn))
        else:
            self.absent.add("analysis.CHECKS")
        self._patch_timed("analysis", "blowup_diagnostics", "blowup")
        self._patch("output", "save_outputs",
                    lambda fn: _bytes_hook(self._meter("save"), self.nbytes, fn))
        self._patch("output", "write_scan_csv",
                    lambda fn: _bytes_hook(self._meter("write_scan"), self.nbytes, fn))
        self._patch_timed("cli", "integrate", "integrate")
        self._patch_timed("cli", "run_simulation", "run_simulation")
        self._patch_timed("cli", "run_scan", "run_scan")
        self._patch_timed("cli", "load_config", "load")
        self._patch_timed("config", "load_sweep", "load")
        self._patch_timed("cli", "build_initial_state", "build")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo = []

    def layer_values(self) -> dict[str, float]:
        """Per-operation layer metrics from the meters of one traced operation."""
        m = {k: (v.count, v.seconds) for k, v in self.meters.items()}

        def count(key):
            return m.get(key, (0, 0.0))[0]

        def secs(key):
            return m.get(key, (0, 0.0))[1]

        attempt_keys = [k for k in m if k.startswith("attempt.")]
        attempts = sum(count(k) for k in attempt_keys)
        attempt_s = sum(secs(k) for k in attempt_keys)
        imex_attempts = count("attempt._ImexEtd2")
        rejected = count("rejected")
        diag_calls = count("diagnostics")
        scans = count("run_scan")
        v = {
            "integrate.expm_calls": count("expm"),
            "integrate.expm_s": secs("expm"),
            "integrate.table_hit_ratio": (
                1.0 - count("expm") / imex_attempts if imex_attempts else 0.0
            ),
            "integrate.attempts": attempts,
            "integrate.rejected": rejected,
            "integrate.accept_ratio": (attempts - rejected) / attempts if attempts else 0.0,
            "integrate.attempt_us": (
                1e6 * (attempt_s - secs("rhs") - secs("expm")) / attempts if attempts else 0.0
            ),
            "integrate.diagnostics_calls": diag_calls,
            "integrate.diagnostics_us": 1e6 * secs("diagnostics") / diag_calls if diag_calls else 0.0,
            "integrate.self_s": (
                secs("integrate") - attempt_s - secs("diagnostics") - secs("matrix")
            ),
            "model.rhs_calls": count("rhs"),
            "model.rhs_s": secs("rhs"),
            "model.matrix_builds": count("matrix"),
            "model.dissipation_matrix_s": secs("matrix"),
            "analysis.blowup_diagnostics_s": secs("blowup"),
            "output.save_s": secs("save"),
            "output.write_scan_s": secs("write_scan"),
            "output.bytes": sum(self.nbytes),
            "cli.run_scan.cell_s": (
                secs("run_simulation") / count("run_simulation") if scans else 0.0
            ),
            "config.load_s": secs("load"),
            "scenarios.build_s": secs("build"),
        }
        for key in m:
            if key.startswith("check."):
                v[f"analysis.{key}_s"] = secs(key)
        return v

    def absent_metrics(self) -> set[str]:
        """Metric names that depend on a hook target that no longer exists."""
        depends = {
            "integrate.expm": ("integrate.expm_calls", "integrate.expm_s",
                               "integrate.table_hit_ratio", "integrate.attempt_us"),
            "integrate._rhs_inviscid_array": ("model.rhs_calls", "model.rhs_s",
                                              "integrate.attempt_us"),
            "integrate.dissipation_matrix": ("model.matrix_builds",
                                             "model.dissipation_matrix_s",
                                             "integrate.self_s"),
            "integrate._diagnostics": ("integrate.diagnostics_calls",
                                       "integrate.diagnostics_us", "integrate.self_s"),
            "integrate.<stepper>.attempt": ("integrate.attempts", "integrate.rejected",
                                            "integrate.accept_ratio", "integrate.attempt_us",
                                            "integrate.table_hit_ratio", "integrate.self_s"),
            "analysis.blowup_diagnostics": ("analysis.blowup_diagnostics_s",),
            "output.save_outputs": ("output.save_s", "output.bytes"),
            "output.write_scan_csv": ("output.write_scan_s", "output.bytes"),
            "cli.integrate": ("integrate.self_s",),
            "cli.run_simulation": ("cli.run_scan.cell_s",),
            "cli.run_scan": ("cli.run_scan.cell_s", "cli.run_scan.cpu_ratio"),
            "cli.load_config": ("config.load_s",),
            "config.load_sweep": ("config.load_s",),
            "cli.build_initial_state": ("scenarios.build_s",),
        }
        out = set()
        for target in self.absent:
            out.update(depends.get(target, ()))
        if "analysis.CHECKS" in self.absent:
            out.add("analysis.check.*")
        return out


# ---------------------------------------------------------------------------
# layer probes: one function each, at sizes well beyond the workloads' K

PROBE_KS = (16, 64, 256, 1024)
PROBE_ALPHA = 0.25
PROBE_T = 0.01  # one step of the default record cadence
PROBE_FUNCS = ("dissipation", "dissipation_direct", "dissipation_matrix", "matvec",
               "linear_semigroup")


def _time_call(fn, budget: float = 0.02, repeats: int = 5) -> float:
    """Median seconds per call over ``repeats`` batches of about ``budget`` each."""
    t0 = perf()
    fn()
    first = perf() - t0
    number = max(1, int(budget / max(first, 1e-7)))
    if first > 0.05:
        repeats = 3
    times = []
    for _ in range(repeats):
        t0 = perf()
        for _ in range(number):
            fn()
        times.append((perf() - t0) / number)
    return statistics.median(times)


def layer_probes() -> tuple[dict[str, float], set[str]]:
    """Time each operator form and the semigroup at every probe K.

    ``integrate.linear_semigroup.failures`` counts the probe sizes at which
    the semigroup raises, returns non-finite entries or increases the X^s
    norm, which it must contract.
    """
    import numpy as np

    model, im, scen = module("model"), module("integrate"), module("scenarios")
    values: dict[str, float] = {}
    absent: set[str] = set()
    needed = {
        "dissipation": (model, "dissipation"),
        "dissipation_direct": (model, "dissipation_direct"),
        "dissipation_matrix": (model, "dissipation_matrix"),
        "matvec": (model, "dissipation_matrix"),
        "linear_semigroup": (im, "linear_semigroup"),
    }
    if model is None or scen is None or not hasattr(scen, "gen_bump"):
        return values, {
            f"{'integrate' if f == 'linear_semigroup' else 'model'}.{f}.K{k}_us"
            for f in PROBE_FUNCS for k in PROBE_KS
        } | {"integrate.linear_semigroup.failures"}
    failures = 0
    for k in PROBE_KS:
        params = model.ModelParams(alpha=PROBE_ALPHA, trunc_k=k)
        state = scen.gen_bump(k)
        for name, (owner, attr) in needed.items():
            layer = "integrate" if owner is im else "model"
            key = f"{layer}.{name}.K{k}_us"
            fn = getattr(owner, attr, None)
            if fn is None:
                absent.add(key)
                continue
            if name == "matvec":
                mat, a = fn(params), state.a
                call = lambda: mat @ a  # noqa: E731
            elif name == "dissipation_matrix":
                call = functools.partial(fn, params)
            elif name == "linear_semigroup":
                call = functools.partial(fn, params, state, PROBE_T)
            else:
                call = functools.partial(fn, params, state)
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                if name == "linear_semigroup":
                    failures += not _semigroup_ok(model, params, state, call)
                    values[key] = 1e6 * _time_call(_swallow(call))
                else:
                    values[key] = 1e6 * _time_call(call)
    if im is not None and hasattr(im, "linear_semigroup"):
        values["integrate.linear_semigroup.failures"] = failures
    else:
        absent.add("integrate.linear_semigroup.failures")
    return values, absent


def _swallow(call):
    """The semigroup raises at large K; time the attempt either way."""

    def run():
        try:
            call()
        except (ValueError, ArithmeticError):
            pass

    return run


def _semigroup_ok(model, params, state, call) -> bool:
    import numpy as np

    try:
        out = call()
    except (ValueError, ArithmeticError):
        return False
    a = np.asarray(out.a)
    if not np.all(np.isfinite(a)):
        return False
    before = model.xs_norm(state, params.norm_s)
    after = model.xs_norm(out, params.norm_s)
    return math.isfinite(after) and after <= before + 1e-9
