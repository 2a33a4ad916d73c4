import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import dyadicflow
from dyadicflow.cli import main, run_scan, run_simulation
from dyadicflow.config import (
    FrontScenario,
    RunConfig,
    SweepSpec,
    cell_config,
    load_config,
    save_config,
)
from dyadicflow.integrate import Scheme, StepControls
from dyadicflow.model import ModelParams
from dyadicflow.output import read_reports_json, read_scan_csv, read_series_csv


def write_cfg(tmp_path, name="run.cfg", **overrides):
    defaults = dict(
        params=ModelParams(alpha=0.3, trunc_k=8, norm_s=1.5),
        controls=StepControls(scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=0.1),
        scenario=FrontScenario(k0=3, q=1.2, r=0.5),
        t_end=0.5,
        checks=("monotone_nonneg", "max_principle", "sqrt2_structure"),
        output_prefix=str(tmp_path / "out" / "run"),
    )
    defaults.update(overrides)
    cfg = RunConfig(**defaults)
    path = tmp_path / name
    save_config(cfg, path)
    return path, cfg


class TestSimulate:
    def test_reached_end_exit_zero(self, tmp_path, capsys):
        path, cfg = write_cfg(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # one-line summary
        assert "reached_t_end" in out
        for suffix in ("_trajectory.csv", "_reports.json", "_state.csv",
                       "_profile.csv", "_blowup.json"):
            assert os.path.exists(cfg.output_prefix + suffix)

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_escape_exit_two(self, tmp_path, capsys):
        # deep inviscid cascade crosses the default 1e6-fold norm threshold
        path, cfg = write_cfg(
            tmp_path,
            params=ModelParams(alpha=0.0, trunc_k=26, norm_s=1.5),
            controls=StepControls(
                scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=0.01,
                max_steps=20_000_000,
            ),
            scenario=FrontScenario(k0=4, q=1.3, r=0.5),
            t_end=2.0,
            checks=("monotone_nonneg",),
        )
        assert main(["simulate", "--config", str(path)]) == 2
        assert "escape" in capsys.readouterr().out

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\ntrunc_k = tiny\n")
        assert main(["simulate", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "trunc_k" in err

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_out_override(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        prefix = str(tmp_path / "elsewhere" / "x")
        assert main(["simulate", "--config", str(path), "--out", prefix, "--quiet"]) == 0
        assert os.path.exists(prefix + "_trajectory.csv")

    def test_rerun_byte_identical(self, tmp_path):
        path, cfg = write_cfg(tmp_path)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        first = open(cfg.output_prefix + "_trajectory.csv", "rb").read()
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert open(cfg.output_prefix + "_trajectory.csv", "rb").read() == first


class TestCheck:
    def test_all_pass_exit_zero(self, tmp_path):
        path, cfg = write_cfg(tmp_path)
        assert main(["check", "--config", str(path), "--quiet"]) == 0
        reports = read_reports_json(cfg.output_prefix + "_reports.json")
        assert all(r.passed for r in reports)

    def test_fault_injection_exit_three(self, tmp_path):
        path, cfg = write_cfg(tmp_path)
        assert main(
            ["check", "--config", str(path), "--fault-inject", "sign-flip", "--quiet"]
        ) == 3
        reports = read_reports_json(cfg.output_prefix + "_reports.json")
        assert any(not r.passed for r in reports)

    def test_ratio_fault_hits_structure_only(self, tmp_path):
        path, cfg = write_cfg(tmp_path)
        assert main(
            ["check", "--config", str(path), "--fault-inject", "sqrt2-ratio", "--quiet"]
        ) == 3
        failed = {r.name for r in read_reports_json(cfg.output_prefix + "_reports.json")
                  if not r.passed}
        assert failed == {"sqrt2_structure"}

    def test_empty_check_list_exit_zero(self, tmp_path):
        path, cfg = write_cfg(tmp_path, checks=())
        assert main(["check", "--config", str(path), "--quiet"]) == 0
        assert read_reports_json(cfg.output_prefix + "_reports.json") == []


class TestScan:
    def make_sweep(self, tmp_path):
        base = RunConfig(
            params=ModelParams(alpha=0.3, trunc_k=8, norm_s=1.5),
            controls=StepControls(scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=0.05),
            scenario=FrontScenario(k0=3, q=1.2, r=0.5),
            t_end=0.3,
            checks=(),
            output_prefix=str(tmp_path / "out" / "scan"),
        )
        spec = SweepSpec(alphas=(0.15, 0.3), ks=(8, 10), base=base)
        path = tmp_path / "sweep.cfg"
        save_config(base, path, sweep=spec)
        return path, spec

    def test_scan_summary(self, tmp_path):
        path, spec = self.make_sweep(tmp_path)
        assert main(["scan", "--config", str(path), "--quiet"]) == 0
        rows = read_scan_csv(spec.base.output_prefix + "_scan.csv")
        assert [(a, k) for a, k, _, _ in rows] == [
            (0.15, 8), (0.15, 10), (0.3, 8), (0.3, 10)
        ]
        assert all(m > 0 for _, _, m, _ in rows)

    def test_single_cell_matches_simulate(self, tmp_path):
        _, spec = self.make_sweep(tmp_path)
        expected = []
        for alpha, kk in [(0.15, 8), (0.15, 10), (0.3, 8), (0.3, 10)]:
            traj = run_simulation(cell_config(spec.base, alpha, kk))
            expected.append((alpha, kk, traj.max_xs_norm(), traj.escape_time))
        assert run_scan(spec) == expected


class TestSemigroup:
    def test_contracting_exit_zero(self, tmp_path):
        path, cfg = write_cfg(
            tmp_path,
            params=ModelParams(alpha=0.35, trunc_k=8, norm_s=1.5),
            t_end=1.0,
        )
        assert main(["semigroup", "--config", str(path), "--quiet"]) == 0
        series = read_series_csv(cfg.output_prefix + "_semigroup.csv")
        norms = [n for _, n in series]
        assert all(n1 <= n0 + 1e-9 for n0, n1 in zip(norms, norms[1:]))

    def test_one_exponential_per_run(self, tmp_path, monkeypatch):
        # the package re-exports the function ``integrate`` under the module's name
        integrate_module = importlib.import_module("dyadicflow.integrate")
        calls = []
        expm = integrate_module.expm
        monkeypatch.setattr(integrate_module, "expm", lambda m: calls.append(m) or expm(m))
        path, cfg = write_cfg(tmp_path, params=ModelParams(alpha=0.35, trunc_k=8), t_end=1.0)
        assert main(["semigroup", "--config", str(path), "--quiet"]) == 0
        assert len(read_series_csv(cfg.output_prefix + "_semigroup.csv")) == 11
        assert len(calls) == 1

    def test_off_cadence_t_end_is_last_row(self, tmp_path):
        # 1.0 is not a multiple of 0.3: the grid is 0, 0.3, 0.6, 0.9, then t_end
        from dyadicflow.config import build_initial_state
        from dyadicflow.integrate import linear_semigroup
        from dyadicflow.model import xs_norm

        path, cfg = write_cfg(
            tmp_path,
            controls=StepControls(scheme=Scheme.EXPLICIT_ADAPTIVE, record_every=0.3),
            t_end=1.0,
        )
        assert main(["semigroup", "--config", str(path), "--quiet"]) == 0
        series = read_series_csv(cfg.output_prefix + "_semigroup.csv")
        assert [t for t, _ in series][-2:] == [3 * 0.3, 1.0]
        ref = linear_semigroup(cfg.params, build_initial_state(cfg.scenario, 8), 1.0)
        assert abs(series[-1][1] - xs_norm(ref, 1.5)) <= 1e-12

    def test_alpha_zero_unsupported_exit_one(self, tmp_path):
        path, _ = write_cfg(tmp_path, params=ModelParams(alpha=0.0, trunc_k=8))
        assert main(["semigroup", "--config", str(path), "--quiet"]) == 1

    def test_constant_data_constant_norm(self, tmp_path):
        from dyadicflow.config import CustomScenario

        path, cfg = write_cfg(
            tmp_path,
            params=ModelParams(alpha=0.3, trunc_k=3, norm_s=1.5),
            scenario=CustomScenario(values=(0.5, 0.5, 0.5, 0.5)),
            checks=(),
            t_end=0.5,
        )
        assert main(["semigroup", "--config", str(path), "--quiet"]) == 0
        series = read_series_csv(cfg.output_prefix + "_semigroup.csv")
        norms = [n for _, n in series]
        assert max(norms) - min(norms) <= 1e-12


def run_child(*args):
    """Run a fresh interpreter that imports the same package as this process."""
    src = os.path.dirname(os.path.dirname(dyadicflow.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        proc = run_child("-m", "dyadicflow", "simulate", "--config", str(path))
        assert proc.returncode == 0
        assert proc.stdout.count("\n") == 1

    def test_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal alone takes longer to import than the whole package
        proc = run_child(
            "-c", "import sys, dyadicflow.cli; print('scipy.signal' in sys.modules)"
        )
        assert proc.returncode == 0
        assert proc.stdout == "False\n"
