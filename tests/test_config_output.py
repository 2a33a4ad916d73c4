import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dyadicflow.model import ModelParams, Tail
from dyadicflow.integrate import Scheme, StepControls, Termination, integrate
from dyadicflow.analysis import InvariantReport, blowup_diagnostics
from dyadicflow.config import (
    BumpScenario,
    ConfigError,
    CustomScenario,
    FrontScenario,
    GeometricScenario,
    RunConfig,
    SweepSpec,
    build_initial_state,
    cell_config,
    load_config,
    load_sweep,
    save_config,
)
from dyadicflow.output import (
    read_profile_csv,
    read_reports_json,
    read_scan_csv,
    read_state_csv,
    read_trajectory_csv,
    save_outputs,
    write_reports_json,
    write_scan_csv,
    write_trajectory_csv,
)
from dyadicflow.scenarios import gen_front, profile_reconstruction


@pytest.fixture
def traj():
    p = ModelParams(alpha=0.3, trunc_k=8, norm_s=1.5)
    c = StepControls(record_every=0.1, scheme=Scheme.EXPLICIT_ADAPTIVE)
    return integrate(p, gen_front(8, 3, 1.2, 0.5), 0.5, c)


class TestConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("[model]\nalpha = 0.3\n")
        cfg = load_config(path)
        assert cfg.params.alpha == 0.3
        assert cfg.params.trunc_k == 16
        assert cfg.params.tail is Tail.PLATEAU
        assert cfg.controls.scheme is None
        assert cfg.t_end == 1.0
        assert isinstance(cfg.scenario, BumpScenario)

    def test_empty_config_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(path) == RunConfig()

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nalpa = 0.3\n")
        with pytest.raises(ConfigError, match="alpa"):
            load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for text, name in [
            ("[modle]\nalpha = 0.3\n", "modle"),
            # configparser would merge [DEFAULT] keys into every other section
            ("[DEFAULT]\nalpha = 0.3\n[model]\ntrunc_k = 8\n", "DEFAULT"),
            ("[DEFAULT]\nalpha = 0.3\n[model]\ntrunc_k = 8\n[run]\nt_end = 1.0\n", "DEFAULT"),
        ]:
            path.write_text(text)
            with pytest.raises(ConfigError, match=rf"unknown section \[{name}\]"):
                load_config(path)

    def test_unknown_check_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nchecks = monotone_nonneg,bogus_check\n")
        with pytest.raises(ConfigError, match="bogus_check"):
            load_config(path)

    def test_bad_value_has_context(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nalpha = fast\n")
        with pytest.raises(ConfigError, match=r"\[model\] alpha"):
            load_config(path)

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.3\n")  # key before any section header
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "scenario",
        [
            BumpScenario(),
            FrontScenario(k0=5, q=1.3, r=0.25),
            GeometricScenario(rate=0.75),
            CustomScenario(values=(0.0, 0.125, 0.5, 0.625)),
        ],
    )
    def test_round_trip_all_scenarios(self, tmp_path, scenario):
        cfg = RunConfig(
            params=ModelParams(alpha=0.123456789, trunc_k=9, norm_s=1.75, tail=Tail.ZERO),
            controls=StepControls(
                rel_tol=2.5e-9, abs_tol=1e-12, dt_init=7e-4, dt_min=1e-14,
                max_steps=123456, scheme=Scheme.DUHAMEL_IMEX, record_every=0.125,
            ),
            scenario=scenario,
            t_end=3.25,
            delta=0.375,
            checks=("monotone_nonneg",),
            output_prefix="some/dir/run",
        )
        path = tmp_path / "cfg.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_sweep_round_trip(self, tmp_path):
        base = RunConfig()
        sweep = SweepSpec(alphas=(0.15, 0.35), ks=(12, 16, 20), base=base)
        path = tmp_path / "sweep.cfg"
        save_config(base, path, sweep=sweep)
        assert load_sweep(path) == sweep

    def test_sweep_parallelism_field_rejected(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("[sweep]\nalphas = 0.1\nks = 8\nparallelism = 4\n")
        with pytest.raises(ConfigError, match=r"unknown field 'parallelism' in \[sweep\]"):
            load_sweep(path)

    def test_sweep_ignores_thread_env(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.cfg"
        path.write_text("[sweep]\nalphas = 0.1\nks = 8\n")
        monkeypatch.setenv("DYADIC_FLOW_THREADS", "two")
        assert load_sweep(path) == SweepSpec(alphas=(0.1,), ks=(8,), base=RunConfig())

    @pytest.mark.parametrize(
        "line, message",
        [("ks = 1,8", "trunc_k must be >= 2, got 1"), ("alphas = 0.1,-0.2", "alpha must be")],
    )
    def test_sweep_bad_cell_rejected_at_load(self, tmp_path, line, message):
        path = tmp_path / "sweep.cfg"
        path.write_text(f"[sweep]\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: ") + message):
            load_sweep(path)

    def test_numpy_scalars_round_trip(self, tmp_path):
        cfg = RunConfig(params=ModelParams(alpha=np.float64(0.3), trunc_k=np.int64(12)))
        path = tmp_path / "np.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_field_of_other_scenario_kind_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nkind = bump\nrate = 0.3\n")
        with pytest.raises(ConfigError, match="rate"):
            load_config(path)

    def test_readme_examples_load(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        run_block, sweep_block = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = tmp_path / "run.cfg"
        path.write_text(run_block)
        cfg = load_config(path)
        assert cfg.params.alpha == 0.3
        assert isinstance(cfg.scenario, FrontScenario)
        assert cfg.controls.scheme is None
        path.write_text(run_block + "\n" + sweep_block)
        spec = load_sweep(path)
        assert spec.base == cfg
        assert spec.ks == (12, 16, 20)

    def test_build_initial_state_dispatch(self):
        s = build_initial_state(FrontScenario(k0=3, q=1.3, r=0.5), 6)
        np.testing.assert_allclose(s.a, gen_front(6, 3, 1.3, 0.5).a)
        custom = build_initial_state(CustomScenario(values=(0.0, 0.5, 1.0)), 2)
        np.testing.assert_array_equal(custom.a, [0.0, 0.5, 1.0])
        with pytest.raises(ConfigError):
            build_initial_state(CustomScenario(values=(0.0, 0.5)), 5)

    def test_cell_config_replaces_params(self):
        base = RunConfig()
        cell = cell_config(base, 0.4, 24)
        assert cell.params.alpha == 0.4
        assert cell.params.trunc_k == 24
        assert cell.controls == base.controls


class TestOutputs:
    def test_trajectory_round_trip(self, tmp_path, traj):
        path = write_trajectory_csv(traj, tmp_path / "t.csv")
        rows = read_trajectory_csv(path)
        assert len(rows) == len(traj.samples)
        for row, s in zip(rows, traj.samples):
            assert row["t"] == s.t
            assert row["xs_norm"] == s.diag.xs_norm
            assert row["J"] == s.diag.j_value
            assert row["front_index"] == s.diag.front_index
            assert row["termination"] == traj.termination.value

    def test_trajectory_diagnostics_recompute_from_state(self, tmp_path, traj):
        from dyadicflow.model import xs_norm
        from dyadicflow.analysis import j_functional

        rows = read_trajectory_csv(write_trajectory_csv(traj, tmp_path / "t.csv"))
        for row, s in zip(rows, traj.samples):
            assert abs(row["xs_norm"] - xs_norm(s.state, 1.5)) <= 1e-12
            assert abs(row["J"] - j_functional(s.state, traj.delta)) <= 1e-12

    def test_state_dump_round_trip(self, tmp_path, traj):
        from dyadicflow.output import write_state_csv

        final = traj.final_state
        rows = read_state_csv(write_state_csv(final, 1.5, tmp_path / "s.csv"))
        assert [r["k"] for r in rows] == list(range(9))
        from dyadicflow.model import slopes, weighted_slopes

        np.testing.assert_array_equal([r["a_k"] for r in rows], final.a)
        np.testing.assert_array_equal([r["b_k"] for r in rows], slopes(final).b)
        np.testing.assert_array_equal(
            [r["b_ks"] for r in rows], weighted_slopes(final, 1.5).bs
        )

    def test_reports_round_trip(self, tmp_path):
        reps = [
            InvariantReport("a_check", True, 0.25, (0.5, 3), 1e-9),
            InvariantReport("b_check", False, -1.5, (1.0, None), 1e-10),
        ]
        out = read_reports_json(write_reports_json(reps, tmp_path / "r.json"))
        assert out == reps

    def test_profile_round_trip(self, tmp_path, traj):
        from dyadicflow.output import write_profile_csv

        pts = profile_reconstruction(traj.final_state)
        back = read_profile_csv(write_profile_csv(pts, tmp_path / "p.csv"))
        assert back == pts

    def test_scan_round_trip(self, tmp_path):
        rows = [
            (0.15, 12, 123.456, 0.75),
            (0.35, 12, 9.875, None),
        ]
        back = read_scan_csv(write_scan_csv(rows, tmp_path / "scan.csv"))
        assert back == rows

    def test_save_outputs_files(self, tmp_path, traj):
        diag = blowup_diagnostics(traj)
        paths = save_outputs(traj, [], diag, tmp_path / "run")
        for p in paths.values():
            assert p.exists()
            assert not str(p).endswith(".tmp")
        blob = json.loads((tmp_path / "run_blowup.json").read_text())
        assert blob["delta"] == traj.delta
        assert len(blob["j_series"]) == len(traj.samples)

    def test_byte_identical_rewrites(self, tmp_path, traj):
        p1 = write_trajectory_csv(traj, tmp_path / "a.csv")
        p2 = write_trajectory_csv(traj, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
