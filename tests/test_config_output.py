import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dyadicflow.model import DomainError, DyadicState, ModelParams, Tail
from dyadicflow.integrate import Scheme, StepControls, Termination, Trajectory, integrate
from dyadicflow import analysis, output
from dyadicflow.analysis import BlowupDiagnostics, InvariantReport, blowup_diagnostics
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
    PROFILE_COLUMNS,
    SCAN_COLUMNS,
    SCAN_HEADER,
    SERIES_COLUMNS,
    STATE_COLUMNS,
    STATE_HEADER,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_HEADER,
    read_profile_csv,
    read_reports_json,
    read_scan_csv,
    read_series_csv,
    read_state_csv,
    read_trajectory_csv,
    save_outputs,
    write_blowup_json,
    write_reports_json,
    write_scan_csv,
    write_series_csv,
    write_trajectory_csv,
)
from dyadicflow.scenarios import gen_bump, gen_front, gen_geometric, profile_reconstruction


def csv_oracle(header, rows) -> bytes:
    """Reference CSV bytes: ``csv.writer`` over cells that are ``repr`` per float."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + [
        [repr(float(c)) if isinstance(c, float) else c for c in row] for row in rows
    ])
    return buf.getvalue().encode()


def trajectory_oracle(traj) -> bytes:
    d = traj.diag
    columns = (traj.times, d.a0, d.sup_a, d.xs_norm, d.j_value, d.max_ratio, d.front_index,
               d.holder_half)
    rows = [[*row, traj.termination.value] for row in zip(*(c.tolist() for c in columns))]
    return csv_oracle(TRAJECTORY_HEADER, rows)


def json_oracle(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def blowup_obj(diag) -> dict:
    """The blow-up JSON object, its series paired up from the columns."""
    t = diag.times.tolist()
    return {
        "delta": diag.delta, "j_series": list(zip(t, diag.j_value.tolist())),
        "riccati_t": diag.riccati_t, "front_series": list(zip(t, diag.front_index.tolist())),
        "escape_time": diag.escape_time,
    }


def blowup_diag(delta, t, j, k, riccati_t, escape_time) -> BlowupDiagnostics:
    return BlowupDiagnostics(
        delta=delta, times=np.array(t, dtype=float), j_value=np.array(j, dtype=float),
        front_index=np.array(k, dtype=np.int64), riccati_t=riccati_t, escape_time=escape_time,
    )


@pytest.fixture
def traj():
    p = ModelParams(alpha=0.3, trunc_k=8, norm_s=1.5)
    c = StepControls(record_every=0.1, scheme=Scheme.EXPLICIT_ADAPTIVE)
    return integrate(p, gen_front(8, 3, 1.2, 0.5), 0.5, c)


# the float fields that must be finite, with the config section each sits in
FINITE_FIELDS = [
    ("controls", "rel_tol"),
    ("controls", "abs_tol"),
    ("controls", "dt_init"),
    ("controls", "dt_min"),
    ("controls", "record_every"),
    ("model", "norm_s"),
    ("run", "t_end"),
]
CONSTRUCTORS = {
    "controls": StepControls,
    "model": lambda **kw: ModelParams(alpha=0.25, trunc_k=16, **kw),
    "run": RunConfig,
}


class TestConfig:
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("section, name", FINITE_FIELDS)
    def test_non_finite_rejected_by_constructor(self, section, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            CONSTRUCTORS[section](**{name: value})

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("section, name", FINITE_FIELDS)
    def test_non_finite_rejected_at_load(self, tmp_path, section, name, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{name} = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {name} must be finite")):
            load_config(path)

    def test_zero_tail_refused_by_name(self, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text("[model]\ntail = zero\n")
        with pytest.raises(ConfigError, match=r"\[model\] tail = 'zero' must be one of \['plateau'\]"):
            load_config(path)

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
            params=ModelParams(alpha=0.123456789, trunc_k=9, norm_s=1.75),
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

    def test_readme_library_sketch_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (sketch,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        exec(compile(sketch, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("Termination.")

    def test_build_initial_state_dispatch(self):
        s = build_initial_state(FrontScenario(k0=3, q=1.3, r=0.5), 6)
        np.testing.assert_allclose(s.a, gen_front(6, 3, 1.3, 0.5).a)
        bump = build_initial_state(BumpScenario(), 20)
        np.testing.assert_array_equal(bump.a, gen_bump(20).a)
        geometric = build_initial_state(GeometricScenario(rate=0.75), 6)
        np.testing.assert_array_equal(geometric.a, gen_geometric(6, 0.75).a)
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
        d = traj.diag
        assert len(rows) == len(traj.times)
        for i, row in enumerate(rows):
            assert row["t"] == traj.times[i]
            assert row["xs_norm"] == d.xs_norm[i]
            assert row["J"] == d.j_value[i]
            assert row["front_index"] == d.front_index[i]
            assert row["termination"] == traj.termination.value

    def test_trajectory_csv_matches_per_cell_repr(self, tmp_path):
        # a constant state has no ratio (nan); slopes 1/8, -1/8, 0 give the
        # ratios -1 and 0.0 / -0.125 = -0.0, so the largest ratio is -0.0
        a = np.full((3, 9), 0.7)
        a[1, 1:] += 2.0**-4
        a[1, 2:] -= 2.0**-5
        const = Trajectory(ModelParams(alpha=0.3, trunc_k=8), 0.5, [0.0, 0.01, 0.02], a,
                           Termination.REACHED_T_END)
        d = const.diag
        assert math.isnan(d.max_ratio[0]) and math.copysign(1.0, d.max_ratio[1]) == -1.0
        assert d.max_ratio[1] == 0.0 and math.isnan(d.max_ratio[2])
        # one sample (t_end == t0), and 2,001 samples: four blocks, the last partial
        front = [
            integrate(ModelParams(alpha=0.3, trunc_k=8), gen_front(8, 3, 1.2, 0.5), t_end,
                      StepControls(record_every=1e-4, scheme=Scheme.EXPLICIT_ADAPTIVE))
            for t_end in (0.0, 0.2)
        ]
        n = len(front[1].times)
        assert len(front[0].times) == 1 and n > 2 * analysis.BLOCK_ROWS and n % analysis.BLOCK_ROWS
        for traj in [const, *front]:
            path = write_trajectory_csv(traj, tmp_path / "t.csv")
            assert path.read_bytes() == trajectory_oracle(traj)

    def test_series_csv_bytes(self, tmp_path):
        columns = (np.array([0.1, 0.2, 0.3]), np.array([9.5, 1e-300, np.nan]))
        series = list(zip(*columns))
        path = write_series_csv(columns, tmp_path / "x.csv")
        assert path.read_bytes() == csv_oracle(["t", "xs_norm"], [map(float, r) for r in series])

    def test_trajectory_diagnostics_recompute_from_state(self, tmp_path, traj):
        from dyadicflow.model import xs_norm
        from dyadicflow.analysis import j_functional

        rows = read_trajectory_csv(write_trajectory_csv(traj, tmp_path / "t.csv"))
        assert len(rows) == len(traj.times)
        for row, t, a in zip(rows, traj.times, traj.states):
            s = DyadicState(t=t, a=a)
            assert abs(row["xs_norm"] - xs_norm(s, 1.5)) <= 1e-12
            assert abs(row["J"] - j_functional(s, traj.delta)) <= 1e-12

    def test_state_dump_round_trip(self, tmp_path, traj):
        from dyadicflow.output import write_state_csv

        final = traj.final_state
        rows = read_state_csv(write_state_csv(final, 1.5, tmp_path / "s.csv"))
        assert [r["k"] for r in rows] == list(range(9))
        from dyadicflow.model import slopes, weighted_slopes

        np.testing.assert_array_equal([r["a_k"] for r in rows], final.a)
        np.testing.assert_array_equal([r["b_k"] for r in rows], slopes(final))
        np.testing.assert_array_equal(
            [r["b_ks"] for r in rows], weighted_slopes(final, 1.5)
        )

    def test_state_dump_at_overflowing_weights(self, tmp_path):
        # 2**(1.5 k) overflows from k = 683; no RuntimeWarning may leak
        from dyadicflow.model import DyadicState
        from dyadicflow.output import write_state_csv

        st_ = DyadicState(t=0.0, a=np.linspace(0.0, 1.0, 701))
        path = write_state_csv(st_, 1.5, tmp_path / "s.csv")
        rows = read_state_csv(path)
        assert len(rows) == 701
        assert rows[682]["b_ks"] < math.inf and rows[683]["b_ks"] == math.inf
        from dyadicflow.model import slopes, weighted_slopes

        columns = (range(701), st_.a.tolist(), slopes(st_).tolist(),
                   weighted_slopes(st_, 1.5).tolist())
        assert path.read_bytes() == csv_oracle(STATE_HEADER, zip(*columns))

    def test_reports_round_trip(self, tmp_path):
        reps = [
            InvariantReport("a_check", True, 0.25, (0.5, 3), 1e-9),
            InvariantReport("b_check", False, -1.5, (1.0, None), 1e-10),
        ]
        out = read_reports_json(write_reports_json(reps, tmp_path / "r.json"))
        assert out == reps

    def test_profile_round_trip(self, tmp_path, traj):
        from dyadicflow.output import write_profile_csv

        x, y = profile_reconstruction(traj.final_state)
        back = read_profile_csv(write_profile_csv((x, y), tmp_path / "p.csv"))
        assert back == list(zip(x.tolist(), y.tolist()))

    def test_scan_round_trip(self, tmp_path):
        rows = [
            (0.15, 12, 123.456, 0.75),
            (0.35, 12, 9.875, None),
            (0.15, 16, math.inf, -0.0),
        ]
        path = write_scan_csv(rows, tmp_path / "scan.csv")
        assert read_scan_csv(path) == rows
        cells = [[a, k, m, "" if e is None else e] for a, k, m, e in rows]
        assert path.read_bytes() == csv_oracle(SCAN_HEADER, cells)
        assert write_scan_csv([], path).read_bytes() == csv_oracle(SCAN_HEADER, [])

    def test_save_outputs_files(self, tmp_path, traj, monkeypatch):
        # the blow-up record is built through the module attribute, once
        built = []
        original = analysis.blowup_diagnostics
        monkeypatch.setattr(analysis, "blowup_diagnostics",
                            lambda t: built.append(t) or original(t))
        paths = save_outputs(traj, [], tmp_path / "run")
        assert built == [traj]
        assert list(paths) == ["trajectory", "state", "profile", "reports", "blowup"]
        for p in paths.values():
            assert p.exists()
            assert not str(p).endswith(".tmp")
        blob = json.loads((tmp_path / "run_blowup.json").read_text())
        assert blob["delta"] == traj.delta
        assert len(blob["j_series"]) == len(traj.times)

    def test_save_outputs_formats_time_and_j_once(self, tmp_path, traj, monkeypatch):
        # the trajectory CSV and the blow-up JSON share the cells of the time
        # and J columns
        cells, calls = output._cells, []
        monkeypatch.setattr(output, "_cells", lambda c: calls.append(c) or cells(c))
        paths = save_outputs(traj, [], tmp_path / "run")
        assert paths["trajectory"].read_bytes() == trajectory_oracle(traj)
        assert paths["blowup"].read_text() == json_oracle(blowup_obj(blowup_diagnostics(traj)))
        assert sum(np.shares_memory(c, traj.times) for c in calls) == 1
        assert sum(np.shares_memory(c, traj.diag.j_value) for c in calls) == 1

    def test_blowup_json_from_ready_cells(self, tmp_path):
        # repr cells, NaN and infinities included, give the bytes of the columns
        inf, nan = math.inf, math.nan
        diag = blowup_diag(0.5, [nan, inf, -inf, -0.0, 1e300], [1e300, -inf, nan, -0.0, 5e-324],
                           [-1, -2, 0, 7, -30], nan, inf)
        ready = write_blowup_json(diag, tmp_path / "b.json", output._cells(diag.times),
                                  output._cells(diag.j_value))
        assert ready.read_text() == json_oracle(blowup_obj(diag))

    def test_json_layout_matches_indent_encoder(self, tmp_path, traj):
        inf, nan = math.inf, math.nan
        diag = blowup_diag(0.5, [0.0, 0.25, 0.5], [-0.0, inf, nan], [3, 4, 4], None, 0.5)
        text = write_blowup_json(diag, tmp_path / "b.json").read_text()
        assert text == json.dumps({
            "delta": 0.5, "j_series": [[0.0, -0.0], [0.25, inf], [0.5, nan]], "riccati_t": None,
            "front_series": [[0.0, 3], [0.25, 4], [0.5, 4]], "escape_time": 0.5,
        }, indent=2) + "\n"
        reps = [InvariantReport("a_check", False, -inf, (0.5, None), 1e-9)]
        text = write_reports_json(reps, tmp_path / "r.json").read_text()
        assert text == json.dumps([{
            "name": "a_check", "passed": False, "worst_margin": -inf,
            "worst_location": [0.5, None], "tolerance": 1e-9,
        }], indent=2) + "\n"
        # special floats, negative front indices, None and NaN riccati_t, empty
        # and single-pair series, more than two blocks, and a real run
        diags = [
            blowup_diag(0.5, [], [], [], None, None),
            blowup_diag(0.5, [0.0], [1.0], [3], 0.75, None),
            blowup_diag(
                -0.0, [nan, inf, -inf, -0.0, 1e300], [1e300, -inf, nan, -0.0, 5e-324],
                [-1, -2, 0, 7, -30], nan, inf),
            self._long_diag(),
            blowup_diagnostics(traj),
        ]
        for diag in diags:
            text = write_blowup_json(diag, tmp_path / "b.json").read_text()
            assert text == json_oracle(blowup_obj(diag))
        names = ["monotone_nonneg", "max_principle", "sqrt2_structure", "riccati_identity"]
        reps = analysis.run_checks(traj, names) + [
            InvariantReport("nan_margin", False, nan, (inf, -3), 0.0),
            InvariantReport("b_check", True, 1e300, (-0.0, None), 1e-10),
        ]
        for reports in ([], reps):
            text = write_reports_json(reports, tmp_path / "r.json").read_text()
            assert text == json_oracle([
                {"name": r.name, "passed": r.passed, "worst_margin": r.worst_margin,
                 "worst_location": list(r.worst_location), "tolerance": r.tolerance}
                for r in reports
            ])

    @staticmethod
    def _long_diag():
        # more than two blocks of both series on one time column
        rng = np.random.default_rng(14)
        n = 2 * analysis.BLOCK_ROWS + 3
        t = np.cumsum(rng.random(n)) * 10.0 ** rng.integers(-8, 8, n)
        j = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        k = rng.integers(-30, 30, n)
        return blowup_diag(0.25, t, j, k, 1.5, float(t[-1]))

    def test_failed_csv_write_leaves_no_file(self, tmp_path, traj, monkeypatch):
        # formatting fails on the second block, after the first one went to the temp file
        monkeypatch.setattr(analysis, "BLOCK_ROWS", 2)
        cells, calls = output._cells, []
        path = tmp_path / "t.csv"

        def failing(column, **kw):
            calls.append(column)
            if len(calls) > 8:  # the first of the 8 numeric columns of block 2
                assert path.with_name("t.csv.tmp").exists()
                raise RuntimeError("formatting failed")
            return cells(column, **kw)

        monkeypatch.setattr(output, "_cells", failing)
        with pytest.raises(RuntimeError, match="formatting failed"):
            write_trajectory_csv(traj, path)
        assert len(calls) == 9
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("old\n")

        def chunks():
            yield "new,"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            output._atomic_write(path, chunks())
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]

    @pytest.mark.parametrize("table, reader", [
        (TRAJECTORY_COLUMNS, read_trajectory_csv), (STATE_COLUMNS, read_state_csv),
        (PROFILE_COLUMNS, read_profile_csv), (SERIES_COLUMNS, read_series_csv),
        (SCAN_COLUMNS, read_scan_csv),
    ])
    def test_every_csv_round_trips(self, tmp_path, table, reader):
        # what a table's columns hold reads back through the public reader,
        # value for value and type for type; an empty escape time reads as None
        values = {
            float: [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1],
            int: [-30, 0, 7, 2**53 + 1, -1, 3],
            str: ["reached_t_end", "escape_detected", "a", "b", "c", "d"],
        }
        columns, rows = [], []
        for c in table:
            col = values[c.type]
            if c.name == "escape_time":
                columns.append(["", *map(repr, col[1:])])
                col = [None, *col[1:]]
            else:
                columns.append(np.array(col) if c.type is not str else col)
            rows.append(col)
        path = output._write_csv(tmp_path / "x.csv", table, columns)
        got = reader(path)
        if isinstance(got[0], dict):
            assert all(list(r) == [c.name for c in table] for r in got)
            got = [tuple(r.values()) for r in got]

        def typed(rows):
            return [[(type(v), repr(v)) for v in row] for row in rows]

        assert typed(got) == typed(zip(*rows))

    def test_csv_reader_checks_header_and_row_width(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("x,y\r\n1.0,2.0\r\n")
        with pytest.raises(ValueError, match="header"):
            read_series_csv(path)
        path.write_text("t,xs_norm\r\n1.0\r\n")
        with pytest.raises(ValueError):
            read_series_csv(path)

    def test_readme_output_headers_match_tables(self):
        # each CSV named in the README's output section, with the header it quotes
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Output files", 1)[1].split("\n#", 1)[0]
        quoted = dict(re.findall(r"`P_(\w+)\.csv`[^`]*`([^`]*)`", section))
        tables = {"trajectory": TRAJECTORY_COLUMNS, "state": STATE_COLUMNS,
                  "profile": PROFILE_COLUMNS, "semigroup": SERIES_COLUMNS, "scan": SCAN_COLUMNS}
        assert quoted == {name: ",".join(c.name for c in t) for name, t in tables.items()}

    def test_byte_identical_rewrites(self, tmp_path, traj):
        p1 = write_trajectory_csv(traj, tmp_path / "a.csv")
        p2 = write_trajectory_csv(traj, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
