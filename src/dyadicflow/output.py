"""Output files: trajectory, state, profile, series and scan CSVs, report and blow-up JSON.

Every file is emitted from columns.  A float column is formatted in bulk:
one ``repr`` of the column's list, split on ``", "``, gives the ``repr`` of
each float, its shortest round-trip decimal.  The CSV files are the bytes
``csv.writer`` writes (its floats go through ``repr`` too, and no cell
needs quoting), and the JSON files are the bytes of
``json.dumps(obj, indent=2)`` plus a newline, NaN and infinities written as
``NaN`` and ``Infinity`` as the json module writes them.  Columns are
formatted and written :data:`~dyadicflow.analysis.BLOCK_ROWS` rows at a time,
except the blow-up JSON's time column, formatted whole for its two series,
and the time and J columns that :func:`save_outputs` formats whole, once for
both the trajectory CSV and the blow-up JSON.
Each CSV file's columns are declared once, in a table of :class:`Column`
entries that gives the header, the writer's column order and the type each
cell is read back as by :func:`_read_csv`.  The reports JSON is the list of
the :class:`~dyadicflow.analysis.InvariantReport` fields of each report.
Writes go through a temp-file rename, so partially written outputs never
appear, and nothing time- or host-dependent is emitted (re-running a command
with the same inputs reproduces byte-identical files).
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
from operator import attrgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

import numpy as np

from dyadicflow import analysis
from dyadicflow.analysis import BlowupDiagnostics, InvariantReport
from dyadicflow.integrate import Trajectory
from dyadicflow.model import DyadicState, slopes, weighted_slopes
from dyadicflow.scenarios import profile_reconstruction


class Column(NamedTuple):
    """One CSV column: its header name, the type its cells read as and its source.

    ``field`` is the attribute path of the :class:`Trajectory` a trajectory
    column is written from; the other writers take their columns in table order.
    """

    name: str
    type: type
    field: str = ""


TRAJECTORY_COLUMNS = (
    Column("t", float, "times"),
    Column("a_0", float, "diag.a0"),
    Column("sup_a", float, "diag.sup_a"),
    Column("xs_norm", float, "diag.xs_norm"),
    Column("J", float, "diag.j_value"),
    Column("max_ratio", float, "diag.max_ratio"),
    Column("front_index", int, "diag.front_index"),
    Column("holder_half", float, "diag.holder_half"),
    Column("termination", str, "termination.value"),
)
STATE_COLUMNS = (Column("k", int), Column("a_k", float), Column("b_k", float), Column("b_ks", float))
PROFILE_COLUMNS = (Column("x", float), Column("y", float))
SERIES_COLUMNS = (Column("t", float), Column("xs_norm", float))
# an escape time cell is empty for a cell that did not escape
SCAN_COLUMNS = (
    Column("alpha", float), Column("K", int), Column("max_norm", float),
    Column("escape_time", float),
)

TRAJECTORY_HEADER = [c.name for c in TRAJECTORY_COLUMNS]
STATE_HEADER = [c.name for c in STATE_COLUMNS]
SCAN_HEADER = [c.name for c in SCAN_COLUMNS]


def _atomic_write(path, chunks) -> Path:
    """Write the text chunks to ``path`` through a temp file renamed into place.

    If writing raises, the temp file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _cells(column: np.ndarray) -> list[str]:
    """``repr`` of each value of a numpy column, from one ``repr`` of its list."""
    text = repr(column.tolist())[1:-1]
    return text.split(", ") if text else []


def _write_csv(path, table, columns) -> Path:
    """Write the table's header row and the columns as one CSV file, a block of rows at a time.

    The columns are in table order.  A column is a numpy array (formatted
    through :func:`_cells`), a string repeated on every row, or a list of
    ready cells.  Header names and string cells are written as they are, so
    they must hold no comma, quote or line break.
    """
    n = min(len(c) for c in columns if not isinstance(c, str))

    def blocks():
        yield ",".join(c.name for c in table) + "\r\n"
        for lo in range(0, n, analysis.BLOCK_ROWS):
            hi = lo + analysis.BLOCK_ROWS
            cells = [
                itertools.repeat(c) if isinstance(c, str)
                else _cells(c[lo:hi]) if isinstance(c, np.ndarray) else c[lo:hi]
                for c in columns
            ]
            yield "\r\n".join(map(",".join, zip(*cells))) + "\r\n"

    return _atomic_write(path, blocks())


def _read_csv(path, table) -> Iterator[tuple]:
    """The rows of a CSV file written from ``table``, each cell read as its column's type.

    An empty cell reads as ``None``.  A header other than the table's, or a
    row with another number of cells, raises ``ValueError``.  Rows are
    yielded one at a time, so a reader that makes dicts of them holds no
    second list.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header, expected = next(reader, None), [c.name for c in table]
        if header != expected:
            raise ValueError(f"{path}: header {header} is not {expected}")
        for row in reader:
            yield tuple(c.type(cell) if cell else None for c, cell in zip(table, row, strict=True))


def write_trajectory_csv(traj: Trajectory, path, times=None, j_value=None) -> Path:
    """One row per sample with the scalar diagnostics and the termination.

    ``times`` and ``j_value``, if given, are the ready cells of those columns.
    """
    ready = {"t": times, "J": j_value}
    columns = [attrgetter(c.field)(traj) if ready.get(c.name) is None else ready[c.name]
               for c in TRAJECTORY_COLUMNS]
    return _write_csv(path, TRAJECTORY_COLUMNS, columns)


def read_trajectory_csv(path) -> list[dict]:
    """One dict per row, keyed by header name."""
    return [dict(zip(TRAJECTORY_HEADER, row)) for row in _read_csv(path, TRAJECTORY_COLUMNS)]


def write_state_csv(state: DyadicState, s: float, path) -> Path:
    """Dump ``k, a_k, b_k, b_{k,s}`` for every stored index."""
    b = slopes(state)
    bs = weighted_slopes(state, s)
    return _write_csv(path, STATE_COLUMNS, (np.arange(state.k + 1), state.a, b, bs))


def read_state_csv(path) -> list[dict]:
    """One dict per stored index, keyed by header name."""
    return [dict(zip(STATE_HEADER, row)) for row in _read_csv(path, STATE_COLUMNS)]


def write_profile_csv(columns, path) -> Path:
    """Profile reconstruction columns ``(x, y)`` as ``x,y`` rows."""
    return _write_csv(path, PROFILE_COLUMNS, columns)


def read_profile_csv(path) -> list[tuple[float, float]]:
    return list(_read_csv(path, PROFILE_COLUMNS))


def write_series_csv(columns, path) -> Path:
    """The semigroup's X^s norm series, columns ``(t, xs_norm)``, as ``t,xs_norm`` rows."""
    return _write_csv(path, SERIES_COLUMNS, columns)


def read_series_csv(path) -> list[tuple[float, float]]:
    return list(_read_csv(path, SERIES_COLUMNS))


def write_reports_json(reports, path) -> Path:
    """One object of the :class:`InvariantReport` fields per report."""
    text = json.dumps([dataclasses.asdict(r) for r in reports], indent=2)
    return _atomic_write(path, (text, "\n"))


def read_reports_json(path) -> list[InvariantReport]:
    with open(path, "r", encoding="utf-8") as fh:
        return [InvariantReport(**{**obj, "worst_location": tuple(obj["worst_location"])})
                for obj in json.load(fh)]


def _pairs_json(first: list[str], second):
    """Chunks of an indent-2 JSON list of ``[first, second]`` pairs at depth 1.

    ``first`` holds ready ``repr`` cells; ``second`` holds them too, or is a
    numpy column formatted a block at a time.  NaN and infinities are spelled
    ``NaN`` and ``Infinity``, as the json module writes them.
    """
    if not first:
        yield "[]"
        return
    yield "["
    for lo in range(0, len(first), analysis.BLOCK_ROWS):
        hi = lo + analysis.BLOCK_ROWS
        cells = second[lo:hi] if isinstance(second, list) else _cells(second[lo:hi])
        body = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(first[lo:hi], cells)))
        chunk = ("," if lo else "") + "\n    [\n      " + body + "\n    ]"
        yield chunk.replace("nan", "NaN").replace("inf", "Infinity")
    yield "\n  ]"


def write_blowup_json(diag: BlowupDiagnostics, path, times=None, j_value=None) -> Path:
    """``json.dumps`` of the diagnostics at indent 2; both series share one time column.

    ``times`` and ``j_value``, if given, are the ready cells of those columns.
    """
    t_cells = _cells(diag.times) if times is None else times
    j_value = diag.j_value if j_value is None else j_value
    skeleton = json.dumps({
        "delta": diag.delta, "j_series": [], "riccati_t": diag.riccati_t,
        "front_series": [], "escape_time": diag.escape_time,
    }, indent=2)
    head, mid, tail = skeleton.split("[]")
    chunks = itertools.chain(
        (head,), _pairs_json(t_cells, j_value), (mid,),
        _pairs_json(t_cells, diag.front_index), (tail, "\n"),
    )
    return _atomic_write(path, chunks)


def write_scan_csv(rows, path) -> Path:
    """Sweep summary rows ``(alpha, K, max_norm, escape_time-or-None)``."""
    *numbers, esc = tuple(zip(*rows)) or ((),) * 4
    columns = [np.asarray(col, dtype=c.type) for c, col in zip(SCAN_COLUMNS, numbers)]
    columns.append(["" if e is None else repr(float(e)) for e in esc])
    return _write_csv(path, SCAN_COLUMNS, columns)


def read_scan_csv(path) -> list[tuple[float, int, float, Optional[float]]]:
    return list(_read_csv(path, SCAN_COLUMNS))


def save_outputs(traj: Trajectory, reports, prefix) -> dict[str, Path]:
    """Write the full output set for one run under a path prefix.

    The blow-up record is :func:`analysis.blowup_diagnostics` of ``traj``,
    whose series are the trajectory's own time and J columns.
    """
    prefix = str(prefix)
    final = traj.final_state
    t_cells, j_cells = _cells(traj.times), _cells(traj.diag.j_value)
    blowup = analysis.blowup_diagnostics(traj)
    return {
        "trajectory": write_trajectory_csv(traj, prefix + "_trajectory.csv", t_cells, j_cells),
        "state": write_state_csv(final, traj.params.norm_s, prefix + "_state.csv"),
        "profile": write_profile_csv(profile_reconstruction(final), prefix + "_profile.csv"),
        "reports": write_reports_json(reports, prefix + "_reports.json"),
        "blowup": write_blowup_json(blowup, prefix + "_blowup.json", t_cells, j_cells),
    }
