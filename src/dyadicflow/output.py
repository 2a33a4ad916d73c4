"""File emission: trajectory/state/profile CSVs, report and blow-up JSON.

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
Writes go through a temp-file rename, so partially written outputs never
appear, and nothing time- or host-dependent is emitted (re-running a command
with the same inputs reproduces byte-identical files).
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from pathlib import Path
from typing import Optional

import numpy as np

from dyadicflow import analysis
from dyadicflow.analysis import BlowupDiagnostics, InvariantReport
from dyadicflow.integrate import Trajectory
from dyadicflow.model import DyadicState, slopes, weighted_slopes
from dyadicflow.scenarios import profile_reconstruction

TRAJECTORY_HEADER = [
    "t", "a_0", "sup_a", "xs_norm", "J", "max_ratio", "front_index",
    "holder_half", "termination",
]
STATE_HEADER = ["k", "a_k", "b_k", "b_ks"]
PROFILE_HEADER = ["x", "y"]
SCAN_HEADER = ["alpha", "K", "max_norm", "escape_time"]


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


def _write_csv(path, header, columns) -> Path:
    """Write a header row and the columns as one CSV file, a block of rows at a time.

    A column is a numpy array (formatted through :func:`_cells`), a string
    repeated on every row, or a list of ready cells.  Header names and string
    cells are written as they are, so they must hold no comma, quote or line
    break.
    """
    n = min(len(c) for c in columns if not isinstance(c, str))

    def blocks():
        yield ",".join(header) + "\r\n"
        for lo in range(0, n, analysis.BLOCK_ROWS):
            hi = lo + analysis.BLOCK_ROWS
            cells = [
                itertools.repeat(c) if isinstance(c, str)
                else _cells(c[lo:hi]) if isinstance(c, np.ndarray) else c[lo:hi]
                for c in columns
            ]
            yield "\r\n".join(map(",".join, zip(*cells))) + "\r\n"

    return _atomic_write(path, blocks())


def write_trajectory_csv(traj: Trajectory, path, times=None, j_value=None) -> Path:
    """One row per sample with the scalar diagnostics and the termination.

    ``times`` and ``j_value``, if given, are the ready cells of those columns.
    """
    d = traj.diag
    columns = (traj.times if times is None else times, d.a0, d.sup_a, d.xs_norm,
               d.j_value if j_value is None else j_value, d.max_ratio, d.front_index,
               d.holder_half, traj.termination.value)
    return _write_csv(path, TRAJECTORY_HEADER, columns)


def read_trajectory_csv(path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(
                {
                    "t": float(row["t"]),
                    "a_0": float(row["a_0"]),
                    "sup_a": float(row["sup_a"]),
                    "xs_norm": float(row["xs_norm"]),
                    "J": float(row["J"]),
                    "max_ratio": float(row["max_ratio"]),
                    "front_index": int(row["front_index"]),
                    "holder_half": float(row["holder_half"]),
                    "termination": row["termination"],
                }
            )
    return rows


def write_state_csv(state: DyadicState, s: float, path) -> Path:
    """Dump ``k, a_k, b_k, b_{k,s}`` for every stored index."""
    b = slopes(state)
    bs = weighted_slopes(state, s)
    return _write_csv(path, STATE_HEADER, (np.arange(state.k + 1), state.a, b, bs))


def read_state_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {"k": int(r["k"]), "a_k": float(r["a_k"]), "b_k": float(r["b_k"]),
             "b_ks": float(r["b_ks"])}
            for r in csv.DictReader(fh)
        ]


def write_profile_csv(columns, path) -> Path:
    """Profile reconstruction columns ``(x, y)`` as ``x,y`` rows."""
    return _write_csv(path, PROFILE_HEADER, columns)


def read_profile_csv(path) -> list[tuple[float, float]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [(float(r["x"]), float(r["y"])) for r in csv.DictReader(fh)]


def write_series_csv(columns, header, path) -> Path:
    """Scalar series columns (e.g. ``(t, xs_norm)``) as CSV, one header name each."""
    return _write_csv(path, header, columns)


def read_series_csv(path) -> list[tuple[float, float]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(float(a), float(b)) for a, b in reader]


def _report_obj(rep: InvariantReport) -> dict:
    t, idx = rep.worst_location
    return {
        "name": rep.name,
        "passed": rep.passed,
        "worst_margin": rep.worst_margin,
        "worst_location": [t, idx],
        "tolerance": rep.tolerance,
    }


def write_reports_json(reports, path) -> Path:
    text = json.dumps([_report_obj(r) for r in reports], indent=2)
    return _atomic_write(path, (text, "\n"))


def read_reports_json(path) -> list[InvariantReport]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    out = []
    for obj in data:
        t, idx = obj["worst_location"]
        out.append(
            InvariantReport(
                name=obj["name"],
                passed=obj["passed"],
                worst_margin=obj["worst_margin"],
                worst_location=(t, idx),
                tolerance=obj["tolerance"],
            )
        )
    return out


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
    alpha, kk, max_norm, esc = tuple(zip(*rows)) or ((),) * 4
    columns = (
        np.asarray(alpha, dtype=float), np.asarray(kk, dtype=np.int64),
        np.asarray(max_norm, dtype=float), ["" if e is None else repr(float(e)) for e in esc],
    )
    return _write_csv(path, SCAN_HEADER, columns)


def read_scan_csv(path) -> list[tuple[float, int, float, Optional[float]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            (
                float(r["alpha"]),
                int(r["K"]),
                float(r["max_norm"]),
                float(r["escape_time"]) if r["escape_time"] != "" else None,
            )
            for r in csv.DictReader(fh)
        ]


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
