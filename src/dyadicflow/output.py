"""File emission: trajectory/state/profile CSVs, report and blow-up JSON.

Floats are written as shortest round-trip decimals (``repr``), writes go
through a temp-file rename so partially written outputs never appear, and
nothing time- or host-dependent is emitted (re-running a command with the
same inputs reproduces byte-identical files).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import re
from pathlib import Path
from typing import Optional

import numpy as np

from dyadicflow.analysis import BlowupDiagnostics, InvariantReport
from dyadicflow.integrate import Trajectory
from dyadicflow.model import DyadicState, slopes, weighted_slopes

TRAJECTORY_HEADER = [
    "t", "a_0", "sup_a", "xs_norm", "J", "max_ratio", "front_index",
    "holder_half", "termination",
]
STATE_HEADER = ["k", "a_k", "b_k", "b_ks"]
PROFILE_HEADER = ["x", "y"]
SCAN_HEADER = ["alpha", "K", "max_norm", "escape_time"]


def _f(x: float) -> str:
    return repr(float(x))


def _atomic_write_text(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return path


_JSON_STRING = re.compile(rb'"(?:[^"\\]|\\.)*"')
# 1 opening bracket, 2 closing bracket, 3 comma, 4 colon
_JSON_KIND = np.zeros(256, dtype=np.uint8)
_JSON_KIND[list(b"[{")] = 1
_JSON_KIND[list(b"]}")] = 2
_JSON_KIND[list(b",:")] = (3, 4)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte, from the C encoder.

    ``indent`` selects the pure-Python encoder, twice as slow on a long
    series.  Here the C encoder writes the compact text and a few array
    passes lay it out.  Outside string literals, a line break and the indent
    of the new depth follow each opening bracket and comma and precede each
    closing bracket, and a space follows each colon; empty containers stay
    ``[]`` and ``{}``.  Large temporaries are dropped as soon as they are
    used, so the peak memory stays that of the pure-Python encoder.
    """
    raw = json.dumps(obj, separators=(",", ":")).encode("ascii")
    b = np.frombuffer(raw, dtype=np.uint8)
    kind = _JSON_KIND[b]
    for m in _JSON_STRING.finditer(raw):
        kind[m.start() : m.end()] = 0
    pos = np.flatnonzero(kind)
    k = kind[pos]
    chars = b[pos]
    kept = b[kind == 0]
    # the output alternates runs of kept bytes (even entries) with the
    # regions the structural bytes become (odd entries); in-place arithmetic
    # keeps the temporaries few
    runs = np.empty(2 * k.size + 1, dtype=np.int64)
    bounds = np.concatenate(([-1], pos, [b.size]))
    del raw, b, kind, pos
    gaps = runs[0::2]
    np.subtract(bounds[1:], bounds[:-1], out=gaps)
    gaps -= 1
    del bounds
    pair = (k[:-1] == 1) & (k[1:] == 2) & (gaps[1:-1] == 0)
    empty = np.zeros(k.size, dtype=bool)
    empty[:-1] = pair
    empty[1:] |= pair
    # a region holds the byte, a line break and two spaces per depth; a
    # colon becomes ": " and an empty pair keeps its two bytes
    cnt = runs[1::2]
    np.cumsum(k == 1, out=cnt)
    cnt -= np.cumsum(k == 2)
    cnt *= 2
    cnt += 2
    cnt[empty] = 1
    cnt[k == 4] = 2
    out = np.full(int(runs.sum()) + 1, ord(" "), dtype=np.uint8)
    out[-1] = ord("\n")
    is_kept = np.zeros(runs.size, dtype=bool)
    is_kept[::2] = True
    out[:-1][np.repeat(is_kept, runs)] = kept
    del is_kept, kept
    ends = np.cumsum(runs, out=runs)  # region j spans [ends[2j], ends[2j + 1])
    start, stop = ends[0:-1:2], ends[1::2]
    lead = ((k == 1) | (k == 3)) & ~empty
    out[start[lead]] = chars[lead]
    out[start[lead] + 1] = ord("\n")
    close = (k == 2) & ~empty
    out[start[close]] = ord("\n")
    out[stop[close] - 1] = chars[close]
    plain = (k == 4) | empty
    out[start[plain]] = chars[plain]
    return str(out, "ascii")


def _write_csv(path, header, rows) -> Path:
    """Write a header row and the rows, each a list of cells, as one CSV file."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return _atomic_write_text(path, buf.getvalue())


def write_trajectory_csv(traj: Trajectory, path) -> Path:
    """One row per sample with the scalar diagnostics and the termination."""
    d = traj.diag
    columns = (traj.times, d.a0, d.sup_a, d.xs_norm, d.j_value, d.max_ratio, d.front_index,
               d.holder_half)
    # csv.writer formats a float through repr, as _f does, so the columns go in as they are
    rows = zip(*(c.tolist() for c in columns), itertools.repeat(traj.termination.value))
    return _write_csv(path, TRAJECTORY_HEADER, rows)


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
    rows = ([k, _f(state.a[k]), _f(b[k]), _f(bs[k])] for k in range(state.k + 1))
    return _write_csv(path, STATE_HEADER, rows)


def read_state_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {"k": int(r["k"]), "a_k": float(r["a_k"]), "b_k": float(r["b_k"]),
             "b_ks": float(r["b_ks"])}
            for r in csv.DictReader(fh)
        ]


def write_profile_csv(points, path) -> Path:
    """Profile reconstruction points as ``x,y`` rows."""
    return _write_csv(path, PROFILE_HEADER, ([_f(x), _f(y)] for x, y in points))


def read_profile_csv(path) -> list[tuple[float, float]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [(float(r["x"]), float(r["y"])) for r in csv.DictReader(fh)]


def write_series_csv(rows, header, path) -> Path:
    """Two-column scalar series (e.g. ``t, xs_norm``) as CSV."""
    return _write_csv(path, header, ([_f(x), _f(y)] for x, y in rows))


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
    return _atomic_write_text(path, _json_text([_report_obj(r) for r in reports]))


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


def write_blowup_json(diag: BlowupDiagnostics, path) -> Path:
    obj = {
        "delta": diag.delta,
        "j_series": [[t, j] for t, j in diag.j_series],
        "riccati_t": diag.riccati_t,
        "front_series": [[t, k] for t, k in diag.front_series],
        "escape_time": diag.escape_time,
    }
    return _atomic_write_text(path, _json_text(obj))


def write_scan_csv(rows, path) -> Path:
    """Sweep summary rows ``(alpha, K, max_norm, escape_time-or-None)``."""
    cells = (
        [_f(alpha), kk, _f(max_norm), "" if esc is None else _f(esc)]
        for alpha, kk, max_norm, esc in rows
    )
    return _write_csv(path, SCAN_HEADER, cells)


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


def save_outputs(traj: Trajectory, reports, diagnostics, prefix) -> dict[str, Path]:
    """Write the full output set for one run under a path prefix."""
    prefix = str(prefix)
    final = traj.final_state
    from dyadicflow.scenarios import profile_reconstruction

    paths = {
        "trajectory": write_trajectory_csv(traj, prefix + "_trajectory.csv"),
        "state": write_state_csv(final, traj.params.norm_s, prefix + "_state.csv"),
        "profile": write_profile_csv(profile_reconstruction(final), prefix + "_profile.csv"),
        "reports": write_reports_json(reports, prefix + "_reports.json"),
    }
    if diagnostics is not None:
        paths["blowup"] = write_blowup_json(diagnostics, prefix + "_blowup.json")
    return paths
