"""CSV / JSON / binary emission and reloading of run artifacts.

All floats are written with %.17g so that re-reading reproduces the
in-memory doubles bit-exactly; identical configurations therefore produce
byte-identical output files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .radial_field import ShellGrid
from .phase_model import ParticleSet
from .cone_evolver import SliceHistory
from . import cone_diagnostics as diag

FMT = "%.17g"

SERIES_COLUMNS = ("v", "N_wedge", "M_wedge", "N_vee", "M_vee",
                  "N_slice", "M_slice", "P_wedge", "R_max", "R_min")


def _write_rows(fh, table):
    """Rows of a 2-D array as comma-separated %.17g lines, formatted with
    one template per block of 1024 rows, which keeps memory use flat."""
    line = ",".join([FMT] * table.shape[1]) + "\n"
    for i in range(0, len(table), 1024):
        rows = table[i:i + 1024]
        fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def _save_csv(path, header, columns):
    """One header line, then the columns as rows."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, np.column_stack(columns))


def emit_series(history: SliceHistory, path) -> None:
    """Scalar series CSV with the fixed column order of SERIES_COLUMNS.

    The shifted functionals (N_vee, M_vee, N_slice, M_slice) are only
    defined where the recorded history completes the cone integrals; rows
    outside those windows carry nan.
    """
    n = len(history.vs)
    cols = {
        "v": history.vs,
        "N_wedge": history.N_wedge,
        "M_wedge": history.M_wedge,
        "P_wedge": history.P_wedge,
        "R_max": history.R_slice_max,
        "R_min": history.R_min_run,
    }
    for key in ("N_vee", "M_vee", "N_slice", "M_slice"):
        filled = np.full(n, np.nan)
        try:
            vs_w, vals, _ = diag.functional_series(history, key)
            filled[:len(vals)] = vals
        except ValueError:
            pass
        cols[key] = filled
    _save_csv(path, SERIES_COLUMNS, [cols[c] for c in SERIES_COLUMNS])


def emit_history(history: SliceHistory, directory) -> None:
    """Write the full run record: profiles, series, probe fluxes, final
    particles and metadata."""
    os.makedirs(directory, exist_ok=True)
    join = lambda name: os.path.join(directory, name)

    emit_series(history, join("series.csv"))

    header = ("v", "r", "g_plus", "g_minus", "h_plus", "h_minus", "E_r")
    edges = history.grid.edges
    with open(join("profiles.csv"), "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i, v in enumerate(history.vs):
            _write_rows(fh, np.column_stack((
                np.full(edges.size, v), edges, history.g_plus[i],
                history.g_minus[i], history.h_plus[i], history.h_minus[i],
                history.E[i])))

    flux_header = (["v"]
                   + [f"flux_j_r{k}" for k in range(history.probe_radii.size)]
                   + [f"flux_p_r{k}" for k in range(history.probe_radii.size)])
    _save_csv(join("fluxes.csv"), flux_header,
              [history.vs, history.flux_j, history.flux_p])

    parts = history.particles_final
    if parts is not None:
        _save_csv(join("particles.csv"), ("r", "w", "q", "weight", "f_value"),
                  [parts.r, parts.w, parts.q, parts.weight, parts.f_value])

    meta = {
        "r_max": history.grid.r_max,
        "n_shells": history.grid.n_shells,
        "R0": history.R0,
        "F": history.F,
        "f_inf_norm": history.f_inf_norm,
        "dv": history.dv,
        "probe_radii": [float(r) for r in history.probe_radii],
        "r_turn_violations": history.r_turn_violations,
        "min_dw": history.min_dw,
    }
    with open(join("meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _loadtxt(path, **kwargs):
    """A CSV body as floats; a ValueError names the file."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_history(directory) -> SliceHistory:
    """Reconstruct a SliceHistory from an emitted run directory."""
    join = lambda name: os.path.join(directory, name)
    with open(join("meta.json")) as fh:
        meta = json.load(fh)
    grid = ShellGrid(r_max=meta["r_max"], n_shells=meta["n_shells"])
    n_nodes = grid.n_shells + 1

    # v is the v of series.csv and r the grid's edges: read neither twice
    prof = _loadtxt(join("profiles.csv"), usecols=range(2, 7))
    if prof.shape[0] % n_nodes:
        raise ValueError(f"{join('profiles.csv')}: {prof.shape[0]} rows are "
                         f"not a whole number of {n_nodes}-node slices")
    shaped = prof.reshape(-1, n_nodes, 5)

    series = _loadtxt(join("series.csv"), usecols=range(len(SERIES_COLUMNS)))
    if series.shape[0] != shaped.shape[0]:
        raise ValueError(f"{join('series.csv')}: {series.shape[0]} rows for "
                         f"{shaped.shape[0]} slices in profiles.csv")
    flux = _loadtxt(join("fluxes.csv"))
    n_probes = len(meta["probe_radii"])

    parts = None
    ppath = join("particles.csv")
    if os.path.exists(ppath):
        data = _loadtxt(ppath)
        if data.size:
            parts = ParticleSet(*(data[:, i].copy() for i in range(5)))

    return SliceHistory(
        grid=grid, vs=series[:, 0],
        g_plus=shaped[:, :, 0], g_minus=shaped[:, :, 1],
        h_plus=shaped[:, :, 2], h_minus=shaped[:, :, 3],
        E=shaped[:, :, 4],
        N_wedge=series[:, 1], M_wedge=series[:, 2],
        P_wedge=series[:, 7], R_slice_max=series[:, 8],
        R_min_run=series[:, 9],
        probe_radii=np.array(meta["probe_radii"]),
        flux_j=flux[:, 1:1 + n_probes],
        flux_p=flux[:, 1 + n_probes:1 + 2 * n_probes],
        R0=meta["R0"], F=meta["F"], f_inf_norm=meta["f_inf_norm"],
        dv=meta["dv"],
        r_turn_violations=meta["r_turn_violations"],
        min_dw=meta["min_dw"],
        particles_initial=None, particles_final=parts,
    )


def emit_report(report: dict, path) -> None:
    """Structured report: one record per check plus a summary line."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# binary grid-file format for the 3D constraint audit

GRID_MAGIC = b"VMCONE-GRID-1\n"
# the one layout save_grid writes and load_grid accepts
GRID_LAYOUT = {"dtype": "<f8", "order": "C", "arrays": ["E", "B", "rho", "j"]}


def save_grid(grid, path) -> None:
    """Self-describing binary field set: magic, one JSON header line, then
    little-endian float64 node-major (C-order) arrays E, B, rho, j."""
    header = {"n": grid.n, "extent": grid.extent, "r_cut": grid.r_cut,
              **GRID_LAYOUT}
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for name in GRID_LAYOUT["arrays"]:
            arr = np.ascontiguousarray(getattr(grid, name), dtype="<f8")
            fh.write(arr.tobytes())


def load_grid(path):
    """Read a save_grid file.  Anything but that exact layout, with a body
    of exactly the header's size, raises a ValueError naming the file."""
    from .constraint_audit import GriddedFieldSet

    try:
        with open(path, "rb") as fh:
            if fh.read(len(GRID_MAGIC)) != GRID_MAGIC:
                raise ValueError("not a vmcone grid file")
            header = json.loads(fh.readline())
            if not isinstance(header, dict):
                raise ValueError("header is not a JSON object")
            for key, want in GRID_LAYOUT.items():
                if header.get(key) != want:
                    raise ValueError(f"header {key} is {header.get(key)!r}, "
                                     f"expected {want!r}")
            n = header.get("n")
            if type(n) is not int or n < 0:
                raise ValueError(f"header n is {n!r}, expected a count")
            for key in ("extent", "r_cut"):
                if type(header.get(key)) not in (int, float):
                    raise ValueError(f"header {key} is {header.get(key)!r}, "
                                     f"expected a number")
            shapes = [(n, n, n, 3), (n, n, n, 3), (n, n, n), (n, n, n, 3)]
            body = 8 * sum(math.prod(s) for s in shapes)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != body:
                raise ValueError(f"body is {size} bytes, expected {body} "
                                 f"for n = {n}")
            arrays = {name: np.fromfile(fh, "<f8", math.prod(s)).reshape(s)
                      for name, s in zip(GRID_LAYOUT["arrays"], shapes)}
        return GriddedFieldSet(n=n, extent=float(header["extent"]),
                               r_cut=float(header["r_cut"]), **arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
