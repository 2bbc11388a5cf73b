"""CSV / JSON / binary emission and reloading of run artifacts.

All floats are written with %.17g so that re-reading reproduces the
in-memory doubles bit-exactly; identical configurations therefore produce
byte-identical output files.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from operator import attrgetter

import numpy as np

from .radial_field import MOMENTS, ShellGrid
from .phase_model import ParticleSet
from .cone_evolver import SliceHistory

# The run-directory layout that emit_history writes and load_history reads:
# each CSV column and meta.json key with the SliceHistory field it holds.
# Only what the run records is persisted; the field, the past-cone mass and
# the probe fluxes are derived from the moments.  Row i * (n_shells + 1) + j
# of profiles.csv holds slice i (v in series.csv) at node j (r = j * dr);
# particles.csv holds the ParticleSet fields of particles_final.
LAYOUT = {
    "series.csv": {"v": "vs", "M_wedge": "M_wedge", "P_wedge": "P_wedge",
                   "R_max": "R_slice_max", "R_min": "R_min_run"},
    "profiles.csv": {c: c for c in MOMENTS},
    "particles.csv": {c: c for c in ("r", "w", "q", "weight", "f_value")},
    "meta.json": {"r_max": "grid.r_max", "n_shells": "grid.n_shells",
                  **{k: k for k in ("R0", "F", "f_inf_norm", "dv",
                                    "probe_radii", "r_turn_violations",
                                    "min_dw")}},
}


def _save_csv(directory, name, columns):
    """Layout CSV ``name``: its header, then one row per entry of the equal
    length 1-D ``columns`` as comma-separated %.17g values, formatted with
    one template per block of 1024 rows, which keeps memory use flat."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(os.path.join(directory, name), "w", newline="\n") as fh:
        fh.write(",".join(LAYOUT[name]) + "\n")
        for i in range(0, len(columns[0]), 1024):
            rows = np.column_stack([c[i:i + 1024] for c in columns])
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def emit_history(history: SliceHistory, directory) -> None:
    """Write the run record: the recorded profiles and series, the final
    particles and metadata."""
    os.makedirs(directory, exist_ok=True)
    columns = lambda name, obj=history: [
        attrgetter(f)(obj).ravel() for f in LAYOUT[name].values()]
    for name in ("series.csv", "profiles.csv"):
        _save_csv(directory, name, columns(name))
    if history.particles_final is not None:
        _save_csv(directory, "particles.csv",
                  columns("particles.csv", history.particles_final))

    meta = {k: attrgetter(f)(history) for k, f in LAYOUT["meta.json"].items()}
    meta["probe_radii"] = [float(r) for r in meta["probe_radii"]]
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_meta(path):
    """(meta.json, its ShellGrid).  Unless every LAYOUT key holds a number,
    n_shells an int and probe_radii a non-empty list of radii in the grid,
    a ValueError names the file and the key."""
    number = lambda x: type(x) in (int, float)
    try:
        with open(path) as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        for key in LAYOUT["meta.json"]:
            value = meta.get(key)
            ok = (type(value) is list and all(map(number, value))
                  if key == "probe_radii" else
                  type(value) is int if key == "n_shells" else number(value))
            if not ok:
                raise ValueError(f"{key} is {value!r}" if key in meta
                                 else f"no key {key!r}")
        grid = ShellGrid(r_max=meta["r_max"], n_shells=meta["n_shells"])
        probes = meta["probe_radii"]
        if not (probes and all(map(grid.covers, probes))):
            raise ValueError(f"probe_radii {probes} are not one or more "
                             f"radii in the shell grid [0, {grid.r_max:g}]")
        return meta, grid
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_csv(directory, name):
    """({field: column}, rows) of layout CSV ``name``: whole rows are read,
    each as wide as the header, and each column is then picked by its header
    name; a missing column or a malformed row raises a ValueError naming
    the file."""
    path, wanted = os.path.join(directory, name), LAYOUT[name]
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            for c in wanted:
                if c not in header:
                    raise ValueError(f"no column {c!r}")
            with warnings.catch_warnings():   # a header alone is 0 rows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        if data.size and data.shape[1] != len(header):
            raise ValueError(f"rows of {data.shape[1]} values under "
                             f"{len(header)} columns")
        data = data.reshape(-1, len(header))[:, [header.index(c)
                                                 for c in wanted]]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return dict(zip(wanted.values(), data.T)), data.shape[0]


def load_history(directory) -> SliceHistory:
    """Reconstruct a SliceHistory from an emitted run directory.  Columns
    are read by header name and other files are not read, so directories
    that also hold derived data (profiles.csv v, r and E_r, N_wedge,
    fluxes.csv, the shifted series N_vee, M_vee, ...) load the same."""
    join = lambda name: os.path.join(directory, name)
    meta, grid = _read_meta(join("meta.json"))
    fields = {f: meta[key] for key, f in LAYOUT["meta.json"].items()
              if not f.startswith("grid.")}
    fields["probe_radii"] = np.array(meta["probe_radii"])

    # the shapes meta.json sets are named with it
    n_nodes, shape = grid.n_shells + 1, f"meta.json n_shells {grid.n_shells}"
    profiles, rows = _read_csv(directory, "profiles.csv")
    if not rows or rows % n_nodes:
        raise ValueError(f"{join('profiles.csv')}: {rows} rows are not a "
                         f"whole number of {n_nodes}-node slices ({shape})")
    fields.update({f: col.reshape(-1, n_nodes) for f, col in profiles.items()})
    series, n = _read_csv(directory, "series.csv")
    if n != rows // n_nodes:
        raise ValueError(f"{join('series.csv')}: {n} rows for "
                         f"{rows // n_nodes} slices in profiles.csv ({shape})")
    fields.update(series)

    if os.path.exists(join("particles.csv")):
        cols, n = _read_csv(directory, "particles.csv")
        fields["particles_final"] = ParticleSet(**cols) if n else None
    return SliceHistory(grid=grid, **fields)


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
