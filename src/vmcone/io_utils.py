"""Emission and reloading of run artifacts: series as %.17g CSV, arrays as
little-endian float64 .npy and grids as .vmgrid, so reloading is bit-exact
and identical runs write byte-identical files."""

from __future__ import annotations

import json
import math
import os
import tokenize

import numpy as np

from .config import config_from_dict
from .radial_field import MOMENTS
from .phase_model import sample_particles
from .cone_evolver import SliceHistory

# The run-directory layout that emit_history writes and load_history reads:
# each CSV column, .npy row and meta.json key with the SliceHistory field it
# holds.  profiles.npy[k, i, j] is moment k of slice i (v in series.csv) at
# node j (r = j * dr); particles.npy holds r and w of the final particles;
# meta.json holds the config that ran, as to_dict writes it.
LAYOUT = {
    "series.csv": {"v": "vs", "P_slice": "P_slice",
                   "R_slice_min": "R_slice_min", "R_slice_max": "R_slice_max"},
    "profiles.npy": {c: c for c in MOMENTS},
    "particles.npy": {"r": "r_final", "w": "w_final"},
    "meta.json": {c: c for c in ("config", "r_turn_violations", "min_dw")},
}
NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
               (2, 0): np.lib.format.read_array_header_2_0}


def emit_history(history: SliceHistory, directory) -> None:
    """Write the run record: series, profiles, final particles, metadata."""
    os.makedirs(directory, exist_ok=True)
    path = lambda name: os.path.join(directory, name)
    fields = lambda name: [getattr(history, f) for f in LAYOUT[name].values()]
    np.savetxt(path("series.csv"), np.column_stack(fields("series.csv")),
               fmt="%.17g", delimiter=",", comments="",
               header=",".join(LAYOUT["series.csv"]))
    for name in ("profiles.npy", "particles.npy"):
        np.save(path(name), np.stack(fields(name), dtype="<f8"))
    meta = dict(zip(LAYOUT["meta.json"], fields("meta.json")))
    meta["config"] = meta["config"].to_dict()
    emit_report(meta, path("meta.json"))


def _read_meta(path):
    """{SliceHistory field: value} of meta.json, its config built by
    config_from_dict.  Unless the config is valid, r_turn_violations an int
    >= 0 and min_dw in (-inf, 0], a ValueError names the file and the key."""
    try:
        with open(path) as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        if "config" not in meta:
            raise ValueError("no key 'config'; re-run `vmcone run` (older "
                             "versions wrote no config to meta.json)")
        for key, ok in (("r_turn_violations",
                         lambda x: type(x) is int and x >= 0),
                        ("min_dw", lambda x: type(x) in (int, float)
                         and -math.inf < x <= 0.0)):
            if not ok(value := meta.get(key)):
                raise ValueError(f"{key} is {value!r}" if key in meta
                                 else f"no key {key!r}")
        return {f: config_from_dict(meta[k]) if k == "config" else meta[k]
                for k, f in LAYOUT["meta.json"].items()}
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_csv(directory, name):
    """({field: column}, rows) of layout CSV ``name``, whose header must be
    exactly its layout's columns; another header, a malformed row or no
    row at all raises a ValueError naming the file."""
    path, wanted = os.path.join(directory, name), LAYOUT[name]
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            lines = fh.read().splitlines()
        if header != ",".join(wanted):
            raise ValueError(f"header {header!r}, expected "
                             f"{','.join(wanted)!r}")
        if not lines:
            raise ValueError("no rows")
        data = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
        if data.shape[1] != len(wanted):
            raise ValueError(f"rows of {data.shape[1]} values under "
                             f"{len(wanted)} columns")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return dict(zip(wanted.values(), data.T)), len(data)


def _read_body(fh, shapes):
    """The <f8 arrays of ``shapes`` that fill the rest of ``fh`` exactly."""
    body = 8 * sum(math.prod(s) for s in shapes)
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != body:
        raise ValueError(f"body is {size} bytes, expected {body}")
    return [np.fromfile(fh, "<f8", math.prod(s)).reshape(s) for s in shapes]


def _read_npy(directory, name, shape, why):
    """{field: row} of layout file ``name``, read without pickle.  Unless it
    exists and is a C-order little-endian float64 array of ``shape`` (``why``
    names its source) of exactly that size, a ValueError names it."""
    path = os.path.join(directory, name)
    try:
        with open(path, "rb") as fh:
            try:   # numpy raises these on garbled headers (Warning: -W error)
                got, fortran, dtype = NPY_HEADERS[
                    np.lib.format.read_magic(fh)](fh)
            except (ValueError, KeyError, SyntaxError, TypeError, Warning,
                    tokenize.TokenError) as exc:
                raise ValueError(f"bad .npy header: {exc!r}") from exc
            if (dtype.str, fortran, got) != ("<f8", False, shape):
                raise ValueError(f"{dtype.str} {got}, fortran_order {fortran},"
                                 f" expected <f8 {shape}, C order{why}")
            [rows] = _read_body(fh, [got])
    except FileNotFoundError:
        raise ValueError(f"{path}: missing; re-run `vmcone run` (older "
                         f"versions wrote CSV files)") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return dict(zip(LAYOUT[name].values(), rows))


def load_history(directory) -> SliceHistory:
    """Reconstruct a SliceHistory from an emitted run directory; files
    outside LAYOUT are not read.  Unless the v column of series.csv is the
    first slices of the config's steps, bit for bit, and particles.npy has
    one column per particle the config samples, a ValueError names the file."""
    fields = _read_meta(os.path.join(directory, "meta.json"))
    series, n = _read_csv(directory, "series.csv")
    config = fields["config"]
    n_steps, dv = config.steps
    slices = np.linspace(0.0, config.v_final, n_steps + 1)
    if n > len(slices) or not np.array_equal(series["vs"], slices[:n]):
        raise ValueError(
            f"{os.path.join(directory, 'series.csv')}: its {n} v values are "
            f"not the first of the {len(slices)} slices of meta.json's "
            f"config (time.v_final {config.v_final:g}, dv {dv:g})")
    fields.update(series)
    fields.update(_read_npy(directory, "profiles.npy",
                            (len(MOMENTS), n, config.n_shells + 1),
                            f" ({n} rows in series.csv, meta.json "
                            f"grid.n_shells)"))
    initial = sample_particles(config.datum, config.resolution)
    fields.update(_read_npy(directory, "particles.npy", (2, len(initial)),
                            " (r, w of meta.json's particles; 5 rows are "
                            "an older version's: re-run `vmcone run`)"))
    history = SliceHistory(**fields)
    history.particles_initial = initial   # sampled once
    return history


def emit_report(report: dict, path) -> None:
    """A JSON document (a report, meta.json), indented with sorted keys, in
    strict JSON: a NaN or infinite number is written as null."""
    doc = json.loads(json.dumps(report), parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
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
            fh.write(memoryview(arr).cast("B"))   # no transient bytes copy


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
            shapes = [(n, n, n, 3)] * 2 + [(n, n, n), (n, n, n, 3)]
            arrays = dict(zip(GRID_LAYOUT["arrays"], _read_body(fh, shapes)))
        return GriddedFieldSet(n=n, extent=float(header["extent"]),
                               r_cut=float(header["r_cut"]), **arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
