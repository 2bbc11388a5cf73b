import io
import json
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest

from vmcone import (RunConfig, ConfigError, config_from_dict, parse_config,
                    run, emit_history, load_history, emit_report)
from vmcone.report import diagnose_report
from vmcone.cli import main
from conftest import small_config, DESK_DATUM_PARAMS


def write_config(path, **over):
    doc = {
        "datum": {"name": "shell_polynomial",
                  "params": dict(DESK_DATUM_PARAMS)},
        "sampling": {"resolution": [8, 8, 8]},
        "grid": {"n_shells": 128},
        "time": {"dv": 0.02, "v_final": 2.0},
    }
    doc.update(over)
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# configuration

def test_config_round_trip(tmp_path):
    cfg = small_config(output_directory=str(tmp_path / "out"),
                       probe_radii=(0.5, 1.0))
    path = tmp_path / "cfg.json"
    emit_report(cfg.to_dict(), path)
    assert parse_config(path) == cfg


def test_config_fail_closed(tmp_path):
    with pytest.raises(ConfigError, match="unknown configuration section"):
        config_from_dict({"solvr": {}})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"time": {"dt": 0.1}})
    with pytest.raises(ConfigError, match="must be >= 0"):
        config_from_dict({"time": {"v_final": -1.0}})
    # solver.scheme is gone: RK4 is the one integrator
    for scheme in ("rk4", "verlet"):
        with pytest.raises(ConfigError, match=r"unknown key.*'scheme'"):
            config_from_dict({"solver": {"scheme": scheme}})
    with pytest.raises(ConfigError, match=r"unknown key.*'field_off'"):
        config_from_dict({"solver": {"field_off": True}})
    with pytest.raises(ConfigError, match=r"unknown key.*'picard_iters'"):
        config_from_dict({"solver": {"picard_iters": 2}})
    for solver in ({"picard_iters": 2}, {"scheme": "rk4"}):
        cfg_path = write_config(tmp_path / "solver.json", solver=solver)
        assert main(["run", "--config", cfg_path]) == 2, solver
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config(p)
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.json")


def test_config_rejects_non_finite_numbers():
    # JSON as Python's json module reads it: Infinity and NaN are accepted
    for text, key in (('{"time": {"v_final": Infinity}}', "time.v_final"),
                      ('{"grid": {"margin": NaN}}', "grid.margin"),
                      ('{"grid": {"r_max": -Infinity}}', "grid.r_max"),
                      ('{"diagnostics": {"probe_radii": [0.5, NaN]}}',
                       "diagnostics.probe_radii")):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            config_from_dict(json.loads(text))
    with pytest.raises(ConfigError, match="grid.n_shells"):
        config_from_dict(json.loads('{"grid": {"n_shells": Infinity}}'))


def test_config_rejects_coerced_numbers():
    # a count that is not whole, a number written as a string and a bool
    # for a float are errors naming the key, never truncated or coerced
    for section, key, value in (("grid", "n_shells", 300.9),
                                ("grid", "n_shells", "3"),
                                ("time", "v_final", "2.5"),
                                ("grid", "n_shells", True),
                                ("grid", "margin", False),
                                ("diagnostics", "probe_radii", [0.5, "1"])):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: "):
            config_from_dict({section: {key: value}})
    cfg = config_from_dict({"grid": {"n_shells": 300.0},
                            "time": {"v_final": 2}})
    assert (cfg.n_shells, cfg.v_final) == (300, 2.0)
    assert type(cfg.n_shells) is int and type(cfg.v_final) is float


def test_config_rejects_a_non_positive_r_max(tmp_path, capsys):
    # the zero datum at v_final 0 has reach 0, so only the positivity rule
    # refuses r_max 0
    doc = {"datum": {"name": "zero"}, "time": {"v_final": 0.0}}
    for r_max in (0.0, -1.0):
        with pytest.raises(ConfigError, match=r"grid\.r_max -?\d+ must be "
                                              r"positive"):
            config_from_dict(dict(doc, grid={"r_max": r_max}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        doc, grid={"r_max": 0.0}, output={"directory": str(tmp_path / "out")})))
    assert main(["run", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "grid.r_max" in captured.err and "steps" not in captured.out
    assert not os.path.exists(tmp_path / "out")
    # an explicit extent is used as given, never replaced by the automatic one
    h = run(config_from_dict(dict(doc, grid={"r_max": 0.5, "n_shells": 8})))
    assert h.grid.r_max == 0.5


def test_config_rejects_r_max_inside_the_reach_of_the_matter(tmp_path,
                                                             capsys):
    # the desk datum has R0 = 0.6, so v_final 0.5 reaches r = 0.85
    doc = {"datum": {"name": "shell_polynomial",
                     "params": dict(DESK_DATUM_PARAMS)},
           "time": {"v_final": 0.5}}
    with pytest.raises(ConfigError, match=r"grid\.r_max 0\.59 is below the "
                                          r"reach of the matter, R0 \+ "
                                          r"v_final/2 = 0\.85"):
        config_from_dict(dict(doc, grid={"r_max": 0.59}))
    assert config_from_dict(dict(doc, grid={"r_max": 0.85})).r_max == 0.85
    cfg_path = write_config(tmp_path / "cfg.json",
                            grid={"n_shells": 128, "r_max": 0.59},
                            output={"directory": str(tmp_path / "out")})
    assert main(["run", "--config", cfg_path]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "grid.r_max" in captured.err and "steps" not in captured.out
    assert not os.path.exists(tmp_path / "out")


def test_cli_run_rejects_bad_resolution_and_probes_before_the_run(tmp_path,
                                                                 capsys):
    # the write_config datum at v_final 2 has the automatic r_max 1.85
    for over, key in (({"sampling": {"resolution": [1, 1, 1]}},
                       "sampling.resolution"),
                      ({"sampling": {"resolution": True}},
                       "sampling.resolution"),
                      ({"sampling": {"resolution": 8.5}},
                       "sampling.resolution"),
                      ({"diagnostics": {"probe_radii": []}},
                       "diagnostics.probe_radii [] must be"),
                      ({"diagnostics": {"probe_radii": [-0.1, 0.5]}},
                       "diagnostics.probe_radii [-0.1, 0.5] must be"),
                      ({"diagnostics": {"probe_radii": [0.5, 1.9]}},
                       "in the shell grid [0, 1.85]"),
                      ({"diagnostics": {"probe_radii": [2.5]},
                        "grid": {"n_shells": 128, "r_max": 2.0}},
                       "in the shell grid [0, 2]"),
                      ({"diagnostics": {"probe_radii": "12"}},
                       "diagnostics.probe_radii")):
        cfg_path = write_config(tmp_path / "cfg.json",
                                output={"directory": str(tmp_path / "out")},
                                **over)
        assert main(["run", "--config", cfg_path, "--diagnose"]) == 2, over
        captured = capsys.readouterr()
        assert "configuration error" in captured.err, over
        assert key in captured.err and "steps" not in captured.out, over
        assert not os.path.exists(tmp_path / "out")
    # a probe on the explicit r_max, and a whole float count, are accepted
    cfg = config_from_dict({"grid": {"r_max": 2.0},
                            "time": {"v_final": 2.0},
                            "sampling": {"resolution": [8.0, 2, 3]},
                            "diagnostics": {"probe_radii": [0.0, 2.0]}})
    assert cfg.resolution == (8, 2, 3) and cfg.probe_radii == (0.0, 2.0)


def test_cli_run_refuses_arrays_larger_than_memory(tmp_path, capsys,
                                                   monkeypatch):
    # sizes no machine holds are a configuration error naming the keys,
    # before anything is allocated
    for over, key in (({"grid": {"n_shells": 1e300}}, "grid.n_shells"),
                      ({"time": {"dv": 0.005, "v_final": 1e12}},
                       "time.v_final"),
                      ({"time": {"dv": 5e-324, "v_final": 1e300}},
                       "time.dv"),
                      ({"sampling": {"resolution": 100000}},
                       "sampling.resolution")):
        cfg_path = write_config(tmp_path / "cfg.json",
                                output={"directory": str(tmp_path / "out")},
                                **over)
        assert main(["run", "--config", cfg_path]) == 2, over
        captured = capsys.readouterr()
        assert "configuration error" in captured.err, over
        assert key in captured.err and "physical memory" in captured.err
        assert "steps" not in captured.out, over
        assert not os.path.exists(tmp_path / "out")
    # the rule is the arrays' size against the measured physical memory:
    # small_config records 4 profiles of 301 slices x 257 nodes and
    # samples a 12^3 grid
    import vmcone.config as config_module
    memory = lambda n: monkeypatch.setattr(config_module, "physical_memory",
                                           lambda: n)
    profiles = 8 * 4 * 301 * 257
    memory(profiles)
    small_config()
    memory(profiles - 1)
    with pytest.raises(ConfigError, match=r"grid\.n_shells, time\.v_final and "
                                          r"time\.dv: 2\.48e\+6 bytes for "):
        small_config()
    memory(8 * 100**3)
    small_config(resolution=(100, 100, 100), v_final=0.0)
    memory(8 * 100**3 - 1)
    with pytest.raises(ConfigError, match=r"sampling\.resolution: 8\.00e\+6 "
                                          r"bytes for .*, more than the "
                                          r"8\.00e\+6 bytes of physical memory"):
        small_config(resolution=(100, 100, 100), v_final=0.0)


from hypothesis import given, settings
from hypothesis import strategies as st
from vmcone import auto_r_max, builtin_datum
from vmcone.config import _sections

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8)
_NUMBER = st.integers(-2, 40) | st.floats(-1.0, 20.0)
# JSON values of the shapes each key takes, in and out of its range, so
# that many documents parse
_NEAR = {
    "datum.name": st.sampled_from(["zero", "shell_polynomial",
                                   "shell_gaussian"]),
    "datum.params": st.dictionaries(
        st.sampled_from(["amplitude", "r_support", "w_max", "q_support",
                         "sharpness"]),
        _NUMBER | st.lists(_NUMBER, min_size=2, max_size=2), max_size=3),
    "sampling.resolution": _NUMBER | st.booleans()
    | st.lists(_NUMBER, min_size=2, max_size=4),
    "grid.r_max": st.none() | _NUMBER,
    "time.dv": st.none() | _NUMBER,
    "diagnostics.probe_radii": st.none() | st.lists(_NUMBER, max_size=4),
}


@st.composite
def _config_docs(draw):
    """A document of the schema's sections and keys holding JSON values,
    mostly of each key's shape; rarely a stray section or key, a section
    that is not an object or a value that is any JSON."""
    rarely = lambda: draw(st.integers(0, 19)) == 0
    schema = {s: sorted(keys) for s, keys in _sections().items()}
    doc = {}
    for section in draw(st.lists(st.sampled_from(sorted(schema)),
                                 unique=True)) + ["solvr"] * rarely():
        if rarely():
            doc[section] = draw(_JSON)
            continue
        doc[section] = {}
        keys = schema.get(section, ["dt"])
        for key in draw(st.lists(st.sampled_from(keys), unique=True)) + [
                "dt"] * rarely():
            near = _NEAR.get(f"{section}.{key}", _NUMBER)
            doc[section][key] = draw(_JSON if rarely() else near)
    return doc


@given(doc=_config_docs())
@settings(max_examples=500, deadline=None)
def test_config_from_dict_fuzz(doc):
    # any document either parses or raises a ConfigError; a parsed one has
    # particle counts the sampler takes and probes inside its shell grid
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert all(type(n) is int and n >= 2 for n in cfg.resolution)
    if cfg.probe_radii is not None:
        datum = builtin_datum(cfg.datum_name, cfg.datum_params)
        r_max = cfg.r_max or auto_r_max(datum, cfg.v_final, cfg.margin)
        assert cfg.probe_radii
        assert all(0.0 <= r <= r_max for r in cfg.probe_radii)
    assert config_from_dict(cfg.to_dict()) == cfg


@given(n_shells=st.integers(2, 4096),
       v_final=st.floats(0.0, 100.0),
       margin=st.floats(0.0, 2.0))
@settings(max_examples=50, deadline=None)
def test_config_dict_round_trip_property(n_shells, v_final, margin):
    doc = {"grid": {"n_shells": n_shells, "margin": margin},
           "time": {"v_final": v_final}}
    cfg = config_from_dict(doc)
    assert config_from_dict(cfg.to_dict()) == cfg


def test_config_defaults():
    cfg = config_from_dict({})
    assert cfg.n_shells == 512
    assert cfg.v_final == 5.0
    assert cfg.dv is None and cfg.r_max is None


# ---------------------------------------------------------------------------
# history round trip

def test_history_round_trip(tmp_path, small_history):
    d = str(tmp_path / "run")
    emit_history(small_history, d)
    loaded = load_history(d)
    assert np.array_equal(loaded.vs, small_history.vs)
    for name in ("g_plus", "g_minus", "h_plus", "h_minus", "E"):
        assert np.array_equal(getattr(loaded, name),
                              getattr(small_history, name)), name
    assert np.array_equal(loaded.N_wedge, small_history.N_wedge)
    assert np.array_equal(loaded.flux_j, small_history.flux_j)
    assert np.array_equal(loaded.probe_radii, small_history.probe_radii)
    assert loaded.R0 == small_history.R0
    assert loaded.dv == small_history.dv
    pf = loaded.particles_final
    assert np.array_equal(pf.r, small_history.particles_final.r)
    assert np.array_equal(pf.weight, small_history.particles_final.weight)


def _npy(array):
    """The bytes np.save writes for ``array``."""
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def test_load_history_names_a_malformed_file(tmp_path, small_history):
    d = tmp_path / "run"
    emit_history(small_history, str(d))

    def refused(path, body, match):
        # the named error and no other warning or error
        path.write_bytes(body)
        with warnings.catch_warnings(), \
                pytest.raises(ValueError, match=path.name.replace(".", r"\.")
                              + ": .*" + match):
            warnings.simplefilter("error")
            load_history(str(d))

    h, n = small_history, len(small_history.vs)
    prof, parts = d / "profiles.npy", d / "particles.npy"
    good = {prof: prof.read_bytes(), parts: parts.read_bytes()}
    arrays = {prof: np.stack([h.g_plus, h.g_minus, h.h_plus, h.h_minus]),
              parts: np.stack([getattr(h.particles_final, f) for f in
                               ("r", "w", "q", "weight", "f_value")])}
    for path, body in good.items():
        a = arrays[path]
        header = len(body) - a.nbytes
        for bad, match in (
                (body[:-8], "body is"),                       # truncated body
                (body[:header - 1], "bad .npy header"),      # truncated header
                (body[:5], "bad .npy header"),               # truncated magic
                (b"", "bad .npy header"),                    # empty file
                (b"\x93NUMPY\x03" + body[7:], "bad .npy header"),  # version
                (body + b"\0", "body is"),                    # trailing bytes
                (_npy(a.astype("<i8")), "<i8"),
                (_npy(a.astype(">f8")), ">f8"),
                (_npy(np.asfortranarray(a)), "fortran_order True"),
                (_npy(a[:-1]), "expected <f8"),              # a field missing
                (_npy(a[None]), "expected <f8"),
                # a dtype alias that numpy deprecates warns; the warning is
                # an error inside refused()
                (body.replace(b"'<f8'", b"'a'  ", 1), "bad .npy header")):
            refused(path, bad, match)
        path.write_bytes(body)
    # a shape that disagrees with meta.json n_shells, and a slice count
    # that disagrees with series.csv
    for bad in (arrays[prof][:, :, :-1], arrays[prof][:, :-1]):
        refused(prof, _npy(bad), rf"<f8 \(4, \d+, \d+\), fortran_order False, "
                                 rf"expected <f8 \(4, {n}, 257\), C order "
                                 rf"\({n} rows in series\.csv, meta\.json")
    prof.write_bytes(good[prof])
    series = d / "series.csv"
    rows = series.read_text().splitlines(keepends=True)
    series.write_text("".join(rows[:-1]))
    with pytest.raises(ValueError, match=rf"profiles\.npy: .* expected <f8 "
                                         rf"\(4, {n - 1}, 257\)"):
        load_history(str(d))
    # no slice at all (a header alone)
    refused(series, rows[0].encode(), "no rows")
    series.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in rows))
    with pytest.raises(ValueError, match=r"series\.csv: no column 'R_min'"):
        load_history(str(d))
    # the older layout with an N_wedge column the load does not read, and
    # one row longer than its header
    series.write_text("".join(rows))
    _rewrite_columns(series, ["v", "N_wedge", "M_wedge", "P_wedge", "R_max",
                              "R_min"])
    rows_old = series.read_text().splitlines(keepends=True)
    _same_history(load_history(str(d)), small_history)
    series.write_text("".join(rows_old[:5]) + rows_old[5].rstrip("\n")
                      + ",1.5\n" + "".join(rows_old[6:]))
    with pytest.raises(ValueError, match=r"series\.csv: "):
        load_history(str(d))
    series.write_text("".join(rows))
    meta = d / "meta.json"
    doc = json.loads(meta.read_text())
    for bad, message in (([], "not a JSON object"),
                         ({k: v for k, v in doc.items() if k != "dv"},
                          "no key 'dv'"),
                         (dict(doc, n_shells=256.0), "n_shells is 256.0"),
                         (dict(doc, probe_radii=0.5), "probe_radii is 0.5"),
                         (dict(doc, probe_radii=[]), r"probe_radii \[\] are "
                                                     "not one or more radii"),
                         (dict(doc, probe_radii=[-0.1]),
                          r"probe_radii \[-0\.1\] are not"),
                         (dict(doc, probe_radii=[0.5, 9.0]),
                          r"probe_radii \[0\.5, 9\.0\] are not one or more "
                          r"radii in the shell grid \[0, 2\.35\]"),
                         (dict(doc, r_max=0.0), "need r_max > 0"),
                         # json reads NaN and Infinity; a count is an int
                         (dict(doc, r_max=np.inf), "r_max is inf"),
                         (dict(doc, f_inf_norm=np.inf), "f_inf_norm is inf"),
                         (dict(doc, dv=np.nan), "dv is nan"),
                         (dict(doc, min_dw=-np.inf), "min_dw is -inf"),
                         (dict(doc, probe_radii=[0.5, np.nan]),
                          r"probe_radii is \[0\.5, nan\]"),
                         (dict(doc, r_turn_violations=1.5),
                          "r_turn_violations is 1.5")):
        meta.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=r"meta\.json: " + message):
            load_history(str(d))
    meta.write_text("{")
    with pytest.raises(ValueError, match=r"meta\.json: Expecting"):
        load_history(str(d))


def test_diagnose_report_survives_round_trip(tmp_path, small_history):
    d = str(tmp_path / "run")
    emit_history(small_history, d)
    a = diagnose_report(small_history)
    b = diagnose_report(load_history(d))
    names_a = {c["name"]: c for c in a["checks"]}
    names_b = {c["name"]: c for c in b["checks"]}
    # particle-pair invariants need the in-memory initial set
    dropped = {n for n in names_a if n.startswith("lq_invariant")}
    assert set(names_b) == set(names_a) - dropped
    for n, cb in names_b.items():
        assert cb["value"] == pytest.approx(names_a[n]["value"],
                                            rel=1e-12, abs=1e-300)


def test_series_columns(tmp_path, small_history):
    # only recorded series and profiles are persisted; the shifted series,
    # N_wedge, E and the probe fluxes are derived
    emit_history(small_history, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == [
        "meta.json", "particles.npy", "profiles.npy", "series.csv"]
    path = tmp_path / "series.csv"
    header = path.read_text().splitlines()[0]
    assert header == "v,M_wedge,P_wedge,R_max,R_min"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    h = small_history
    assert np.array_equal(data, np.column_stack(
        (h.vs, h.M_wedge, h.P_wedge, h.R_slice_max, h.R_min_run)))


def test_profiles_and_particles_are_npy_arrays(tmp_path, small_history):
    # profiles.npy[k, i, j] holds moment k of slice i at node j; v is in
    # series.csv and r = j * dr follows from meta.json; particles.npy[k]
    # holds ParticleSet field k; both are little-endian float64 in C order
    emit_history(small_history, str(tmp_path))
    h, n_nodes = small_history, small_history.grid.n_shells + 1
    prof = np.load(tmp_path / "profiles.npy", allow_pickle=False)
    assert prof.dtype.str == "<f8" and prof.flags.c_contiguous
    assert prof.shape == (4, len(h.vs), n_nodes)
    for k, name in enumerate(("g_plus", "g_minus", "h_plus", "h_minus")):
        assert np.array_equal(prof[k], getattr(h, name)), name
    parts = np.load(tmp_path / "particles.npy", allow_pickle=False)
    assert parts.dtype.str == "<f8" and parts.flags.c_contiguous
    assert parts.shape == (5, len(h.particles_final))
    for k, name in enumerate(("r", "w", "q", "weight", "f_value")):
        assert np.array_equal(parts[k], getattr(h.particles_final, name)), name


def _rewrite_columns(path, columns):
    """Rewrite a CSV with the named columns, in the given order; a name
    the file lacks becomes a column of nan."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    index = {name: i for i, name in enumerate(rows[0])}
    path.write_text(",".join(columns) + "\n" + "".join(
        ",".join(row[index[c]] if c in index else "nan" for c in columns)
        + "\n" for row in rows[1:]))


def _same_history(a, b):
    for name in ("vs", "g_plus", "g_minus", "h_plus", "h_minus", "E",
                 "N_wedge", "M_wedge", "P_wedge", "R_slice_max", "R_min_run",
                 "probe_radii", "flux_j", "flux_p"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("r", "w", "q", "weight", "f_value"):
        assert np.array_equal(getattr(a.particles_final, name),
                              getattr(b.particles_final, name)), name
    for name in ("R0", "F", "f_inf_norm", "dv", "r_turn_violations",
                 "min_dw"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.grid == b.grid


def test_load_history_reads_columns_by_name(tmp_path, small_history):
    d = tmp_path / "run"
    emit_history(small_history, str(d))
    # the series.csv of older directories: ten columns with N_wedge and the
    # shifted series, and a fluxes.csv; the derived columns (here nan) and
    # files are not read
    _rewrite_columns(d / "series.csv", [
        "v", "N_wedge", "M_wedge", "N_vee", "M_vee", "N_slice", "M_slice",
        "P_wedge", "R_max", "R_min"])
    (d / "fluxes.csv").write_text("v,flux_j_r0,flux_p_r0\nnan,nan,nan\n")
    _same_history(load_history(str(d)), small_history)
    # any column order
    _rewrite_columns(d / "series.csv", [
        "R_min", "M_wedge", "v", "R_max", "P_wedge"])
    _same_history(load_history(str(d)), small_history)


def _csv_era(directory, history):
    """Turn an emitted run directory into the CSV layout of older versions:
    profiles.csv (v, r, the four moments, E_r) and particles.csv in place
    of the .npy files."""
    h = history
    i, j = np.indices(h.g_plus.shape)
    cols = [h.vs[i], h.grid.edges[j], h.g_plus, h.g_minus, h.h_plus,
            h.h_minus, h.E]
    np.savetxt(directory / "profiles.csv",
               np.column_stack([c.ravel() for c in cols]), fmt="%.17g",
               delimiter=",", comments="",
               header="v,r,g_plus,g_minus,h_plus,h_minus,E_r")
    p = h.particles_final
    np.savetxt(directory / "particles.csv",
               np.column_stack([p.r, p.w, p.q, p.weight, p.f_value]),
               fmt="%.17g", delimiter=",", comments="",
               header="r,w,q,weight,f_value")
    os.remove(directory / "profiles.npy")
    os.remove(directory / "particles.npy")


def test_csv_era_directory_is_refused(tmp_path, small_history, capsys):
    # the CSV profiles of older versions are no longer read: the load
    # names the missing profiles.npy and says to re-run
    d = tmp_path / "run"
    emit_history(small_history, str(d))
    _csv_era(d, small_history)
    message = r"profiles\.npy: missing; re-run `vmcone run`"
    with pytest.raises(ValueError, match=message):
        load_history(str(d))
    assert main(["diagnose", "--history", str(d),
                 "--report", str(tmp_path / "diag.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("history input error: ") and "profiles.npy" in err
    assert "re-run `vmcone run`" in err and len(err.splitlines()) == 1
    assert not os.path.exists(tmp_path / "diag.json")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny") / "run"
    emit_history(run(small_config(resolution=(3, 3, 3), n_shells=8, dv=0.05,
                                  v_final=0.2)), str(d))
    return d


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_load_history_fuzz_truncated_or_overwritten(tiny_run, data):
    # a run directory with one file cut short or one byte overwritten
    # either loads or raises a ValueError that names the damaged file
    name = data.draw(st.sampled_from(sorted(os.listdir(tiny_run))))
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "run")
        shutil.copytree(tiny_run, d)
        path = os.path.join(d, name)
        with open(path, "rb") as fh:
            body = bytearray(fh.read())
        at = data.draw(st.integers(0, len(body) - 1))
        if data.draw(st.booleans()):
            del body[at:]
        else:
            body[at] = data.draw(st.integers(0, 255))
        with open(path, "wb") as fh:
            fh.write(body)
        try:
            load_history(d)
        except ValueError as exc:
            assert name in str(exc), str(exc)


def test_determinism_byte_identical(tmp_path):
    cfg = small_config(resolution=(8, 8, 8), v_final=1.0, n_shells=64)
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        emit_history(run(cfg), str(d))
    files = sorted(os.listdir(a))
    assert files == sorted(os.listdir(b))
    for f in files:
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


def test_emit_report(tmp_path):
    doc = {"tool": "vmcone test", "checks": [], "passed": True}
    path = tmp_path / "report.json"
    emit_report(doc, path)
    assert json.loads(path.read_text()) == doc


# ---------------------------------------------------------------------------
# command line

def test_cli_run_and_diagnose(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json",
                            output={"directory": str(tmp_path / "out")})
    assert main(["run", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "steps" in out
    assert os.path.exists(tmp_path / "out" / "series.csv")
    assert os.path.exists(tmp_path / "out" / "config_echo.json")

    code = main(["diagnose", "--history", str(tmp_path / "out"),
                 "--report", str(tmp_path / "diag.json")])
    out = capsys.readouterr().out
    assert "overall:" in out
    report = json.loads((tmp_path / "diag.json").read_text())
    assert code == (0 if report["passed"] else 1)
    assert all(("name" in c and "value" in c and "tolerance" in c
                and "passed" in c) for c in report["checks"])


def test_cli_diagnose_fails_closed_on_bad_input(tmp_path, capsys,
                                               small_history):
    good = tmp_path / "good"
    emit_history(small_history, str(good))
    meta = json.loads((good / "meta.json").read_text())
    no_dv, inf_r_max = tmp_path / "no_dv", tmp_path / "inf_r_max"
    for d, doc in ((no_dv, {k: v for k, v in meta.items() if k != "dv"}),
                   (inf_r_max, dict(meta, r_max=np.inf))):
        shutil.copytree(good, d)
        (d / "meta.json").write_text(json.dumps(doc))
    no_h = tmp_path / "no_h"
    shutil.copytree(good, no_h)
    prof = no_h / "profiles.npy"
    np.save(prof, np.load(prof, allow_pickle=False)[:3])
    for d, message in ((tmp_path / "missing", "No such file"),
                       (no_dv, "meta.json: no key 'dv'"),
                       # an uncaught error deep in the checks if accepted
                       (inf_r_max, "meta.json: r_max is inf"),
                       (no_h, "profiles.npy: <f8 (3, ")):
        assert main(["diagnose", "--history", str(d),
                     "--report", str(tmp_path / "diag.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("history input error: ")
        assert message in captured.err and len(captured.err.splitlines()) == 1
        assert "overall" not in captured.out
        assert not os.path.exists(tmp_path / "diag.json")
    assert main(["audit-constraints", "--from-history", str(no_dv)]) == 2
    captured = capsys.readouterr()
    assert "meta.json: no key 'dv'" in captured.err
    assert "overall" not in captured.out



def test_cli_prints_the_skipped_checks(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json",
                            time={"dv": 0.02, "v_final": 0.2})
    assert main(["run", "--config", cfg_path, "--diagnose"]) == 0
    skips = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("[SKIP]")]
    assert len(skips) == 6
    assert skips[0].startswith("[SKIP] N_slice_constancy: history too short")


def test_cli_run_report_needs_diagnose(tmp_path, capsys):
    # a run alone writes no report: refused in one line before the run
    out, rep = tmp_path / "out", tmp_path / "diag.json"
    cfg_path = write_config(tmp_path / "cfg.json",
                            output={"directory": str(out)})
    assert main(["run", "--config", cfg_path, "--report", str(rep)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "--report needs --diagnose\n"
    assert captured.out == ""
    assert not out.exists() and not rep.exists()


def test_cli_audit_of_a_single_slice_history(tmp_path, capsys):
    # time.v_final 0 records one slice: the audit embeds it and passes with
    # finite residuals, and a later slice is still refused
    out, rep = str(tmp_path / "out"), tmp_path / "audit.json"
    cfg_path = write_config(tmp_path / "cfg.json",
                            time={"dv": 0.02, "v_final": 0.0},
                            output={"directory": out})
    assert main(["run", "--config", cfg_path, "--diagnose"]) == 0
    for nodes in ("24", "64"):
        assert main(["audit-constraints", "--from-history", out, "--v", "0",
                     "--nodes", nodes, "--report", str(rep)]) == 0
        checks = json.loads(rep.read_text())["checks"]
        assert len(checks) == 7
        assert all(np.isfinite(c["value"]) and c["passed"] for c in checks)
    capsys.readouterr()
    assert main(["audit-constraints", "--from-history", out,
                 "--v", "0.1"]) == 2
    assert capsys.readouterr().err == (
        "audit input error: g_plus needed at v=0.1, outside recorded "
        "history [0, 0]; extend time.v_final\n")


def test_cli_run_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"tme": {}}))
    assert main(["run", "--config", str(p)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_run_rejects_bad_datum_before_the_run(tmp_path, capsys):
    # a NaN, a typo, and parameters whose support radius overflows or
    # divides by an underflowed r_lo^2
    for params in (dict(DESK_DATUM_PARAMS, amplitude=float("nan")),
                   dict(DESK_DATUM_PARAMS, amplitdue=1.0),
                   dict(DESK_DATUM_PARAMS, w_max=1e200),
                   dict(DESK_DATUM_PARAMS, r_support=[1e-200, 0.6])):
        cfg_path = write_config(tmp_path / "cfg.json",
                                datum={"name": "shell_polynomial",
                                       "params": params})
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "datum.params" in err


def test_jacobian_test_needs_an_orbit(capsys):
    from vmcone.report import jacobian_report
    with pytest.raises(ValueError, match="at least one orbit"):
        jacobian_report(n_orbits=0)
    assert main(["jacobian-test", "--orbits", "0"]) == 2
    captured = capsys.readouterr()
    assert "--orbits" in captured.err and "overall" not in captured.out


@pytest.mark.parametrize("flag, value", [
    ("--step", "0"), ("--step", "-0.01"), ("--step", "nan"), ("--step", "inf"),
    ("--duration", "nan"), ("--duration", "inf"), ("--duration", "-inf"),
    ("--h-fd", "0"), ("--h-fd", "-1e-4"), ("--h-fd", "nan"),
    ("--h-fd", "inf")])
def test_jacobian_test_rejects_bad_numbers(flag, value, capsys):
    # exit 2 naming the flag, before any orbit is integrated
    assert main(["jacobian-test", "--orbits", "1", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "overall" not in captured.out


def test_cli_jacobian_test(tmp_path, capsys):
    code = main(["jacobian-test", "--orbits", "5", "--duration", "0.2",
                 "--report", str(tmp_path / "jac.json")])
    assert code == 0
    report = json.loads((tmp_path / "jac.json").read_text())
    assert report["passed"]
    assert {c["name"] for c in report["checks"]} == {
        "flow_jacobian_determinant", "phase_divergence_closed_form"}


def test_cli_audit_from_history(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json",
                            output={"directory": str(tmp_path / "out")})
    assert main(["run", "--config", cfg_path]) == 0
    capsys.readouterr()
    code = main(["audit-constraints", "--from-history", str(tmp_path / "out"),
                 "--v", "1.0", "--nodes", "25", "--extent", "0.6",
                 "--report", str(tmp_path / "audit.json")])
    assert code == 0
    report = json.loads((tmp_path / "audit.json").read_text())
    assert report["passed"]
    assert report["equivalence"]["coherent"]
    # a fixed statement, no path or timing: the embedding satisfies the
    # constraints by construction, so the run itself is not audited
    assert report["scope"] == ("checks the embedding and the stencils, "
                               "not the run")
    capsys.readouterr()
    # a grid that checks no node, too few nodes, a slice outside the
    # history and a cube past the shell grid are input errors, never a PASS
    for extra, message in ((["--r-cut", "100"], "no node would be checked"),
                           (["--nodes", "2"], "at least 3 nodes"),
                           (["--nodes", "1"], "at least 3 nodes"),
                           (["--nodes", "100000"], "--nodes: 8.00e+16 bytes "
                            "for the 100000^3 input grid of E, B, rho and j, "
                            "more than the "),
                           (["--extent", "0"], "extent must be positive"),
                           (["--r-cut", "0"], "at least 2 grid spacings"),
                           (["--v", "50"], "outside recorded history"),
                           (["--v", "nan"], "outside recorded history"),
                           (["--extent", "100"], "exceeds the shell grid")):
        code = main(["audit-constraints", "--from-history",
                     str(tmp_path / "out"), "--v", "1.0"] + extra)
        captured = capsys.readouterr()
        assert code == 2, extra
        assert message in captured.err, extra
        assert "overall" not in captured.out, extra


def test_cli_audit_refuses_a_history_too_coarse_for_the_fit(tmp_path,
                                                             capsys):
    # 4 shells give 5 nodes for the 6 coefficients of the quintic fit: an
    # input error naming both counts, never a minimum-norm fit that passes
    out = str(tmp_path / "out")
    cfg_path = write_config(tmp_path / "cfg.json", grid={"n_shells": 4},
                            time={"dv": 0.02, "v_final": 0.2},
                            output={"directory": out})
    assert main(["run", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["audit-constraints", "--from-history", out,
                 "--v", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "audit input error: 5 nodes do not determine the 6 coefficients of "
        "the quintic spline fit (rank 5); refine grid.n_shells\n")
    assert "overall" not in captured.out


def test_cli_audit_from_history_runs_without_scipy(tmp_path):
    # the embedding's spline fit is numpy alone: a history audit in a fresh
    # interpreter ends with no scipy module loaded
    import subprocess
    import sys
    from pathlib import Path

    out = str(tmp_path / "out")
    cfg_path = write_config(tmp_path / "cfg.json",
                            time={"dv": 0.02, "v_final": 0.4},
                            output={"directory": out})
    assert main(["run", "--config", cfg_path]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys\n"
            "from vmcone.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] == 'scipy'))\n"
            "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "audit-constraints", "--from-history",
         out, "--v", "0.2", "--nodes", "25"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_audit_from_grid_file(tmp_path, capsys):
    from vmcone import save_grid
    from test_constraint_audit import smooth_ball_fields
    from vmcone import grid_from_functions

    E_fn, B_fn, rho_fn, j_fn = smooth_ball_fields()
    g = grid_from_functions(25, 1.0, 0.25, E_fn, B_fn, rho_fn, j_fn)
    path = tmp_path / "fields.vmgrid"
    save_grid(g, path)
    rep = tmp_path / "audit.json"
    assert main(["audit-constraints", "--input", str(path),
                 "--report", str(rep)]) == 0
    assert "scope" not in json.loads(rep.read_text())
    # requiring exactly one input source
    assert main(["audit-constraints"]) == 2
    assert main(["audit-constraints", "--input", str(path),
                 "--from-history", "x"]) == 2
    capsys.readouterr()
    corrupt = tmp_path / "corrupt.vmgrid"
    corrupt.write_bytes(path.read_bytes()[:-8])
    for bad in (corrupt, tmp_path / "missing.vmgrid"):
        assert main(["audit-constraints", "--input", str(bad)]) == 2
        captured = capsys.readouterr()
        assert str(bad) in captured.err
        assert "overall" not in captured.out


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "vmcone" in capsys.readouterr().out
