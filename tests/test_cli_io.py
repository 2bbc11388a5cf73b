import copy
import dataclasses
import functools
import io
import json
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest

from vmcone import (RunConfig, ConfigError, config_from_dict, parse_config,
                    run, emit_history, load_history, emit_report,
                    cone_evolver, io_utils)
from vmcone.cone_evolver import SliceHistory
from vmcone.io_utils import LAYOUT
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
    cfg = small_config(r_max=2.5)
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
    # a name that is not a string, and params that are not an object, are
    # refused, never coerced
    for section, key, value in (("datum", "name", 5),
                                ("datum", "params", [["amplitude", 5.0]])):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: "):
            config_from_dict({section: {key: value}})
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
                      ('{"solver": {"r_floor": NaN}}', "solver.r_floor")):
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
                                ("solver", "r_floor", [1e-10])):
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
    cfg_path.write_text(json.dumps(dict(doc, grid={"r_max": 0.0})))
    assert main(["run", "--config", str(cfg_path),
                 "--output", str(tmp_path / "out")]) == 2
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
                            grid={"n_shells": 128, "r_max": 0.59})
    assert main(["run", "--config", cfg_path,
                 "--output", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "grid.r_max" in captured.err and "steps" not in captured.out
    assert not os.path.exists(tmp_path / "out")


def test_cli_run_rejects_bad_resolution_and_probes_before_the_run(tmp_path,
                                                                 capsys):
    # probes are no key: the flux checks measure at default_probe_radii
    for over, key in (({"sampling": {"resolution": [1, 1, 1]}},
                       "sampling.resolution"),
                      ({"sampling": {"resolution": True}},
                       "sampling.resolution"),
                      ({"sampling": {"resolution": 8.5}},
                       "sampling.resolution"),
                      ({"diagnostics": {"probe_radii": None}},
                       "unknown configuration section(s): ['diagnostics']")):
        cfg_path = write_config(tmp_path / "cfg.json", **over)
        assert main(["run", "--config", cfg_path, "--diagnose",
                     "--output", str(tmp_path / "out")]) == 2, over
        captured = capsys.readouterr()
        assert "configuration error" in captured.err, over
        assert key in captured.err and "steps" not in captured.out, over
        assert len(captured.err.splitlines()) == 1, over
        assert not os.path.exists(tmp_path / "out")
    # a whole float count is accepted
    cfg = config_from_dict({"sampling": {"resolution": [8.0, 2, 3]}})
    assert cfg.resolution == (8, 2, 3)


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
        cfg_path = write_config(tmp_path / "cfg.json", **over)
        assert main(["run", "--config", cfg_path,
                     "--output", str(tmp_path / "out")]) == 2, over
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
from vmcone import auto_r_max, builtin_datum, default_probe_radii
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


def _direct(doc):
    """RunConfig called with the keys of a document of the file's shape, or
    None for a document of another shape."""
    sections = _sections()
    if not (isinstance(doc, dict) and set(doc) <= set(sections)
            and all(isinstance(sub, dict) and set(sub) <= set(sections[s])
                    for s, sub in doc.items())):
        return None
    return lambda: RunConfig(**{sections[s][k].name: v
                                for s, sub in doc.items()
                                for k, v in sub.items()})


@given(doc=_config_docs())
@settings(max_examples=500, deadline=None)
def test_config_from_dict_fuzz(doc):
    # any document either parses or raises a ConfigError; a parsed one has
    # particle counts the sampler takes and probes inside its shell grid.
    # RunConfig called with the same keys gives the same config or the
    # same refusal
    direct = _direct(doc)
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        if direct is not None:
            with pytest.raises(ConfigError):
                direct()
        return
    assert direct() == cfg
    assert all(type(n) is int and n >= 2 for n in cfg.resolution)
    assert all(map(cfg.grid.covers, cfg.probes))
    assert config_from_dict(cfg.to_dict()) == cfg


def test_a_config_built_in_python_is_checked_at_construction():
    # each value is refused at construction, naming its key, as in a file
    desk = dict(datum_name="shell_polynomial",
                datum_params=dict(DESK_DATUM_PARAMS), resolution=(4, 4, 4),
                n_shells=32, dv=0.01, v_final=0.05)
    for key, over in (("grid.n_shells", {"n_shells": 300.9}),
                      ("sampling.resolution", {"resolution": (4, 4)}),
                      ("sampling.resolution", {"resolution": (1, 1, 1)}),
                      ("grid.margin", {"margin": np.nan}),
                      ("grid.r_max", {"r_max": np.inf}),
                      ("time.dv", {"dv": np.inf}),
                      ("solver.r_floor", {"r_floor": np.nan}),
                      ("time.v_final", {"v_final": "2.5"}),
                      ("time.v_final", {"v_final": np.nan}),
                      ("datum.name", {"datum_name": 5}),
                      ("datum.params", {"datum_params": [["amplitude", 5.0]]}),
                      # meta.json could not hold it
                      ("datum.params", {"datum_params": dict(
                          DESK_DATUM_PARAMS, amplitude=np.float32(5.0))})):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            RunConfig(**dict(desk, **over))
    # the resolved inputs of the run
    cfg = RunConfig(**desk)
    support = lambda d: (d.R0, d.P0, d.F, d.f_inf_norm, d.support_box)
    assert support(cfg.datum) == support(
        builtin_datum("shell_polynomial", DESK_DATUM_PARAMS))
    assert cfg.steps == (5, 0.01)
    assert cfg.grid.r_max == auto_r_max(cfg.datum, 0.05, 0.25)
    assert cfg.grid.n_shells == 32
    assert list(cfg.probes) == list(default_probe_radii(cfg.datum, cfg.grid))


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
    # every field of the history reloads bit for bit, and so do the running
    # bounds, the field, the fluxes and the particles derived from them
    d = str(tmp_path / "run")
    emit_history(small_history, d)
    loaded = load_history(d)
    for name in [f.name for f in dataclasses.fields(SliceHistory)] + [
            "P_wedge", "R_min_run", "E", "N_wedge", "M_wedge", "flux_j",
            "flux_p", "probe_radii", "R0", "F", "f_inf_norm", "dv"]:
        a, b = getattr(loaded, name), getattr(small_history, name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (
                b.dtype, b.shape, b.tobytes()), name
        else:
            assert type(a) is type(b) and a == b, name
    for name in ("r", "w", "q", "weight", "f_value"):
        assert np.array_equal(getattr(loaded.particles_final, name),
                              getattr(small_history.particles_final, name))


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
              parts: np.stack([h.r_final, h.w_final])}
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
    # a missing particles.npy is named, never loaded as no particles
    parts.unlink()
    with pytest.raises(ValueError, match=r"particles\.npy: missing"):
        load_history(str(d))
    parts.write_bytes(good[parts])
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
    # one row more than the config's steps, which repeats the last v
    refused(series, "".join(rows + rows[-1:]).encode(),
            rf"its {n + 1} v values are not the first of the {n} slices of "
            rf"meta\.json's config \(time\.v_final 3, dv 0\.01\)")
    # the one header emit_history writes: a column missing, reordered or
    # added, as older layouts held derived series, is refused
    layout = "'v,P_slice,R_slice_min,R_slice_max'"
    series.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in rows))
    refused(series, series.read_bytes(),
            rf"header 'v,P_slice,R_slice_min', expected {layout}$")
    for columns in (["R_slice_max", "v", "R_slice_min", "P_slice"],
                    ["v", "P_wedge", "R_max", "R_min"],
                    ["v", "N_wedge", "M_wedge", "P_wedge", "R_max", "R_min"]):
        series.write_text("".join(rows))
        _rewrite_columns(series, columns)
        refused(series, series.read_bytes(),
                rf"header '{','.join(columns)}', expected {layout}$")
    # one row longer than the header
    refused(series, ("".join(rows[:5]) + rows[5].rstrip("\n") + ",1.5\n"
                     + "".join(rows[6:])).encode(), "")
    series.write_text("".join(rows))
    meta = d / "meta.json"
    doc = json.loads(meta.read_text())
    # the meta.json of older versions: the grid, the datum constants, dv
    # and the probes in place of the config
    older = {"r_max": h.grid.r_max, "n_shells": h.grid.n_shells, "R0": h.R0,
             "F": h.F, "f_inf_norm": h.f_inf_norm, "dv": h.dv,
             "probe_radii": list(h.probe_radii), "r_turn_violations": 0,
             "min_dw": h.min_dw}
    for bad, message in (([], "not a JSON object"),
                         (older, r"no key 'config'; re-run `vmcone run`"),
                         ({k: v for k, v in doc.items() if k != "min_dw"},
                          "no key 'min_dw'"),
                         # json reads NaN and Infinity; a count is an int
                         (dict(doc, min_dw=-np.inf), "min_dw is -inf"),
                         (dict(doc, r_turn_violations=1.5),
                          "r_turn_violations is 1.5"),
                         # counters no run writes: a run adds turns to 0
                         # and lowers min_dw from 0
                         (dict(doc, r_turn_violations=-3),
                          "r_turn_violations is -3"),
                         (dict(doc, min_dw=0.5), "min_dw is 0.5")):
        meta.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=r"meta\.json: " + message):
            load_history(str(d))
    # a fault in the config raises the config's own message, prefixed by
    # the file
    for where, value, message in (
            (("grid", "n_shells"), 256.5, "grid.n_shells: expected a whole"),
            (("grid", "r_max"), 0.0, "grid.r_max 0 must be positive"),
            (("grid", "r_max"), np.inf, "grid.r_max must be finite"),
            (("solver", "r_floor"), [1e-10],
             "solver.r_floor: expected a number"),
            (("time", "dv"), np.nan, "time.dv must be finite"),
            # the datum's f_inf_norm is its amplitude
            (("datum", "params", "amplitude"), np.inf,
             "datum.params: shell profile parameters must be finite")):
        config = copy.deepcopy(doc["config"])
        functools.reduce(dict.get, where[:-1], config)[where[-1]] = value
        with pytest.raises(ConfigError, match=message) as want:
            config_from_dict(config)
        meta.write_text(json.dumps(dict(doc, config=config)))
        with pytest.raises(ValueError) as got:
            load_history(str(d))
        assert str(got.value) == f"{meta}: {want.value}"
    # a config whose dv no longer describes the recorded slices: 0.02
    # where they are 0.01 apart, refused with all rows and with as few as a
    # run that ended early writes
    config = copy.deepcopy(doc["config"])
    config["time"]["dv"] = 0.02
    meta.write_text(json.dumps(dict(doc, config=config)))
    for body in (rows, rows[:100]):   # the header and 301 or 99 slices
        series.write_text("".join(body))
        with pytest.raises(ValueError, match=rf"series\.csv: its "
                                             rf"{len(body) - 1} v values are "
                                             rf"not the first of the 151 "
                                             rf"slices of meta\.json's config "
                                             rf"\(time\.v_final 3, dv "
                                             rf"0\.02\)$"):
            load_history(str(d))
    series.write_text("".join(rows))
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
    # the reload derives the initial particles from the config, so the
    # particle invariants are checked too
    assert list(names_b) == list(names_a)
    for n, cb in names_b.items():
        assert cb["value"] == pytest.approx(names_a[n]["value"],
                                            rel=1e-12, abs=1e-300)


def test_a_reloaded_config_reruns_the_same_directory(tmp_path):
    # meta.json holds the config that ran, so a run of the reloaded config
    # writes the same bytes
    d, d2 = tmp_path / "a", tmp_path / "b"
    cfg = small_config(resolution=(6, 6, 6), n_shells=32, dv=0.02,
                       v_final=0.4)
    emit_history(run(cfg), str(d))
    config = load_history(str(d)).config
    assert config == cfg
    emit_history(run(config), str(d2))
    files = sorted(os.listdir(d))
    assert files == sorted(os.listdir(d2))
    for f in files:
        assert (d / f).read_bytes() == (d2 / f).read_bytes(), f


def test_series_columns(tmp_path, small_history):
    # only recorded series and profiles are persisted; the shifted series,
    # N_wedge, M_wedge, E and the probe fluxes are derived
    emit_history(small_history, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == [
        "meta.json", "particles.npy", "profiles.npy", "series.csv"]
    path = tmp_path / "series.csv"
    header = path.read_text().splitlines()[0]
    assert header == "v,P_slice,R_slice_min,R_slice_max"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    h = small_history
    assert np.array_equal(data, np.column_stack(
        (h.vs, h.P_slice, h.R_slice_min, h.R_slice_max)))


def test_profiles_and_particles_are_npy_arrays(tmp_path, small_history):
    # profiles.npy[k, i, j] holds moment k of slice i at node j; v is in
    # series.csv and r = j * dr follows from meta.json; particles.npy holds
    # r and w of the final particles, whose q, weight and f_value the config
    # fixes; both are little-endian float64 in C order
    emit_history(small_history, str(tmp_path))
    h, n_nodes = small_history, small_history.grid.n_shells + 1
    prof = np.load(tmp_path / "profiles.npy", allow_pickle=False)
    assert prof.dtype.str == "<f8" and prof.flags.c_contiguous
    assert prof.shape == (4, len(h.vs), n_nodes)
    for k, name in enumerate(("g_plus", "g_minus", "h_plus", "h_minus")):
        assert np.array_equal(prof[k], getattr(h, name)), name
    parts = np.load(tmp_path / "particles.npy", allow_pickle=False)
    assert parts.dtype.str == "<f8" and parts.flags.c_contiguous
    assert parts.shape == (2, len(h.particles_final))
    for k, name in enumerate(("r", "w")):
        assert np.array_equal(parts[k], getattr(h.particles_final, name)), name


def test_particles_npy_of_another_count_or_layout_is_refused(
        tmp_path, small_history):
    # the config fixes the particle count and q, weight and f_value: a file
    # cut to 100 particles, and one of the (5, n) layout of older versions,
    # are refused by name, with the expected (2, n)
    d = tmp_path / "run"
    emit_history(small_history, str(d))
    h, n = small_history, len(small_history.r_final)
    cut = np.stack([h.r_final, h.w_final])[:, :100]
    old = np.stack([getattr(h.particles_final, f)
                    for f in ("r", "w", "q", "weight", "f_value")])
    for bad in (cut, old):
        (d / "particles.npy").write_bytes(_npy(bad))
        with pytest.raises(ValueError, match=(
                rf"particles\.npy: <f8 \({bad.shape[0]}, {bad.shape[1]}\), "
                rf"fortran_order False, expected <f8 \(2, {n}\), C order "
                rf"\(r, w of meta\.json's particles; 5 rows are an older "
                rf"version's: re-run `vmcone run`\)$")):
            load_history(str(d))


def test_the_layout_persists_the_fields_and_nothing_derived():
    # each SliceHistory field is persisted once, and nothing else is: what
    # a history derives (E, the particle constants, the grid) is not
    persisted = [f for columns in LAYOUT.values() for f in columns.values()]
    assert sorted(persisted) == sorted(
        f.name for f in dataclasses.fields(SliceHistory))


def test_a_reload_samples_the_datum_once(tmp_path, small_history,
                                         monkeypatch):
    # the count check and the history's particle constants share one
    # sampling, and the report reuses it
    emit_history(small_history, str(tmp_path))
    want = diagnose_report(small_history)
    calls, real = [], io_utils.sample_particles
    sample = lambda *args: calls.append(1) or real(*args)
    monkeypatch.setattr(io_utils, "sample_particles", sample)
    monkeypatch.setattr(cone_evolver, "sample_particles", sample)
    loaded = load_history(str(tmp_path))
    assert diagnose_report(loaded) == want and len(calls) == 1
    for name in ("r", "w", "q", "weight", "f_value"):
        assert np.array_equal(getattr(loaded.particles_final, name),
                              getattr(small_history.particles_final, name))
    # a run keeps its own sample, which it leaves as sampled
    calls.clear()
    cfg = small_config(resolution=(6, 6, 6), n_shells=64, v_final=1.0)
    h = run(cfg)
    diagnose_report(h)
    assert len(calls) == 1
    fresh = real(cfg.datum, cfg.resolution)
    for name in ("r", "w", "q", "weight", "f_value"):
        assert np.array_equal(getattr(h.particles_initial, name),
                              getattr(fresh, name)), name


def test_cli_diagnose_refuses_short_series_rows(tmp_path, capsys,
                                                 small_history):
    # the emitted header over rows that lost their last value: an input
    # error naming the file and both counts, never a report
    emit_history(small_history, str(tmp_path))
    path = tmp_path / "series.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [r.rsplit(",", 1)[0] for r in rows]))
    assert main(["diagnose", "--history", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(
        "series.csv: rows of 3 values under 4 columns\n")
    assert "overall" not in captured.out


def test_a_nan_momentum_fails_the_momentum_checks(tmp_path, small_history):
    # one slice's P lost in series.csv: the running support is NaN from
    # there on, and neither the self-consistency inequality nor the ceiling
    # passes on the other slices
    emit_history(small_history, str(tmp_path))
    path = tmp_path / "series.csv"
    rows = path.read_text().splitlines(keepends=True)
    k = len(rows) // 2
    v, _, rest = rows[k].split(",", 2)
    rows[k] = f"{v},nan,{rest}"
    path.write_text("".join(rows))
    loaded = load_history(str(tmp_path))
    assert np.isnan(loaded.P_slice[k - 1]) and np.isnan(loaded.P_wedge[-1])
    checks = {c["name"]: c for c in diagnose_report(loaded)["checks"]}
    for name in ("momentum_self_consistency", "momentum_ceiling"):
        assert not checks[name]["passed"], name


@pytest.mark.parametrize("datum", [
    {"name": "zero"},
    {"name": "shell_polynomial", "params": {"amplitude": 0.0}}],
    ids=["zero", "amplitude-0"])
def test_an_empty_plasma_passes_the_axis_bound(tmp_path, datum):
    # no particle: every slice's least radius is +inf, the identity of min,
    # so the clearance is +inf, in memory, in series.csv and reloaded
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", datum=datum,
                       sampling={"resolution": [6, 6, 6]},
                       grid={"n_shells": 64},
                       time={"dv": 0.01, "v_final": 0.05})
    reports = [tmp_path / "in_memory.json", tmp_path / "reloaded.json"]
    assert main(["run", "--config", cfg, "--output", str(out),
                 "--diagnose", "--report", str(reports[0])]) == 0
    assert main(["diagnose", "--history", str(out),
                 "--report", str(reports[1])]) == 0
    for report in reports:
        checks = {c["name"]: c for c in json.loads(report.read_text())[
            "checks"]}
        assert checks["axis_clearance_bound"]["passed"]
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[0] == "v,P_slice,R_slice_min,R_slice_max"
    assert all(row.split(",")[2] == "inf" for row in rows[1:])
    loaded = load_history(str(out))
    assert len(loaded.vs) == 6 and np.all(loaded.R_slice_min == np.inf)
    assert np.all(loaded.R_min_run == np.inf)


def _rewrite_columns(path, columns):
    """Rewrite a CSV with the named columns, in the given order; a name
    the file lacks becomes a column of nan."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    index = {name: i for i, name in enumerate(rows[0])}
    path.write_text(",".join(columns) + "\n" + "".join(
        ",".join(row[index[c]] if c in index else "nan" for c in columns)
        + "\n" for row in rows[1:]))


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
    cfg_path = write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", cfg_path,
                 "--output", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "steps" in out
    assert os.path.exists(tmp_path / "out" / "series.csv")
    # meta.json holds the config that ran, verbatim, and no other file
    # repeats it
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["config"] == parse_config(cfg_path).to_dict()
    assert "output" not in meta["config"]
    assert not os.path.exists(tmp_path / "out" / "config_echo.json")

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
    older, nan_dv = tmp_path / "older", tmp_path / "nan_dv"
    inf_r_max, output = tmp_path / "inf_r_max", tmp_path / "output"
    probes = tmp_path / "probes"
    config = meta["config"]
    for d, doc in ((older, {k: v for k, v in meta.items() if k != "config"}),
                   # as versions with an output or a diagnostics section
                   # wrote it
                   (output, dict(meta, config=dict(
                       config, output={"directory": None}))),
                   (probes, dict(meta, config=dict(
                       config, diagnostics={"probe_radii": None}))),
                   (nan_dv, dict(meta, config=dict(
                       config, time=dict(config["time"], dv=np.nan)))),
                   (inf_r_max, dict(meta, config=dict(
                       config, grid=dict(config["grid"], r_max=np.inf))))):
        shutil.copytree(good, d)
        (d / "meta.json").write_text(json.dumps(doc))
    no_h = tmp_path / "no_h"
    shutil.copytree(good, no_h)
    prof = no_h / "profiles.npy"
    np.save(prof, np.load(prof, allow_pickle=False)[:3])
    for d, message in ((tmp_path / "missing", "No such file"),
                       (older, "meta.json: no key 'config'; re-run "),
                       (nan_dv, "meta.json: time.dv must be finite"),
                       # an uncaught error deep in the checks if accepted
                       (inf_r_max, "meta.json: grid.r_max must be finite"),
                       (output, "meta.json: unknown configuration "
                        "section(s): ['output']"),
                       (probes, "meta.json: unknown configuration "
                        "section(s): ['diagnostics']"),
                       (no_h, "profiles.npy: <f8 (3, ")):
        assert main(["diagnose", "--history", str(d),
                     "--report", str(tmp_path / "diag.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("history input error: ")
        assert message in captured.err and len(captured.err.splitlines()) == 1
        assert "overall" not in captured.out
        assert not os.path.exists(tmp_path / "diag.json")
    assert main(["audit-constraints", "--from-history", str(nan_dv)]) == 2
    captured = capsys.readouterr()
    assert "meta.json: time.dv must be finite" in captured.err
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
    cfg_path = write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", cfg_path, "--output", str(out),
                 "--report", str(rep)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "--report needs --diagnose\n"
    assert captured.out == ""
    assert not out.exists() and not rep.exists()


def test_cli_audit_of_a_single_slice_history(tmp_path, capsys):
    # time.v_final 0 records one slice: the audit embeds it and passes with
    # finite residuals, and a later slice is still refused
    out, rep = str(tmp_path / "out"), tmp_path / "audit.json"
    cfg_path = write_config(tmp_path / "cfg.json",
                            time={"dv": 0.02, "v_final": 0.0})
    assert main(["run", "--config", cfg_path, "--output", out,
                 "--diagnose"]) == 0
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
    # the output directory is `run --output` alone: the retired output
    # section is refused by name, and no directory is made
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path / "cfg.json",
                            output={"directory": str(out)})
    assert main(["run", "--config", cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("configuration error: unknown configuration "
                            "section(s): ['output']\n")
    assert captured.out == "" and not out.exists()


def test_cli_run_abort_is_one_line_and_exit_status_3(tmp_path, capsys):
    # a floor above the inner edge of the support: the first push crosses
    # it, which is neither a failed check (1) nor a bad input (2)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path / "cfg.json",
                            sampling={"resolution": [6, 6, 6]},
                            solver={"r_floor": 0.4},
                            time={"dv": 0.01, "v_final": 0.5})
    assert main(["run", "--config", cfg_path, "--output", str(out),
                 "--diagnose"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("run aborted: step 0 (v=0): trajectory 0 (of "
                            "216) reached r=0.324476 <= r_floor=0.4\n")
    # the output directory is made before the first step, and stays empty
    assert captured.out == "" and list(out.iterdir()) == []


def test_cli_output_error_is_one_line_and_exit_status_2(tmp_path, capsys,
                                                       monkeypatch):
    # an output path under a regular file: every subcommand refuses it
    # before it runs, loads, embeds or draws anything
    from vmcone import report as report_module
    out = str(tmp_path / "out")
    cfg_path = write_config(tmp_path / "cfg.json",
                            time={"dv": 0.02, "v_final": 0.2})
    assert main(["run", "--config", cfg_path, "--output", out]) == 0
    capsys.readouterr()
    blocker = tmp_path / "file"
    blocker.write_text("")
    work = []
    for module, name in ((cone_evolver, "run"), (io_utils, "load_history"),
                         (io_utils, "load_grid"),
                         (report_module, "_draw")):
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, **k: work.append(name))
    report = ["--report", str(blocker / "r.json")]
    for argv in (
            ["run", "--config", cfg_path, "--output", str(blocker / "o")],
            ["run", "--config", cfg_path, "--diagnose", *report],
            ["diagnose", "--history", out, *report],
            ["audit-constraints", "--from-history", out, *report],
            ["audit-constraints", "--input", out, *report],
            ["jacobian-test", "--orbits", "1", "--duration", "0.02",
             *report]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("output error: ") and str(
            blocker) in captured.err, argv
        assert len(captured.err.splitlines()) == 1
        assert captured.out == "" and work == [], argv
    assert blocker.read_text() == ""


def test_cli_run_writes_its_report_into_its_new_output_directory(tmp_path,
                                                                 capsys):
    # the report path is tried once the output directory is made
    out = tmp_path / "new" / "out"
    cfg_path = write_config(tmp_path / "cfg.json",
                            time={"dv": 0.02, "v_final": 0.2})
    assert main(["run", "--config", cfg_path, "--output", str(out),
                 "--diagnose", "--report", str(out / "diag.json")]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "diag.json").read_text())["passed"]


def test_an_aborted_run_leaves_the_report_path_as_it_was(tmp_path, capsys,
                                                         monkeypatch):
    # run tries the report path before its first step: a new path is left
    # absent and an existing file unchanged when the run aborts
    cfg_path = write_config(tmp_path / "cfg.json")

    def aborting(cfg):
        raise cone_evolver.RunAborted("step 0 (v=0): stopped")

    monkeypatch.setattr(cone_evolver, "run", aborting)
    old = tmp_path / "old.json"
    old.write_text("kept")
    for path in (tmp_path / "new.json", old):
        assert main(["run", "--config", cfg_path, "--diagnose",
                     "--report", str(path)]) == 3
        assert capsys.readouterr().err == ("run aborted: step 0 (v=0): "
                                           "stopped\n")
    assert not (tmp_path / "new.json").exists() and old.read_text() == "kept"


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
    assert captured.err == ("jacobian-test input error: need at least one "
                            "orbit, got n_orbits=0\n")
    assert "overall" not in captured.out


def jacobian_refusal(argv, capsys, monkeypatch):
    """stderr of a jacobian-test that exits 2, having integrated nothing
    and printed nothing."""
    from vmcone import characteristics
    monkeypatch.setattr(characteristics, "char_rhs_cartesian", None)
    assert main(["jacobian-test", "--orbits", "1", *argv]) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1, argv
    assert captured.err.startswith("jacobian-test input error: "), argv
    return captured.err


@pytest.mark.parametrize("flag, value", [
    ("--step", "0"), ("--step", "-0.01"), ("--step", "nan"), ("--step", "inf"),
    ("--duration", "nan"), ("--duration", "inf"), ("--duration", "-inf")])
def test_jacobian_test_rejects_bad_numbers(flag, value, capsys, monkeypatch):
    # exit 2 with the library's message naming the value
    message = {"--step": f"step must be positive and finite, got {value}",
               "--duration": f"span v=0 -> v_to={value} is not finite"}[flag]
    assert message in jacobian_refusal([f"{flag}={value}"], capsys,
                                       monkeypatch)


@pytest.mark.parametrize("argv, message", [
    (["--duration", "1e300", "--step", "1e-300"],
     "span 1e+300 / step 1e-300 overflows the step count"),
    pytest.param(["--seed=-1"], "seed must be a non-negative integer, got -1",
                 id="negative-seed"),
    pytest.param(["--duration", "1e200", "--step", "1e-100"],
                 "step 1e-100 is below the time resolution of the span "
                 "v=0 -> v_to=1e+200", id="step-below-time-resolution"),
    # no step is taken, but the report would write the step down
    pytest.param(["--duration", "0", "--step", "nan"],
                 "step must be positive and finite, got nan",
                 id="nan-step-at-zero-duration")])
def test_jacobian_test_library_errors_are_one_line(argv, message, capsys,
                                                   monkeypatch):
    # a step count past the floats, a negative seed, a step that cannot
    # move v and a NaN step, each before any orbit is integrated, with no
    # traceback
    assert message in jacobian_refusal(argv, capsys, monkeypatch)


def test_jacobian_test_reads_no_step_at_zero_duration(capsys):
    # no step is taken, as in integrate_reduced over a zero span
    assert main(["jacobian-test", "--orbits", "1", "--duration", "0",
                 "--step", "0"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_jacobian_check_counts_its_steps(tmp_path):
    # samples is orbits x RK4 steps: 0 where no step is taken, whose pass
    # checks no flow, and 500 at the benchmark's argv
    path = tmp_path / "jac.json"
    for argv, samples in ((["--orbits", "20", "--duration", "0"], 0),
                          (["--orbits", "10", "--duration", "0.5",
                            "--step", "0.01"], 500)):
        assert main(["jacobian-test", *argv, "--report", str(path)]) == 0
        det = json.loads(path.read_text())["checks"][0]
        assert det["name"] == "flow_jacobian_determinant"
        assert det["passed"] and det["samples"] == samples, argv


def test_jacobian_test_refuses_orbits_beyond_memory(capsys, monkeypatch):
    # the two error vectors, 16 bytes an orbit, sized against the physical
    # memory before any orbit is drawn
    import vmcone.config as config_module
    from vmcone import report as report_module
    drawn = []
    monkeypatch.setattr(report_module, "_draw",
                        lambda rng, n: drawn.append(n))
    monkeypatch.setattr(config_module, "physical_memory", lambda: 16 * 9)
    assert main(["jacobian-test", "--orbits", "10"]) == 2
    assert capsys.readouterr().err == (
        "jacobian-test input error: n_orbits: 160 bytes for the two errors "
        "of 10 orbits at 16 bytes an orbit, more than the 144 bytes of "
        "physical memory\n")
    assert drawn == []
    monkeypatch.undo()
    monkeypatch.setattr(config_module, "physical_memory", lambda: 16 * 10)
    assert main(["jacobian-test", "--orbits", "10",
                 "--duration", "0.02"]) == 0


def test_non_finite_numbers_are_written_as_null(tmp_path, capsys,
                                                monkeypatch):
    # a NaN error fails its check, is printed, and is written as null: the
    # file is JSON without NaN or Infinity
    from vmcone import report as report_module
    monkeypatch.setattr(report_module, "flow_jacobian_det",
                        lambda x, *a, **k: (np.full(len(x), np.nan),) * 2)
    path = tmp_path / "jac.json"
    assert main(["jacobian-test", "--orbits", "3", "--duration", "0.02",
                 "--report", str(path)]) == 1
    assert ("[FAIL] flow_jacobian_determinant: value nan (tolerance 1e-05)"
            in capsys.readouterr().out)

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    det = doc["checks"][0]
    assert det["value"] is None and det["passed"] is False
    assert doc["passed"] is False and doc["worst_det_orbit"] == 0
    # in every part of a document, a report's details too
    io_utils.emit_report({"a": [np.nan, -np.inf, 0.5], "b": {"c": np.inf}},
                         path)
    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "a": [None, None, 0.5], "b": {"c": None}}


def test_cli_jacobian_test(tmp_path, capsys):
    code = main(["jacobian-test", "--orbits", "5", "--duration", "0.2",
                 "--report", str(tmp_path / "jac.json")])
    assert code == 0
    report = json.loads((tmp_path / "jac.json").read_text())
    assert report["passed"]
    assert {c["name"] for c in report["checks"]} == {
        "flow_jacobian_determinant", "phase_divergence_closed_form"}
    # the finite-difference step is jacobian_report's, no option
    assert report["h_fd"] == 1e-4
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["jacobian-test", "--h-fd", "1e-4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --h-fd 1e-4" in capsys.readouterr().err


def test_cli_audit_from_history(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", cfg_path,
                 "--output", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    code = main(["audit-constraints", "--from-history", str(tmp_path / "out"),
                 "--v", "1.0", "--nodes", "25",
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
    # a grid that checks no node, too few nodes and a slice outside the
    # history are input errors, never a PASS
    for extra, message in ((["--nodes", "4"], "no node would be checked"),
                           (["--nodes", "2"], "at least 3 nodes"),
                           (["--nodes", "1"], "at least 3 nodes"),
                           (["--nodes", "100000"], "--nodes: 8.00e+16 bytes "
                            "for the 100000^3 input grid of E, B, rho and j, "
                            "more than the "),
                           (["--nodes", "-3"], "--nodes must give at least 3"),
                           (["--v", "50"], "outside recorded history"),
                           (["--v", "nan"], "outside recorded history")):
        code = main(["audit-constraints", "--from-history",
                     str(tmp_path / "out"), "--v", "1.0"] + extra)
        captured = capsys.readouterr()
        assert code == 2, extra
        assert message in captured.err, extra
        assert "overall" not in captured.out, extra
    # the flags are checked before any input is read
    assert main(["audit-constraints", "--from-history", str(tmp_path / "none"),
                 "--nodes", "0"]) == 2
    assert capsys.readouterr().err == ("--nodes must give at least 3 nodes "
                                       "per axis\n")
    # the audit owns its tolerance, 10 h^2 + 1e-8: no --tol, at any value,
    # can pass a grid that tolerance fails
    for tol in ("1", "1e300", "inf", "nan", "-1", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["audit-constraints", "--from-history",
                  str(tmp_path / "none"), "--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: --tol {tol}" in captured.err, tol
        assert "input error" not in captured.err, tol


def test_cli_audit_refuses_a_history_too_coarse_for_the_fit(tmp_path,
                                                             capsys):
    # 4 shells give 5 nodes for the 6 coefficients of the quintic fit: an
    # input error naming both counts, never a minimum-norm fit that passes
    out = str(tmp_path / "out")
    cfg_path = write_config(tmp_path / "cfg.json", grid={"n_shells": 4},
                            time={"dv": 0.02, "v_final": 0.2})
    assert main(["run", "--config", cfg_path, "--output", out]) == 0
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
                            time={"dv": 0.02, "v_final": 0.4})
    assert main(["run", "--config", cfg_path, "--output", out]) == 0
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
    capsys.readouterr()
    # rho shifted by 0.5 breaks div E = rho + j.k: the audit's own
    # tolerance fails it, and no option can set another
    shifted = grid_from_functions(25, 1.0, 0.25, E_fn, B_fn,
                                  lambda x: rho_fn(x) + 0.5, j_fn)
    save_grid(shifted, tmp_path / "shifted.vmgrid")
    assert main(["audit-constraints", "--input",
                 str(tmp_path / "shifted.vmgrid")]) == 1
    assert "[FAIL] constraint_W2" in capsys.readouterr().out
    # the flags that shape an embedding are refused by name: --input audits
    # its grid as saved
    for flag, value in (("--v", "3"), ("--nodes", "2")):
        assert main(["audit-constraints", "--input", str(path), flag,
                     value]) == 2
        captured = capsys.readouterr()
        assert (f"{flag} embeds a history; --input audits its grid as "
                f"saved\n") in captured.err and "overall" not in captured.out
    # the embedding's cube and cut are no options
    for flag in ("--extent", "--r-cut"):
        with pytest.raises(SystemExit) as exc:
            main(["audit-constraints", "--input", str(path), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
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
