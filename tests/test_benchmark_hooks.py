"""The layer hooks of perfbench/run.py still find and measure what they wrap.

A hook that names a function the program no longer has is skipped without
an error, and a span whose work counter no longer fits the call records
"unmeasured", so a refactor could zero a per-layer benchmark figure
unnoticed.  This test installs the hooks as the benchmark does and drives
one tiny run of every command through them.
"""

import importlib.util
import json
import os
import sys
import types
from collections import Counter
from unittest import mock

import numpy as np
import pytest

import vmcone
import vmcone.cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py loaded as a module with its sibling modules
    importable; the thread variables it pins on import are restored."""
    monkeypatch.syspath_prepend(PERFBENCH)
    with mock.patch.dict(os.environ):
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(PERFBENCH, "run.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve_and_measure(bench, tmp_path, monkeypatch,
                                             capsys):
    tracing = sys.modules["tracing"]
    missing, hooked = [], []
    wrap, span, count = (tracing.Hooks.wrap, tracing.Tracer.span,
                         tracing.Tracer.count)

    def checked_wrap(self, module, attr, make):
        if getattr(module, attr, None) is None:
            missing.append(f"{module.__name__}.{attr}")
        wrap(self, module, attr, make)

    def named_span(self, module, attr, name, work=None):
        hooked.append(name)
        span(self, module, attr, name, work)

    def named_count(self, module, attr, name):
        hooked.append(name)
        count(self, module, attr, name)

    monkeypatch.setattr(tracing.Hooks, "wrap", checked_wrap)
    monkeypatch.setattr(tracing.Tracer, "span", named_span)
    monkeypatch.setattr(tracing.Tracer, "count", named_count)

    capture, tracer = tracing.Capture(), tracing.Tracer()
    bench.install_capture(capture, vmcone)
    bench.install_spans(tracer, vmcone)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(bench.wl.run_config(7.0, 6, 128, 0.1)))
    out, vmgrid = str(tmp_path / "out"), str(tmp_path / "slice.vmgrid")
    commands = {"run": ["run", "--config", str(cfg), "--output", out,
                        "--diagnose"],
                "diagnose": ["diagnose", "--history", out],
                "audit": ["audit-constraints", "--from-history", out,
                          "--nodes", "12"],
                "jacobian": ["jacobian-test", "--orbits", "2",
                             "--duration", "0.02"]}
    try:
        for op, argv in commands.items():
            tracer.op = op   # tags the spans of each command
            assert vmcone.cli.main(argv) in (0, 1), argv
        # the benchmark's own .vmgrid round trip of the embedded slice
        vmcone.io_utils.save_grid(capture.results["embed"], vmgrid)
        vmcone.io_utils.load_grid(vmgrid)
    finally:
        tracer.hooks.restore()
        capture.hooks.restore()

    assert not missing
    assert set(capture.results) == {"run", "load_history", "embed",
                                    "jacobian"}
    fired = {s[0] for s in tracer.spans} | {name for name, _ in tracer.counts}
    assert set(hooked) <= fired, sorted(set(hooked) - fired)
    unmeasured = sorted({s[0] for s in tracer.spans
                         if s[5] and "unmeasured" in s[5]})
    assert not unmeasured
    # 4 RK4 stages a step and one call from phase_divergence_fd, all
    # through the module attribute the benchmark counts
    doc = capture.results["jacobian"]
    n_steps = int(np.ceil(doc["duration"] / doc["step"] - 1e-12))
    assert tracer.counts[("characteristics.char_rhs_cartesian",
                          "jacobian")] == 4 * n_steps + 1
    # the read side calls each layer the benchmark times through its module
    # attribute, as often as its exact counts assume: one embedding and one
    # audit per audit command, one series per shifted functional
    calls = Counter((s[4], s[0]) for s in tracer.spans)
    assert calls["audit", "constraint_audit.embed_symmetric_solution"] == 1
    assert calls["audit", "constraint_audit.audit"] == 1
    assert calls["diagnose", "cone_diagnostics.functional_series"] == 4
    n = len(capture.results["run"].particles_final)
    deposits = [s[5] for s in tracer.spans if s[0] == "radial_field.deposit"]
    assert n == 6**3 and deposits
    # the serial run deposits each half of the particles on its own
    assert all(work in ({"particles": n // 2}, {"particles": n - n // 2})
               for work in deposits)


@pytest.mark.parametrize("name", ["desk_run", "artifact_roundtrip",
                                  "jacobian_orbits"])
def test_seed_0_passes_the_reference_gate(bench, tmp_path, name):
    # one operation of the workload at seed 0, as the benchmark runs it but
    # in tmp_path: the gate finds no failure, and every report value agrees
    # with perfbench/reference.json to its relative tolerance
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh)
    capture = bench.Capture()
    bench.install_capture(capture, vmcone)
    clock = types.SimpleNamespace(split=lambda: None, speeds=[])
    op = bench.wl.Operation(vmcone.cli, vmcone.io_utils, capture, None,
                            str(tmp_path), clock)
    try:
        bench.wl.WORKLOADS[name].run_op(op, bench.wl.seed_inputs(0))
    finally:
        capture.hooks.restore()
    assert op.failures == []
    want = reference["seeds"][name]["0"]
    assert set(op.reports) == set(want)
    for kind, values in want.items():
        assert bench.wl.reference_mismatches(
            bench.wl.report_values(op.reports[kind]), values,
            reference["rel_tol"]) == [], kind
