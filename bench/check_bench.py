"""Tests of the benchmark itself: the tracer's restore and self-time
arithmetic, the BENCHMARK.json contract, and a smoke run of every workload
at a tiny size. The file name keeps it out of the repository's default test
collection; run it with

    python -m pytest -q bench/check_bench.py
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import layers  # noqa: E402
import workloads  # noqa: E402
from lhts import data, oracle  # noqa: E402
from tracer import Span, SpanIndex, Tracer  # noqa: E402

SPEC = run.load_spec()


def _bindings():
    """Every object a layer target wraps, at every place the lhts modules
    bind it."""
    out = {}
    for t in layers.layer_targets():
        original = getattr(t.owner, t.attr)
        for holder in [t.owner, *layers.MODULES]:
            if holder is t.owner or getattr(holder, t.attr, None) is original:
                out[(id(holder), t.attr)] = (holder, original)
    return out


def _unchanged(bindings) -> bool:
    return all(getattr(h, attr) is obj for (_, attr), (h, obj) in bindings.items())


# -- tracer ----------------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        Span("bench.iteration", 0.0, 10.0, -1),
        Span("a", 1.0, 6.0, 0),
        Span("b", 2.0, 4.0, 1),
        Span("c", 4.5, 5.0, 1),
        Span("b", 4.6, 4.8, 3),     # b nested under c under a
        Span("d", 7.0, 9.0, 0),
    ]
    ix = SpanIndex(spans)
    assert ix.covered(0) == pytest.approx(7.0)
    assert ix.covered(1) == pytest.approx(2.5)
    assert ix.covered(1, {"b"}) == pytest.approx(2.2)
    assert ix.self_time({"a"}, "bench.iteration") == pytest.approx(2.5)
    assert ix.self_time({"a"}, "bench.iteration", minus={"b"}) == pytest.approx(2.8)
    # a span inside another counted one is not counted twice
    assert ix.total({"a", "b"}, "bench.iteration") == pytest.approx(5.0)
    assert ix.total({"b"}, "bench.iteration", inside="c") == pytest.approx(0.2)
    assert ix.total({"a"}, "elsewhere") == 0.0


def test_tracer_puts_back_every_wrapped_object():
    before = _bindings()
    # a from-import binding is wrapped too, or data would escape the trace
    assert data.enumerate_joint is oracle.enumerate_joint
    wl = workloads.TINY["tabular-exact"]
    tracer = Tracer(layers.layer_targets(), layers.MODULES)
    with tracer:
        assert data.enumerate_joint is not before[(id(data), "enumerate_joint")][1]
        state = wl.setup(1)
        wl.iterate(state)
    assert _unchanged(before)
    n = len(tracer.spans)
    assert {"oracle.enumerate_joint", "trainer.lhts_step", "data.enumerated_dataset"} <= {
        s.name for s in tracer.spans}

    # an untraced run afterwards in the same process sees the originals:
    # nothing it calls records a span
    wl.iterate(wl.setup(1))
    assert len(tracer.spans) == n


def test_tracer_restores_after_an_exception():
    before = _bindings()
    tracer = Tracer(layers.layer_targets(), layers.MODULES)
    with pytest.raises(oracle.OracleError):
        with tracer:
            oracle.temperature_scale_exact(None, -1.0)
    assert _unchanged(before)
    (span,) = tracer.spans
    assert span.name == "oracle.temperature_scale_exact" and span.end >= span.start


# -- contract --------------------------------------------------------------------

def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.FULL)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("higher", "lower")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])


def test_missing_sources_exit_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "tabular-exact", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


# -- smoke -----------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.TINY))
def test_every_metric_appears_with_its_unit(monkeypatch, name, trace):
    monkeypatch.setattr(run, "SETUP_FILL_S", 0.0)
    result, record = run.run(name, seed=3, seconds=0, trace=bool(trace),
                             workloads=workloads.TINY)
    json.dumps(result), json.dumps(record)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    env = record["environment"]
    assert {"python", "numpy", "blas_threads", "nproc"} <= set(env)
    assert record["seed"] == 3
