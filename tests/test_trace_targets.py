"""The traced benchmark (perfbench/spans.py) wraps bwlab functions by name;
a rename or removal there would only show when `perfbench/run.py --trace 1`
fails.  These tests load spans.py without writing to perfbench/ and check
that every target resolves and that one pipeline run still goes through the
layers the spans attribute time to."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bwlab import RunConfig, run_pipeline

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bwlab_trace_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(spans):
    for mod_name, attr, _ in spans.TARGETS:
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner, attr = getattr(owner, cls_name), meth
            assert attr in owner.__dict__, f"{mod_name}.{cls_name}.{attr}"
        assert callable(getattr(owner, attr, None)), f"{mod_name}.{attr}"


def test_traced_pipeline_reaches_each_layer(spans, dim4_config):
    tracer = spans.Tracer()
    mark = tracer.mark()
    tracer.patch()
    try:
        run_pipeline(RunConfig(dim4_config))
    finally:
        tracer.unpatch()
    counts = tracer.summary(mark)["counts"]
    assert counts["bw.iterations"] > 0
    assert counts["bw.resolvent_solves"] > 0
    # the BW loop applies the ladder on the unmixed block; the dense
    # geometric-series kernel is a reference only, never built in a run
    assert counts["controversy.ladder_calls"] == 0
    assert counts["propagators.xj_builds"] == 2
    assert counts["propagators.xj_ssum_builds"] == 1
