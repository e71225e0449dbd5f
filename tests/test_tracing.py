"""The traced benchmark wraps package functions by name; they must all exist."""

import importlib.util
from pathlib import Path

import intension
import intension.cli  # noqa: F401 -- the tracer wraps names in the cli module too

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_tracer_installs_and_removes():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    model = intension.model
    original = vars(model.WorldModel)["marginal_table"]
    tracer = spans.Tracer()
    try:
        tracer.install(intension)
        assert vars(model.WorldModel)["marginal_table"] is not original
        world = model.build_independent_world(["a", "b"], [0.5, 0.25])
        assert world.marginal("b") == 0.25
        assert tracer.counts["scan_calls"] == 1
    finally:
        tracer.remove()
    assert vars(model.WorldModel)["marginal_table"] is original
