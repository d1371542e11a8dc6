"""The benchmark's tracer wraps plantflow entry points by name, from outside
the package (bench/spans.py). A renamed or moved entry point would make its
span vanish from the traced metrics without any error, so every name it
patches must resolve, and the LP and sampling routes must still pass
through them.
"""

import importlib.util
from pathlib import Path

import plantflow
from plantflow import datasets

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    for name, owner, attr, _ in _spans().layer_targets(plantflow):
        assert callable(getattr(owner, attr)), name


def test_lp_route_passes_through_the_traced_names():
    spans = _spans()
    doc = datasets.builtin("didactic")
    tracer = spans.Tracer()
    with tracer.patched(spans.layer_targets(plantflow)):
        plantflow.max_processable_flow(doc.network, doc.model, backend="lp")
    assert {"model.apply_scenario", "flow.build_layered_graph", "flow.build_flow_lp",
            "lp.solve_lp"} <= set(tracer.by_name())


def test_sampling_route_passes_through_the_traced_compile():
    # the estimators build their system through reliability.compile_system,
    # the name the flow.compile_system span wraps
    spans = _spans()
    doc = datasets.builtin("didactic")
    query = plantflow.ReliabilityQuery(target_flow=doc.defaults.target_flow, samples=200)
    for estimate in (plantflow.estimate_failure_probability, plantflow.birnbaum_importance):
        tracer = spans.Tracer()
        with tracer.patched(spans.layer_targets(plantflow)):
            estimate(doc.network, doc.model, query, workers=1)
        traced = tracer.by_name()
        assert len(traced["flow.compile_system"]["dur"]) == 1, estimate.__name__
        assert traced["dinic.max_flow"]["dur"], estimate.__name__
