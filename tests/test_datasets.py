"""Built-in datasets: shapes, round-trips, and strict parsing."""

import json
import time

import pytest

from plantflow import datasets
from plantflow.errors import DataFormatError

# (name, nodes, stage-labelled edges, component RVs, default target)
_SHAPES = [
    ("didactic", 14, 21, 22, 1.0),
    ("pressure-original", 25, 29, 42, 90.0),
    ("pressure-expanded", 44, 55, 80, 90.0),
    ("gas", 57, 102, 87, 0.5),
]


@pytest.mark.parametrize("name,nodes,edges,rvs,target", _SHAPES)
def test_builtin_shapes(name, nodes, edges, rvs, target):
    doc = datasets.builtin(name)
    assert doc.network.num_nodes == nodes
    assert len(doc.network.edges) == edges
    assert len(doc.model.rvs) == rvs
    assert doc.defaults.target_flow == target


def test_builtin_names_match_registry():
    assert set(datasets.BUILTINS) == {name for name, *_ in _SHAPES}
    with pytest.raises(DataFormatError, match="nope"):
        datasets.builtin("nope")


def test_default_failure_probability_is_three_percent():
    for name in datasets.BUILTINS:
        doc = datasets.builtin(name)
        assert all(rv.p_fail == 0.03 for rv in doc.model.rvs)


def test_didactic_station_layout():
    net = datasets.builtin("didactic").network
    assert net.stations == ((1, 2), (5, 7, 9), (10, 12), (14,))
    assert net.node_capacity[14] == 1.0
    assert all(net.node_capacity[s] == 0.5 for s in (1, 2, 5, 7, 9, 10, 12))


def test_didactic_pipes_group_across_direction_and_stage():
    doc = datasets.builtin("didactic")
    pipe_rvs = [rv for rv in doc.model.rvs if rv.rv_id.startswith("p")]
    assert len(pipe_rvs) == 14
    by_id = {rv.rv_id: rv for rv in doc.model.rvs}
    # (4,6) appears with two stage labels and one reverse edge: one pipe
    assert set(by_id["p4_6"].assets) == {"e6", "e7", "e8"}
    # single stage-3 run
    assert by_id["p10_11"].assets == ("e18",)


def test_didactic_every_rv_covers_real_assets():
    doc = datasets.builtin("didactic")
    edge_ids = set(doc.network.edge_index)
    for rv in doc.model.rvs:
        for asset in rv.assets:
            if isinstance(asset, str):
                assert asset in edge_ids
            else:
                assert 1 <= asset <= doc.network.num_nodes


def test_gas_station_tiers():
    net = datasets.builtin("gas").network
    assert net.stations[0] == (1, 2)
    assert len(net.stations[1]) == 25
    assert net.stations[2] == (53, 55)
    assert net.stations[3] == (57,)
    assert net.node_capacity[57] == 1.0
    assert all(net.node_capacity[s] == 0.25 for s in net.stations[1])


def test_gas_component_spot_checks():
    doc = datasets.builtin("gas")
    by_id = {rv.rv_id: rv for rv in doc.model.rvs}
    emap = doc.network.edge_index
    assert by_id["X30"].assets == (57,)
    assert by_id["X29"].assets == (55,)
    # paired directions fail together
    tails_heads = {(doc.network.edges[emap[e]].tail, doc.network.edges[emap[e]].head)
                   for e in by_id["X62"].assets}
    assert tails_heads == {(32, 33), (33, 32)}
    # terminal corridor edge is a lone asset
    assert by_id["X87"].assets == ("e102",)


def test_pressure_expanded_extends_original():
    orig = datasets.builtin("pressure-original")
    expa = datasets.builtin("pressure-expanded")
    orig_edges = {(e.tail, e.head, e.stage) for e in orig.network.edges}
    expa_edges = {(e.tail, e.head, e.stage) for e in expa.network.edges}
    assert orig_edges <= expa_edges
    orig_rvs = {rv.rv_id for rv in orig.model.rvs}
    expa_rvs = {rv.rv_id for rv in expa.model.rvs}
    assert orig_rvs <= expa_rvs


@pytest.mark.parametrize("name", datasets.BUILTINS)
def test_text_round_trip(name):
    doc = datasets.builtin(name)
    back = datasets.parse_text(datasets.to_text(doc))
    assert back.network == doc.network
    assert back.model == doc.model
    assert back.defaults == doc.defaults


def test_file_round_trip(tmp_path):
    doc = datasets.builtin("didactic")
    path = tmp_path / "net.json"
    datasets.save_network(doc, path)
    assert datasets.load_network(path) == doc


def test_parse_rejects_bad_json():
    with pytest.raises(DataFormatError):
        datasets.parse_text("{not json")


def test_parse_rejects_wrong_version():
    doc = json.loads(datasets.to_text(datasets.builtin("didactic")))
    doc["format_version"] = 99
    with pytest.raises(DataFormatError, match="version"):
        datasets.parse_text(json.dumps(doc))


def test_parse_rejects_missing_field():
    doc = json.loads(datasets.to_text(datasets.builtin("didactic")))
    del doc["edges"]
    with pytest.raises(DataFormatError):
        datasets.parse_text(json.dumps(doc))


def test_parse_rejects_dangling_edge_endpoint():
    doc = json.loads(datasets.to_text(datasets.builtin("didactic")))
    doc["edges"][0]["head"] = 99
    with pytest.raises(DataFormatError):
        datasets.parse_text(json.dumps(doc))


def test_parse_rejects_duplicate_edge_id():
    doc = json.loads(datasets.to_text(datasets.builtin("didactic")))
    doc["edges"][1]["id"] = doc["edges"][0]["id"]
    with pytest.raises(DataFormatError):
        datasets.parse_text(json.dumps(doc))


def test_parse_rejects_bad_probability():
    doc = json.loads(datasets.to_text(datasets.builtin("didactic")))
    doc["components"][0]["p_fail"] = 1.5
    with pytest.raises(DataFormatError):
        datasets.parse_text(json.dumps(doc))


@pytest.mark.parametrize("section, field, value", [
    ("nodes", "capacity", float("nan")),
    ("edges", "capacity", float("inf")),
    ("components", "p_fail", float("nan")),
])
def test_parse_rejects_non_finite_numbers(section, field, value):
    doc = json.loads(datasets.to_text(datasets.builtin("didactic")))
    i = next(i for i, item in enumerate(doc[section]) if field in item)
    doc[section][i][field] = value
    with pytest.raises(DataFormatError, match=rf"{section}\[{i}\]\.{field}: .*finite"):
        datasets.parse_text(json.dumps(doc))


def test_parse_rejects_non_finite_target():
    doc = json.loads(datasets.to_text(datasets.builtin("didactic")))
    doc["defaults"]["target_flow"] = float("-inf")
    with pytest.raises(DataFormatError, match=r"defaults\.target_flow"):
        datasets.parse_text(json.dumps(doc))


def _didactic_json() -> dict:
    return json.loads(datasets.to_text(datasets.builtin("didactic")))


def didactic_with_literal(section: str, field: str, literal: str) -> str:
    """The didactic document's text with one field's value spelled as literal."""
    doc = _didactic_json()
    item = doc[section] if section == "defaults" else next(
        item for item in doc[section] if field in item)
    item[field] = "@"
    return json.dumps(doc).replace('"@"', literal)


@pytest.mark.parametrize("section, field", [
    ("edges", "capacity"), ("nodes", "capacity"),
    ("components", "p_fail"), ("defaults", "target_flow"),
])
def test_parse_rejects_integers_past_the_float_range(section, field):
    for sign in ("", "-"):
        text = didactic_with_literal(section, field, sign + "1" + "0" * 400)
        with pytest.raises(DataFormatError, match=rf"{section}(\[\d+\])?\.{field}: expected a "
                           r"finite number, got an integer of 401 digits$"):
            datasets.parse_text(text)


def test_parse_rejects_integers_past_the_int_string_limit():
    # json.loads refuses a literal over Python's 4300-digit limit with a ValueError;
    # a Python without that limit (before 3.10.7) parses it and the float check refuses it
    text = didactic_with_literal("edges", "capacity", "1" * 5000)
    with pytest.raises(DataFormatError, match="not valid JSON|an integer of 5000 digits"):
        datasets.parse_text(text)


# each refusal names the JSON path of the offending field
@pytest.mark.parametrize("path, value, message", [
    pytest.param(("nodes", 0), 5, r"nodes\[0\]: expected an object, got int", id="not-an-object"),
    pytest.param(("edges", 0, "capacity"), "1", r"edges\[0\]\.capacity: expected a number",
                 id="not-a-number"),
    pytest.param(("edges", 0, "tail"), 1.5, r"edges\[0\]\.tail: expected an integer",
                 id="not-an-integer"),
    pytest.param(("edges", 0, "id"), 7, r"edges\[0\]\.id: expected str, got int",
                 id="wrong-json-type"),
    pytest.param(("nodes", 0, "colour"), "red", r"nodes\[0\]: unknown field\(s\) \['colour'\]",
                 id="unknown-field"),
    pytest.param(("nodes", 0, "stage"), 5, r"nodes\[0\]\.stage: 5 outside 1\.\.4",
                 id="stage-out-of-range"),
    pytest.param(("nodes", 0), {"id": 999}, r"nodes\[0\]\.id: 999 outside 1\.\.14",
                 id="node-out-of-range"),
    pytest.param(("components", 0, "assets"), [1.5],
                 r"components\[0\]\.assets\[0\]: expected a node index or edge id", id="asset-type"),
    pytest.param(("defaults", "mode"), "edge-avg", r"defaults\.mode: unknown mode 'edge-avg'",
                 id="unknown-mode"),
])
def test_parse_refusal_names_the_field(path, value, message):
    doc = _didactic_json()
    *parents, last = path
    item = doc
    for key in parents:
        item = item[key]
    item[last] = value
    with pytest.raises(DataFormatError, match=message):
        datasets.parse_text(json.dumps(doc))


@pytest.mark.parametrize("repeat", [{"id": 1, "capacity": 7.0}, {"id": 1, "stage": 1}],
                         ids=["capacity", "station"])
def test_parse_refuses_a_repeated_node_entry(repeat):
    # a later capacity entry silently won, and a repeated station was named a
    # station of "stages 1 and 1"
    doc = _didactic_json()
    assert doc["nodes"][0] == {"id": 1, "stage": 1, "capacity": 0.5}
    doc["nodes"].append(repeat)
    with pytest.raises(DataFormatError, match=r"^nodes\[8\]\.id: node 1 already listed at nodes\[0\]$"):
        datasets.parse_text(json.dumps(doc))


def test_parse_refuses_more_stages_than_node_entries_before_sizing_them():
    # unchecked, the parser built one list per declared stage and reported
    # each empty one: seconds and tens of MB of message for 10**6 stages
    doc = _didactic_json()
    doc["stage_count"] = 10 ** 6
    text = json.dumps(doc)
    start = time.perf_counter()
    with pytest.raises(DataFormatError, match=r"document\.stage_count") as exc:
        datasets.parse_text(text)
    assert time.perf_counter() - start < 1.0
    assert len(str(exc.value)) < 1000
