"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plantflow import datasets
from plantflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_maxflow_didactic_table(capsys):
    code, out, _ = run(capsys, "maxflow", "--builtin", "didactic")
    assert code == 0
    assert "u* = 1.000000" in out


def test_maxflow_scenario_json(capsys):
    code, out, _ = run(capsys, "maxflow", "--builtin", "didactic",
                       "--fail", "n9", "--fail", "p4_5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["u_star"] == pytest.approx(0.5)
    assert doc["failed"] == ["n9", "p4_5"]
    assert doc["mode"] == "station-throughput"
    assert len(doc["edge_flow"]) == 21


def test_maxflow_pressure(capsys):
    code, out, _ = run(capsys, "maxflow", "--builtin", "pressure-expanded",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["u_star"] == pytest.approx(145.0)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("argv", [
    ["maxflow", "--builtin", "didactic", "--fail", "n9"],
    ["reliability", "--builtin", "didactic", "--samples", "50"],
    ["faulttree"],
])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    argv = argv + ["--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.txt"
    code, redirected, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and redirected == ""
    assert path.read_bytes() == out.encode()


def test_maxflow_file_source(tmp_path, capsys):
    path = tmp_path / "plant.json"
    datasets.save_network(datasets.builtin("didactic"), path)
    code, out, _ = run(capsys, "maxflow", "--file", str(path),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["u_star"] == pytest.approx(1.0)


def test_maxflow_table_truncates_long_listings(capsys):
    code, out, _ = run(capsys, "maxflow", "--builtin", "gas")
    assert code == 0
    assert "more edges" in out
    code, full_out, _ = run(capsys, "maxflow", "--builtin", "gas", "--full")
    assert code == 0
    assert "more edges" not in full_out
    assert full_out.count("e1") >= 1


def test_maxflow_csv(capsys):
    code, out, _ = run(capsys, "maxflow", "--builtin", "didactic",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "edge_id,tail,head,stage,flow"
    assert len(lines) == 1 + 21


def test_unknown_component_is_input_error(capsys):
    code, _, err = run(capsys, "maxflow", "--builtin", "didactic",
                       "--fail", "bogus")
    assert code == 2
    assert "--fail" in err


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "maxflow", "--file", str(tmp_path / "no.json"))
    assert code == 2
    assert "no.json" in err


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{")
    code, _, err = run(capsys, "maxflow", "--file", str(path))
    assert code == 2


def test_argparse_rejects_source_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maxflow", "--builtin", "didactic", "--file", "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["maxflow"], ["reliability", "--samples", "10"], ["importance", "--samples", "10"]])
def test_non_finite_target_is_input_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--builtin", "didactic", "--target", "nan"])
    assert exc.value.code == 2
    assert "--target" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["reliability", "--workers", "0"], "--workers"),
    (["importance", "--bottom", "-1"], "--bottom"),
])
def test_out_of_range_count_is_input_error(argv, flag, capsys):
    code, _, err = run(capsys, *argv, "--builtin", "didactic", "--samples", "10")
    assert code == 2
    assert flag in err


def test_maxflow_rejects_target(capsys):
    # the target only matters to the sampling commands
    with pytest.raises(SystemExit) as exc:
        main(["maxflow", "--builtin", "didactic", "--target", "5"])
    assert exc.value.code == 2
    assert "--target" in capsys.readouterr().err


def test_mode_defaults_to_the_document(tmp_path, capsys):
    doc = datasets.builtin("didactic")
    path = tmp_path / "plant.json"
    datasets.save_network(datasets.NetworkDocument(
        doc.network, doc.model, datasets.AnalysisDefaults(1.0, "edge-min")), path)
    code, out, _ = run(capsys, "maxflow", "--file", str(path), "--format", "json")
    assert code == 0
    # min-folding chokes the intact didactic plant to 0.5
    assert (json.loads(out)["mode"], json.loads(out)["u_star"]) == ("edge-min", 0.5)
    code, out, _ = run(capsys, "reliability", "--file", str(path), "--samples", "200",
                       "--format", "json")
    assert code == 0
    # the target 1.0 is out of reach under edge-min, so every sample fails
    assert (json.loads(out)["mode"], json.loads(out)["p_fail_hat"]) == ("edge-min", 1.0)
    code, out, _ = run(capsys, "maxflow", "--file", str(path), "--mode",
                       "station-throughput", "--format", "json")
    assert json.loads(out)["u_star"] == 1.0


def test_reliability_json_fields(capsys):
    code, out, _ = run(capsys, "reliability", "--builtin", "didactic",
                       "--samples", "500", "--seed", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for key in ("p_fail_hat", "std_error", "seed", "samples", "failures",
                "target_flow"):
        assert key in doc
    assert doc["seed"] == 7
    assert doc["samples"] == 500
    assert 0.0 <= doc["p_fail_hat"] <= 1.0


def test_reliability_output_is_byte_stable(tmp_path, capsys):
    argv = ["reliability", "--builtin", "didactic", "--samples", "400",
            "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_reliability_small_sample_warns(capsys):
    code, out, err = run(capsys, "reliability", "--builtin", "didactic",
                         "--samples", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p_fail_hat"] in (0.0, 1.0)
    assert doc["std_error"] == 0.0
    assert "warning" in err


def test_reliability_target_override(capsys):
    # target 0 can never fail under a strict less-than predicate
    code, out, _ = run(capsys, "reliability", "--builtin", "didactic",
                       "--samples", "300", "--target", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["p_fail_hat"] == 0.0


def test_importance_json_and_ranking(capsys):
    code, out, _ = run(capsys, "importance", "--builtin", "didactic",
                       "--samples", "400", "--top", "3", "--bottom", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 22
    assert len(doc["top"]) == 3
    assert len(doc["bottom"]) == 2
    assert not doc["truncated"]


def test_importance_full_table_only(capsys):
    code, out, _ = run(capsys, "importance", "--builtin", "didactic",
                       "--samples", "200", "--top", "0", "--bottom", "0")
    assert code == 0
    assert "all components:" in out


def test_importance_csv(capsys):
    code, out, _ = run(capsys, "importance", "--builtin", "didactic",
                       "--samples", "200", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rv_id,birnbaum,std_error"
    assert len(lines) == 1 + 22


def test_faulttree_json(capsys):
    code, out, _ = run(capsys, "faulttree", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failure_probability"] == 0.14353823790755327
    states = [(row["fault_tree"], row["flow_function"])
              for row in doc["contrast"]]
    assert states == [("survive", "survive"), ("survive", "fail")]


def test_faulttree_zero_probability(capsys):
    code, out, _ = run(capsys, "faulttree", "--p-fail", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["failure_probability"] == 0.0


def test_faulttree_bad_probability(capsys):
    code, _, err = run(capsys, "faulttree", "--p-fail", "1.5")
    assert code == 2
    assert "--p-fail" in err


def test_console_script_entry_point():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plantflow.cli", "maxflow",
         "--builtin", "didactic", "--format", "json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["u_star"] == pytest.approx(1.0)
