import json
import re

from nocbench import ROOT
from nocbench.catalog import END_TO_END, PER_LAYER, WORKLOADS, benchmark_manifest

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_catalog():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == benchmark_manifest()


def test_manifest_is_within_the_contract():
    m = benchmark_manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(m["workloads"]) <= 8 and 1 <= len(m["end_to_end"]) <= 16
    assert 1 <= len(m["per_layer"]) <= 128 and 1 <= m["run_seconds"] <= 60
    names = [x["name"] for x in m["workloads"] + m["end_to_end"] + m["per_layer"]]
    assert len(set(names)) == len(names) and all(NAME.match(n) for n in names)
    for w in m["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for e in m["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"} and 0 < e["bound"] <= 0.25
    for p in m["per_layer"]:
        assert set(p) == {"name", "unit", "better"}
    for x in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(x["unit"]) and x["better"] in ("higher", "lower")
    setup = [e for e in m["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in m["end_to_end"])
    assert len(json.dumps(m)) < 64 * 1024


def test_the_issue_names():
    assert list(WORKLOADS) == [
        "sweep_mesh_wf", "sweep_fbfly_sepif", "dispatch_smallpoints", "offline_figs"]
    assert [n for n, *_ in END_TO_END] == [
        "wall_s", "warm_wall_s", "setup_s", "cpu_s", "peak_rss_mb"]
    assert len(PER_LAYER) == 113
    per_layer = {}
    for name, _, _ in PER_LAYER:
        per_layer[name.split(".")[0]] = per_layer.get(name.split(".")[0], 0) + 1
    assert per_layer == {"cli": 2, "netsim": 53, "core": 9, "hw": 8, "analysis": 5,
                         "verify": 6, "eval": 12, "serve": 9, "obs": 4, "faults": 2,
                         "bench": 3}
