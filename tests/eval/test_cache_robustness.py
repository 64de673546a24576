"""Robustness tests for the synthesis cost cache and report rendering."""

import json

from repro.eval.cost import CostCache, CostResult
from repro.eval.store import code_salt
from repro.hw.synthesis import SynthesisReport
from repro.obs.metrics import add_warning_sink, remove_warning_sink


class TestCostCacheRobustness:
    def test_corrupted_file_ignored(self, tmp_path):
        # Not silently: the store quarantines the file and warns once.
        path = tmp_path / "cache.json"
        path.write_text("{not json!!")
        warnings = []
        add_warning_sink(warnings.append)
        try:
            cache = CostCache(str(path))
        finally:
            remove_warning_sink(warnings.append)
        assert [w.code for w in warnings] == ["cache_corrupt"]
        assert (tmp_path / "cache.json.corrupt").read_text() == "{not json!!"
        assert cache.get("anything") is None
        cache.put("k", CostResult("x", "wf", "rr", "sparse", 1.0, 2.0, 3.0, 4))
        assert cache.get("k").delay_ns == 1.0

    def test_missing_directory_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "cache.json"
        cache = CostCache(str(path))
        cache.put("k", CostResult("x", "wf", "rr", "dense", 1.0, 2.0, 3.0, 4))
        assert not path.exists()  # batched, like ResultCache.put
        cache.flush()
        doc = json.loads(path.read_text())
        assert doc["salt"] == code_salt() and doc["schema"] == 1
        assert doc["entries"]["k"]["arch"] == "wf"

    def test_entries_of_other_code_are_dropped(self, tmp_path):
        # The hazard the hand-bumped ``|v3`` key suffix stood for.
        path = tmp_path / "cache.json"
        cache = CostCache(str(path))
        cache.put("k", CostResult("x", "wf", "rr", "dense", 1.0, 2.0, 3.0, 4))
        cache.flush()
        doc = json.loads(path.read_text())
        doc["salt"] = "code-py0.0-000000000000000000000000"
        path.write_text(json.dumps(doc))
        assert CostCache(str(path)).get("k") is None

    def test_entry_that_is_no_cost_result_is_recomputed(self, tmp_path):
        cache = CostCache(str(tmp_path / "cache.json"))
        cache.put_payload("k", {"arch": "wf"})
        assert cache.get("k") is None and len(cache) == 0

    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COST_CACHE", str(tmp_path / "env.json"))
        cache = CostCache()
        assert str(cache.path) == str(tmp_path / "env.json")

    def test_failed_results_round_trip(self, tmp_path):
        path = str(tmp_path / "c.json")
        cache = CostCache(path)
        cache.put("f", CostResult("x", "wf", "rr", "dense", None, None, None, None, True))
        cache.flush()
        reread = CostCache(path).get("f")
        assert reread.failed
        assert reread.delay_ns is None

    def test_curve_property(self):
        r = CostResult("x", "sep_if", "m", "sparse", 1.0, 1.0, 1.0, 1)
        assert r.curve == "sep_if/m"


class TestSynthesisReportRendering:
    def test_as_row(self):
        rep = SynthesisReport("demo", 1.234, 5678.9, 0.42, 321, 12)
        row = rep.as_row()
        assert "demo" in row
        assert "1.234" in row
        assert "321" in row
