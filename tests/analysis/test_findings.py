"""Tests for findings, the baseline suppression file, and report formats."""

import json

import pytest

from repro.analysis.findings import (
    Baseline,
    Finding,
    findings_to_json,
    format_findings,
)


def _f(rule="DRC-FLOATING", severity="warning", scope="nl", location="net 1 (INV)"):
    return Finding(rule, severity, scope, location, "msg")


class TestFinding:
    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            _f(severity="fatal")

    def test_key_is_suppression_triple(self):
        f = _f()
        assert f.key == ("DRC-FLOATING", "nl", "net 1 (INV)")

    def test_round_trip(self):
        f = _f()
        assert Finding.from_dict(f.to_dict()) == f

    def test_render_contains_all_parts(self):
        text = _f().render()
        for part in ("warning", "DRC-FLOATING", "nl", "net 1 (INV)", "msg"):
            assert part in text


class TestBaseline:
    def test_exact_match_suppresses(self):
        b = Baseline([{"rule": "DRC-FLOATING", "scope": "nl",
                       "location": "net 1 (INV)"}])
        kept, dropped = b.partition([_f()])
        assert kept == [] and len(dropped) == 1

    def test_wildcards_cover_a_family(self):
        b = Baseline([{"rule": "DRC-CONST-FOLD", "scope": "vc_wf_*",
                       "location": "*"}])
        hit = _f("DRC-CONST-FOLD", "info", "vc_wf_rr_P10", "net 9 (AND2)")
        miss = _f("DRC-CONST-FOLD", "info", "vc_sep_if_P10", "net 9 (AND2)")
        kept, dropped = b.partition([hit, miss])
        assert dropped == [hit] and kept == [miss]

    def test_rule_is_never_implicitly_wild(self):
        b = Baseline([{"rule": "DRC-DEAD"}])  # scope/location default to *
        kept, dropped = b.partition([_f("DRC-FLOATING")])
        assert kept and not dropped

    def test_missing_rule_key_rejected(self):
        with pytest.raises(ValueError):
            Baseline([{"scope": "*"}])

    def test_unused_entries_reported_as_stale(self):
        b = Baseline([
            {"rule": "DRC-FLOATING", "scope": "nl", "location": "*"},
            {"rule": "DRC-DEAD", "scope": "never-matches", "location": "*"},
        ])
        b.partition([_f()])
        stale = b.unused_entries()
        assert len(stale) == 1 and stale[0]["rule"] == "DRC-DEAD"

    def test_stale_is_judged_only_for_rules_a_stage_could_produce(self):
        b = Baseline([{"rule": r} for r in
                      ("DRC-DEAD", "DRC-*", "VER-*", "*", "S?C-X", "[DS]RC-Y")])
        b.partition([])

        def stale(*prefixes):
            return [e["rule"] for e in b.unused_entries(prefixes)]

        assert stale("SRC-") == ["*", "S?C-X", "[DS]RC-Y"]
        assert stale("DRC-") == ["DRC-DEAD", "DRC-*", "*", "[DS]RC-Y"]
        assert stale() == []
        assert len(b.unused_entries()) == 6  # no prefix given: all of them

    def test_load_dump_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        b = Baseline([{"rule": "DRC-DEAD", "scope": "s", "location": "l",
                       "reason": "why"}])
        b.dump(path)
        loaded = Baseline.load(path)
        assert loaded.entries == b.entries

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "suppressions": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)

    def test_partition_sorts_most_severe_first(self):
        infos = [_f("DRC-CONST-FOLD", "info")]
        errors = [_f("DRC-COMB-LOOP", "error")]
        kept, _ = Baseline().partition(infos + errors)
        assert [f.severity for f in kept] == ["error", "info"]


class TestReports:
    def test_format_counts_by_severity(self):
        text = format_findings([_f(), _f("DRC-COMB-LOOP", "error")])
        assert "2 finding(s)" in text
        assert "1 error(s)" in text and "1 warning(s)" in text

    def test_format_mentions_suppressed_count(self):
        assert "3 baseline-suppressed" in format_findings([], suppressed=3)

    def test_json_report_is_stable_and_complete(self):
        payload = json.loads(
            findings_to_json([_f()], suppressed=[_f("DRC-DEAD")],
                             meta={"netlists": 6})
        )
        assert payload["version"] == 1
        assert payload["summary"]["total"] == 1
        assert payload["summary"]["suppressed"] == 1
        assert payload["summary"]["warning"] == 1
        assert payload["findings"][0]["rule"] == "DRC-FLOATING"
        assert payload["suppressed"][0]["rule"] == "DRC-DEAD"
        assert payload["meta"] == {"netlists": 6}
