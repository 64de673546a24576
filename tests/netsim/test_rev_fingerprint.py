"""``SIMULATOR_REV`` vouches for the numbers the simulator produces.

The rev salts every sweep cache and server shard, so it has one job:
move exactly when the payload of some unchanged config moves.
``tests/data/rev_fingerprint.json`` records the rev and one SHA-256 per
named point below, taken over the canonical JSON (``sort_keys``) of
``run_simulation_worker(cfg.to_dict())``.  Recomputing them gives one
of four verdicts:

1. same rev, every digest equal: pass;
2. same rev, some digest changed: fail -- bump ``SIMULATOR_REV`` and
   re-record, or stale cached latencies pass for current ones;
3. rev bumped, nothing changed: fail -- the bump throws away every
   user's cache for nothing.  The file keeps the previous rev's digests
   (``previous``), so this still fails after a re-record;
4. rev bumped, digests changed: fail until the file is re-recorded at
   the new rev.

Every failure that wants a re-record prints the document to paste into
the file.  Only behaviour these points exercise is guarded: to guard
more, widen the point set (DESIGN.md).  ``previous`` is null at rev 3,
the rev the file was first recorded at.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.netsim.config import SIMULATOR_REV, SimulationConfig
from repro.netsim.simulator import run_simulation_worker

# The bit-identity harness owns the design-point matrix; reuse its
# --quick set so the two can never drift apart.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
import check_bit_identity as cbi  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "data"
FINGERPRINT = DATA / "rev_fingerprint.json"

# Short enough that the set runs twice here (once under a mutation) in
# well under 15 s; the matrix's fault plan still strands a VC and takes
# down ten or more links inside the 190 cycles.
_WINDOWS = dict(warmup_cycles=30, measure_cycles=80, drain_cycles=80)


def _lifecycle_name(cfg: dict) -> str:
    parts = [cfg["topology"], cfg.get("routing", "default"),
             cfg["sw_alloc_arch"], cfg["traffic_pattern"]]
    if cfg.get("faults"):
        parts.append("faults")
    return "lifecycle/" + "/".join(parts) + f"@{cfg['injection_rate']}"


def fingerprint_points() -> Dict[str, dict]:
    """Name -> config dict of every fingerprinted point."""
    named = [
        (f"matrix/{label.replace('/observer', '')}",
         dataclasses.replace(cfg, **_WINDOWS).to_dict())
        for label, cfg, _observed in cbi.config_matrix(quick=True)
    ]
    named += [
        (_lifecycle_name(p["config"]), p["config"])
        for p in json.loads((DATA / "lifecycle_payloads_parent.json").read_text())
    ]
    named.append(("hotspot/mesh@0.15", SimulationConfig(
        traffic_pattern="hotspot", injection_rate=0.15, **_WINDOWS
    ).to_dict()))
    return dict(named)


POINTS = fingerprint_points()


def fingerprint(points: Dict[str, dict]) -> Dict[str, str]:
    return {
        name: hashlib.sha256(
            json.dumps(run_simulation_worker(cfg), sort_keys=True).encode()
        ).hexdigest()
        for name, cfg in points.items()
    }


def document(rev: int, digests: Dict[str, str], previous=None) -> dict:
    return {"simulator_rev": rev, "points": digests, "previous": previous}


def _changed(old: Dict[str, str], new: Dict[str, str]):
    return sorted(n for n in old.keys() & new.keys() if old[n] != new[n])


def _rerecord(why: str, doc: dict) -> str:
    return (
        f"{why}\nRe-record: replace tests/data/{FINGERPRINT.name} with\n"
        + json.dumps(doc, indent=2, sort_keys=True)
    )


def verdict(recorded: dict, rev: int, digests: Dict[str, str]) -> Optional[str]:
    """None when ``recorded`` vouches for ``rev`` producing ``digests``;
    else why not."""
    old_rev, old = recorded["simulator_rev"], recorded["points"]
    changed = _changed(old, digests)
    bumped_for_nothing = (
        "no fingerprinted point changed, so the bump invalidates every "
        "sweep cache and server shard for nothing; revert SIMULATOR_REV "
        "to {}"
    )
    if rev != old_rev:
        if not changed:  # 3
            return (f"SIMULATOR_REV went {old_rev} -> {rev} but "
                    + bumped_for_nothing.format(old_rev))
        return _rerecord(  # 4
            f"SIMULATOR_REV went {old_rev} -> {rev} and {len(changed)} "
            f"point(s) changed: {', '.join(changed)}",
            document(rev, digests, document(old_rev, old)),
        )
    if changed:  # 2
        return _rerecord(
            f"SIMULATOR_REV is still {rev} but {len(changed)} point(s) "
            f"changed: {', '.join(changed)}; bump `SIMULATOR_REV` and "
            "re-record (stale cached results would pass for current ones)",
            document(rev + 1, digests, document(rev, old)),
        )
    previous = recorded.get("previous")
    if previous and not _changed(previous["points"], digests):  # 3
        return (f"SIMULATOR_REV went {previous['simulator_rev']} -> {rev} "
                "but " + bumped_for_nothing.format(previous["simulator_rev"]))
    if digests.keys() != old.keys():
        return _rerecord(
            f"the point set changed (added: {sorted(digests.keys() - old)}, "
            f"removed: {sorted(old.keys() - digests)}); SIMULATOR_REV "
            "stays, re-record",
            document(rev, digests, previous),
        )
    return None  # 1


@pytest.fixture(scope="module")
def recomputed():
    return fingerprint(POINTS)


def test_simulator_rev_matches_the_recorded_fingerprint(recomputed):
    problem = verdict(json.loads(FINGERPRINT.read_text()), SIMULATOR_REV, recomputed)
    assert problem is None, problem


def test_point_set_covers_the_matrix_the_lifecycle_pins_and_hotspot():
    assert len(POINTS) == 22
    assert len({json.dumps(cfg, sort_keys=True) for cfg in POINTS.values()}) == 22
    assert sum(name.startswith("matrix/") for name in POINTS) == 15
    assert sum(name.startswith("lifecycle/") for name in POINTS) == 6
    assert sum(cfg.get("faults") is not None for cfg in POINTS.values()) == 10


# ---------------------------------------------------------------------------
# The verdicts on a synthetic recorded document
# ---------------------------------------------------------------------------

DIGESTS = {"a": "1" * 64, "b": "2" * 64}
MOVED = {"a": "1" * 64, "b": "3" * 64}
RECORDED = document(3, DIGESTS)


def pasted(message: str) -> dict:
    return json.loads(message[message.index("\n{") :])


def test_verdict_1_same_rev_same_digests_passes():
    assert verdict(RECORDED, 3, DIGESTS) is None


def test_verdict_2_same_rev_changed_digest_names_the_point():
    message = verdict(RECORDED, 3, MOVED)
    assert "1 point(s) changed: b;" in message
    assert "bump `SIMULATOR_REV` and re-record" in message
    # The pasted document is right once the rev is bumped.
    assert verdict(pasted(message), 4, MOVED) is None
    assert verdict(pasted(message), 3, MOVED) is not None


def test_verdict_3_bump_without_a_change_fails_even_after_a_rerecord():
    message = verdict(RECORDED, 4, DIGESTS)
    assert "for nothing" in message and "revert SIMULATOR_REV to 3" in message
    rerecorded = document(4, DIGESTS, RECORDED)
    message = verdict(rerecorded, 4, DIGESTS)
    assert "for nothing" in message and "revert SIMULATOR_REV to 3" in message


def test_verdict_4_bump_with_a_change_fails_until_rerecorded():
    message = verdict(RECORDED, 4, MOVED)
    assert "3 -> 4" in message and "changed: b" in message
    assert pasted(message) == document(4, MOVED, RECORDED)
    assert verdict(pasted(message), 4, MOVED) is None


def test_a_widened_point_set_needs_a_rerecord_not_a_bump():
    widened = dict(DIGESTS, c="4" * 64)
    message = verdict(RECORDED, 3, widened)
    assert "added: ['c']" in message
    assert verdict(pasted(message), 3, widened) is None


# ---------------------------------------------------------------------------
# A behaviour change no path list would have flagged
# ---------------------------------------------------------------------------


def test_a_plan_with_one_event_fewer_moves_exactly_the_faulted_points(
    monkeypatch, recomputed
):
    from repro.faults import state

    real = state.FaultState

    def one_event_fewer(link_faults, stuck_vcs, credit_faults):
        kinds = [list(link_faults), list(stuck_vcs), list(credit_faults)]
        next(kind for kind in kinds if kind).pop()
        return real(*kinds)

    monkeypatch.setattr(state, "FaultState", one_event_fewer)
    mutated = fingerprint(POINTS)
    faulted = {n for n, cfg in POINTS.items() if cfg.get("faults")}
    assert _changed(recomputed, mutated) == sorted(faulted)
    recorded = json.loads(FINGERPRINT.read_text())
    assert "bump `SIMULATOR_REV`" in verdict(recorded, SIMULATOR_REV, mutated)
