"""Equivalence and property proofs over traced allocator netlists.

Two layers of proof live here.  :func:`check_netlist` takes a netlist
plus the :class:`~repro.hw.trace.BuildTrace` recorded while it was
built and proves, component by component, that the gates compute the
behavioural :mod:`repro.core` semantics:

* every traced arbiter's grant cone is swept exhaustively against the
  packed oracle for **each reachable priority state** (round-robin
  thermometer masks, matrix priority triangles), and its next-state
  logic is proved equal to the behavioural update **from any state**
  (induction step) -- together those extend the per-state equivalence
  to every cycle from reset;
* wavefront blocks are proved by exact structural matching of the
  replicated tile arrays (the tile template *is* the greedy wave
  recurrence, so a full template match is a semantic proof at widths
  no packed sweep can reach), plus packed per-copy sweeps at small
  widths;
* the declarative properties of :mod:`.properties` are evaluated on
  the same packed sweeps, so "holds" means holds on every input in
  every reachable state.

:func:`e2e_check_matrix` is the second layer: reduced-configuration
allocators are compared **end to end** against ``allocate()`` over
every legal stimulus vector (packed one-vector-per-lane), including
multi-cycle lockstep runs for the switch allocators whose register
files the per-component induction has already certified.

A trace records net locations only, never logic, so a corrupted trace
can cause a spurious *failure* but never a spurious pass: every claim
below is re-proved against the gates themselves.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.findings import Finding
from ..analysis.netlists import run_checks
from ..core.speculative import SpeculativeSwitchAllocator
from ..core.switch_allocator import SwitchAllocator
from ..core.vc_allocator import VCAllocator, VCRequest
from ..core.vc_partition import VCPartition
from ..hw.cells import CELL_INDEX
from ..hw.netlist import KIND_CONST0, KIND_CONST1, KIND_INPUT, Netlist
from ..hw.simulate import NetlistSimulator, reset_state
from ..hw.sw_alloc_gates import build_switch_allocator_netlist
from ..hw.trace import (
    ArbiterTrace,
    BuildTrace,
    PreselectTrace,
    TreeTrace,
    WavefrontTrace,
    tracing,
)
from ..hw.vc_alloc_gates import build_vc_allocator_netlist
from .engine import (
    MAX_EXHAUSTIVE_BITS,
    ConeEvaluator,
    check_or_cone,
    decode_lane,
    first_failing_lane,
    or_cone_leaves,
    packed_eval,
    walk_buf_chain,
)
from .oracles import (
    fixed_priority_packed,
    matrix_grants_packed,
    rr_grants_packed,
    rr_mask_states,
    wavefront_grants_packed,
)
from .properties import ARBITER_PROPERTIES, check_property, wavefront_properties

__all__ = [
    "check_netlist",
    "component_cones",
    "component_signature",
    "e2e_check_matrix",
]

_AND2 = CELL_INDEX["AND2"]
_AND3 = CELL_INDEX["AND3"]
_DFF = CELL_INDEX["DFF"]
_INV = CELL_INDEX["INV"]

#: Findings reported per component before truncating: one real defect
#: tends to fail many states/lanes and drowning the report helps nobody.
_MAX_COMPONENT_FINDINGS = 6

#: Reachable matrix states sampled (as priority permutations) when the
#: pair count makes full enumeration infeasible.
_MATRIX_PERM_SAMPLES_SMALL = 24  # n <= 8
_MATRIX_PERM_SAMPLES_LARGE = 12


def _err(rule: str, scope: str, location: str, message: str) -> Finding:
    return Finding(
        rule=rule,
        severity="error",
        scope=scope,
        location=location,
        message=message,
    )


def _req_word(nl: Netlist, ev: ConeEvaluator, net: int, full: int) -> int:
    """Packed word of a request net: constants fold, leaves pattern."""
    k = nl.kinds[net]
    if k == KIND_CONST0:
        return 0
    if k == KIND_CONST1:
        return full
    return ev.leaf_word(net)


def _perm_states(n: int) -> List[List[int]]:
    """Reachable matrix priority states as rank permutations.

    The matrix arbiter's reachable states are exactly the total orders
    ("least recently served" is a queue): register ``(i, j)`` holds
    ``rank[i] < rank[j]``.  All ``n!`` permutations for small ``n``,
    a seeded sample beyond -- the work-conserving property must only
    be asserted on these (cyclic tournament states can deny everyone,
    but no sequence of updates from reset ever produces a cycle).
    """
    if n <= 5:
        return [list(p) for p in itertools.permutations(range(n))]
    rng = random.Random(0)
    count = _MATRIX_PERM_SAMPLES_SMALL if n <= 8 else _MATRIX_PERM_SAMPLES_LARGE
    return [rng.sample(range(n), n) for _ in range(count)]


def _perm_reg_bits(pairs: Sequence[Tuple[int, int]], perm: Sequence[int]) -> List[int]:
    rank = {v: idx for idx, v in enumerate(perm)}
    return [1 if rank[i] < rank[j] else 0 for i, j in pairs]


# ----------------------------------------------------------------------
# Flat arbiters (fixed / round-robin / matrix)
# ----------------------------------------------------------------------
def _grant_cone(
    nl: Netlist,
    a: ArbiterTrace,
    scope: str,
    loc: str,
) -> Tuple[Optional[ConeEvaluator], List[Finding]]:
    """Evaluator for the grant cone cut at the requests, with the leaf
    discipline proved: the cone may read nothing beyond the traced
    requests and priority registers, and must read every register."""
    try:
        ev = ConeEvaluator(nl, a.grant_nets, cut=a.request_nets)
    except Exception as exc:  # malformed/mutated netlist
        return None, [_err("VER-STRUCT", scope, loc, f"grant cone unusable: {exc}")]
    allowed = set(a.request_nets) | set(a.state_regs)
    extra = sorted(set(ev.leaves) - allowed)
    if extra:
        return None, [
            _err(
                "VER-TRACE",
                scope,
                loc,
                f"grant logic reads nets {extra[:8]} outside the traced "
                "requests and priority registers",
            )
        ]
    leafset = set(ev.leaves)
    missing = [r for r in a.state_regs if r not in leafset]
    if missing:
        return None, [
            _err(
                "VER-STRUCT",
                scope,
                loc,
                f"grant logic ignores priority register(s) {missing[:8]}",
            )
        ]
    return ev, []


def _check_fixed(
    nl: Netlist, a: ArbiterTrace, scope: str, loc: str
) -> List[Finding]:
    n = len(a.request_nets)
    ev, findings = _grant_cone(nl, a, scope, loc)
    if ev is None:
        return findings
    if ev.num_vars > MAX_EXHAUSTIVE_BITS:
        return [
            _err(
                "VER-EQUIV",
                scope,
                loc,
                f"{ev.num_vars} distinct request nets exceed the "
                f"exhaustive sweep limit ({MAX_EXHAUSTIVE_BITS})",
            )
        ]
    full = (1 << ev.num_lanes) - 1
    vals = ev.evaluate_all()
    req_words = [_req_word(nl, ev, r, full) for r in a.request_nets]
    want = fixed_priority_packed(req_words, full)
    got = [vals[g] for g in a.grant_nets]
    for i in range(n):
        if got[i] != want[i]:
            lane = first_failing_lane(got[i] ^ want[i])
            findings.append(
                _err(
                    "VER-EQUIV",
                    scope,
                    loc,
                    f"grant[{i}] diverges from behavioural fixed-priority "
                    f"select at lane {lane} "
                    f"(assignment {decode_lane(lane, ev.num_vars)})",
                )
            )
    for prop in ARBITER_PROPERTIES:
        viol = check_property(prop, n, req_words, got, full)
        if viol:
            findings.append(
                _err(
                    "VER-PROP",
                    scope,
                    f"{loc}/{prop.name}",
                    f"property violated at lane {first_failing_lane(viol)} "
                    f"({prop.description}; {prop.paper_ref})",
                )
            )
    return findings


def _ring_cut(
    grant_nets: Sequence[int], enable: Optional[int], reg: int
) -> List[int]:
    """Induction cut of one rotate-on-grant mask bit: the grants, the
    update enable and the bit's own register."""
    cut = list(dict.fromkeys(grant_nets))
    if enable is not None and enable not in cut:
        cut.append(enable)
    return cut + [reg]


def _mask_ring_induction(
    nl: Netlist,
    scope: str,
    loc: str,
    regs: Sequence[int],
    grant_nets: Sequence[int],
    enable: Optional[int],
    and_any_grant: bool,
) -> List[Finding]:
    """Induction step for the rotate-past-the-winner thermometer mask.

    Proves every mask register's next-state function equals
    ``upd ? prefix_or(grants)[i-1] : mask[i]`` for **all** assignments
    of the cut nets (grants, the register, the enable), where ``upd``
    is ``OR(grants) & enable`` for round-robin arbiters
    (``and_any_grant=True``) or the raw enable for the wavefront
    preselect, whose enable is itself the grant OR.  Treating the cut
    nets as free variables proves the identity over a superset of the
    reachable assignments, so combined with the per-state grant
    equivalence it pins the state trajectory from reset.
    """
    findings: List[Finding] = []
    grants = list(dict.fromkeys(grant_nets))
    for i, reg in enumerate(regs):
        d = nl.reg_d.get(reg)
        if d is None:
            findings.append(
                _err("VER-STATE", scope, loc, f"mask register {reg} has no next-state driver")
            )
            continue
        cut = _ring_cut(grant_nets, enable, reg)
        ev = ConeEvaluator(nl, [d], cut=cut)
        extra = sorted(set(ev.leaves) - set(cut))
        if extra:
            findings.append(
                _err(
                    "VER-STATE",
                    scope,
                    loc,
                    f"mask bit {i}: next-state cone reads nets {extra[:8]} "
                    "outside the grants/state/enable cut",
                )
            )
            continue
        if and_any_grant or enable is None:
            required = list(grants)
        else:
            required = list(dict.fromkeys(grant_nets[:i]))
        required.append(reg)
        if enable is not None:
            required.append(enable)
        leafset = set(ev.leaves)
        missing = [x for x in required if x not in leafset]
        if missing:
            findings.append(
                _err(
                    "VER-STATE",
                    scope,
                    loc,
                    f"mask bit {i}: next-state logic does not read required "
                    f"nets {missing[:8]}",
                )
            )
            continue
        if ev.num_vars > MAX_EXHAUSTIVE_BITS:
            findings.append(
                _err(
                    "VER-STATE",
                    scope,
                    loc,
                    f"mask bit {i}: induction cut has {ev.num_vars} free "
                    "variables, beyond the exhaustive limit",
                )
            )
            continue
        full = (1 << ev.num_lanes) - 1
        got = ev.evaluate_all()[d]
        # Grants past index i need not reach cone i when the enable is
        # a separate net (they feed only the enable OR); their words are
        # never consumed on that path, so 0 is a safe stand-in.
        gw = [ev.leaf_word(g) if g in leafset else 0 for g in grant_nets]
        regw = ev.leaf_word(reg)
        enw = ev.leaf_word(enable) if enable is not None else None
        any_g = 0
        for w in gw:
            any_g |= w
        if and_any_grant:
            upd = any_g if enw is None else any_g & enw
        else:
            upd = enw if enw is not None else any_g
        pre = 0
        for w in gw[:i]:
            pre |= w
        exp = (upd & pre) | ((full ^ upd) & regw)
        if got != exp:
            lane = first_failing_lane(got ^ exp)
            findings.append(
                _err(
                    "VER-STATE",
                    scope,
                    loc,
                    f"mask bit {i}: next-state function diverges from the "
                    f"rotate-on-grant update at induction lane {lane} "
                    f"(assignment {decode_lane(lane, ev.num_vars)} over "
                    f"cut nets {ev.free_vars()})",
                )
            )
    return findings


def _check_rr(nl: Netlist, a: ArbiterTrace, scope: str, loc: str) -> List[Finding]:
    n = len(a.request_nets)
    if not a.finished:
        return [
            _err(
                "VER-TRACE",
                scope,
                loc,
                "arbiter was never finished: no priority update was attached",
            )
        ]
    ev, findings = _grant_cone(nl, a, scope, loc)
    if ev is None:
        return findings
    regs = a.state_regs
    for pointer, bits in rr_mask_states(n):
        ev.pin(dict(zip(regs, bits)))
        if ev.num_vars > MAX_EXHAUSTIVE_BITS:
            findings.append(
                _err(
                    "VER-EQUIV",
                    scope,
                    loc,
                    f"{ev.num_vars} distinct request nets exceed the "
                    f"exhaustive sweep limit ({MAX_EXHAUSTIVE_BITS})",
                )
            )
            return findings
        full = (1 << ev.num_lanes) - 1
        vals = ev.evaluate_all()
        req_words = [_req_word(nl, ev, r, full) for r in a.request_nets]
        want = rr_grants_packed(req_words, bits, full)
        got = [vals[g] for g in a.grant_nets]
        for i in range(n):
            if got[i] != want[i]:
                lane = first_failing_lane(got[i] ^ want[i])
                findings.append(
                    _err(
                        "VER-EQUIV",
                        scope,
                        loc,
                        f"grant[{i}] diverges from behavioural round-robin "
                        f"at pointer {pointer}, lane {lane} "
                        f"(assignment {decode_lane(lane, ev.num_vars)})",
                    )
                )
                break  # one witness per state; other states may differ
        for prop in ARBITER_PROPERTIES:
            viol = check_property(prop, n, req_words, got, full)
            if viol:
                findings.append(
                    _err(
                        "VER-PROP",
                        scope,
                        f"{loc}/{prop.name}",
                        f"property violated at pointer {pointer}, lane "
                        f"{first_failing_lane(viol)} ({prop.description})",
                    )
                )
        if len(findings) >= _MAX_COMPONENT_FINDINGS:
            return findings
    findings.extend(
        _mask_ring_induction(
            nl, scope, loc, regs, a.grant_nets, a.update_enable, and_any_grant=True
        )
    )
    return findings


def _matrix_exhaustive(
    nl: Netlist, a: ArbiterTrace, scope: str, loc: str, ev: ConeEvaluator
) -> List[Finding]:
    """Full sweep: all request assignments x all triangle states at once.

    Safe to run over *unreachable* (cyclic) triangle states for the
    equivalence and for grant-implies-request / at-most-one-grant; work
    conservation genuinely fails on cyclic tournaments, so it is only
    asserted on the reachable permutation states afterwards.
    """
    findings: List[Finding] = []
    n = len(a.request_nets)
    regs = a.state_regs
    full = (1 << ev.num_lanes) - 1
    vals = ev.evaluate_all()
    req_words = [_req_word(nl, ev, r, full) for r in a.request_nets]
    beats: Dict[Tuple[int, int], int] = {}
    for (i, j), reg in zip(a.pairs, regs):
        w = ev.leaf_word(reg)
        beats[(i, j)] = w
        beats[(j, i)] = full ^ w
    want = matrix_grants_packed(req_words, beats, full)
    got = [vals[g] for g in a.grant_nets]
    for i in range(n):
        if got[i] != want[i]:
            lane = first_failing_lane(got[i] ^ want[i])
            findings.append(
                _err(
                    "VER-EQUIV",
                    scope,
                    loc,
                    f"grant[{i}] diverges from the behavioural matrix select "
                    f"at lane {lane} (assignment "
                    f"{decode_lane(lane, ev.num_vars)} over {ev.free_vars()})",
                )
            )
            if len(findings) >= _MAX_COMPONENT_FINDINGS:
                return findings
    for prop in ARBITER_PROPERTIES[:2]:  # safe on any antisymmetric state
        viol = check_property(prop, n, req_words, got, full)
        if viol:
            findings.append(
                _err(
                    "VER-PROP",
                    scope,
                    f"{loc}/{prop.name}",
                    f"property violated at lane {first_failing_lane(viol)} "
                    f"({prop.description})",
                )
            )
    # Work conservation only holds on reachable (total-order) states.
    wc = ARBITER_PROPERTIES[2]
    for perm in _perm_states(n):
        ev.pin(dict(zip(regs, _perm_reg_bits(a.pairs, perm))))
        pfull = (1 << ev.num_lanes) - 1
        pvals = ev.evaluate_all()
        preq = [_req_word(nl, ev, r, pfull) for r in a.request_nets]
        pgot = [pvals[g] for g in a.grant_nets]
        viol = check_property(wc, n, preq, pgot, pfull)
        if viol:
            findings.append(
                _err(
                    "VER-PROP",
                    scope,
                    f"{loc}/{wc.name}",
                    f"work conservation violated in reachable priority state "
                    f"{perm} at lane {first_failing_lane(viol)}",
                )
            )
            break
    return findings


def _matrix_structural(
    nl: Netlist, a: ArbiterTrace, scope: str, loc: str
) -> List[Finding]:
    """Template proof for matrix arbiters too wide to sweep.

    The builder's deny tree literally transcribes the oracle formula
    ``gnt[i] = req[i] & ~OR_j(req[j] & beats[j][i])`` with the lower
    triangle derived by a single INV; matching every gate kind and
    fanin against that template is therefore a *complete* equivalence
    proof (no approximation), valid at any width.
    """
    findings: List[Finding] = []
    n = len(a.request_nets)
    kinds = nl.kinds
    fanins = nl.fanins
    reg_of = dict(zip(a.pairs, a.state_regs))
    if len(a.deny_nets) != n or len(a.deny_terms) != n:
        return [
            _err(
                "VER-TRACE",
                scope,
                loc,
                "matrix deny tree was not traced; cannot check structurally",
            )
        ]

    def bad(msg: str) -> None:
        findings.append(_err("VER-STRUCT", scope, loc, msg))

    for i in range(n):
        terms = a.deny_terms[i]
        if sorted(j for j, _, _ in terms) != [j for j in range(n) if j != i]:
            bad(f"deny row {i} does not cover every competing input")
            continue
        term_nets: List[int] = []
        for j, term, beat in terms:
            if j < i:
                if beat != reg_of[(j, i)]:
                    bad(
                        f"deny({j}->{i}): beats net {beat} is not priority "
                        f"register w[{j}][{j}<{i}]"
                    )
                    continue
            else:
                q = reg_of[(i, j)]
                if kinds[beat] != _INV or fanins[beat][0] != q:
                    bad(
                        f"deny({j}->{i}): beats net {beat} is not the "
                        f"inversion of priority register w[{i}][{j}]"
                    )
                    continue
            if kinds[term] != _AND2 or fanins[term] != (a.request_nets[j], beat):
                bad(
                    f"deny({j}->{i}): term {term} is not "
                    f"AND2(request[{j}], beats)"
                )
                continue
            term_nets.append(term)
        deny = a.deny_nets[i]
        if deny is None:
            bad(f"deny row {i} has no OR root")
            continue
        err = check_or_cone(nl, deny, term_nets)
        if err:
            bad(f"deny row {i} OR tree: {err}")
            continue
        g = a.grant_nets[i]
        if (
            kinds[g] != _AND2
            or fanins[g][0] != a.request_nets[i]
            or kinds[fanins[g][1]] != _INV
            or fanins[fanins[g][1]][0] != deny
        ):
            bad(f"grant[{i}] is not AND2(request[{i}], INV(deny))")
        if len(findings) >= _MAX_COMPONENT_FINDINGS:
            return findings
    return findings


def _matrix_oracle_properties(a: ArbiterTrace, scope: str, loc: str) -> List[Finding]:
    """Property sweep for wide matrix arbiters, on the oracle formula.

    The structural proof established grant-cone == oracle formula
    exactly, so property counterexamples transfer 1:1 between the two;
    checking the formula over 2^16 seeded random request lanes per
    sampled reachable state avoids re-walking a 1000+-gate cone per
    state at widths where no exhaustive request sweep exists anyway.
    """
    findings: List[Finding] = []
    n = len(a.request_nets)
    rng = random.Random(0)
    lanes = 1 << 16
    full = (1 << lanes) - 1
    req_words = [rng.getrandbits(lanes) for _ in range(n)]
    for perm in _perm_states(n):
        bits = _perm_reg_bits(a.pairs, perm)
        beats: Dict[Tuple[int, int], int] = {}
        for (i, j), b in zip(a.pairs, bits):
            beats[(i, j)] = full if b else 0
            beats[(j, i)] = 0 if b else full
        gnt = matrix_grants_packed(req_words, beats, full)
        for prop in ARBITER_PROPERTIES:
            viol = check_property(prop, n, req_words, gnt, full)
            if viol:
                findings.append(
                    _err(
                        "VER-PROP",
                        scope,
                        f"{loc}/{prop.name}",
                        f"property violated in reachable priority state "
                        f"{perm} ({prop.description})",
                    )
                )
        if len(findings) >= _MAX_COMPONENT_FINDINGS:
            break
    return findings


def _matrix_cut(a: ArbiterTrace, i: int, j: int, reg: int) -> List[int]:
    """Induction cut of triangle register ``w[i][j]``: the register,
    the two grants it orders and the update enable."""
    cut = list(dict.fromkeys([reg, a.grant_nets[i], a.grant_nets[j]]))
    if a.update_enable is not None:
        cut.append(a.update_enable)
    return cut


def _matrix_induction(
    nl: Netlist, a: ArbiterTrace, scope: str, loc: str
) -> List[Finding]:
    """Induction step for every triangle register:
    ``w[i][j]' = upd ? ((w[i][j] & ~gnt[i]) | gnt[j]) : w[i][j]``."""
    findings: List[Finding] = []
    en = a.update_enable
    for (i, j), reg in zip(a.pairs, a.state_regs):
        d = nl.reg_d.get(reg)
        if d is None:
            findings.append(
                _err("VER-STATE", scope, loc, f"w[{i}][{j}] has no next-state driver")
            )
            continue
        cut = _matrix_cut(a, i, j, reg)
        ev = ConeEvaluator(nl, [d], cut=cut)
        extra = sorted(set(ev.leaves) - set(cut))
        if extra:
            findings.append(
                _err(
                    "VER-STATE",
                    scope,
                    loc,
                    f"w[{i}][{j}]: next-state cone reads nets {extra[:8]} "
                    "outside the grants/state/enable cut",
                )
            )
            continue
        leafset = set(ev.leaves)
        missing = [x for x in cut if x not in leafset]
        if missing:
            findings.append(
                _err(
                    "VER-STATE",
                    scope,
                    loc,
                    f"w[{i}][{j}]: next-state logic does not read required "
                    f"nets {missing[:8]}",
                )
            )
            continue
        full = (1 << ev.num_lanes) - 1
        got = ev.evaluate_all()[d]
        qw = ev.leaf_word(reg)
        giw = ev.leaf_word(a.grant_nets[i])
        gjw = ev.leaf_word(a.grant_nets[j])
        nxt = (qw & (full ^ giw)) | gjw
        if en is not None:
            enw = ev.leaf_word(en)
            exp = (enw & nxt) | ((full ^ enw) & qw)
        else:
            exp = nxt
        if got != exp:
            lane = first_failing_lane(got ^ exp)
            findings.append(
                _err(
                    "VER-STATE",
                    scope,
                    loc,
                    f"w[{i}][{j}]: next-state function diverges from the "
                    f"loser-to-winner update at induction lane {lane}",
                )
            )
            if len(findings) >= _MAX_COMPONENT_FINDINGS:
                return findings
    return findings


def _check_matrix(nl: Netlist, a: ArbiterTrace, scope: str, loc: str) -> List[Finding]:
    n = len(a.request_nets)
    if not a.finished:
        return [
            _err(
                "VER-TRACE",
                scope,
                loc,
                "arbiter was never finished: no priority update was attached",
            )
        ]
    npairs = n * (n - 1) // 2
    if len(a.pairs) != npairs or len(a.state_regs) != npairs:
        return [
            _err(
                "VER-TRACE",
                scope,
                loc,
                f"expected {npairs} triangle registers, trace has "
                f"{len(a.state_regs)}",
            )
        ]
    ev, findings = _grant_cone(nl, a, scope, loc)
    if ev is None:
        return findings
    if ev.num_vars <= MAX_EXHAUSTIVE_BITS:
        findings.extend(_matrix_exhaustive(nl, a, scope, loc, ev))
    else:
        findings.extend(_matrix_structural(nl, a, scope, loc))
        if not findings:
            # Sound only because the structural proof above is complete.
            findings.extend(_matrix_oracle_properties(a, scope, loc))
    findings.extend(_matrix_induction(nl, a, scope, loc))
    return findings


# ----------------------------------------------------------------------
# Tree arbiters
# ----------------------------------------------------------------------
def _check_tree(
    nl: Netlist, trace: BuildTrace, t: TreeTrace, scope: str, loc: str
) -> List[Finding]:
    """Compositional proof of the two-level tree round-robin.

    The leaf and top round-robin instances are proved individually by
    :func:`_check_rr` (they appear in ``trace.arbiters``); here we prove
    the glue: group-any really is the OR of the group's requests, each
    level is wired to the nets the trace claims, and every final grant
    is exactly ``AND2(local, top)``.  Grant⊆request and at-most-one
    then follow compositionally: a final grant needs its group's local
    grant (⊆ its request) and the top grant of that group, and the top
    level grants at most one group while each group grants at most one
    member.
    """
    findings: List[Finding] = []
    kinds = nl.kinds
    fanins = nl.fanins

    def find_rr(req: List[int], gnt: List[int]) -> Optional[ArbiterTrace]:
        for arb in trace.arbiters:
            if (
                arb.kind == "rr"
                and arb.request_nets == req
                and arb.grant_nets == gnt
            ):
                return arb
        return None

    for g, sub in enumerate(t.group_request_nets):
        err = check_or_cone(nl, t.group_any_nets[g], sub)
        if err:
            findings.append(
                _err("VER-STRUCT", scope, loc, f"group {g} any-request OR: {err}")
            )
        if len(sub) == 1:
            if t.local_grant_nets[g] != sub:
                findings.append(
                    _err(
                        "VER-TRACE",
                        scope,
                        loc,
                        f"single-member group {g} grant is not the request "
                        "passthrough",
                    )
                )
        elif find_rr(sub, t.local_grant_nets[g]) is None:
            findings.append(
                _err(
                    "VER-TRACE",
                    scope,
                    loc,
                    f"group {g} local arbiter missing from the trace "
                    "(its equivalence was never proved)",
                )
            )
    if len(t.group_any_nets) > 1 and find_rr(t.group_any_nets, t.top_grant_nets) is None:
        findings.append(
            _err(
                "VER-TRACE",
                scope,
                loc,
                "top-level arbiter missing from the trace",
            )
        )
    pos = 0
    for g, sub in enumerate(t.group_request_nets):
        for k in range(len(sub)):
            gn = t.grant_nets[pos]
            pos += 1
            if kinds[gn] != _AND2 or fanins[gn] != (
                t.local_grant_nets[g][k],
                t.top_grant_nets[g],
            ):
                findings.append(
                    _err(
                        "VER-STRUCT",
                        scope,
                        loc,
                        f"final grant for group {g} member {k} is not "
                        "AND2(local grant, top grant)",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# Wavefront blocks
# ----------------------------------------------------------------------
def _check_token(
    nl: Netlist, out: Optional[int], token_in: Optional[int], gnt: int
) -> bool:
    """Token kill template: ``out = INV(gnt)`` (fresh token) or
    ``AND2(token_in, INV(gnt))``."""
    if out is None:
        return False
    kinds = nl.kinds
    fanins = nl.fanins
    if token_in is None:
        return kinds[out] == _INV and fanins[out][0] == gnt
    if kinds[out] != _AND2 or fanins[out][0] != token_in:
        return False
    ng = fanins[out][1]
    return kinds[ng] == _INV and fanins[ng][0] == gnt


def _check_wavefront(
    nl: Netlist, w: WavefrontTrace, scope: str, loc: str
) -> List[Finding]:
    """Structural proof of the replicated wavefront block.

    The tile template (grant = request AND row-token AND column-token,
    tokens killed downstream of a grant, cells visited in wave order)
    *is* the greedy maximal-matching recurrence of
    :func:`repro.verify.oracles.wavefront_grants_packed`, so an exact
    template match of every tile in every priority copy, plus the
    pointer one-hot mux on the outputs and the enable-gated pointer
    ring induction, is a complete semantic proof at any width.  At
    widths where ``n*n <= MAX_EXHAUSTIVE_BITS`` a packed per-copy sweep
    additionally cross-checks the template against the oracle and
    evaluates the matching properties -- belt and braces for the small
    configurations the mutation harness exercises.
    """
    findings: List[Finding] = []
    n = w.n
    kinds = nl.kinds
    flat = [w.request_nets[i][j] for i in range(n) for j in range(n)]
    live = [r for r in flat if kinds[r] != KIND_CONST0]
    if w.rotate_en is None:
        return [_err("VER-TRACE", scope, loc, "rotate enable was not traced")]
    err = check_or_cone(nl, w.rotate_en, live)
    if err:
        findings.append(
            _err("VER-STRUCT", scope, loc, f"rotate enable OR: {err}")
        )

    # Pointer ring induction: ptr[d]' = en ? ptr[d-1] : ptr[d].
    for d in range(n):
        reg = w.ptr_regs[d]
        dn = nl.reg_d.get(reg)
        if dn is None:
            findings.append(
                _err("VER-STATE", scope, loc, f"pointer bit {d} has no next-state driver")
            )
            continue
        prev = w.ptr_regs[(d - 1) % n]
        cut = [reg, prev, w.rotate_en]
        ev = ConeEvaluator(nl, [dn], cut=cut)
        extra = sorted(set(ev.leaves) - set(cut))
        missing = [x for x in cut if x not in set(ev.leaves)]
        if extra or missing:
            findings.append(
                _err(
                    "VER-STATE",
                    scope,
                    loc,
                    f"pointer bit {d}: next-state cone reads {extra[:8]} "
                    f"and misses {missing[:8]} relative to the "
                    "ring/enable cut",
                )
            )
            continue
        full = (1 << ev.num_lanes) - 1
        got = ev.evaluate_all()[dn]
        enw = ev.leaf_word(w.rotate_en)
        exp = (enw & ev.leaf_word(prev)) | ((full ^ enw) & ev.leaf_word(reg))
        if got != exp:
            findings.append(
                _err(
                    "VER-STATE",
                    scope,
                    loc,
                    f"pointer bit {d}: next-state function is not the "
                    "enable-gated one-hot rotation",
                )
            )

    # Tile arrays, one copy per priority diagonal.
    for d in range(n):
        tiles = w.copies[d] if d < len(w.copies) else []
        cloc = f"{loc}/copy{d}"
        if len(tiles) != n * n:
            findings.append(
                _err(
                    "VER-STRUCT",
                    scope,
                    cloc,
                    f"expected {n * n} tiles, trace has {len(tiles)}",
                )
            )
            continue
        cur_x: Dict[int, int] = {}
        cur_y: Dict[int, int] = {}
        seen = set()
        ok = True
        for t in tiles:
            if t.k != (t.i + t.j - d) % n:
                findings.append(
                    _err(
                        "VER-STRUCT",
                        scope,
                        cloc,
                        f"cell ({t.i},{t.j}) evaluated in wave {t.k}, not "
                        f"its diagonal distance {(t.i + t.j - d) % n}",
                    )
                )
                ok = False
                break
            if walk_buf_chain(nl, t.req_leaf) != walk_buf_chain(
                nl, w.request_nets[t.i][t.j]
            ):
                findings.append(
                    _err(
                        "VER-STRUCT",
                        scope,
                        cloc,
                        f"cell ({t.i},{t.j}) reads a request other than "
                        f"req[{t.i}][{t.j}]",
                    )
                )
                ok = False
                break
            if t.x_in != cur_x.get(t.i) or t.y_in != cur_y.get(t.j):
                findings.append(
                    _err(
                        "VER-STRUCT",
                        scope,
                        cloc,
                        f"cell ({t.i},{t.j}) breaks the row/column "
                        "availability-token chain",
                    )
                )
                ok = False
                break
            g = t.gnt
            if t.x_in is None and t.y_in is None:
                good = g == t.req_leaf
            elif t.x_in is None:
                good = kinds[g] == _AND2 and nl.fanins[g] == (t.req_leaf, t.y_in)
            elif t.y_in is None:
                good = kinds[g] == _AND2 and nl.fanins[g] == (t.req_leaf, t.x_in)
            else:
                good = kinds[g] == _AND3 and nl.fanins[g] == (
                    t.req_leaf,
                    t.x_in,
                    t.y_in,
                )
            if not good:
                findings.append(
                    _err(
                        "VER-STRUCT",
                        scope,
                        cloc,
                        f"cell ({t.i},{t.j}) grant is not request AND "
                        "row-token AND column-token",
                    )
                )
                ok = False
                break
            if t.k < n - 1:
                if not _check_token(nl, t.x_out, t.x_in, g) or not _check_token(
                    nl, t.y_out, t.y_in, g
                ):
                    findings.append(
                        _err(
                            "VER-STRUCT",
                            scope,
                            cloc,
                            f"cell ({t.i},{t.j}) does not kill its "
                            "row/column tokens on grant",
                        )
                    )
                    ok = False
                    break
                cur_x[t.i] = t.x_out
                cur_y[t.j] = t.y_out
            if w.copy_grant_nets[d][t.i][t.j] != g:
                findings.append(
                    _err(
                        "VER-TRACE",
                        scope,
                        cloc,
                        f"copy grant net for cell ({t.i},{t.j}) disagrees "
                        "with the tile trace",
                    )
                )
                ok = False
                break
            seen.add((t.i, t.j))
        if ok and len(seen) != n * n:
            findings.append(
                _err(
                    "VER-STRUCT",
                    scope,
                    cloc,
                    "tile array does not cover every request cell",
                )
            )
        if len(findings) >= _MAX_COMPONENT_FINDINGS:
            return findings

    # Output one-hot mux: grant[i][j] = OR_d(AND2(ptr[d], copy_d grant)).
    for i in range(n):
        for j in range(n):
            leaves, lerr = or_cone_leaves(nl, w.grant_nets[i][j])
            if lerr:
                findings.append(
                    _err("VER-STRUCT", scope, loc, f"output mux ({i},{j}): {lerr}")
                )
                continue
            seen_d = set()
            good = len(leaves) == n
            for term in leaves:
                if kinds[term] != _AND2:
                    good = False
                    break
                sel, data = nl.fanins[term]
                src = walk_buf_chain(nl, sel)
                try:
                    d = w.ptr_regs.index(src)
                except ValueError:
                    good = False
                    break
                if d in seen_d or data != w.copy_grant_nets[d][i][j]:
                    good = False
                    break
                seen_d.add(d)
            if not (good and len(seen_d) == n):
                findings.append(
                    _err(
                        "VER-STRUCT",
                        scope,
                        loc,
                        f"output ({i},{j}) is not the pointer-selected "
                        "one-hot mux of the priority copies",
                    )
                )
            if len(findings) >= _MAX_COMPONENT_FINDINGS:
                return findings

    # Packed cross-check + matching properties at sweepable widths.
    if n * n <= MAX_EXHAUSTIVE_BITS:
        distinct_live = list(dict.fromkeys(live))
        props = wavefront_properties(n)
        for d in range(n):
            targets = [w.copy_grant_nets[d][i][j] for i in range(n) for j in range(n)]
            ev = ConeEvaluator(nl, targets, cut=distinct_live)
            extra = sorted(set(ev.leaves) - set(distinct_live))
            if extra:
                findings.append(
                    _err(
                        "VER-TRACE",
                        scope,
                        f"{loc}/copy{d}",
                        f"copy grants read nets {extra[:8]} beyond requests",
                    )
                )
                continue
            full = (1 << ev.num_lanes) - 1
            vals = ev.evaluate_all()
            reqw = [
                [_req_word(nl, ev, w.request_nets[i][j], full) for j in range(n)]
                for i in range(n)
            ]
            want = wavefront_grants_packed(reqw, d, full)
            env: Dict[str, int] = {}
            bad_cells = []
            for i in range(n):
                for j in range(n):
                    got = vals[w.copy_grant_nets[d][i][j]]
                    env[f"req[{i},{j}]"] = reqw[i][j]
                    env[f"gnt[{i},{j}]"] = got
                    if got != want[i][j]:
                        bad_cells.append((i, j))
            if bad_cells:
                findings.append(
                    _err(
                        "VER-EQUIV",
                        scope,
                        f"{loc}/copy{d}",
                        f"copy grants diverge from the behavioural wave "
                        f"sweep at cells {bad_cells[:6]}",
                    )
                )
            for name, term in props:
                viol = full ^ term.eval(env, full)
                if viol:
                    findings.append(
                        _err(
                            "VER-PROP",
                            scope,
                            f"{loc}/copy{d}/{name}",
                            f"matching property violated at lane "
                            f"{first_failing_lane(viol)}",
                        )
                    )
            if len(findings) >= _MAX_COMPONENT_FINDINGS:
                return findings
    return findings


# ----------------------------------------------------------------------
# Wavefront-core VC preselect
# ----------------------------------------------------------------------
def _check_preselect(
    nl: Netlist, p: PreselectTrace, scope: str, loc: str
) -> List[Finding]:
    """The per-port VC preselect is a round-robin select replicated per
    output port over a shared mask: prove each replica against the
    round-robin oracle for every reachable mask state, prove the final
    VC grants are the OR-of-AND combine with the crossbar row, and
    prove the shared mask's rotate-on-grant induction step."""
    findings: List[Finding] = []
    if p.update_enable is None:
        return [
            _err("VER-TRACE", scope, loc, "preselect mask update was not traced")
        ]
    regs = p.mask_regs
    V = len(p.grants_v)
    for q, (lines, sels) in enumerate(zip(p.line_nets, p.sel_nets)):
        qloc = f"{loc}/q{q}"
        ev = ConeEvaluator(nl, sels, cut=lines)
        allowed = set(lines) | set(regs)
        extra = sorted(set(ev.leaves) - allowed)
        if extra:
            findings.append(
                _err(
                    "VER-TRACE",
                    scope,
                    qloc,
                    f"selection logic reads nets {extra[:8]} outside the "
                    "request lines and mask",
                )
            )
            continue
        missing = [r for r in regs if r not in set(ev.leaves)]
        if missing:
            findings.append(
                _err(
                    "VER-STRUCT",
                    scope,
                    qloc,
                    f"selection logic ignores mask register(s) {missing[:8]}",
                )
            )
            continue
        for pointer, bits in rr_mask_states(V):
            ev.pin(dict(zip(regs, bits)))
            full = (1 << ev.num_lanes) - 1
            vals = ev.evaluate_all()
            reqw = [_req_word(nl, ev, r, full) for r in lines]
            want = rr_grants_packed(reqw, bits, full)
            got = [vals[s] for s in sels]
            for v in range(V):
                if got[v] != want[v]:
                    findings.append(
                        _err(
                            "VER-EQUIV",
                            scope,
                            qloc,
                            f"select[{v}] diverges from behavioural "
                            f"round-robin at pointer {pointer}",
                        )
                    )
                    break
            for prop in ARBITER_PROPERTIES:
                viol = check_property(prop, V, reqw, got, full)
                if viol:
                    findings.append(
                        _err(
                            "VER-PROP",
                            scope,
                            f"{qloc}/{prop.name}",
                            f"property violated at pointer {pointer}, lane "
                            f"{first_failing_lane(viol)}",
                        )
                    )
            if len(findings) >= _MAX_COMPONENT_FINDINGS:
                return findings
    # VC grants: OR over q of AND2(select, crossbar row grant).
    kinds = nl.kinds
    P = len(p.xbar_row)
    for v in range(V):
        leaves, lerr = or_cone_leaves(nl, p.grants_v[v])
        if lerr:
            findings.append(
                _err("VER-STRUCT", scope, loc, f"vc grant {v} OR: {lerr}")
            )
            continue
        seen_q = set()
        good = len(leaves) == P
        for term in leaves:
            if kinds[term] != _AND2:
                good = False
                break
            sel, xb = nl.fanins[term]
            try:
                q = p.xbar_row.index(xb)
            except ValueError:
                good = False
                break
            if q in seen_q or sel != p.sel_nets[q][v]:
                good = False
                break
            seen_q.add(q)
        if not (good and len(seen_q) == P):
            findings.append(
                _err(
                    "VER-STRUCT",
                    scope,
                    loc,
                    f"vc grant {v} is not the select/crossbar combine over "
                    "every output port",
                )
            )
    findings.extend(
        _mask_ring_induction(
            nl, scope, loc, regs, p.grants_v, p.update_enable, and_any_grant=False
        )
    )
    return findings


# ----------------------------------------------------------------------
# Proof cones and component signatures
# ----------------------------------------------------------------------
#: ``(targets, cut)``: the combinational cone of ``targets`` stopped at
#: ``cut`` (see :meth:`~repro.hw.netlist.Netlist.support`).
Cone = Tuple[Sequence[int], Sequence[int]]


def _reg_cones(
    nl: Netlist, regs: Sequence[int], cut_of: Callable[[int, int], List[int]]
) -> List[Cone]:
    """Each register's next-state cone, cut at ``cut_of(k, reg)``; a
    register with no driver keeps its place as an empty cone."""
    out: List[Cone] = []
    for k, reg in enumerate(regs):
        d = nl.reg_d.get(reg)
        out.append(([] if d is None else [d], cut_of(k, reg)))
    return out


def component_cones(nl: Netlist, comp: object) -> List[Cone]:
    """The cones the proof of one traced component sweeps or walks.

    Arbiters: the grant cone cut at the requests, then every priority
    register's next-state cone with its induction cut.  Preselects: each
    output port's select cone cut at its request lines, the VC-grant
    combine cone, then every mask register's induction cone.  Trees:
    each group's any-request OR and the final AND glue.  Wavefronts:
    the copy and output grant cones, the rotate-enable OR and the
    pointer ring.  The mutation sampler draws from exactly these gates,
    and :func:`component_signature` describes exactly these cones.
    """
    if isinstance(comp, ArbiterTrace):
        a = comp
        cones: List[Cone] = [(a.grant_nets, a.request_nets)]
        if a.kind == "matrix":
            return cones + _reg_cones(
                nl, a.state_regs, lambda k, reg: _matrix_cut(a, *a.pairs[k], reg)
            )
        return cones + _reg_cones(
            nl, a.state_regs,
            lambda k, reg: _ring_cut(a.grant_nets, a.update_enable, reg),
        )
    if isinstance(comp, PreselectTrace):
        p = comp
        cones = [(sels, lines) for lines, sels in zip(p.line_nets, p.sel_nets)]
        lines_all = [x for row in p.line_nets for x in row]
        cones.append((p.grants_v, lines_all + list(p.xbar_row)))
        return cones + _reg_cones(
            nl, p.mask_regs,
            lambda k, reg: _ring_cut(p.grants_v, p.update_enable, reg),
        )
    if isinstance(comp, TreeTrace):
        t = comp
        cones = [
            ([t.group_any_nets[g]], sub)
            for g, sub in enumerate(t.group_request_nets)
        ]
        glue_cut = [x for row in t.local_grant_nets for x in row]
        cones.append((t.grant_nets, glue_cut + list(t.top_grant_nets)))
        return cones
    w = comp
    assert isinstance(w, WavefrontTrace)
    flat = [r for row in w.request_nets for r in row]
    targets = [g for copy in w.copy_grant_nets for row in copy for g in row]
    targets += [g for row in w.grant_nets for g in row]
    cones = [(targets, flat)]
    if w.rotate_en is not None:
        cones.append(([w.rotate_en], flat))
        cones += _reg_cones(
            nl, w.ptr_regs,
            lambda d, reg: [reg, w.ptr_regs[(d - 1) % w.n], w.rotate_en],
        )
    return cones


def _record(comp: object) -> Tuple[tuple, List[Optional[int]]]:
    """``(scalars, nets)`` of an arbiter or preselect record: every
    field its proof reads, the nets flattened field by field (the
    scalars carry each field's length, so a position names one field
    and index).  ``loc``-only fields (the port, roles) are left out."""
    if isinstance(comp, ArbiterTrace):
        a = comp
        scalars = (
            a.kind,
            len(a.request_nets),
            len(a.grant_nets),
            len(a.state_regs),
            tuple(a.pairs),
            a.finished,
            len(a.deny_nets),
            tuple(tuple(j for j, _, _ in terms) for terms in a.deny_terms),
        )
        nets = [
            *a.request_nets, *a.grant_nets, *a.state_regs, a.update_enable,
            *a.deny_nets,
            *(x for terms in a.deny_terms for _, term, beat in terms
              for x in (term, beat)),
        ]
        return scalars, nets
    p = comp
    assert isinstance(p, PreselectTrace)
    scalars = (
        "preselect",
        len(p.mask_regs),
        tuple(map(len, p.line_nets)),
        tuple(map(len, p.sel_nets)),
        len(p.xbar_row),
        len(p.grants_v),
    )
    nets = [
        *p.mask_regs, *(x for row in p.line_nets for x in row),
        *(x for row in p.sel_nets for x in row), *p.xbar_row, *p.grants_v,
        p.update_enable,
    ]
    return scalars, nets


def component_signature(nl: Netlist, comp: object) -> tuple:
    """Canonical form of everything the proof of one arbiter or
    preselect reads: two instances with equal signatures pass or fail
    their proofs together.

    Nets are numbered in the order a depth-first walk of
    :func:`component_cones` first meets them (targets, then fanins in
    pin order), so equal signatures mean the cones are the same graph.
    A gate is its cell kind and its fanins' numbers.  A leaf named in
    the trace record, or a constant, is its kind alone: the record,
    rendered with each net replaced by its number, says which field
    and index it fills.  Any other leaf also keeps its net id, so
    instances reading a net outside their record never match.  The
    record's scalars (kind, width, ``pairs``, ``finished``, deny terms)
    lead.  Returns ``(scalars, form)``, ``form`` one flat tuple of ints:
    per cone its target count and targets, then one entry per net --
    ``num, kind, arity, fanins...`` for a gate, ``num, -1, kind`` for a
    named leaf or constant, ``num, -2, kind, net`` for another leaf --
    closed by -3; then the record's nets in field order (-1 for None).
    """
    scalars, nets = _record(comp)
    named = set(nets)
    kinds = nl.kinds
    fanins = nl.fanins
    number: Dict[int, int] = {}
    setdefault = number.setdefault
    out: List[int] = []
    extend = out.extend
    for targets, cut in component_cones(nl, comp):
        cutset = set(cut)
        extend([len(targets)] + [setdefault(t, len(number)) for t in targets])
        seen: set = set()
        stack = list(reversed(targets))
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            kind = kinds[net]
            if net in cutset or kind < 0 or kind == _DFF:
                if net in named or kind < KIND_INPUT:
                    extend((number[net], -1, kind))
                else:
                    extend((number[net], -2, kind, net))
            else:
                fi = fanins[net]
                extend((number[net], kind, len(fi)))
                extend([setdefault(x, len(number)) for x in fi])
                stack.extend(reversed(fi))
        out.append(-3)
    extend([-1 if x is None else setdefault(x, len(number)) for x in nets])
    return scalars, tuple(out)


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def _memoized(
    nl: Netlist,
    comp: object,
    proved: Optional[set],
    prove: Callable[[], List[Finding]],
) -> List[Finding]:
    """``prove()``, skipped when ``proved`` already holds a component of
    the same signature; a signature is added only after a clean proof."""
    if proved is None:
        return prove()
    try:
        sig = component_signature(nl, comp)
    except (IndexError, KeyError, TypeError):
        # A record whose cones cannot even be walked (a net id out of
        # range, a short grant list) is always proved.
        return prove()
    if sig in proved:
        return []
    found = prove()
    if not found:
        proved.add(sig)
    return found


_ARBITER_CHECKS = {"fixed": _check_fixed, "rr": _check_rr, "matrix": _check_matrix}


def check_netlist(
    nl: Netlist,
    trace: BuildTrace,
    scope: str,
    proved: Optional[set] = None,
) -> List[Finding]:
    """Prove every traced component of ``nl`` against its behavioural
    semantics; returns findings (empty means everything proved).

    ``proved`` is a memo of :func:`component_signature` values: an
    arbiter or preselect whose signature is in it was already proved
    clean elsewhere and is skipped, and each clean proof adds its own.
    Only clean results are kept, so every finding is still computed on
    its own instance.  ``None`` (the default) proves every instance.
    """
    findings: List[Finding] = []
    if not (trace.arbiters or trace.trees or trace.wavefronts or trace.preselects):
        return [
            _err(
                "VER-TRACE",
                scope,
                "netlist",
                "no components were traced during this build; nothing to prove",
            )
        ]
    for idx, a in enumerate(trace.arbiters):
        loc = f"arbiter[{idx}]/{a.kind}{len(a.request_nets)}"
        check = _ARBITER_CHECKS.get(a.kind)
        if check is None:
            comp = [_err("VER-TRACE", scope, loc, f"unknown arbiter kind {a.kind!r}")]
        else:
            comp = _memoized(nl, a, proved, partial(check, nl, a, scope, loc))
        findings.extend(comp[:_MAX_COMPONENT_FINDINGS])
    for idx, t in enumerate(trace.trees):
        findings.extend(
            _check_tree(nl, trace, t, scope, f"tree[{idx}]")[:_MAX_COMPONENT_FINDINGS]
        )
    for idx, w in enumerate(trace.wavefronts):
        findings.extend(
            _check_wavefront(nl, w, scope, f"wavefront[{idx}]/n{w.n}")[
                :_MAX_COMPONENT_FINDINGS
            ]
        )
    for p in trace.preselects:
        prove = partial(_check_preselect, nl, p, scope, f"preselect[p{p.port}]")
        findings.extend(
            _memoized(nl, p, proved, prove)[:_MAX_COMPONENT_FINDINGS]
        )
    return findings


# ----------------------------------------------------------------------
# End-to-end allocator equivalence (reduced configurations)
# ----------------------------------------------------------------------
def _input_map(nl: Netlist) -> Dict[str, int]:
    return {name: net for net, name in nl.input_names.items()}


def _output_map(nl: Netlist) -> Dict[str, int]:
    return {name: net for net, name in zip(nl.outputs, nl.output_names)}


def _product_bounded(
    slots: Sequence[Sequence[object]], max_active: Optional[int]
) -> List[Tuple[object, ...]]:
    """Cartesian product over slots, optionally bounded to at most
    ``max_active`` non-idle slots (option 0 of each slot is the idle
    one).  The bound keeps the flattened-butterfly stimulus sets in the
    thousands instead of the hundreds of thousands while still covering
    every pairwise and three-way interaction."""
    if max_active is None:
        return list(itertools.product(*slots))
    out: List[Tuple[object, ...]] = []

    def rec(idx: int, active: int, chosen: List[object]) -> None:
        if idx == len(slots):
            out.append(tuple(chosen))
            return
        for k, opt in enumerate(slots[idx]):
            if k > 0 and active == max_active:
                break
            chosen.append(opt)
            rec(idx + 1, active + (1 if k else 0), chosen)
            chosen.pop()

    rec(0, 0, [])
    return out


def _vc_slots(
    P: int, partition: VCPartition
) -> List[List[Tuple[Tuple[str, ...], Optional[VCRequest]]]]:
    """Per input VC, in flat order: its stimulus options, each the input
    names it raises and the behavioural request.  Option 0 is idle; the
    rest are every non-empty subset of its successor classes aimed at
    every output port."""
    V = partition.num_vcs
    slots: List[List[Tuple[Tuple[str, ...], Optional[VCRequest]]]] = []
    for p in range(P):
        for v in range(V):
            m_in, r_in, _ = partition.vc_fields(v)
            classes = partition.successor_classes(r_in)
            opts: List[Tuple[Tuple[str, ...], Optional[VCRequest]]] = [((), None)]
            for smask in range(1, 1 << len(classes)):
                S = [classes[b] for b in range(len(classes)) if (smask >> b) & 1]
                cands = tuple(
                    u
                    for r_out in sorted(S)
                    for u in partition.class_vcs(m_in, r_out)
                )
                for q in range(P):
                    names = tuple(f"req_p{p}v{v}_c{r}" for r in S) + (
                        f"dest_p{p}v{v}_{q}",
                    )
                    opts.append((names, VCRequest(q, cands)))
            slots.append(opts)
    return slots


def _e2e_vc(
    P: int,
    partition: VCPartition,
    arch: str,
    arbiter: str,
    scope: str,
    max_active: Optional[int] = None,
) -> List[Finding]:
    """Single-cycle-from-reset equivalence of a full VC allocator.

    Every legal request vector (per input VC: idle, or any non-empty
    subset of its successor classes aimed at any output port) becomes
    one packed lane; the netlist is evaluated once over all lanes at
    the reset register state and compared against ``allocate()`` from
    reset per lane.  Single cycle only: the behavioural and gate-level
    models decompose multi-arbiter priority state differently (tree vs
    flat), so their states correspond exactly at reset but are not
    field-by-field identical afterwards -- the per-component induction
    proofs cover the sequential behaviour instead.
    """
    findings: List[Finding] = []
    with tracing() as trace:
        nl = build_vc_allocator_netlist(P, partition, arch, arbiter)
    imap = _input_map(nl)
    omap = _output_map(nl)
    slots = _vc_slots(P, partition)
    combos = _product_bounded(slots, max_active)
    lanes = len(combos)
    words: Dict[int, int] = {}
    expected = {name: 0 for name in omap}
    beh = VCAllocator(P, partition, arch, arbiter)
    # A lane is one option per slot, so validating every option in its
    # slot once (allocate's own check) validates every lane.
    for k in range(max(map(len, slots))):
        beh.allocate([opts[k][1] if k < len(opts) else None for opts in slots])
    beh.check_requests = False
    for lane, combo in enumerate(combos):
        bit = 1 << lane
        beh.reset()
        grants = beh.allocate([opt[1] for opt in combo])
        for names, _ in combo:
            for nm in names:
                net = imap[nm]
                words[net] = words.get(net, 0) | bit
        for i, g in enumerate(grants):
            if g is not None:
                expected[f"gnt_{i}_{g[1]}"] |= bit
    reg_state = reset_state(nl, trace)
    names = sorted(omap)
    got = packed_eval(nl, words, lanes, reg_state, [omap[n] for n in names])
    for nm in names:
        gw = got[omap[nm]]
        ew = expected[nm]
        if gw != ew:
            lane = first_failing_lane(gw ^ ew)
            stim = sorted(n for ns, _ in combos[lane] for n in ns)
            findings.append(
                _err(
                    "VER-EQUIV",
                    scope,
                    nm,
                    f"netlist={(gw >> lane) & 1} behavioural="
                    f"{(ew >> lane) & 1} under stimulus {stim}",
                )
            )
            if len(findings) >= 5:
                break
    return findings


def _e2e_sw(
    P: int, V: int, arch: str, arbiter: str, steps: int, scope: str
) -> List[Finding]:
    """Multi-cycle lockstep equivalence of a non-speculative switch
    allocator.

    Per cycle: a packed *probe* evaluates the netlist over every
    request vector at the current register state and compares against
    ``allocate(..., commit=False)`` per lane (state untouched on both
    sides -- the wavefront's rotate-on-probe is explicitly restored);
    then one shared committed vector steps both models.  Sound because
    here (unlike the VC allocator) the two state spaces correspond
    field by field -- the per-component proofs above certify exactly
    that correspondence.
    """
    findings: List[Finding] = []
    with tracing() as trace:
        nl = build_switch_allocator_netlist(P, V, arch, arbiter, "nonspec")
    imap = _input_map(nl)
    omap = _output_map(nl)
    combos = list(itertools.product([None] + list(range(P)), repeat=P * V))
    lanes = len(combos)
    words: Dict[int, int] = {}
    for lane, combo in enumerate(combos):
        bit = 1 << lane
        for idx, q in enumerate(combo):
            if q is not None:
                p, v = divmod(idx, V)
                net = imap[f"ns_req_p{p}v{v}_q{q}"]
                words[net] = words.get(net, 0) | bit
    beh = SwitchAllocator(P, V, arch, arbiter)
    sim = NetlistSimulator(nl)
    sim.state = reset_state(nl, trace)
    names = sorted(omap)
    wf = beh._wavefront
    for step in range(steps):
        got = packed_eval(nl, words, lanes, sim.state, [omap[n] for n in names])
        expected = {n: 0 for n in names}
        d0 = wf.priority_diagonal if wf is not None else None
        for lane, combo in enumerate(combos):
            bit = 1 << lane
            requests = [
                [combo[p * V + v] for v in range(V)] for p in range(P)
            ]
            grants = beh.allocate(requests, commit=False)
            if wf is not None:
                wf.set_diagonal(d0)
            for p, g in enumerate(grants):
                if g is not None:
                    vv, q = g
                    expected[f"xbar_{p}_{q}"] |= bit
                    expected[f"vcgnt_{p}_{vv}"] |= bit
        for nm in names:
            gw = got[omap[nm]]
            ew = expected[nm]
            if gw != ew:
                lane = first_failing_lane(gw ^ ew)
                findings.append(
                    _err(
                        "VER-EQUIV",
                        scope,
                        f"{nm}@cycle{step}",
                        f"netlist={(gw >> lane) & 1} behavioural="
                        f"{(ew >> lane) & 1} under request vector "
                        f"{combos[lane]}",
                    )
                )
                if len(findings) >= 5:
                    return findings
        commit = [[(p + v + step) % P for v in range(V)] for p in range(P)]
        beh.allocate(commit, commit=True)
        cbits = {
            imap[f"ns_req_p{p}v{v}_q{commit[p][v]}"]
            for p in range(P)
            for v in range(V)
        }
        sim.step([1 if net in cbits else 0 for net in sim.input_nets])
    return findings


def _e2e_spec(
    P: int, V: int, arch: str, scheme: str, scope: str
) -> List[Finding]:
    """Single-cycle-from-reset equivalence of a speculative switch
    allocator: both requests sides enumerated jointly, the combined
    crossbar grants and the per-side VC grants compared bit for bit
    (the netlist's speculative grants are masked by the row/column
    busy filter exactly as the behavioural scheme masks them)."""
    findings: List[Finding] = []
    with tracing() as trace:
        nl = build_switch_allocator_netlist(P, V, arch, "rr", scheme)
    imap = _input_map(nl)
    omap = _output_map(nl)
    opts: List[Optional[Tuple[str, int]]] = [None]
    opts += [("ns", q) for q in range(P)]
    opts += [("sp", q) for q in range(P)]
    combos = list(itertools.product(opts, repeat=P * V))
    lanes = len(combos)
    words: Dict[int, int] = {}
    expected = {name: 0 for name in omap}
    beh = SpeculativeSwitchAllocator(P, V, arch, "rr", scheme)
    for lane, combo in enumerate(combos):
        bit = 1 << lane
        beh.reset()
        ns: List[List[Optional[int]]] = [[None] * V for _ in range(P)]
        sp: List[List[Optional[int]]] = [[None] * V for _ in range(P)]
        for idx, o in enumerate(combo):
            if o is None:
                continue
            tag, q = o
            p, v = divmod(idx, V)
            (ns if tag == "ns" else sp)[p][v] = q
            net = imap[f"{tag}_req_p{p}v{v}_q{q}"]
            words[net] = words.get(net, 0) | bit
        res = beh.allocate(ns, sp)
        for p in range(P):
            if res.nonspec[p] is not None:
                vv, q = res.nonspec[p]
                expected[f"xbar_{p}_{q}"] |= bit
                expected[f"vcgnt_ns_{p}_{vv}"] |= bit
            if res.spec[p] is not None:
                vv, q = res.spec[p]
                expected[f"xbar_{p}_{q}"] |= bit
                expected[f"vcgnt_sp_{p}_{vv}"] |= bit
    reg_state = reset_state(nl, trace)
    names = sorted(omap)
    got = packed_eval(nl, words, lanes, reg_state, [omap[n] for n in names])
    for nm in names:
        gw = got[omap[nm]]
        ew = expected[nm]
        if gw != ew:
            lane = first_failing_lane(gw ^ ew)
            findings.append(
                _err(
                    "VER-EQUIV",
                    scope,
                    nm,
                    f"netlist={(gw >> lane) & 1} behavioural="
                    f"{(ew >> lane) & 1} under stimulus {combos[lane]}",
                )
            )
            if len(findings) >= 5:
                break
    return findings


def e2e_check_matrix(
    progress=None, quick: bool = False, jobs: Optional[int] = None
) -> List[Finding]:
    """Run the end-to-end equivalence configurations, on at most
    ``jobs`` pool workers (default: one per usable CPU).

    Reduced configurations (P=2/3) keep the legal-stimulus spaces
    exhaustible while exercising every architecture/arbiter/speculation
    combination the paper evaluates; the full-size design points are
    covered by the per-component proofs, which are width-generic.
    """
    mesh1 = VCPartition.mesh(1)
    vc_jobs: List[Tuple[int, VCPartition, str, str, str, Optional[int]]] = [
        (2, mesh1, "mesh-c1", arch, arb, None)
        for arch, arb in (
            ("sep_if", "m"),
            ("sep_if", "rr"),
            ("sep_of", "m"),
            ("sep_of", "rr"),
            ("wf", "rr"),
        )
    ]
    sw_jobs: List[Tuple[int, int, str, str, int]] = [
        (2, 2, arch, "rr", 3) for arch in ("sep_if", "sep_of", "wf")
    ]
    spec_jobs: List[Tuple[int, int, str, str]] = [(2, 2, "sep_if", "pessimistic")]
    if not quick:
        mesh2 = VCPartition.mesh(2)
        fb1 = VCPartition.fbfly(1)
        vc_jobs += [
            (2, mesh2, "mesh-c2", "sep_if", "rr", None),
            (2, mesh2, "mesh-c2", "sep_of", "m", None),
            (2, mesh2, "mesh-c2", "wf", "rr", None),
            (2, fb1, "fbfly-c1", "sep_if", "rr", 3),
            (2, fb1, "fbfly-c1", "wf", "rr", 3),
        ]
        sw_jobs += [(3, 2, arch, "rr", 2) for arch in ("sep_if", "sep_of", "wf")]
        sw_jobs += [(2, 2, arch, "m", 3) for arch in ("sep_if", "sep_of")]
        spec_jobs += [
            (2, 2, arch, scheme)
            for arch in ("sep_if", "sep_of", "wf")
            for scheme in ("pessimistic", "conventional")
            if (arch, scheme) != ("sep_if", "pessimistic")
        ]
    checks: List[Tuple[str, Callable[[], List[Finding]]]] = []
    for P, part, plabel, arch, arb, max_active in vc_jobs:
        scope = f"e2e/vc/P{P}/{plabel}/{arch}/{arb}"
        checks.append((scope, partial(
            _e2e_vc, P, part, arch, arb, scope, max_active
        )))
    for P, V, arch, arb, steps in sw_jobs:
        scope = f"e2e/sw/P{P}V{V}/{arch}/{arb}"
        checks.append((scope, partial(_e2e_sw, P, V, arch, arb, steps, scope)))
    for P, V, arch, scheme in spec_jobs:
        scope = f"e2e/spec/P{P}V{V}/{arch}/{scheme}"
        checks.append((scope, partial(_e2e_spec, P, V, arch, scheme, scope)))
    return run_checks(checks, progress, jobs)
