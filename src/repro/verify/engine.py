"""Bit-parallel symbolic evaluation over :class:`~repro.hw.netlist.Netlist`.

The engine evaluates a logic cone for *every* assignment of its free
variables at once by packing evaluation lanes into Python bigints: lane
``L`` of a value word holds the net's value under the assignment whose
variable ``i`` equals bit ``i`` of the global lane index.  A sweep over
``k`` variables therefore costs one pass over the cone per 2^16-lane
chunk (``ceil(2^k / 2^16)`` passes), which makes exhaustive proofs over
cones of up to :data:`MAX_EXHAUSTIVE_BITS` inputs routine.

Cell semantics are not written here: both evaluators seed the boundary
values and run :func:`repro.hw.simulate.propagate`, the loop the
one-lane :class:`~repro.hw.simulate.NetlistSimulator` runs too, so the
proofs and the behavioural cross-validation tests exercise one
evaluator.

Beyond packed sweeps the module provides two *structural* checkers used
where packed case-splitting would be quadratic-or-worse in the netlist
width: :func:`check_or_cone` proves a net is exactly the OR of an
expected multiset of leaf nets, and :func:`walk_buf_chain` resolves a
net through BUF fanout trees back to its driving source.  Structural
checks are sound for our builders because :mod:`repro.hw.logic` only
ever composes OR trees from {OR2, OR3, OR4} and fanout trees from BUFs.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..hw.cells import CELL_INDEX
from ..hw.netlist import KIND_CONST0, KIND_CONST1, KIND_INPUT, Netlist
from ..hw.simulate import propagate

__all__ = [
    "CHUNK_LOG2",
    "MAX_EXHAUSTIVE_BITS",
    "ConeEvaluator",
    "sweep",
    "decode_lane",
    "first_failing_lane",
    "check_or_cone",
    "or_cone_leaves",
    "walk_buf_chain",
    "packed_eval",
]

_DFF = CELL_INDEX["DFF"]
_BUF = CELL_INDEX["BUF"]
_OR_KINDS = frozenset(CELL_INDEX[n] for n in ("OR2", "OR3", "OR4"))

# Lanes per chunk: variables 0..CHUNK_LOG2-1 vary *within* a chunk,
# higher variables select the chunk.  2^16-bit bigints keep the word
# operations comfortably inside CPython's fast paths.
CHUNK_LOG2 = 16

# Refuse exhaustive sweeps beyond this many free variables (2^22 lanes
# = 64 chunks of 64 KiB words; ~a second per cone).  Callers partition
# or case-split above this -- silently attempting 2^30 lanes would look
# like a hang.
MAX_EXHAUSTIVE_BITS = 22

# Pattern masks for the in-chunk variables, built once per process.
# Variable i's mask has bit L set iff bit i of L is set, i.e. blocks of
# 2^i ones alternating with 2^i zeros.
_LOW_VAR_MASKS: List[int] = []


def _low_var_mask(i: int) -> int:
    while len(_LOW_VAR_MASKS) <= i:
        j = len(_LOW_VAR_MASKS)
        half = 1 << j
        m = ((1 << half) - 1) << half
        width = half * 2
        chunk_bits = 1 << CHUNK_LOG2
        while width < chunk_bits:
            m |= m << width
            width *= 2
        _LOW_VAR_MASKS.append(m)
    return _LOW_VAR_MASKS[i]


def decode_lane(lane: int, num_vars: int) -> List[int]:
    """Variable assignment (list of 0/1, index = variable) for a lane."""
    return [(lane >> i) & 1 for i in range(num_vars)]


def first_failing_lane(diff: int) -> int:
    """Index of the lowest set bit of a nonzero lane-difference word."""
    return (diff & -diff).bit_length() - 1


class ConeEvaluator:
    """Packed evaluator for the cone of ``targets`` cut at ``cut_nets``.

    The free variables are exactly the cone's boundary leaves (cut nets,
    primary inputs, and register Q pins inside the cone), in ascending
    net-id order -- :meth:`var_order` exposes the mapping.  Constant
    nets evaluate to their constant in every lane.

    ``evaluate_all`` returns, for each target, one integer whose lane
    ``L`` is the target's value under assignment ``L`` (variable ``i``
    of the assignment = bit ``i`` of the global lane index).
    """

    def __init__(
        self,
        nl: Netlist,
        targets: Sequence[int],
        cut: Iterable[int] = (),
    ) -> None:
        self.nl = nl
        self.targets = list(targets)
        cone, leaves = nl.support(self.targets, cut)
        self.cone = cone
        self.leaves = leaves
        self.num_vars = len(leaves)
        self._var_index = {net: i for i, net in enumerate(leaves)}
        # Constant nets the cone reads (and constant targets), found
        # once: each chunk seeds them like leaves.
        kinds = nl.kinds
        read = {x for nid in cone for x in nl.fanins[nid]} | set(self.targets)
        self._consts = {
            net: kinds[net] == KIND_CONST1
            for net in read
            if kinds[net] in (KIND_CONST0, KIND_CONST1)
        }
        # Pin leaf nets to fixed constants (packed all-0/all-1) instead
        # of sweeping them; pinned leaves are excluded from the lane
        # index entirely.
        self._pinned: Dict[int, int] = {}

    def var_order(self) -> List[int]:
        """Leaf net ids in variable order (bit i of lane = net [i])."""
        return list(self.leaves)

    def pin(self, pins: Dict[int, int]) -> "ConeEvaluator":
        """Fix some leaves to constants; remaining leaves are resorted
        into a fresh variable order.  Returns ``self`` for chaining."""
        for net, val in pins.items():
            if net not in self._var_index and net not in self._pinned:
                raise ValueError(f"net {net} is not a leaf of this cone")
            self._pinned[net] = 1 if val else 0
        free = [n for n in self.leaves if n not in self._pinned]
        self.num_vars = len(free)
        self._var_index = {net: i for i, net in enumerate(free)}
        return self

    def free_vars(self) -> List[int]:
        return [n for n in self.leaves if n not in self._pinned]

    @property
    def num_lanes(self) -> int:
        return 1 << self.num_vars

    def leaf_word(self, net: int) -> int:
        """Packed value of a boundary leaf over all current lanes.

        For a free leaf this is the pattern word of its variable index
        (bit ``L`` set iff bit ``var_index`` of ``L`` is set -- identical
        to what :meth:`evaluate_all` assigns chunk by chunk); for a
        pinned leaf it is the all-0/all-1 constant.  Callers use these
        words to feed the boundary assignment into a packed oracle.
        """
        total = 1 << self.num_vars
        full = (1 << total) - 1
        pinned = self._pinned.get(net)
        if pinned is not None:
            return full if pinned else 0
        i = self._var_index[net]
        half = 1 << i
        m = ((1 << half) - 1) << half
        width = half * 2
        while width < total:
            m |= m << width
            width *= 2
        return m & full

    def evaluate_all(self) -> Dict[int, int]:
        """Packed values of every target over all 2^num_vars lanes.

        Raises ``ValueError`` when more than :data:`MAX_EXHAUSTIVE_BITS`
        variables remain free (the check sits here rather than in the
        constructor so callers may :meth:`pin` a wide cone down to an
        exhaustible residue first).
        """
        if self.num_vars > MAX_EXHAUSTIVE_BITS:
            raise ValueError(
                f"cone has {self.num_vars} free variables "
                f"(> MAX_EXHAUSTIVE_BITS={MAX_EXHAUSTIVE_BITS}); "
                "partition or case-split instead"
            )
        total = 1 << self.num_vars
        chunk_lanes = 1 << CHUNK_LOG2
        results = {t: 0 for t in self.targets}
        num_chunks = max(1, (total + chunk_lanes - 1) >> CHUNK_LOG2)
        for c in range(num_chunks):
            lanes = min(chunk_lanes, total - (c << CHUNK_LOG2))
            mask = (1 << lanes) - 1
            vals = self._eval_chunk(c, lanes, mask)
            for t in self.targets:
                results[t] |= vals[t] << (c << CHUNK_LOG2)
        return results

    def _leaf_value(self, net: int, chunk: int, lanes: int, mask: int) -> int:
        pinned = self._pinned.get(net)
        if pinned is not None:
            return mask if pinned else 0
        i = self._var_index[net]
        if i < CHUNK_LOG2:
            return _low_var_mask(i) & mask
        return mask if (chunk >> (i - CHUNK_LOG2)) & 1 else 0

    def _eval_chunk(self, chunk: int, lanes: int, mask: int) -> Dict[int, int]:
        vals = {
            net: self._leaf_value(net, chunk, lanes, mask) for net in self.leaves
        }
        for net, one in self._consts.items():
            vals[net] = mask if one else 0
        propagate(self.nl, self.cone, vals, mask)
        return vals


def sweep(
    nl: Netlist,
    targets: Sequence[int],
    cut: Iterable[int] = (),
    pins: Optional[Dict[int, int]] = None,
) -> Tuple[Dict[int, int], List[int], int]:
    """Convenience wrapper: exhaustive packed sweep of a cone.

    Returns ``(values, var_order, num_vars)`` where ``values[net]`` is
    the packed truth table of ``net`` over the free variables listed in
    ``var_order`` (bit ``i`` of a lane index = value of ``var_order[i]``).
    """
    ev = ConeEvaluator(nl, targets, cut)
    if pins:
        ev.pin(pins)
    return ev.evaluate_all(), ev.free_vars(), ev.num_vars


def packed_eval(
    nl: Netlist,
    input_vectors: Dict[int, int],
    num_lanes: int,
    reg_state: Dict[int, int],
    targets: Sequence[int],
) -> Dict[int, int]:
    """Evaluate a whole netlist over *arbitrary* per-lane stimulus.

    ``input_vectors`` maps each primary-input net to a packed word whose
    lane ``L`` is that input's value in test vector ``L``; register Q
    nets take the scalar value from ``reg_state`` in every lane.  This
    is the end-to-end path: lanes are enumerated *legal* stimulus
    vectors rather than a free-variable hypercube, so allocator-level
    equivalence needs one pass per committed cycle regardless of how
    many vectors are checked.

    Returns packed values for ``targets`` (any net ids); all nets are
    evaluated, so targets may include internal nets.
    """
    mask = (1 << num_lanes) - 1
    vals: List[int] = [0] * nl.num_nets
    gates: List[int] = []
    # Every input, constant and register is seeded before any gate
    # runs: a mutated netlist may tie an early gate's fanin to a const
    # net created later.
    for nid, k in enumerate(nl.kinds):
        if k == KIND_INPUT:
            vals[nid] = input_vectors.get(nid, 0) & mask
        elif k == KIND_CONST1:
            vals[nid] = mask
        elif k == _DFF:
            vals[nid] = mask if reg_state.get(nid, 0) else 0
        elif k >= 0:
            gates.append(nid)
    propagate(nl, gates, vals, mask)
    return {t: vals[t] for t in targets}


def walk_buf_chain(nl: Netlist, net: int) -> int:
    """Resolve ``net`` through BUF cells back to its driving source.

    :func:`repro.hw.logic.fanout_tree` replicates high-fanout nets
    through trees of BUFs; structural checks need the original driver.
    BUF is functionally the identity, so this preserves semantics.
    """
    kinds = nl.kinds
    while kinds[net] == _BUF:
        net = nl.fanins[net][0]
    return net


def or_cone_leaves(
    nl: Netlist,
    root: int,
) -> Tuple[List[int], Optional[str]]:
    """Collect the leaves of the OR/BUF cone rooted at ``root``.

    Like :func:`check_or_cone` but with no expected multiset: walks
    down through {OR2, OR3, OR4, BUF} and returns every non-OR/non-BUF
    net reached (with multiplicity, in DFS order).  CONST0 fanins are
    dropped (OR identity); a CONST1 is a structural failure because an
    OR cone containing it is constant-true and the builders never emit
    that.  Returns ``(leaves, None)`` on success or ``([], message)``.
    """
    leaves: List[int] = []
    kinds = nl.kinds
    stack = [root]
    while stack:
        net = stack.pop()
        k = kinds[net]
        if k == KIND_CONST0:
            continue
        if k == KIND_CONST1:
            return [], f"net {net}: CONST1 inside OR cone rooted at {root}"
        if k == _BUF:
            stack.append(nl.fanins[net][0])
            continue
        if k in _OR_KINDS:
            stack.extend(nl.fanins[net])
            continue
        leaves.append(net)
    return leaves, None


def check_or_cone(
    nl: Netlist,
    root: int,
    expected_leaves: Sequence[int],
) -> Optional[str]:
    """Prove ``root`` == OR of exactly the multiset ``expected_leaves``.

    Walks the fanin cone of ``root`` through {OR2, OR3, OR4, BUF}
    cells, stopping at expected leaves; succeeds iff the stopped-at
    leaves are exactly ``expected_leaves`` as a multiset (OR is
    idempotent, so duplicate leaves are semantically harmless, but the
    builders produce each expected term exactly once and we hold them
    to it).  CONST0 fanins are ignored (OR identity); CONST1 or any
    non-OR gate below the root is a structural failure.

    Leaves are matched *before* recursion: an expected leaf may itself
    be an OR gate (e.g. a per-port any-request net that feeds a higher
    OR tree) and must be treated as opaque at this level.

    Returns ``None`` on success, else a human-readable failure message.
    The check is exact for netlists built by :mod:`repro.hw.logic`'s
    ``or_reduce``/``reduce_tree``; a mutated or hand-edited netlist
    fails loudly rather than being mis-certified.
    """
    exp = Counter(expected_leaves)
    found: Counter = Counter()
    kinds = nl.kinds

    stack = [root]
    while stack:
        net = stack.pop()
        if net in exp and found[net] < exp[net]:
            found[net] += 1
            continue
        k = kinds[net]
        if k == KIND_CONST0:
            continue
        if k == KIND_CONST1:
            return f"net {net}: CONST1 inside OR cone rooted at {root}"
        if k == _BUF:
            stack.append(nl.fanins[net][0])
            continue
        if k in _OR_KINDS:
            stack.extend(nl.fanins[net])
            continue
        return (
            f"net {net} (kind {k}) reached inside OR cone rooted at "
            f"{root}; expected only OR/BUF gates above leaves "
            f"{sorted(set(expected_leaves))}"
        )
    missing = exp - found
    if missing:
        return (
            f"OR cone rooted at {root} is missing expected leaves "
            f"{sorted(missing.elements())}"
        )
    return None
