"""Property-based tests (hypothesis) on core allocation invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IterativeSLIPAllocator,
    MaximumSizeAllocator,
    SeparableInputFirstAllocator,
    SeparableOutputFirstAllocator,
    SwitchAllocator,
    VCAllocator,
    VCPartition,
    VCRequest,
    WavefrontAllocator,
    is_matching,
    is_maximal_matching,
    matching_size,
    maximum_matching_size,
)
from repro.core.arbiters import MatrixArbiter, RoundRobinArbiter


@st.composite
def request_matrices(draw, max_dim=8):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    bits = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    return np.array(bits, dtype=bool).reshape(m, n)


@st.composite
def request_matrix_streams(draw, dim=5, max_len=6):
    length = draw(st.integers(1, max_len))
    mats = []
    for _ in range(length):
        bits = draw(st.lists(st.booleans(), min_size=dim * dim, max_size=dim * dim))
        mats.append(np.array(bits, dtype=bool).reshape(dim, dim))
    return mats


ALLOCATOR_FACTORIES = [
    lambda m, n: SeparableInputFirstAllocator(m, n),
    lambda m, n: SeparableInputFirstAllocator(m, n, arbiter_factory=MatrixArbiter),
    lambda m, n: SeparableOutputFirstAllocator(m, n),
    lambda m, n: WavefrontAllocator(m, n),
    lambda m, n: MaximumSizeAllocator(m, n),
    lambda m, n: IterativeSLIPAllocator(m, n, iterations=2),
]


@given(req=request_matrices())
@settings(max_examples=150, deadline=None)
def test_all_allocators_return_matchings(req):
    m, n = req.shape
    for factory in ALLOCATOR_FACTORIES:
        alloc = factory(m, n)
        gnt = alloc.allocate(req)
        assert is_matching(req, gnt)


@given(req=request_matrices())
@settings(max_examples=150, deadline=None)
def test_wavefront_maximal(req):
    m, n = req.shape
    gnt = WavefrontAllocator(m, n).allocate(req)
    assert is_maximal_matching(req, gnt)


@given(req=request_matrices())
@settings(max_examples=150, deadline=None)
def test_maxsize_upper_bounds_everything(req):
    m, n = req.shape
    upper = maximum_matching_size(req)
    for factory in ALLOCATOR_FACTORIES:
        assert matching_size(factory(m, n).allocate(req)) <= upper


@given(req=request_matrices(max_dim=6))
@settings(max_examples=100, deadline=None)
def test_maximal_at_least_half_of_maximum(req):
    # Any maximal matching is a 2-approximation of the maximum.
    m, n = req.shape
    gnt = WavefrontAllocator(m, n).allocate(req)
    assert 2 * matching_size(gnt) >= maximum_matching_size(req)


@given(stream=request_matrix_streams())
@settings(max_examples=60, deadline=None)
def test_allocators_deterministic_after_reset(stream):
    for factory in ALLOCATOR_FACTORIES:
        alloc = factory(5, 5)
        first = [alloc.allocate(r).copy() for r in stream]
        alloc.reset()
        second = [alloc.allocate(r).copy() for r in stream]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def _state(obj):
    """An allocator's priority state (arbiters, diagonal, staged
    updates) as nested plain data."""
    if isinstance(obj, (list, tuple)):
        return [_state(x) for x in obj]
    if isinstance(obj, dict):
        return {_state(k): _state(v) for k, v in obj.items()}
    # Arbiters are slotted: read every slot along the MRO as well as
    # any instance dict, or two objects would compare by identity.
    slots = [
        name
        for cls in type(obj).__mro__
        for name in cls.__dict__.get("__slots__", ())
        if hasattr(obj, name)
    ]
    if slots or hasattr(obj, "__dict__"):
        attrs = dict(getattr(obj, "__dict__", {}))
        attrs.update((name, getattr(obj, name)) for name in slots)
        return type(obj).__name__, _state(attrs)
    return obj


def test_state_sees_a_round_robin_pointer():
    # Guard for the snapshot above: two allocators that differ in one
    # slotted arbiter's pointer must not look the same.
    a, b = SeparableInputFirstAllocator(3, 3), SeparableInputFirstAllocator(3, 3)
    assert _state(a) == _state(b)
    b._row_arbs[0].advance(0)
    assert _state(a) != _state(b)


@given(stream=request_matrix_streams(), factory=st.sampled_from(ALLOCATOR_FACTORIES))
@settings(max_examples=80, deadline=None)
def test_list_and_ndarray_requests_are_the_same_input(stream, factory):
    # An allocator takes any rows of truthy values: a caller holding
    # an ndarray gets exactly what a caller holding lists gets.
    from_lists, from_arrays = factory(5, 5), factory(5, 5)
    for req in stream:
        grants = from_lists.allocate(req.tolist())
        assert grants == from_arrays.allocate(req)
        assert all(type(g) is bool for row in grants for g in row)
        assert _state(from_lists) == _state(from_arrays)


@given(
    reqs=st.lists(st.booleans(), min_size=6, max_size=6),
    rounds=st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_round_robin_serves_every_persistent_requester(reqs, rounds):
    if not any(reqs):
        return
    arb = RoundRobinArbiter(6)
    persistent = [i for i, r in enumerate(reqs) if r]
    served = set()
    for _ in range(6 * rounds):
        w = arb.arbitrate(reqs)
        served.add(w)
    assert served == set(persistent)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_matrix_arbiter_total_order(data):
    n = data.draw(st.integers(2, 6))
    arb = MatrixArbiter(n)
    for _ in range(data.draw(st.integers(0, 10))):
        reqs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        arb.arbitrate(reqs)
    for i in range(n):
        for j in range(i + 1, n):
            assert arb.beats(i, j) != arb.beats(j, i)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_switch_allocator_grants_valid(data):
    P = data.draw(st.integers(2, 6))
    V = data.draw(st.integers(1, 4))
    arch = data.draw(st.sampled_from(["sep_if", "sep_of", "wf"]))
    alloc = SwitchAllocator(P, V, arch=arch)
    for _ in range(data.draw(st.integers(1, 5))):
        reqs = [
            [
                data.draw(st.one_of(st.none(), st.integers(0, P - 1)))
                for _ in range(V)
            ]
            for _ in range(P)
        ]
        grants = alloc.allocate(reqs)
        used = set()
        for p, g in enumerate(grants):
            if g is None:
                continue
            vc, q = g
            assert reqs[p][vc] == q
            assert q not in used
            used.add(q)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_vc_allocator_grants_valid(data):
    C = data.draw(st.sampled_from([1, 2]))
    part = VCPartition.mesh(C)
    P = 5
    arch = data.draw(st.sampled_from(["sep_if", "sep_of", "wf"]))
    alloc = VCAllocator(P, part, arch=arch)
    V = part.num_vcs
    reqs = []
    for p in range(P):
        for v in range(V):
            if data.draw(st.booleans()):
                port = data.draw(st.integers(0, P - 1))
                reqs.append(VCRequest(port, tuple(part.candidate_vcs(v))))
            else:
                reqs.append(None)
    grants = alloc.allocate(reqs)
    used = set()
    for i, g in enumerate(grants):
        if g is None:
            continue
        req = reqs[i]
        assert req is not None
        port, vc = g
        assert port == req.output_port
        assert vc in req.candidate_vcs
        assert (port, vc) not in used
        used.add((port, vc))


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_vc_partition_roundtrip(data):
    M = data.draw(st.integers(1, 3))
    R = data.draw(st.integers(1, 3))
    C = data.draw(st.integers(1, 4))
    part = VCPartition(M, R, C)
    for v in range(part.num_vcs):
        m, r, c = part.vc_fields(v)
        assert part.vc_index(m, r, c) == v
    # Identity transitions: legal transitions = M * R * C^2.
    assert part.num_legal_transitions() == M * R * C * C
