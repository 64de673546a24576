"""Unit tests for VC partitioning / sparse VC allocation structure."""

import numpy as np
import pytest

from repro.core import VCPartition


class TestConstruction:
    def test_defaults_identity_transitions(self):
        p = VCPartition(2, 2, 1)
        assert np.array_equal(p.resource_transitions, np.eye(2, dtype=bool))

    def test_num_vcs(self):
        assert VCPartition(2, 2, 4).num_vcs == 16
        assert VCPartition(1, 1, 1).num_vcs == 1

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            VCPartition(0, 1, 1)
        with pytest.raises(ValueError):
            VCPartition(1, 0, 1)
        with pytest.raises(ValueError):
            VCPartition(1, 1, 0)

    def test_rejects_wrong_transition_shape(self):
        with pytest.raises(ValueError):
            VCPartition(1, 2, 1, np.ones((3, 3), dtype=bool))

    def test_rejects_dead_end_class(self):
        trans = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError, match="successor"):
            VCPartition(1, 2, 1, trans)

    def test_transitions_frozen(self):
        p = VCPartition.fbfly(2)
        assert p.resource_transitions == ((True, True), (False, True))
        with pytest.raises(TypeError):
            p.resource_transitions[0][0] = False


class TestIndexAlgebra:
    def test_roundtrip(self):
        p = VCPartition(2, 2, 4)
        for m in range(2):
            for r in range(2):
                for c in range(4):
                    idx = p.vc_index(m, r, c)
                    assert p.vc_fields(idx) == (m, r, c)

    def test_layout_is_message_major(self):
        p = VCPartition(2, 2, 2)
        # message class 0 occupies VCs 0..3, class 1 occupies 4..7
        assert [p.message_class_of(v) for v in range(8)] == [0] * 4 + [1] * 4

    def test_class_vcs_contiguous(self):
        p = VCPartition(2, 2, 4)
        assert p.class_vcs(1, 0) == [8, 9, 10, 11]

    def test_out_of_range(self):
        p = VCPartition(2, 1, 2)
        with pytest.raises(ValueError):
            p.vc_index(2, 0, 0)
        with pytest.raises(ValueError):
            p.vc_index(0, 1, 0)
        with pytest.raises(ValueError):
            p.vc_index(0, 0, 2)
        with pytest.raises(ValueError):
            p.vc_fields(4)


class TestTransitions:
    def test_mesh_transitions_stay_in_class(self):
        p = VCPartition.mesh(4)
        mat = np.asarray(p.transition_matrix())
        for vin in range(p.num_vcs):
            m_in, r_in, _ = p.vc_fields(vin)
            for vout in range(p.num_vcs):
                m_out, r_out, _ = p.vc_fields(vout)
                assert mat[vin, vout] == (m_in == m_out)

    def test_fbfly_figure4_count(self):
        # Figure 4: for 2x2x4 VCs only 96 of 256 transitions are legal.
        p = VCPartition.fbfly(4)
        assert p.num_legal_transitions() == 96

    def test_fbfly_max_successors(self):
        p = VCPartition.fbfly(4)
        # "any given VC is restricted to at most eight possible successor
        # and predecessor VCs"
        mat = np.asarray(p.transition_matrix())
        assert mat.sum(axis=1).max() == 8
        assert mat.sum(axis=0).max() == 8

    def test_fbfly_quadrant_confinement(self):
        p = VCPartition.fbfly(4)
        mat = np.asarray(p.transition_matrix())
        # No transition crosses the message-class boundary (VC 8).
        assert not mat[:8, 8:].any()
        assert not mat[8:, :8].any()

    def test_minimal_phase_cannot_go_nonminimal(self):
        p = VCPartition.fbfly(2)
        # resource class 0 = non-minimal, 1 = minimal.
        assert p.successor_classes(0) == [0, 1]
        assert p.successor_classes(1) == [1]
        assert p.predecessor_classes(0) == [0]
        assert p.predecessor_classes(1) == [0, 1]

    def test_max_successor_predecessor_counts(self):
        p = VCPartition.fbfly(1)
        assert p.max_successors() == 2
        assert p.max_predecessors() == 2
        q = VCPartition.mesh(4)
        assert q.max_successors() == 1

    def test_legal_transition_scalar(self):
        p = VCPartition.fbfly(1)
        nonmin_req = p.vc_index(0, 0, 0)
        min_req = p.vc_index(0, 1, 0)
        min_reply = p.vc_index(1, 1, 0)
        assert p.legal_transition(nonmin_req, min_req)
        assert not p.legal_transition(min_req, nonmin_req)
        assert not p.legal_transition(min_req, min_reply)

    def test_candidate_vcs_all_successors(self):
        p = VCPartition.fbfly(2)
        nonmin = p.vc_index(0, 0, 0)
        cands = p.candidate_vcs(nonmin)
        assert cands == p.class_vcs(0, 0) + p.class_vcs(0, 1)

    def test_candidate_vcs_restricted_class(self):
        p = VCPartition.fbfly(2)
        nonmin = p.vc_index(0, 0, 1)
        assert p.candidate_vcs(nonmin, resource_class=1) == p.class_vcs(0, 1)

    def test_candidate_vcs_illegal_class_rejected(self):
        p = VCPartition.fbfly(2)
        minimal = p.vc_index(0, 1, 0)
        with pytest.raises(ValueError, match="not a legal successor"):
            p.candidate_vcs(minimal, resource_class=0)

    def test_transition_count_formula(self):
        # Per message class: sum over r_in of C * (successors(r_in) * C).
        for C in (1, 2, 4):
            p = VCPartition.fbfly(C)
            per_class = C * C * (2 + 1)  # nonmin->2 classes, min->1 class
            assert p.num_legal_transitions() == 2 * per_class


class TestFactories:
    def test_uniform(self):
        p = VCPartition.uniform(8)
        assert p.num_vcs == 8
        assert p.num_legal_transitions() == 64

    def test_mesh_dims(self):
        p = VCPartition.mesh(2)
        assert (p.num_message_classes, p.num_resource_classes, p.vcs_per_class) == (2, 1, 2)

    def test_describe(self):
        assert VCPartition.fbfly(4).describe() == "2x2x4 VCs (V=16)"
        assert VCPartition.mesh(1).describe() == "2x1x1 VCs (V=2)"
