"""Tests for the functional netlist simulator."""

import pytest

from repro.hw.cells import CELLS
from repro.hw.netlist import Netlist
from repro.hw.simulate import NetlistSimulator, propagate

#: Each combinational cell's output column: character ``i`` is the
#: output when fanin ``j`` carries bit ``j`` of ``i`` (MUX2's fanins are
#: ``(d0, d1, sel)``).  Written out by hand, independently of the
#: evaluator, so it is the cell layer's oracle.
TRUTH_TABLES = {
    "INV": "10",
    "BUF": "01",
    "NAND2": "1110",
    "NOR2": "1000",
    "AND2": "0001",
    "AND3": "00000001",
    "AND4": "0000000000000001",
    "OR2": "0111",
    "OR3": "01111111",
    "OR4": "0111111111111111",
    "XOR2": "0110",
    "MUX2": "01010011",
}

COMBINATIONAL = [c for c in CELLS if not c.sequential]


def test_every_combinational_cell_has_a_truth_table():
    assert sorted(TRUTH_TABLES) == sorted(c.name for c in COMBINATIONAL)


@pytest.mark.parametrize("cell", COMBINATIONAL, ids=lambda c: c.name)
class TestCellTruthTables:
    def _netlist(self, cell):
        nl = Netlist(cell.name)
        ins = nl.inputs(cell.num_inputs)
        out = nl.gate(cell.name, *ins)
        nl.mark_output(out)
        return nl, ins, out

    def test_scalar(self, cell):
        table = TRUTH_TABLES[cell.name]
        assert len(table) == 1 << cell.num_inputs
        nl, ins, out = self._netlist(cell)
        sim = NetlistSimulator(nl)
        for i, expected in enumerate(table):
            bits = [(i >> j) & 1 for j in range(cell.num_inputs)]
            assert sim.evaluate(bits)[out] == int(expected), (cell.name, bits)

    @pytest.mark.parametrize("copies", [1, 3])
    def test_packed(self, cell, copies):
        # Lane L carries assignment L mod 2^n, so every assignment is
        # checked in ``copies`` lanes of one word.
        table = TRUTH_TABLES[cell.name]
        nl, ins, out = self._netlist(cell)
        lanes = len(table) * copies
        mask = (1 << lanes) - 1
        for vals in ([0] * nl.num_nets, {}):
            for j, net in enumerate(ins):
                vals[net] = sum(
                    1 << lane for lane in range(lanes)
                    if (lane % len(table) >> j) & 1
                )
            propagate(nl, [out], vals, mask)
            expected = int((table * copies)[::-1], 2)
            assert vals[out] == expected, cell.name



class TestCombinational:
    def test_every_gate_type(self):
        nl = Netlist()
        a, b, c, d = nl.inputs(4)
        gates = {
            "INV": nl.gate("INV", a),
            "BUF": nl.gate("BUF", a),
            "AND2": nl.gate("AND2", a, b),
            "AND3": nl.gate("AND3", a, b, c),
            "AND4": nl.gate("AND4", a, b, c, d),
            "OR2": nl.gate("OR2", a, b),
            "OR3": nl.gate("OR3", a, b, c),
            "OR4": nl.gate("OR4", a, b, c, d),
            "NAND2": nl.gate("NAND2", a, b),
            "NOR2": nl.gate("NOR2", a, b),
            "XOR2": nl.gate("XOR2", a, b),
            "MUX2": nl.gate("MUX2", a, b, c),  # c ? b : a
        }
        for g in gates.values():
            nl.mark_output(g)
        sim = NetlistSimulator(nl)

        def run(bits):
            vals = sim.evaluate(bits)
            return {name: vals[g] for name, g in gates.items()}

        v = run([1, 0, 1, 1])
        assert v["INV"] == 0 and v["BUF"] == 1
        assert v["AND2"] == 0 and v["AND3"] == 0 and v["AND4"] == 0
        assert v["OR2"] == 1 and v["OR3"] == 1 and v["OR4"] == 1
        assert v["NAND2"] == 1 and v["NOR2"] == 0
        assert v["XOR2"] == 1
        assert v["MUX2"] == 0  # sel=1 -> b = 0

        v = run([1, 1, 0, 1])
        assert v["AND2"] == 1 and v["XOR2"] == 0
        assert v["MUX2"] == 1  # sel=0 -> a = 1

    def test_constants(self):
        nl = Netlist()
        a = nl.input()
        nl.mark_output(nl.gate("AND2", a, nl.const(1)))
        nl.mark_output(nl.gate("OR2", a, nl.const(0)))
        sim = NetlistSimulator(nl)
        assert sim.output_values([1]) == [1, 1]
        assert sim.output_values([0]) == [0, 0]

    def test_wrong_input_count(self):
        nl = Netlist()
        nl.inputs(3)
        nl.mark_output(nl.gate("INV", 0))
        sim = NetlistSimulator(nl)
        with pytest.raises(ValueError):
            sim.evaluate([1, 0])

    def test_num_inputs(self):
        nl = Netlist()
        nl.inputs(5)
        nl.mark_output(nl.gate("INV", 0))
        assert NetlistSimulator(nl).num_inputs == 5


class TestSequential:
    def _toggle_flop(self):
        nl = Netlist()
        q = nl.reg()
        nl.connect_reg(q, nl.gate("INV", q))
        nl.mark_output(q, "q")
        return nl

    def test_toggle_flop(self):
        sim = NetlistSimulator(self._toggle_flop(), reg_init=0)
        values = [sim.step([])["q"] for _ in range(6)]
        assert values == [0, 1, 0, 1, 0, 1]

    def test_reg_init(self):
        sim = NetlistSimulator(self._toggle_flop(), reg_init=1)
        assert sim.step([])["q"] == 1

    def test_set_register(self):
        nl = self._toggle_flop()
        sim = NetlistSimulator(nl, reg_init=0)
        (reg,) = [i for i, k in enumerate(nl.kinds) if k >= 0 and not nl.fanins[i]]
        sim.set_register(reg, 1)
        assert sim.step([])["q"] == 1

    def test_set_register_rejects_non_register(self):
        nl = Netlist()
        a = nl.input()
        nl.mark_output(nl.gate("INV", a))
        sim = NetlistSimulator(nl)
        with pytest.raises(ValueError):
            sim.set_register(a, 1)

    def test_shift_register(self):
        nl = Netlist()
        d = nl.input("d")
        q1 = nl.reg()
        q2 = nl.reg()
        nl.connect_reg(q1, d)
        nl.connect_reg(q2, q1)
        nl.mark_output(q2, "out")
        sim = NetlistSimulator(nl)
        outs = [sim.step([x])["out"] for x in (1, 0, 1, 1, 0, 0)]
        # Two cycles of delay.
        assert outs == [0, 0, 1, 0, 1, 1]

    def test_unconnected_register_rejected(self):
        nl = Netlist()
        nl.reg()
        with pytest.raises(ValueError):
            NetlistSimulator(nl)

    def test_named_outputs(self):
        nl = Netlist()
        a = nl.input()
        nl.mark_output(nl.gate("INV", a), "y")
        sim = NetlistSimulator(nl)
        assert sim.step([0]) == {"y": 1}
