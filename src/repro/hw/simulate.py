"""Functional (cycle-level) simulation of netlists.

:func:`propagate` is the one place the boolean function of each
combinational cell is written down.  Every evaluator runs it: the
one-lane :class:`NetlistSimulator` here, and the packed cone and
whole-netlist evaluators of :mod:`repro.verify.engine` that the formal
proofs are built on.  :func:`reset_state` is likewise the one statement
of the register state the behavioural models' ``reset()`` corresponds
to.

The simulator cross-validates the gate-level builders against the
behavioural models in :mod:`repro.core` -- the structural netlists must
compute the same grants as the Python allocators for identical stimulus
-- and drives the open-loop RTL quality experiments (Section 3.1),
which feed the netlists pseudo-random request matrices.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Union

from .cells import CELL_INDEX
from .netlist import KIND_CONST1, KIND_INPUT, Netlist
from .trace import BuildTrace

__all__ = ["NetlistSimulator", "Values", "propagate", "reset_state"]

_DFF = CELL_INDEX["DFF"]
_INV = CELL_INDEX["INV"]
_BUF = CELL_INDEX["BUF"]
_NAND2 = CELL_INDEX["NAND2"]
_NOR2 = CELL_INDEX["NOR2"]
_AND2 = CELL_INDEX["AND2"]
_AND3 = CELL_INDEX["AND3"]
_AND4 = CELL_INDEX["AND4"]
_OR2 = CELL_INDEX["OR2"]
_OR3 = CELL_INDEX["OR3"]
_OR4 = CELL_INDEX["OR4"]
_XOR2 = CELL_INDEX["XOR2"]
_MUX2 = CELL_INDEX["MUX2"]

#: Net values indexed by net id: a list over the whole netlist, or a
#: dict over the nets of one cone.
Values = Union[List[int], Dict[int, int]]


def propagate(nl: Netlist, nets: Iterable[int], vals: Values, mask: int) -> None:
    """Evaluate the combinational cells ``nets`` into ``vals``.

    Values are packed: bit ``L`` of a value is the net under stimulus
    lane ``L``, and ``mask`` has one bit set per lane (``1`` for a
    one-lane run), so a complement is ``mask ^ v``.  ``nets`` must be in
    ascending id order (a topological order, see
    :mod:`repro.hw.netlist`), and ``vals`` must already hold every net
    the cells read from outside ``nets``: inputs, constants, register Q
    pins and cut nets.
    """
    kinds = nl.kinds
    fanins = nl.fanins
    for nid in nets:
        k = kinds[nid]
        f = fanins[nid]
        if k == _AND2:
            v = vals[f[0]] & vals[f[1]]
        elif k == _OR2:
            v = vals[f[0]] | vals[f[1]]
        elif k == _INV:
            v = mask ^ vals[f[0]]
        elif k == _BUF:
            v = vals[f[0]]
        elif k == _MUX2:  # fanins (d0, d1, sel)
            s = vals[f[2]]
            v = (s & vals[f[1]]) | ((mask ^ s) & vals[f[0]])
        elif k == _AND3:
            v = vals[f[0]] & vals[f[1]] & vals[f[2]]
        elif k == _OR3:
            v = vals[f[0]] | vals[f[1]] | vals[f[2]]
        elif k == _AND4:
            v = vals[f[0]] & vals[f[1]] & vals[f[2]] & vals[f[3]]
        elif k == _OR4:
            v = vals[f[0]] | vals[f[1]] | vals[f[2]] | vals[f[3]]
        elif k == _NAND2:
            v = mask ^ (vals[f[0]] & vals[f[1]])
        elif k == _NOR2:
            v = mask ^ (vals[f[0]] | vals[f[1]])
        elif k == _XOR2:
            v = vals[f[0]] ^ vals[f[1]]
        else:
            raise NotImplementedError(f"no semantics for cell kind {k}")
        vals[nid] = v


def reset_state(nl: Netlist, trace: BuildTrace) -> Dict[int, int]:
    """Register state matching the behavioural models' ``reset()``.

    Thermometer masks reset to all-ones (pointer 0) and the matrix
    triangle to all-ones ("lower index beats higher" -- the behavioural
    ``i < j`` initialisation), so every DFF resets to 1 except the
    wavefront diagonal pointer rings, which are one-hot at diagonal 0.
    ``trace`` is the :class:`~repro.hw.trace.BuildTrace` recorded while
    ``nl`` was built.
    """
    state = {q: 1 for q in nl.reg_d}
    for w in trace.wavefronts:
        for idx, reg in enumerate(w.ptr_regs):
            state[reg] = 1 if idx == 0 else 0
    return state


class NetlistSimulator:
    """Two-valued functional simulator for a :class:`Netlist`.

    Registers power up to ``reg_init`` (default 0); assign
    :func:`reset_state` to :attr:`state` for the behavioural models'
    reset.  :attr:`input_nets` lists the primary inputs in the order
    :meth:`evaluate` and :meth:`step` take their values.
    """

    def __init__(self, nl: Netlist, reg_init: int = 0) -> None:
        nl.validate()
        self.nl = nl
        kinds = nl.kinds
        self.state: Dict[int, int] = {
            q: reg_init for q, k in enumerate(kinds) if k == _DFF
        }
        self.input_nets = [nid for nid, k in enumerate(kinds) if k == KIND_INPUT]
        self._ones = [nid for nid, k in enumerate(kinds) if k == KIND_CONST1]
        self._gates = [nid for nid, k in enumerate(kinds) if k >= 0 and k != _DFF]

    @property
    def num_inputs(self) -> int:
        return len(self.input_nets)

    def set_register(self, q_net: int, value: int) -> None:
        """Force a register's current state (e.g. arbiter priority init)."""
        if q_net not in self.state:
            raise ValueError(f"net {q_net} is not a register")
        self.state[q_net] = 1 if value else 0

    def evaluate(self, inputs: Sequence[int]) -> List[int]:
        """Combinational evaluation; returns the value of every net."""
        if len(inputs) != len(self.input_nets):
            raise ValueError(
                f"expected {len(self.input_nets)} inputs, got {len(inputs)}"
            )
        vals = [0] * self.nl.num_nets
        for nid, v in zip(self.input_nets, inputs):
            vals[nid] = 1 if v else 0
        for nid in self._ones:
            vals[nid] = 1
        for q, v in self.state.items():
            vals[q] = v
        propagate(self.nl, self._gates, vals, 1)
        return vals

    def step(self, inputs: Sequence[int]) -> Dict[str, int]:
        """One clock cycle: evaluate, capture outputs, clock registers."""
        vals = self.evaluate(inputs)
        outputs = {}
        for net, name in zip(self.nl.outputs, self.nl.output_names):
            outputs[name or f"out{net}"] = vals[net]
        for q, d in self.nl.reg_d.items():
            self.state[q] = vals[d]
        return outputs

    def output_values(self, inputs: Sequence[int]) -> List[int]:
        """Evaluate and return just the primary-output values, in order."""
        vals = self.evaluate(inputs)
        return [vals[net] for net in self.nl.outputs]
