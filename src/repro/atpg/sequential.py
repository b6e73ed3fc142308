"""Time-frame expansion for sequential test generation.

An :class:`UnrolledModel` presents ``k`` copies of the combinational logic of
a sequential netlist as one combinational circuit: the flip-flop D values of
frame *t* feed the flip-flop Q nets of frame *t+1*.  Frame-0 Q nets are
unknown (X) sources — unless the flop is a PIER, in which case frame-0 Q is
assignable (the register can be loaded from the chip pins) and its last-frame
D is observable (it can be stored back out).

Keys are ``(frame, net)`` pairs over the base netlist's net ids; each key
also has a flat index ``frame * num_nets + net``.  The model builds, once,
the tables PODEM reads by index (see ``docs/performance.md``):

- ``ops``: the driver's opcode — ``OP_SRC`` for PIs, frame-0 flop outputs,
  constants and floating nets; ``OP_Q`` for a frame-*f* > 0 flop output,
  which buffers frame *f−1*'s D; one ``OP_*`` per combinational gate type;
- ``fanins``: the driver's input indexes, in pin order;
- ``fanouts``: the indexes that read a key — within-frame gates in
  topological order, then the next frame's flop outputs;
- ``gate_fanouts``: the within-frame gate part of ``fanouts``;
- ``levels``: combinational level, offset by frame;
- ``assignable_flags`` / ``controllable_flags``: one byte per index;
- ``base``: fault-free five-valued values with every input unassigned;
- ``observable_set``: the indexes of ``observable``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.synth.netlist import CONST0, CONST1, GateType, Netlist
from repro.atpg.values import (AND_TABLE, NOT_TABLE, OR_TABLE, V0, V1, VX,
                               XOR_TABLE)

Key = Tuple[int, int]  # (frame, net)

# Opcodes; every value >= OP_BUF is a combinational gate.  Inverting gate
# types are odd from OP_NOT up.
OP_SRC = 0
OP_Q = 1
OP_BUF = 2
OP_NOT = 3
OP_AND = 4
OP_NAND = 5
OP_OR = 6
OP_NOR = 7
OP_XOR = 8
OP_XNOR = 9

GATE_OPS = {
    GateType.BUF: OP_BUF,
    GateType.NOT: OP_NOT,
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
}


def evaluate(op: int, ins: Sequence[int], val: Sequence[int]) -> int:
    """Five-valued output of an ``OP_Q`` or gate driver over a value
    list."""
    if op <= OP_BUF:
        return val[ins[0]]
    if op == OP_NOT:
        return NOT_TABLE[val[ins[0]]]
    if op < OP_XOR:
        table = AND_TABLE if op < OP_OR else OR_TABLE
        acc = V1 if op < OP_OR else V0
        for i in ins:
            acc = table[acc][val[i]]
    else:
        acc = V0
        for i in ins:
            acc = XOR_TABLE[acc][val[i]]
    return NOT_TABLE[acc] if op & 1 else acc


class UnrolledModel:
    """Combinational view of ``frames`` copies of a sequential netlist."""

    def __init__(self, netlist: Netlist, frames: int,
                 pier_qs: Optional[Set[int]] = None,
                 exclude_pis: Optional[Set[int]] = None):
        if frames < 1:
            raise ValueError("need at least one time frame")
        self.netlist = netlist
        self.frames = frames
        self.pier_qs: Set[int] = set(pier_qs or ())
        excluded = set(exclude_pis or ())

        self.order = netlist.topological_order()
        self.dffs = netlist.dffs()
        dff_of_q = {g.output: g for g in self.dffs}

        self.base_pis: List[int] = [p for p in netlist.pis
                                    if p not in excluded]
        self.assignable: List[Key] = []
        for frame in range(frames):
            for pi in self.base_pis:
                self.assignable.append((frame, pi))
        for q in sorted(self.pier_qs):
            self.assignable.append((0, q))

        self.observable: List[Key] = []
        for frame in range(frames):
            for po in netlist.pos:
                self.observable.append((frame, po))
        for q in sorted(self.pier_qs):
            dff = dff_of_q[q]
            self.observable.append((frames - 1, dff.inputs[0]))

        self.num_nets = n = netlist.num_nets
        self._build_tables(dff_of_q)
        self.observable_set = frozenset(f * n + net
                                        for f, net in self.observable)
        self.base = self._base_values()

    def index(self, frame: int, net: int) -> int:
        return frame * self.num_nets + net

    # -- tables ---------------------------------------------------------------

    def _build_tables(self, dff_of_q) -> None:
        netlist, frames, n = self.netlist, self.frames, self.num_nets
        size = frames * n
        driver = {g.output: g for g in netlist.gates
                  if g.type is not GateType.DFF}
        # Gate outputs reading each net within a frame, topological order,
        # a gate listed once however many of its pins the net feeds.
        gate_fanout: Dict[int, List[int]] = {}
        for gate in self.order:
            for inp in gate.inputs:
                outs = gate_fanout.setdefault(inp, [])
                if not outs or outs[-1] != gate.output:
                    outs.append(gate.output)
        d_to_qs: Dict[int, List[int]] = {}
        for dff in self.dffs:
            d_to_qs.setdefault(dff.inputs[0], []).append(dff.output)

        self.ops = ops = bytearray(size)
        self.fanins: List[Tuple[int, ...]] = [()] * size
        self.gate_fanouts: List[Tuple[int, ...]] = [()] * size
        self.fanouts: List[Tuple[int, ...]] = [()] * size
        for frame in range(frames):
            base = frame * n
            for net, gate in driver.items():
                ops[base + net] = GATE_OPS[gate.type]
                self.fanins[base + net] = tuple(base + i for i in gate.inputs)
            if frame:
                for q, dff in dff_of_q.items():
                    ops[base + q] = OP_Q
                    self.fanins[base + q] = (base - n + dff.inputs[0],)
            for net, outs in gate_fanout.items():
                self.gate_fanouts[base + net] = self.fanouts[base + net] = \
                    tuple(base + o for o in outs)
            if frame + 1 < frames:
                for net, qs in d_to_qs.items():
                    self.fanouts[base + net] += tuple(base + n + q
                                                      for q in qs)

        # Combinational level of each net within a frame (PIs/Qs at 0),
        # frames stacked above each other.
        level = netlist.levels(self.order)
        per_frame = len(level)
        self.levels: List[int] = [frame * per_frame + level.get(net, 0)
                                  for frame in range(frames)
                                  for net in range(n)]

        self.assignable_flags = bytearray(size)
        for frame, net in self.assignable:
            self.assignable_flags[frame * n + net] = 1
        # Frame-0 flop outputs that are not PIERs are X sources: never
        # controllable, in any frame chain.
        controllable = self._controllable_nets()
        self.controllable_flags = bytearray(size)
        for frame in range(frames):
            for net in controllable:
                if frame == 0 and net in dff_of_q \
                        and net not in self.pier_qs:
                    continue
                self.controllable_flags[frame * n + net] = 1

    def _controllable_nets(self) -> Set[int]:
        """Base nets whose value can (possibly) be influenced by assignable
        inputs within a frame chain.  Nets fed only by constants are not
        controllable."""
        controllable: Set[int] = set(self.base_pis) | set(self.pier_qs)
        for dff in self.dffs:
            controllable.add(dff.output)  # later frames: via previous frame
        changed = True
        while changed:
            changed = False
            for gate in self.order:
                if gate.output in controllable:
                    continue
                if any(i in controllable for i in gate.inputs):
                    controllable.add(gate.output)
                    changed = True
        return controllable

    def _base_values(self) -> List[int]:
        """Fault-free five-valued values with all inputs unassigned.

        Computed once per model and shared by every PODEM run: a fresh fault
        search copies this list and injects only the fault's own
        disturbance, instead of re-evaluating every gate in every frame.
        """
        n = self.num_nets
        ops, fanins = self.ops, self.fanins
        val = [VX] * (self.frames * n)
        for frame in range(self.frames):
            base = frame * n
            val[base + CONST0] = V0
            val[base + CONST1] = V1
            for gate in self.order:
                i = base + gate.output
                val[i] = evaluate(ops[i], fanins[i], val)
            if frame + 1 < self.frames:
                for dff in self.dffs:
                    val[base + n + dff.output] = val[base + dff.inputs[0]]
        return val
