"""Tests for the time-frame-expansion model."""

import functools

import pytest

from repro.atpg.faults import build_fault_list
from repro.atpg.podem import Podem
from repro.atpg.sequential import OP_Q, OP_SRC, UnrolledModel
from repro.atpg.values import V0, V1, VX, v_and, v_not, v_or, v_xor
from repro.designs import counter_source, fsm_source
from repro.hierarchy import Design
from repro.synth import synthesize
from repro.synth.netlist import CONST0, CONST1, GateType, Netlist
from repro.verilog.parser import parse_source


def netlist_of(src, top=None):
    return synthesize(Design(parse_source(src), top=top))


class TestStructure:
    def test_assignable_inputs_cover_all_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 3)
        assert len(model.assignable) == 3 * len(nl.pis)
        for frame in range(3):
            for pi in nl.pis:
                assert model.assignable_flags[model.index(frame, pi)]

    def test_observable_covers_all_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 3)
        assert len(model.observable) == 3 * len(nl.pos)

    def test_needs_at_least_one_frame(self):
        nl = netlist_of(counter_source())
        with pytest.raises(ValueError):
            UnrolledModel(nl, 0)

    def test_excluded_pis_not_assignable(self):
        nl = netlist_of(counter_source())
        clk = next(pi for pi in nl.pis if nl.net_name(pi) == "clk")
        model = UnrolledModel(nl, 2, exclude_pis={clk})
        assert (0, clk) not in model.assignable

    def test_driver_of_cross_frame_edge(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        dff = nl.dffs()[0]
        q1 = model.index(1, dff.output)
        assert model.ops[q1] == OP_Q
        assert model.fanins[q1] == (model.index(0, dff.inputs[0]),)
        # Frame 0 Q has no driver: it is an X source.
        q0 = model.index(0, dff.output)
        assert model.ops[q0] == OP_SRC
        assert model.fanins[q0] == ()

    def test_fanout_crosses_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        dff = nl.dffs()[0]
        n = model.num_nets
        d_key = model.index(0, dff.inputs[0])
        assert model.index(1, dff.output) in model.fanouts[d_key]
        # Last frame: no next-frame edge.
        d_last = model.index(1, dff.inputs[0])
        assert all(i // n == 1 for i in model.fanouts[d_last])

    def test_fanout_order_is_topological_then_next_frame(self):
        # PODEM's FIFO event order, and with it the D-frontier tie-break,
        # follows this order.
        nl = netlist_of(fsm_source())
        model = UnrolledModel(nl, 2)
        n = model.num_nets
        position = {g.output: k for k, g in enumerate(model.order)}
        for i in range(n):
            outs = model.fanouts[i]
            gates = model.gate_fanouts[i]
            assert outs[:len(gates)] == gates
            assert [position[o] for o in gates] == \
                sorted(position[o] for o in gates)
            assert len(set(gates)) == len(gates)
            assert all(o >= n and model.ops[o] == OP_Q
                       for o in outs[len(gates):])

    def test_levels_monotone_across_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 3)
        pi = nl.pis[0]
        levels = [model.levels[model.index(f, pi)] for f in range(3)]
        assert levels[0] < levels[1] < levels[2]

    def test_controllability_of_constant_cone(self):
        nl = Netlist()
        a = nl.add_pi("a")
        const_gate = nl.add_gate(GateType.AND, (CONST1, CONST0))
        y = nl.add_gate(GateType.OR, (a, const_gate))
        nl.add_po(y, "y")
        model = UnrolledModel(nl, 1)
        assert model.controllable_flags[model.index(0, y)]
        assert not model.controllable_flags[model.index(0, const_gate)]


def eval_gate(gtype, inputs):
    """Reference five-valued gate evaluation, independent of the model."""
    if gtype in (GateType.BUF, GateType.NOT):
        value = inputs[0]
    elif gtype in (GateType.AND, GateType.NAND):
        value = functools.reduce(v_and, inputs, V1)
    elif gtype in (GateType.OR, GateType.NOR):
        value = functools.reduce(v_or, inputs, V0)
    else:
        value = functools.reduce(v_xor, inputs, V0)
    if gtype in (GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR):
        value = v_not(value)
    return value


class TestBaseValues:
    def test_matches_fresh_evaluation(self):
        nl = netlist_of(fsm_source())
        model = UnrolledModel(nl, 3)
        base = model.base
        # Recompute independently.
        fresh = {}
        for frame in range(3):
            fresh[(frame, CONST0)] = V0
            fresh[(frame, CONST1)] = V1
            for gate in model.order:
                fresh[(frame, gate.output)] = eval_gate(
                    gate.type,
                    [fresh.get((frame, i), VX) for i in gate.inputs],
                )
            if frame + 1 < 3:
                for dff in model.dffs:
                    fresh[(frame + 1, dff.output)] = fresh.get(
                        (frame, dff.inputs[0]), VX
                    )
        assert base == [fresh.get((frame, net), VX)
                        for frame in range(3)
                        for net in range(nl.num_nets)]

    def test_cached(self):
        nl = netlist_of(fsm_source())
        model = UnrolledModel(nl, 2)
        base = model.base
        snapshot = list(base)
        Podem(model, build_fault_list(nl)[0]).run()
        assert model.base is base
        assert base == snapshot

    def test_unassigned_inputs_give_x_outputs(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        base = model.base
        # With no PI assigned, POs derived from state are X.
        for po in nl.pos:
            assert base[model.index(1, po)] == VX

    def test_constant_cones_are_binary(self):
        nl = Netlist()
        a = nl.add_pi("a")
        tied = nl.add_gate(GateType.OR, (CONST1, a))
        nl.add_po(tied, "y")
        model = UnrolledModel(nl, 2)
        base = model.base
        assert base[model.index(0, tied)] == V1
        assert base[model.index(1, tied)] == V1
