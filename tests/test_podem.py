"""PODEM tests.

The central soundness property: when PODEM reports "detected", fault
simulation of the extracted vector sequence must actually detect the fault;
when it reports "untestable" after an exhaustive search, no random sequence
may detect it.
"""



from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import Fault, build_fault_list
from repro.atpg.podem import Podem
from repro.atpg.sequential import OP_Q, OP_SRC, UnrolledModel
from repro.designs import adder_source, counter_source, fsm_source
from repro.hierarchy import Design
from repro.synth import synthesize
from repro.synth.netlist import GateType, Netlist
from repro.verilog.parser import parse_source


def netlist_of(src, top=None):
    return synthesize(Design(parse_source(src), top=top))


def run_podem(netlist, fault, frames=1, piers=None, backtrack_limit=2000):
    model = UnrolledModel(netlist, frames, pier_qs=piers)
    return Podem(model, fault, backtrack_limit=backtrack_limit).run()


class TestCombinational:
    def test_all_adder_faults_handled(self):
        nl = netlist_of(adder_source())
        fsim = FaultSimulator(nl)
        for fault in build_fault_list(nl):
            result = run_podem(nl, fault)
            assert result.status in ("detected", "untestable")
            if result.detected:
                assert fsim.detected_faults(result.vectors, [fault]) == {
                    fault
                }, fault.describe(nl)

    def test_redundant_fault_proven_untestable(self):
        # y = a & ~a  is constant 0: the AND output s-a-0 is undetectable.
        nl = Netlist()
        a = nl.add_pi("a")
        na = nl.add_gate(GateType.NOT, (a,))
        y = nl.add_gate(GateType.AND, (a, na))
        nl.add_po(y, "y")
        result = run_podem(nl, Fault(y, 0))
        assert result.status == "untestable"
        # The s-a-1 on the same net IS testable.
        result1 = run_podem(nl, Fault(y, 1))
        assert result1.detected

    def test_fault_on_pi(self):
        nl = Netlist()
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        y = nl.add_gate(GateType.AND, (a, b))
        nl.add_po(y, "y")
        result = run_podem(nl, Fault(a, 0))
        assert result.detected
        # Test must set a=1, b=1.
        assert result.vectors[0] == {a: 1, b: 1}

    def test_unobservable_fault_untestable(self):
        nl = Netlist()
        a = nl.add_pi("a")
        nl.add_gate(GateType.NOT, (a,))  # dangling
        y = nl.add_gate(GateType.BUF, (a,))
        nl.add_po(y, "y")
        dangling = nl.gates[0].output
        result = run_podem(nl, Fault(dangling, 0))
        assert result.status == "untestable"

    def test_backtrack_limit_aborts(self):
        # An 18-bit comparator against a constant forces a deep search for
        # the equality cone with a tiny backtrack budget.
        src = """
        module m(input [17:0] a, output y);
          assign y = a == 18'h2a5a5;
        endmodule
        """
        nl = netlist_of(src)
        y_net = nl.pos[0]
        result = run_podem(nl, Fault(y_net, 0), backtrack_limit=0)
        assert result.status in ("aborted", "detected")
        # With budget it must be found.
        good = run_podem(nl, Fault(y_net, 0), backtrack_limit=5000)
        assert good.detected


class TestSequential:
    def test_fsm_fault_needs_multiple_frames(self):
        nl = netlist_of(fsm_source())
        done_net = next(po for po, name in nl.po_pairs if name == "done")
        fault = Fault(done_net, 1)
        # 'done' s-a-1: need state != 11 with a justified (reset) state:
        # two frames suffice (reset, observe).
        shallow = run_podem(nl, fault, frames=1)
        assert not shallow.detected
        deep = run_podem(nl, fault, frames=3)
        assert deep.detected
        fsim = FaultSimulator(nl)
        assert fsim.detected_faults(deep.vectors, [fault]) == {fault}

    def test_detected_vectors_replay_in_fault_simulator(self):
        nl = netlist_of(counter_source())
        fsim = FaultSimulator(nl)
        checked = 0
        for fault in build_fault_list(nl):
            result = run_podem(nl, fault, frames=6)
            if result.detected:
                assert fsim.detected_faults(result.vectors, [fault]) == {
                    fault
                }, fault.describe(nl)
                checked += 1
        assert checked > 10  # most counter faults are testable

    def test_frame0_state_is_unassignable(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        for dff in nl.dffs():
            frame0 = model.index(0, dff.output)
            frame1 = model.index(1, dff.output)
            # Frame 0: an X source, neither driven nor settable.
            assert model.ops[frame0] == OP_SRC
            assert not model.controllable_flags[frame0]
            assert not model.assignable_flags[frame0]
            # Frame 1: driven by frame 0's D.
            assert model.ops[frame1] == OP_Q
            assert model.controllable_flags[frame1]

    def test_pier_makes_state_assignable(self):
        nl = netlist_of(counter_source())
        q0 = nl.dffs()[0].output
        model = UnrolledModel(nl, 2, pier_qs={q0})
        assert model.assignable_flags[model.index(0, q0)]
        assert not model.assignable_flags[model.index(1, q0)]
        assert (0, q0) in model.assignable
        # The D input of a PIER flop is observable in the last frame.
        assert (1, nl.dffs()[0].inputs[0]) in model.observable

    def test_pier_enables_detection(self):
        # wrap = &cnt requires cnt == 15, reachable only through 15 counts
        # ... or one PIER load.
        nl = netlist_of(counter_source())
        wrap_net = next(po for po, name in nl.po_pairs if name == "wrap")
        fault = Fault(wrap_net, 0)
        piers = {dff.output for dff in nl.dffs()}
        without = run_podem(nl, fault, frames=2)
        with_pier = run_podem(nl, fault, frames=2, piers=piers)
        assert with_pier.detected
        assert not without.detected
        assert with_pier.initial_state  # the loaded register values

    def test_result_accounting(self):
        nl = netlist_of(counter_source())
        fault = build_fault_list(nl)[0]
        result = run_podem(nl, fault, frames=4)
        assert result.frames == 4
        assert result.cpu_seconds >= 0.0
        assert result.backtracks >= 0
        assert result.decisions >= 0


class TestVectorShape:
    def test_vectors_cover_every_frame_and_pi(self):
        nl = netlist_of(counter_source())
        fault = build_fault_list(nl)[3]
        result = run_podem(nl, fault, frames=5)
        if result.detected:
            assert len(result.vectors) == result.frames
            for vec in result.vectors:
                assert set(vec) == set(nl.pis)
                assert all(bit in (0, 1) for bit in vec.values())
