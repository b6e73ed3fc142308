"""Differential tests for the arena fault-simulation backend.

The arena backend (struct-of-arrays netlist encoding, memoized good-machine
pass, exact undetectability filter, cone-partitioned lane blocks in both
generated and interpreted form) must produce detected-fault sets
bit-identical to the interpreted oracle on every netlist — including X
inputs, preset flip-flop state, Q-net primary outputs and extra observe
points — and the arena itself must survive a pickle round trip unchanged.
"""

import pickle
import random

import pytest

from repro.atpg.arena import (ArenaFaultSim, NetlistArena, get_arena,
                              get_arena_sim)
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import (Fault, TransientFault, build_fault_list,
                               build_transient_fault_list)
from repro.synth.netlist import CONST0, CONST1, GateType, Netlist

from tests.test_compiled import random_bit_vectors, random_netlist


def detect(nl, backend, vectors, faults, initial_state=None, extra=None):
    sim = FaultSimulator(nl, backend=backend)
    return sim.detected_faults(vectors, faults, initial_state=initial_state,
                               extra_observables=extra)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_three_backend_equality(seed):
    nl = random_netlist(seed, num_pis=6, num_dffs=4, num_gates=40)
    vectors = random_bit_vectors(nl, cycles=12, seed=seed + 100, x_rate=0.25)
    faults = build_fault_list(nl)
    interp = detect(nl, "interpreted", vectors, faults)
    arena = detect(nl, "arena", vectors, faults)
    assert interp == arena


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_backend_equality_with_state_and_observables(seed):
    nl = random_netlist(seed, num_pis=5, num_dffs=4, num_gates=30)
    rng = random.Random(seed + 7)
    vectors = random_bit_vectors(nl, cycles=10, seed=seed + 200, x_rate=0.3)
    faults = build_fault_list(nl)
    qs = [d.output for d in nl.dffs()]
    initial_state = {q: rng.randint(0, 1) for q in qs[:2]}
    extra = [g.output for g in nl.gates[:3] if g.type is not GateType.DFF]
    results = [
        detect(nl, backend, vectors, faults, initial_state, extra)
        for backend in ("interpreted", "arena")
    ]
    assert results[0] == results[1]


def test_codegen_and_interp_paths_agree(monkeypatch):
    """Force the generated-block path on a tiny design and compare with the
    interpreted-block fallback (and the oracle)."""
    nl = random_netlist(9, num_pis=6, num_dffs=3, num_gates=35)
    vectors = random_bit_vectors(nl, cycles=10, seed=901, x_rate=0.2)
    faults = build_fault_list(nl)
    oracle = detect(nl, "interpreted", vectors, faults)

    monkeypatch.setenv("REPRO_ARENA_CODEGEN_MIN_FAULTS", "1")
    monkeypatch.setenv("REPRO_ARENA_CODEGEN_MIN_VECTORS", "1")
    gen_sim = ArenaFaultSim(get_arena(nl))
    gen_det, gen_blocks = gen_sim.detected_faults(vectors, faults)
    assert gen_blocks >= 1
    assert gen_det == oracle

    monkeypatch.setenv("REPRO_ARENA_CODEGEN_MIN_FAULTS", "10000000")
    interp_sim = ArenaFaultSim(get_arena(nl))
    interp_det, _ = interp_sim.detected_faults(vectors, faults)
    assert interp_det == oracle


def test_short_sequences_and_subsets():
    """ATPG-style calls: one or two vectors, shrinking fault subsets."""
    nl = random_netlist(4, num_pis=6, num_dffs=3, num_gates=30)
    faults = sorted(build_fault_list(nl))
    rng = random.Random(42)
    for cycles in (1, 2, 3):
        vectors = random_bit_vectors(nl, cycles=cycles, seed=cycles,
                                     x_rate=0.2)
        subset = [f for f in faults if rng.random() < 0.5]
        assert (detect(nl, "arena", vectors, subset)
                == detect(nl, "interpreted", vectors, subset))


def test_empty_inputs():
    nl = random_netlist(2)
    sim = FaultSimulator(nl, backend="arena")
    assert sim.detected_faults([], build_fault_list(nl)) == set()
    assert sim.detected_faults(
        random_bit_vectors(nl, cycles=3, seed=1), []) == set()


def test_arena_pickle_round_trip_identity():
    nl = random_netlist(7, num_pis=5, num_dffs=3, num_gates=25)
    arena = get_arena(nl)
    clone = pickle.loads(pickle.dumps(arena))
    assert isinstance(clone, NetlistArena)
    assert clone.fingerprint == arena.fingerprint
    assert clone.digest == arena.digest
    for row in ("gate_op", "gate_out", "fanin_off", "fanin", "dff_q",
                "dff_d", "pis", "pos", "adj_off", "adj", "site_rank"):
        assert getattr(clone, row) == getattr(arena, row), row

    # A simulator over the unpickled arena detects the same faults.
    vectors = random_bit_vectors(nl, cycles=8, seed=70, x_rate=0.2)
    faults = build_fault_list(nl)
    det_orig, _ = get_arena_sim(arena).detected_faults(vectors, faults)
    det_clone, _ = get_arena_sim(clone).detected_faults(vectors, faults)
    assert det_orig == det_clone == detect(nl, "interpreted", vectors, faults)


def test_arena_rebuilt_when_netlist_grows():
    nl = random_netlist(3)
    arena = get_arena(nl)
    pi = nl.add_pi("late")
    nl.add_po(nl.add_gate(GateType.NOT, [pi], name="late_g"), "late_o")
    grown = get_arena(nl)
    assert grown is not arena
    assert grown.num_nets == nl.num_nets


def test_refinement_filter_is_exact():
    """Faults pruned by the ever-binary filter are genuinely undetected:
    simulate every fault through the interpreted oracle and check that the
    filter never drops a detected fault."""
    for seed in (11, 12):
        nl = random_netlist(seed, num_pis=5, num_dffs=3, num_gates=30)
        vectors = random_bit_vectors(nl, cycles=6, seed=seed, x_rate=0.4)
        faults = build_fault_list(nl)
        assert (detect(nl, "arena", vectors, faults)
                == detect(nl, "interpreted", vectors, faults))


def test_gate_reconstruction_round_trips():
    nl = random_netlist(6)
    arena = get_arena(nl)
    from repro.atpg.compiled import get_compiled

    rebuilt = arena.gates()
    original = get_compiled(nl).order
    assert [(g.type, g.output, g.inputs) for g in rebuilt] \
        == [(g.type, g.output, g.inputs) for g in original]


# -- divergence-driven executor edges ----------------------------------------
#
# The lane-block executor evaluates only gates that read a net diverging
# from the good machine.  These cases aim at its sources of divergence
# (fill sites, flip-flop state, forced gate rows) and its stop rules, at
# block widths that split lanes unevenly (2, 3) and at the default (512).

LANE_WIDTHS = [2, 3, 512]


def every_net_fault(nl):
    """Both stuck values on every net: constants, PIs and Qs included."""
    return [Fault(n, v) for n in range(nl.num_nets) for v in (0, 1)]


def detect_at(nl, lanes, vectors, faults, initial_state=None, extra=None):
    sim = FaultSimulator(nl, lanes=lanes, backend="arena")
    return sim.detected_faults(vectors, faults, initial_state=initial_state,
                               extra_observables=extra)


@pytest.mark.parametrize("lanes", LANE_WIDTHS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_faults_on_pis_qs_and_constants(seed, lanes):
    nl = random_netlist(seed, num_pis=5, num_dffs=4, num_gates=30)
    vectors = random_bit_vectors(nl, cycles=6, seed=seed + 40, x_rate=0.2)
    faults = every_net_fault(nl)
    found = detect_at(nl, lanes, vectors, faults)
    assert found == detect(nl, "interpreted", vectors, faults)
    sources = set(nl.pis) | {d.output for d in nl.dffs()} | {CONST0, CONST1}
    assert {f.net for f in found} & sources


def _chain_netlist():
    """A three-flop shift register (Q->D chains, one Q also observed),
    gates with repeated inputs, and flops fed by a PI and a constant."""
    nl = Netlist("chain")
    a = nl.add_pi("a")
    b = nl.add_pi("b")
    q = [nl.new_net(f"q{k}") for k in range(5)]
    both = nl.add_gate(GateType.AND, [a, a, b], name="both")
    nl.add_gate_to(GateType.DFF, q[0], [both])
    nl.add_gate_to(GateType.DFF, q[1], [q[0]])
    nl.add_gate_to(GateType.DFF, q[2], [q[1]])
    nl.add_gate_to(GateType.DFF, q[3], [b])
    nl.add_gate_to(GateType.DFF, q[4], [CONST1])
    odd = nl.add_gate(GateType.XOR, [q[2], q[2], a, q[3]], name="odd")
    any_ = nl.add_gate(GateType.NOR, [q[1], q[1], q[4]], name="any")
    nl.add_po(odd, "o_odd")
    nl.add_po(any_, "o_any")
    nl.add_po(q[2], "o_q2")
    nl.validate()
    return nl


@pytest.mark.parametrize("lanes", LANE_WIDTHS)
def test_q_to_d_chains_and_repeated_inputs(lanes):
    nl = _chain_netlist()
    faults = every_net_fault(nl)
    q0 = nl.dffs()[0].output
    for seed in range(4):
        vectors = random_bit_vectors(nl, cycles=7, seed=seed, x_rate=0.2)
        state = {q0: seed % 2}
        for initial_state in (None, state):
            assert (detect_at(nl, lanes, vectors, faults, initial_state)
                    == detect(nl, "interpreted", vectors, faults,
                              initial_state))


@pytest.mark.parametrize("lanes", LANE_WIDTHS)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_upsets_that_die_before_the_last_cycle(seed, lanes):
    nl = random_netlist(seed, num_pis=5, num_dffs=3, num_gates=30)
    cycles = 10
    vectors = random_bit_vectors(nl, cycles=cycles, seed=seed + 60,
                                 x_rate=0.1)
    # Flips only in the first cycles: most die long before the last one.
    faults = [f for f in build_transient_fault_list(nl, cycles, seed=seed)
              if f.cycle < 3]
    assert (detect_at(nl, lanes, vectors, faults)
            == detect(nl, "interpreted", vectors, faults))


@pytest.mark.parametrize("lanes", LANE_WIDTHS)
def test_block_idles_between_upsets_that_die(lanes):
    """Both upsets die in their flip cycle, so the block has no live lane
    and no divergent state between them; it must wait for the second
    window rather than stop."""
    nl = Netlist("and2")
    a = nl.add_pi("a")
    b = nl.add_pi("b")
    nl.add_po(nl.add_gate(GateType.AND, [a, b], name="y"), "y")
    vectors = [{a: 1, b: 1}] * 8
    faults = [TransientFault(a, 0, 1), TransientFault(b, 0, 6)]
    assert detect_at(nl, lanes, vectors, faults) == set(faults)


@pytest.fixture(scope="module")
def arm_alu(tmp_path_factory):
    """The arm_alu transformed netlist, analyzed once."""
    from repro import Factor
    from repro.designs import arm2_source

    store = tmp_path_factory.mktemp("artifact-store")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(store))
        return Factor.from_verilog(arm2_source(), top="arm").analyze(
            "arm_alu", path="u_core.u_dp.u_alu.")


@pytest.mark.parametrize("lanes", LANE_WIDTHS)
def test_cross_sim_shape_on_arm_alu(arm_alu, lanes):
    """ATPG cross-simulation: one vector, a preset state and the D nets of
    the PIER flip-flops as extra observe points."""
    tr = arm_alu.transformed
    nl = tr.netlist
    faults = build_fault_list(nl, region=tr.mut_region)
    rng = random.Random(2002)
    dffs = nl.dffs()
    extra = sorted(d.inputs[0] for d in dffs
                   if d.output in arm_alu.pier_nets)
    assert extra
    oracle = FaultSimulator(nl, backend="interpreted")
    for _ in range(3):
        vectors = [{pi: rng.randint(0, 1) for pi in nl.pis}]
        initial_state = {d.output: rng.randint(0, 1) for d in dffs
                         if rng.random() < 0.7}
        found = detect_at(nl, lanes, vectors, faults, initial_state, extra)
        assert found == oracle.detected_faults(
            vectors, faults, initial_state=initial_state,
            extra_observables=extra)
        assert found


def test_gate_eval_counter_counts_divergent_work():
    from repro.obs import get_registry

    nl = random_netlist(5, num_pis=6, num_dffs=4, num_gates=40)
    vectors = random_bit_vectors(nl, cycles=8, seed=55, x_rate=0.2)
    faults = build_fault_list(nl)
    counts = []
    for _ in range(2):
        get_registry().reset()
        ArenaFaultSim(get_arena(nl)).detected_faults(vectors, faults)
        counts.append(
            get_registry().snapshot()["fault_sim.arena.gate_evals"]["value"])
    # Deterministic, nonzero, and at most every gate on every cycle of
    # every block.
    assert counts[0] == counts[1] > 0
    assert counts[0] <= len(vectors) * get_arena(nl).num_gates * (
        (len(faults) + 511) // 512)
