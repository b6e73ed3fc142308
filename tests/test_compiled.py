"""Differential tests for the compiled good machine and backend selection.

The default ``arena`` backend (code-generated good-machine evaluation from
:mod:`repro.atpg.compiled` plus the arena's cone-partitioned fault
simulation) must be observationally identical to the interpreted reference
on every netlist: same three-valued net values, same detected fault sets,
same ATPG results.  These tests drive both backends over seeded random
netlists and the bundled library designs and require exact equality.
"""

import random

import pytest

from repro.atpg.compiled import (
    BACKENDS,
    NetValues,
    default_backend,
    get_compiled,
    resolve_backend,
)
from repro.atpg.engine import AtpgEngine, AtpgOptions
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import build_fault_list
from repro.atpg.simulator import LogicSimulator
from repro.designs import counter_source, small_designs
from repro.hierarchy import Design
from repro.synth import synthesize
from repro.synth.netlist import CONST0, CONST1, GateType, Netlist
from repro.verilog.parser import parse_source

_COMB = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
         GateType.NOR, GateType.XNOR, GateType.NOT, GateType.BUF]


def netlist_of(src, top=None):
    return synthesize(Design(parse_source(src), top=top))


def random_netlist(seed, num_pis=5, num_dffs=3, num_gates=25):
    """Seeded random sequential netlist with n-ary gates and Q-net POs."""
    rng = random.Random(seed)
    nl = Netlist(f"rand{seed}")
    nets = [CONST0, CONST1]
    nets += [nl.add_pi(f"i{k}") for k in range(num_pis)]
    qs = [nl.new_net(f"q{k}") for k in range(num_dffs)]
    nets += qs  # Q nets are usable before their DFF is declared.
    for k in range(num_gates):
        gtype = rng.choice(_COMB)
        if gtype in (GateType.NOT, GateType.BUF):
            ins = [rng.choice(nets)]
        else:
            ins = [rng.choice(nets)
                   for _ in range(rng.choice((2, 2, 2, 3, 4)))]
        nets.append(nl.add_gate(gtype, ins, name=f"g{k}"))
    for k, q in enumerate(qs):
        nl.add_gate_to(GateType.DFF, q, [rng.choice(nets)])
    # Observe a mix of gate outputs and DFF outputs (the Q-net PO case
    # regressed in an early compiled prototype).
    for k in range(4):
        nl.add_po(rng.choice(nets[2:]), f"o{k}")
    nl.add_po(rng.choice(qs), "oq")
    nl.validate()
    return nl


def random_mask_vectors(nl, cycles, width, seed):
    """Random (ones, zeros) PI masks, including X and partially-X lanes."""
    rng = random.Random(seed)
    full = (1 << width) - 1
    out = []
    for _ in range(cycles):
        vec = {}
        for pi in nl.pis:
            ones = rng.randint(0, full)
            zeros = rng.randint(0, full) & ~ones
            vec[pi] = (ones, zeros)
        out.append(vec)
    return out


def random_bit_vectors(nl, cycles, seed, x_rate=0.2):
    """Random scalar vectors; some PIs are left unassigned (X)."""
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        out.append({pi: rng.randint(0, 1) for pi in nl.pis
                    if rng.random() >= x_rate})
    return out


# -- logic simulator ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_logic_sim_differential(seed):
    nl = random_netlist(seed)
    width = 6
    ref = LogicSimulator(nl, width=width, backend="interpreted")
    cmp_ = LogicSimulator(nl, width=width, backend="arena")
    for vec in random_mask_vectors(nl, 8, width, seed + 100):
        v_ref = ref.step(vec)
        v_cmp = cmp_.step(vec)
        for net in range(nl.num_nets):
            assert v_cmp.get(net, (0, 0)) == v_ref.get(net, (0, 0)), \
                f"net {net} ({nl.net_name(net)})"
        assert dict(cmp_.state) == dict(ref.state)


def test_logic_sim_constants_and_undriven():
    nl = Netlist("consts")
    a = nl.add_pi("a")
    floating = nl.new_net("floating")
    g = nl.add_gate(GateType.AND, [a, CONST1, floating])
    nl.add_po(g, "o")
    sim = LogicSimulator(nl, backend="arena")
    values = sim.step({a: (1, 0)})
    assert values[CONST0] == (0, 1)
    assert values[CONST1] == (1, 0)
    assert values[floating] == (0, 0)  # undriven reads X
    assert values[g] == (0, 0)  # AND with an X input and no 0 input


# -- fault simulator ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lanes", [4, 512])
def test_fault_sim_differential(seed, lanes):
    nl = random_netlist(seed)
    faults = build_fault_list(nl)
    vectors = random_bit_vectors(nl, 10, seed + 500)
    ref = FaultSimulator(nl, lanes=lanes, backend="interpreted")
    cmp_ = FaultSimulator(nl, lanes=lanes, backend="arena")
    assert cmp_.detected_faults(vectors, faults) == \
        ref.detected_faults(vectors, faults)


def test_fault_sim_initial_state_and_extra_observables():
    nl = netlist_of(counter_source())
    faults = build_fault_list(nl)
    vectors = random_bit_vectors(nl, 6, 42, x_rate=0.0)
    init = {dff.output: (i % 2) for i, dff in enumerate(nl.dffs())}
    extra = [nl.dffs()[0].inputs[0]]
    ref = FaultSimulator(nl, backend="interpreted")
    cmp_ = FaultSimulator(nl, backend="arena")
    assert cmp_.detected_faults(vectors, faults, initial_state=init,
                                extra_observables=extra) == \
        ref.detected_faults(vectors, faults, initial_state=init,
                            extra_observables=extra)


@pytest.mark.parametrize("name", sorted(small_designs()))
def test_cone_partition_matches_full_block(name):
    """Cone-partitioned narrow arena blocks detect exactly what one
    full-width arena block (and the interpreted reference) detects on the
    bundled designs."""
    nl = netlist_of(small_designs()[name])
    faults = build_fault_list(nl)
    vectors = random_bit_vectors(nl, 8, 7, x_rate=0.1)
    one_block = FaultSimulator(nl, lanes=len(faults) + 1,
                               backend="arena")
    narrow = FaultSimulator(nl, lanes=5, backend="arena")
    ref = FaultSimulator(nl, backend="interpreted")
    expected = ref.detected_faults(vectors, faults)
    assert one_block.detected_faults(vectors, faults) == expected
    assert narrow.detected_faults(vectors, faults) == expected


def test_engine_backend_equivalence():
    nl = netlist_of(small_designs()["fsm"])
    reports = {}
    for backend in BACKENDS:
        engine = AtpgEngine(nl, AtpgOptions(
            max_frames=2, frame_schedule=(1, 2), backtrack_limit=50,
            random_sequences=2, random_sequence_length=8, seed=11,
            fault_sim_backend=backend))
        reports[backend] = engine.run()
    a, b = reports["interpreted"], reports["arena"]
    assert a.coverage_percent == b.coverage_percent
    assert a.efficiency_percent == b.efficiency_percent
    assert a.detected == b.detected
    assert a.num_vectors == b.num_vectors


# -- netlist cone/level helpers ----------------------------------------------


def test_fanout_cone_and_levels():
    nl = Netlist("cone")
    a = nl.add_pi("a")
    b = nl.add_pi("b")
    g1 = nl.add_gate(GateType.AND, [a, b])
    g2 = nl.add_gate(GateType.NOT, [g1])
    q = nl.new_net("q")
    nl.add_gate_to(GateType.DFF, q, [g2])
    g3 = nl.add_gate(GateType.OR, [q, b])
    nl.add_po(g3, "o")

    assert nl.fanout_cone(a) == {a, g1, g2, q, g3}
    assert nl.fanout_cone(a, through_dffs=False) == {a, g1, g2}
    assert nl.fanout_cone([g2]) == {g2, q, g3}

    levels = nl.levels()
    assert levels[a] == 0 and levels[q] == 0
    assert levels[g1] == 1 and levels[g2] == 2 and levels[g3] == 1

    order = nl.levelized_order()
    pos = {g.output: i for i, g in enumerate(order)}
    assert pos[g1] < pos[g2]
    assert len(order) == len(nl.topological_order())


def test_get_compiled_cache_and_staleness():
    nl = netlist_of(small_designs()["parity"])
    cn = get_compiled(nl)
    assert get_compiled(nl) is cn  # cached per netlist
    a = nl.pis[0]
    nl.add_gate(GateType.NOT, [a])
    assert cn.stale()
    cn2 = get_compiled(nl)
    assert cn2 is not cn
    assert len(cn2.order) == len(cn.order) + 1


def test_netvalues_mapping_behavior():
    nl = Netlist("nv")
    a = nl.add_pi("a")
    g = nl.add_gate(GateType.NOT, [a])
    nl.add_po(g, "o")
    sim = LogicSimulator(nl, backend="arena")
    values = sim.step({a: (1, 0)})
    assert isinstance(values, NetValues)
    assert len(values) == nl.num_nets
    assert set(values) == set(range(nl.num_nets))
    assert values[g] == (0, 1)
    assert values.get(nl.num_nets + 5) is None
    with pytest.raises(KeyError):
        values[nl.num_nets + 5]


# -- backend selection --------------------------------------------------------


def test_backend_env_default(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    assert default_backend() == "arena"
    assert resolve_backend(None) == "arena"
    monkeypatch.setenv("REPRO_SIM_BACKEND", "interpreted")
    assert default_backend() == "interpreted"
    assert resolve_backend(None) == "interpreted"
    assert resolve_backend("arena") == "arena"


def test_invalid_backend_rejected():
    assert BACKENDS == ("arena", "interpreted")
    with pytest.raises(ValueError):
        resolve_backend("bogus")
    with pytest.raises(ValueError, match="unknown simulation backend"):
        resolve_backend("compiled")  # removed backend
    nl = Netlist("x")
    nl.add_pi("a")
    with pytest.raises(ValueError):
        LogicSimulator(nl, backend="bogus")
    with pytest.raises(ValueError):
        FaultSimulator(nl, backend="bogus")
