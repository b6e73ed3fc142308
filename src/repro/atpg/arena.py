"""Arena-encoded netlist and word-parallel fault simulation.

The object-graph :class:`~repro.synth.netlist.Netlist` is the wrong shape for
the fault-simulation hot path: every evaluation walks ``Gate`` dataclasses,
tuples and dicts.  This module flattens a netlist once into a
:class:`NetlistArena` — a frozen struct-of-arrays encoding (gate opcodes,
outputs and CSR fanin/fanout as ``array('i')`` rows, dense net ids, the
levelized evaluation order baked into the row order, a DFS site-rank map for
cone packing) — and runs fault simulation directly on it.

The arena is plain picklable data: it is cached in the artifact store (stage
``arena``) keyed by the netlist fingerprint, and fork/spawn workers can be
handed the pickled arena instead of re-deriving per-process state from the
netlist.

Simulation model
----------------

Values are 3-valued (0/1/X), encoded as a (ones, zeros) pair of bit masks
packed into plain Python ints — one bit lane per *fault* (the workload is a
single dependent vector sequence, so the parallel axis is faults in wide
machine words, not independent patterns; see ``docs/performance.md`` for why
this differs from textbook PPSFP).  A call proceeds as:

1. **Good-machine pass** — the shared fault-free simulation, one plane per
   cycle, reusing the code-generated chunk functions of
   :mod:`repro.atpg.compiled` (bit-identical by construction).  The stored
   planes are all later steps read of the good machine.
2. **Refinement filter** — a stuck-at-``v`` fault whose site never carries
   the binary value ``1-v`` in the good machine (looked up in the stored
   planes) is provably undetectable by this sequence, so its lane is
   never simulated.  Proof sketch: by induction over levelized order and
   cycles, every faulty-machine net value *refines* the good value in the
   Kleene information order (injection forces ``v`` where the good machine
   has ``v`` or ``X``; all gate functions and the DFF latch are monotone
   in that order).  Detection
   requires a binary-vs-binary difference at an observe point, which a
   refinement cannot produce.
3. **Divergence-driven lane blocks** — surviving faults are sorted in cone
   pack order and run in ``lanes``-wide blocks.  A block stores a net only
   while it *diverges* from the good machine in some lane; every other net
   reads its good-plane value broadcast across the lanes.  Each cycle
   evaluates just the gate rows that read a divergent net or drive a live
   injection site, in row (levelized) order, with X-masks preserved end to
   end; a gate whose inputs all carry their good broadcast yields its good
   broadcast, so this is exact (selective trace plus parallel faults, as in
   PROOFS).  Detection compares divergent observe points with the good
   plane; a block exits early once every lane has detected, or once no
   lane is live and no state diverges.  Large steady-state workloads can
   instead run per-block *generated* functions over the block's whole
   fanout cone (single-use fanouts fused into consumer expressions), above
   the ``REPRO_ARENA_CODEGEN_*`` workload thresholds.

Transient (SEU) faults take the same path with their own filter (the good
value at the flip cycle) and sort key (flip cycle first): the block
executor gives every lane a live window — all cycles for a stuck-at
fault, its flip cycle for an upset — so one executor grades both models,
and an upset that dies out ends its block.

Detected sets are bit-identical to the interpreted oracle;
``tests/test_arena.py`` and ``tests/test_transient.py`` hold the
differential suites.
"""

from __future__ import annotations

import os
from array import array
from collections import OrderedDict
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)
from weakref import WeakKeyDictionary

from repro.synth.netlist import Gate, GateType, Netlist
from repro.atpg.faults import Fault, TransientFault

Mask = Tuple[int, int]
Vector = Mapping[int, int]

# Integer opcodes for the struct-of-arrays gate rows.  DFFs live in their
# own (dff_q, dff_d) rows, so only combinational types appear here.
OP_AND, OP_OR, OP_NAND, OP_NOR, OP_XOR, OP_XNOR, OP_NOT, OP_BUF = range(8)

_OP_OF = {
    GateType.AND: OP_AND, GateType.OR: OP_OR, GateType.NAND: OP_NAND,
    GateType.NOR: OP_NOR, GateType.XOR: OP_XOR, GateType.XNOR: OP_XNOR,
    GateType.NOT: OP_NOT, GateType.BUF: OP_BUF,
}
_GT_OF = {op: gt for gt, op in _OP_OF.items()}

# Below these workload sizes the ~0.5s/kgate block-codegen cost cannot
# amortize (ATPG cross-simulates 1-2 vectors per generated test), so the
# interpreted block program runs instead.  Env knobs let tests and smoke
# jobs exercise the generated path on tiny designs.
CODEGEN_MIN_FAULTS = 2000
CODEGEN_MIN_VECTORS = 8

# Fused single-use fanout expressions deeper than this are materialized
# anyway, bounding generated expression nesting (CPython's compiler and
# peephole stay fast).
_FUSE_MAX_DEPTH = 12


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ[name])
    except (KeyError, ValueError):
        return default


class NetlistArena:
    """Frozen struct-of-arrays encoding of one netlist.

    All rows are ``array('i')`` (or plain ints/strs), so instances pickle
    compactly and cheaply — workers receive the arena instead of re-deriving
    topological orders, levels and adjacency from the object graph.

    Rows:

    - ``gate_op`` / ``gate_out`` — combinational gates in levelized
      topological order (evaluation order is the row order),
    - ``fanin_off`` / ``fanin`` — CSR fanin per gate row,
    - ``dff_q`` / ``dff_d`` — flip-flop Q and D nets,
    - ``pis`` / ``pos`` — primary input / output nets,
    - ``adj_off`` / ``adj`` — CSR *sequential* fanout per net (one step of
      gate fanout, plus every D->Q flip-flop edge),
    - ``site_rank`` — DFS-topological rank per net (-1 for nets that are
      not gate outputs); :meth:`cone_pack_order` sorts fault sites by it so
      neighbouring lanes share fanout cones.
    """

    def __init__(self, name: str, num_nets: int,
                 gate_op: array, gate_out: array,
                 fanin_off: array, fanin: array,
                 dff_q: array, dff_d: array,
                 pis: array, pos: array,
                 adj_off: array, adj: array,
                 site_rank: array,
                 fingerprint: Tuple[int, int, int, int],
                 digest: str):
        self.name = name
        self.num_nets = num_nets
        self.gate_op = gate_op
        self.gate_out = gate_out
        self.fanin_off = fanin_off
        self.fanin = fanin
        self.dff_q = dff_q
        self.dff_d = dff_d
        self.pis = pis
        self.pos = pos
        self.adj_off = adj_off
        self.adj = adj
        self.site_rank = site_rank
        self.fingerprint = fingerprint
        self.digest = digest

    @property
    def num_gates(self) -> int:
        return len(self.gate_out)

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "NetlistArena":
        from repro.store import gates_fingerprint

        topo = netlist.topological_order()
        level = netlist.levels(topo)
        order = sorted(topo, key=lambda g: level[g.output])
        num_nets = netlist.num_nets

        gate_op = array("i", (_OP_OF[g.type] for g in order))
        gate_out = array("i", (g.output for g in order))
        fanin_off = array("i", [0])
        fanin = array("i")
        for g in order:
            fanin.extend(g.inputs)
            fanin_off.append(len(fanin))

        dffs = netlist.dffs()
        dff_q = array("i", (d.output for d in dffs))
        dff_d = array("i", (d.inputs[0] for d in dffs))

        # CSR sequential fanout: two passes (count, fill) keep it allocation
        # free beyond the two arrays.
        counts = array("i", bytes(4 * (num_nets + 1)))
        for g in netlist.gates:
            for inp in g.inputs:
                counts[inp] += 1
        adj_off = array("i", bytes(4 * (num_nets + 1)))
        total = 0
        for n in range(num_nets):
            adj_off[n] = total
            total += counts[n]
        adj_off[num_nets] = total
        cursor = array("i", adj_off)
        adj = array("i", bytes(4 * total))
        for g in netlist.gates:
            out = g.output
            for inp in g.inputs:
                adj[cursor[inp]] = out
                cursor[inp] += 1

        site_rank = array("i", [-1]) * num_nets
        for i, g in enumerate(topo):
            site_rank[g.output] = i

        fingerprint = (num_nets, len(netlist.gates), len(netlist.pis),
                       len(netlist.pos))
        digest = gates_fingerprint(order, num_nets)
        return cls(
            name=netlist.name, num_nets=num_nets,
            gate_op=gate_op, gate_out=gate_out,
            fanin_off=fanin_off, fanin=fanin,
            dff_q=dff_q, dff_d=dff_d,
            pis=array("i", netlist.pis), pos=array("i", netlist.pos),
            adj_off=adj_off, adj=adj, site_rank=site_rank,
            fingerprint=fingerprint, digest=digest,
        )

    # -- derived views ------------------------------------------------------

    def gate_inputs(self, gi: int) -> Tuple[int, ...]:
        return tuple(self.fanin[self.fanin_off[gi]:self.fanin_off[gi + 1]])

    def gates(self) -> List[Gate]:
        """The levelized combinational gate row as ``Gate`` objects.

        Used to share the good-machine codegen (and its marshal cache) with
        :mod:`repro.atpg.compiled` — the reconstructed sequence is
        element-wise identical to ``CompiledNetlist.order``.
        """
        return [
            Gate(type=_GT_OF[self.gate_op[gi]], output=self.gate_out[gi],
                 inputs=self.gate_inputs(gi))
            for gi in range(len(self.gate_out))
        ]

    def cone_of(self, sites: Iterable[int]) -> Set[int]:
        """Union sequential fanout cone of ``sites`` (multi-source BFS
        over the CSR adjacency), including the sites themselves."""
        adj, off = self.adj, self.adj_off
        seen: Set[int] = set(sites)
        stack = list(seen)
        while stack:
            net = stack.pop()
            for k in range(off[net], off[net + 1]):
                down = adj[k]
                if down not in seen:
                    seen.add(down)
                    stack.append(down)
        return seen

    def cone_pack_order(self, faults: Sequence[Fault]) -> List[Fault]:
        """Faults sorted so neighbouring lanes share fanout cones (PIs,
        which have no rank, sort first)."""
        rank = self.site_rank
        nn = self.num_nets
        return sorted(
            faults,
            key=lambda f: (rank[f.net] if f.net < nn else -1, f.net, f.value),
        )


_ARENAS: "WeakKeyDictionary[Netlist, NetlistArena]" = WeakKeyDictionary()


def get_arena(netlist: Netlist) -> NetlistArena:
    """The cached arena encoding of ``netlist``.

    In-process instances are cached per netlist object (rebuilt when the
    netlist grew — append-only mutation is the only kind this codebase
    performs); across processes the pickled arena is memoized in the
    artifact store under the ``arena`` stage, keyed by the netlist
    fingerprint.
    """
    cached = _ARENAS.get(netlist)
    current = (netlist.num_nets, len(netlist.gates), len(netlist.pis),
               len(netlist.pos))
    if cached is not None and cached.fingerprint == current:
        return cached

    from repro.store import get_store, netlist_fingerprint

    store = get_store()
    key = {"netlist": netlist_fingerprint(netlist)}
    payload = store.get("arena", key)
    arena: Optional[NetlistArena] = None
    if (isinstance(payload, NetlistArena)
            and payload.fingerprint == current):
        arena = payload
    if arena is None:
        arena = NetlistArena.from_netlist(netlist)
        store.put("arena", key, arena)
    _ARENAS[netlist] = arena
    return arena


# -- word-parallel fault simulation -------------------------------------------

# Cost model for the greedy block partition: estimated nanoseconds per
# bitwise op at a given lane width (big-int ops grow sub-linearly until the
# operands spill the cache).  Measured on the development host; the exact
# numbers only steer *merging* — correctness never depends on the partition.
_OPCOST = ((512, 105), (1024, 108), (2048, 112), (4096, 133),
           (8192, 162), (16384, 222))


def _opcost(lanes: int) -> int:
    for cap, cost in _OPCOST:
        if lanes <= cap:
            return cost
    return 350


class ArenaFaultSim:
    """Fault simulation over one :class:`NetlistArena`.

    Holds every reusable artifact of repeated simulation against the same
    arena: the good-machine chunk functions, the memoized good-plane pass,
    the lane-block executor's event tables, built generated blocks and
    their per-good-pass cycle setups.  Get instances through
    :func:`get_arena_sim` so all ``FaultSimulator`` facades over the same
    arena share them.
    """

    def __init__(self, arena: NetlistArena):
        self.arena = arena
        self._chunks = None  # good-machine codegen, built lazily
        # Good-plane memo: one entry, keyed both by object identity (the
        # common case: a bench/ATPG loop re-simulating the same vector list
        # object) and by value.  Strong refs are intentional — callers must
        # not mutate a vector list in place between calls (no caller does;
        # vectors are built fresh per sequence).
        self._good_vectors: Optional[Sequence[Vector]] = None
        self._good_istate: Optional[Mapping[int, int]] = None
        self._good_key = None
        self._good = None
        self._good_token = 0
        # Built codegen blocks keyed by (survivor lanes, observe points).
        self._blocks: "OrderedDict[tuple, list]" = OrderedDict()
        self._tables = None  # divergence-executor tables, built lazily

    # -- good machine -------------------------------------------------------

    def _ensure_chunks(self):
        if self._chunks is None:
            from repro.atpg.compiled import _codegen_chunks

            # Reconstructing Gate rows and reusing the compiled backend's
            # codegen guarantees a bit-identical good machine *and* shares
            # its marshal cache (same gate fingerprint, same source).
            self._chunks = _codegen_chunks(self.arena.gates(),
                                           self.arena.name,
                                           num_nets=self.arena.num_nets)
        return self._chunks

    def _good_pass(self, vectors: Sequence[Vector],
                   initial_state: Optional[Mapping[int, int]]):
        """Simulate the fault-free machine; returns ``(planes, token)``.

        ``planes`` holds one flat ``[o0, z0, o1, z1, ...]`` snapshot per
        cycle, each entry 0 or 1.  They are all later stages read of the
        good machine: the undetectability filters look up fault sites in
        them, and lane blocks broadcast them wherever a net does not
        diverge.
        """
        from repro.obs import counter

        if vectors is self._good_vectors and initial_state is self._good_istate:
            counter("fault_sim.arena.good_plane_hits").inc()
            return self._good
        key = (
            tuple(tuple(sorted(vec.items())) for vec in vectors),
            tuple(sorted(initial_state.items())) if initial_state else (),
        )
        if key == self._good_key:
            counter("fault_sim.arena.good_plane_hits").inc()
            self._good_vectors = vectors
            self._good_istate = initial_state
            return self._good

        chunks = self._ensure_chunks()
        arena = self.arena
        nn = arena.num_nets
        pis, dff_q, dff_d = arena.pis, arena.dff_q, arena.dff_d
        state: Dict[int, Mask] = {q: (0, 0) for q in dff_q}
        if initial_state:
            for q, bit in initial_state.items():
                state[q] = (1, 0) if bit else (0, 1)
        values = [0] * (2 * nn)
        values[1] = 1  # const0 zeros plane
        values[2] = 1  # const1 ones plane
        planes: List[List[int]] = []
        for vec in vectors:
            for pi in pis:
                bit = vec.get(pi)
                i = 2 * pi
                if bit is None:
                    values[i] = values[i + 1] = 0
                elif bit:
                    values[i] = 1
                    values[i + 1] = 0
                else:
                    values[i] = 0
                    values[i + 1] = 1
            for k in range(len(dff_q)):
                o, z = state[dff_q[k]]
                i = 2 * dff_q[k]
                values[i] = o
                values[i + 1] = z
            for chunk in chunks:
                chunk(values, 1)
            planes.append(values[:])
            for k in range(len(dff_q)):
                i = 2 * dff_d[k]
                state[dff_q[k]] = (values[i], values[i + 1])
        self._good_token += 1
        self._good = (planes, self._good_token)
        self._good_vectors = vectors
        self._good_istate = initial_state
        self._good_key = key
        return self._good

    # -- block partition ----------------------------------------------------

    def _partition(self, ordered: Sequence[Fault], base: int):
        """Greedily merge cone-packed fault chunks while the cost model
        says a merged block beats the pair (fewer redundant evaluations of
        shared cone gates vs pricier wider-lane ops)."""
        arena = self.arena
        gate_out = arena.gate_out

        def cone_gates(cone: Set[int]) -> int:
            return sum(1 for out in gate_out if out in cone)

        chunks = []
        for i in range(0, len(ordered), base):
            blk = list(ordered[i:i + base])
            cone = arena.cone_of({f.net for f in blk})
            chunks.append([blk, cone, cone_gates(cone)])

        def cost(blk, ng):
            sites = len({f.net for f in blk})
            return (ng * 2.6 + sites * 3.0) * _opcost(len(blk))

        changed = True
        while changed:
            changed = False
            out = []
            i = 0
            while i < len(chunks):
                if i + 1 < len(chunks):
                    b1, c1, n1 = chunks[i]
                    b2, c2, n2 = chunks[i + 1]
                    cu = c1 | c2
                    nu = cone_gates(cu)
                    if cost(b1 + b2, nu) < cost(b1, n1) + cost(b2, n2):
                        out.append([b1 + b2, cu, nu])
                        i += 2
                        changed = True
                        continue
                out.append(chunks[i])
                i += 1
            chunks = out
        return chunks

    # -- generated block path ------------------------------------------------

    def _block_shape(self, blk: Sequence[Fault], cone: Set[int],
                     obs_set: frozenset):
        """Everything a generated block needs about one lane block:
        injection-site lane masks, the cone's gate rows, flip-flops,
        boundary nets (read by the cone but produced outside it — they
        broadcast the shared good value) and observe points."""
        arena = self.arena
        gate_out, fanin, fanin_off = (arena.gate_out, arena.fanin,
                                      arena.fanin_off)
        site_lanes: Dict[int, Mask] = {}
        for li, f in enumerate(blk):
            m1, m0 = site_lanes.get(f.net, (0, 0))
            if f.value == 1:
                m1 |= 1 << li
            else:
                m0 |= 1 << li
            site_lanes[f.net] = (m1, m0)
        cone_gis = [gi for gi in range(len(gate_out)) if gate_out[gi] in cone]
        dff_q, dff_d = arena.dff_q, arena.dff_d
        cone_dks = [k for k in range(len(dff_q)) if dff_q[k] in cone]
        innets: Set[int] = set()
        for gi in cone_gis:
            innets.update(fanin[fanin_off[gi]:fanin_off[gi + 1]])
        for k in cone_dks:
            innets.add(dff_d[k])
        comb_out = {gate_out[gi] for gi in cone_gis}
        qs = [dff_q[k] for k in cone_dks]
        produced = comb_out | set(qs)
        bound = sorted((innets | cone) - produced)
        obs = sorted(obs_set & cone)
        site_order = sorted(site_lanes)
        return dict(
            blk=list(blk), lanes=len(blk), site_lanes=site_lanes,
            site_order=site_order, cone_gis=cone_gis, cone_dks=cone_dks,
            comb_out=comb_out, qs=qs, bound=bound, obs=obs,
        )

    def _build_codegen_block(self, blk: Sequence[Fault], cone: Set[int],
                             obs_set: frozenset):
        """Compile one lane block into a specialized function
        ``_blk(CYCS, M, I, PRESENT) -> det``.

        Every cone net is a local; per-cycle boundary broadcasts and
        good-plane observation selectors arrive as one pre-built tuple per
        cycle; injection masks arrive in ``M`` (three slots per site:
        erase/force1/force0), so the same code serves any requested subset
        of the block's lanes — a lane with empty masks simulates the good
        machine and can never detect.  Gates whose output is used exactly
        once inside the block (and is not a site, observe point, state or
        boundary net, nor an XOR operand) are fused into their consumer's
        expression, eliminating their store/load round trip.
        """
        arena = self.arena
        gate_op, gate_out = arena.gate_op, arena.gate_out
        fanin, fanin_off = arena.fanin, arena.fanin_off
        dff_q, dff_d = arena.dff_q, arena.dff_d
        shape = self._block_shape(blk, cone, obs_set)
        site_lanes = shape["site_lanes"]
        site_order = shape["site_order"]
        sidx = {n: 3 * k for k, n in enumerate(site_order)}
        cone_gis, cone_dks = shape["cone_gis"], shape["cone_dks"]
        comb_out, qs = shape["comb_out"], shape["qs"]
        bound, obs = shape["bound"], shape["obs"]

        # Polarity class per site decides the injection template: sites with
        # a single stuck value need 2 ops instead of 4.  The class reflects
        # the *block's* lane list; per-call subset masks always fit it.
        spol = {}
        for n in site_order:
            m1, m0 = site_lanes[n]
            spol[n] = "both" if (m1 and m0) else ("one" if m1 else "zero")

        def norm(op: int, ins: Tuple[int, ...]):
            # Degenerate single-input n-ary gates reduce to BUF/NOT exactly
            # as in the interpreted fold (identity elements).
            if len(ins) == 1 and op not in (OP_NOT, OP_BUF):
                return (OP_BUF if op in (OP_AND, OP_OR, OP_XOR)
                        else OP_NOT), ins
            return op, ins

        gate_row = {}
        uses: Dict[int, int] = {}
        for gi in cone_gis:
            ins = tuple(fanin[fanin_off[gi]:fanin_off[gi + 1]])
            op, ins = norm(gate_op[gi], ins)
            gate_row[gate_out[gi]] = (op, ins)
            for i in ins:
                uses[i] = uses.get(i, 0) + 1

        keep: Set[int] = set(site_order) | set(obs) | set(qs) | set(bound)
        for k in cone_dks:
            keep.add(dff_d[k])
        for op, ins in gate_row.values():
            if op in (OP_XOR, OP_XNOR):
                # XOR consumes both planes of each operand twice; fusing an
                # operand would evaluate its expression repeatedly.
                keep.update(ins)

        fuse: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        depth: Dict[int, int] = {}
        for gi in cone_gis:
            out = gate_out[gi]
            op, ins = gate_row[out]
            d = 1 + max((depth.get(i, 0) for i in ins), default=0)
            if (out not in keep and uses.get(out, 0) == 1
                    and d <= _FUSE_MAX_DEPTH
                    and not (op in (OP_XOR, OP_XNOR) and len(ins) > 2)):
                fuse[out] = (op, ins)
                depth[out] = d
            else:
                depth[out] = 0

        def ref(n: int, plane: int) -> str:
            fused = fuse.get(n)
            if fused is not None:
                return "(" + expr(fused[0], fused[1], plane) + ")"
            return f"o{n}" if plane == 0 else f"z{n}"

        def expr(op: int, ins: Tuple[int, ...], plane: int) -> str:
            if op == OP_BUF:
                return ref(ins[0], plane)
            if op == OP_NOT:
                return ref(ins[0], 1 - plane)
            if op == OP_AND:
                return (" & " if plane == 0 else " | ").join(
                    ref(i, plane) for i in ins)
            if op == OP_NAND:
                return (" | " if plane == 0 else " & ").join(
                    ref(i, 1 - plane) for i in ins)
            if op == OP_OR:
                return (" | " if plane == 0 else " & ").join(
                    ref(i, plane) for i in ins)
            if op == OP_NOR:
                return (" & " if plane == 0 else " | ").join(
                    ref(i, 1 - plane) for i in ins)
            # 2-input XOR/XNOR (n-ary folds are emitted as statements)
            a, b = ins
            if op == OP_XNOR:
                plane = 1 - plane
            if plane == 0:
                return (f"({ref(a, 0)} & {ref(b, 1)}) | "
                        f"({ref(a, 1)} & {ref(b, 0)})")
            return (f"({ref(a, 0)} & {ref(b, 0)}) | "
                    f"({ref(a, 1)} & {ref(b, 1)})")

        def inject_stmts(out: int, on: str, zn: str) -> List[str]:
            k = sidx[out]
            pol = spol[out]
            if pol == "both":
                return [f"        o{out} = (({on}) & M[{k}]) | M[{k + 1}]",
                        f"        z{out} = (({zn}) & M[{k}]) | M[{k + 2}]"]
            if pol == "one":
                return [f"        o{out} = ({on}) | M[{k + 1}]",
                        f"        z{out} = ({zn}) & M[{k}]"]
            return [f"        o{out} = ({on}) & M[{k}]",
                    f"        z{out} = ({zn}) | M[{k + 2}]"]

        src = ["def _blk(CYCS, M, I, PRESENT):", "    det = 0"]
        for k, q in enumerate(qs):
            src.append(f"    o{q} = I[{2 * k}]; z{q} = I[{2 * k + 1}]")
        src.append("    for CYC in CYCS:")
        names: List[str] = []
        for n in bound:
            names.append(f"o{n}")
            names.append(f"z{n}")
        for p in obs:
            names.append(f"s1_{p}")
            names.append(f"s0_{p}")
        if names:
            src.append(f"        ({', '.join(names)},) = CYC")
        # Fill-level injection: sites that are not cone gate outputs (PIs,
        # flip-flop Qs, boundary nets) get their masks applied after the
        # source values land; gate-output sites inject inline below.
        for n in site_order:
            if n in comb_out:
                continue
            src.extend(inject_stmts(n, f"o{n}", f"z{n}"))
        for gi in cone_gis:
            out = gate_out[gi]
            if out in fuse:
                continue
            op, ins = gate_row[out]
            if op in (OP_XOR, OP_XNOR) and len(ins) > 2:
                src.append(f"        _to = {ref(ins[0], 0)}; "
                           f"_tz = {ref(ins[0], 1)}")
                for i in ins[1:]:
                    src.append(
                        f"        _to, _tz = (_to & {ref(i, 1)}) | "
                        f"(_tz & {ref(i, 0)}), (_to & {ref(i, 0)}) | "
                        f"(_tz & {ref(i, 1)})")
                on, zn = ("_to", "_tz") if op == OP_XOR else ("_tz", "_to")
            else:
                on = expr(op, ins, 0)
                zn = expr(op, ins, 1)
            if out in site_lanes:
                src.extend(inject_stmts(out, on, zn))
            else:
                src.append(f"        o{out} = {on}")
                src.append(f"        z{out} = {zn}")
        # Detection against the good-plane selectors *before* the state
        # latch: observation compares this cycle's settled values.
        for p in obs:
            src.append(f"        det |= (z{p} & s1_{p}) | (o{p} & s0_{p})")
        if cone_dks:
            # One tuple assignment latches every flip-flop simultaneously,
            # so Q->D chains read pre-latch values (synchronous semantics).
            lhs = ", ".join(f"o{dff_q[k]}, z{dff_q[k]}" for k in cone_dks)
            rhs = ", ".join(f"o{dff_d[k]}, z{dff_d[k]}" for k in cone_dks)
            src.append(f"        {lhs} = {rhs}")
        src.append("        if det == PRESENT: break")
        src.append("    return det")

        namespace: Dict[str, object] = {}
        exec(compile("\n".join(src), f"<arena:{arena.name}>", "exec"),
             namespace)
        shape["fn"] = namespace["_blk"]
        shape["setups"] = OrderedDict()
        # The injection mask vector is block-invariant: all of the block's
        # lanes are always present (the block cache is keyed by the exact
        # survivor tuple).
        M: List[int] = []
        for n in site_order:
            m1, m0 = site_lanes[n]
            M.extend((~(m1 | m0), m1, m0))
        shape["M"] = M
        return shape

    def _run_codegen_block(self, b, planes, token: int,
                           initial_state: Optional[Mapping[int, int]]):
        """Execute one built block against the memoized good planes;
        returns ``(det, present)`` lane masks."""
        lanes = b["lanes"]
        full = (1 << lanes) - 1
        # Per-cycle boundary/selector tuples and the initial-state vector
        # depend only on (block, good pass): broadcast masks reference the
        # one shared ``full`` object, so a setup is cheap to hold and free
        # to reuse across repeated simulations of the same sequence.
        setups = b["setups"]
        setup = setups.get(token)
        if setup is None:
            I: List[int] = []
            for q in b["qs"]:
                if initial_state and q in initial_state:
                    I.extend((full, 0) if initial_state[q] else (0, full))
                else:
                    I.extend((0, 0))
            cycs = []
            for plane in planes:
                cyc: List[int] = []
                for n in b["bound"]:
                    i = 2 * n
                    cyc.append(full if plane[i] else 0)
                    cyc.append(full if plane[i + 1] else 0)
                for p in b["obs"]:
                    i = 2 * p
                    cyc.append(full if plane[i] else 0)
                    cyc.append(full if plane[i + 1] else 0)
                cycs.append(tuple(cyc))
            setup = (cycs, I)
            setups[token] = setup
            while len(setups) > 2:
                setups.popitem(last=False)
        else:
            setups.move_to_end(token)
        cycs, I = setup
        return b["fn"](cycs, b["M"], I, full), full

    # -- divergence-driven block path ----------------------------------------

    def _event_tables(self):
        """The executor's per-arena tables, built once.

        - ``rows[r] = (op, out, ins, readers)`` per gate row, where
          ``readers`` are the gate rows reading ``out``;
        - ``readers[n]``: the gate rows reading net ``n`` (deduplicated,
          in row order);
        - ``row_of``: the gate row driving each net, or -1;
        - ``feeds``: D net -> the flip-flop Q nets it drives.

        Per-row tuples make an event one list lookup instead of three
        array slices; every tuple shares one int object per net or row.
        The tables live on the simulator rather than the arena because
        the pickled arena's store key does not change with this module.
        """
        if self._tables is None:
            arena = self.arena
            nn = arena.num_nets
            nets = list(range(nn))
            gis = list(range(arena.num_gates))
            fanin, fanin_off = arena.fanin, arena.fanin_off
            reading: List[List[int]] = [[] for _ in range(nn)]
            for gi in gis:
                for i in fanin[fanin_off[gi]:fanin_off[gi + 1]]:
                    rd = reading[i]
                    if not rd or rd[-1] != gi:
                        rd.append(gi)
            readers = [tuple(rd) for rd in reading]
            rows = [
                (arena.gate_op[gi], nets[out],
                 tuple(nets[i] for i in
                       fanin[fanin_off[gi]:fanin_off[gi + 1]]),
                 readers[out])
                for gi, out in zip(gis, arena.gate_out)
            ]
            row_of = array("i", [-1]) * nn
            for gi, out in enumerate(arena.gate_out):
                row_of[out] = gi
            feeds: Dict[int, Tuple[int, ...]] = {}
            for q, d in zip(arena.dff_q, arena.dff_d):
                feeds[d] = feeds.get(d, ()) + (nets[q],)
            self._tables = (rows, readers, row_of, feeds)
        return self._tables

    def _run_lane_block(self, blk: Sequence[Fault],
                        windows: Sequence[Tuple[int, int]], planes,
                        role: bytearray):
        """One lane block, evaluated only where it diverges from the good
        machine; returns ``(det, present)`` lane masks.

        Lane ``li`` forces its fault only during its live window
        ``windows[li] = (first, stop)`` of cycles: every cycle for a
        stuck-at fault, the flip cycle alone for an SEU.  A net whose
        value equals its good-plane value broadcast across the lanes
        (``full`` or 0 per plane) is never stored; readers take the
        broadcast.  Each cycle starts from the sources of divergence —
        flip-flops that latched a divergent D, fill-level injection sites
        (PIs, flip-flop Qs, constants) and the gate rows of live
        gate-output sites — and evaluates only gate rows that read a
        divergent net, in row (levelized) order.  A gate whose inputs all
        carry their good broadcast yields its good broadcast, so the
        result is bit-identical to evaluating the whole fanout cone.
        ``role[n]`` flags observe points (1) and D nets (2).

        Before its window a lane equals the good machine, so simulation
        starts at the block's earliest live cycle with no divergent
        state.  It stops once every lane has detected, or once no lane is
        live, no state diverges and no window opens later (an upset that
        died out ends its block).  Site masks are rebuilt only on cycles
        where the set of live lanes changes, and only at the sites of the
        lanes that entered or left.
        """
        from repro.obs import counter

        rows, readers, row_of, feeds = self._event_tables()
        arena = self.arena
        full = (1 << len(blk)) - 1
        site_lanes: Dict[int, List[int]] = {}  # net -> [force-1, force-0]
        for li, f in enumerate(blk):
            site_lanes.setdefault(f.net, [0, 0])[f.value != 1] |= 1 << li

        # cycle -> lanes entering or leaving their window there.
        ncyc = len(planes)
        events: Dict[int, List[int]] = {}
        for li, (first, stop) in enumerate(windows):
            events.setdefault(first, []).append(li)
            if stop < ncyc:
                events.setdefault(stop, []).append(li)
        last_event = max(events)

        # Divergent values per net; None means "the good broadcast".
        dv: List[Optional[Mask]] = [None] * arena.num_nets
        queued = bytearray(arena.num_gates)
        fills: Dict[int, Tuple[int, int, int]] = {}  # net -> masks
        forced: Dict[int, Tuple[int, int, int]] = {}  # gate row -> masks
        state: Dict[int, Mask] = {}  # divergent flip-flop Q values
        det = live = evals = 0
        for cycle in range(min(events), ncyc):
            toggled = events.get(cycle)
            if toggled is not None:
                # Live lanes changed: rebuild the injection masks of the
                # sites they force (fills for sources, forced gate rows for
                # gate outputs).
                for li in toggled:
                    live ^= 1 << li
                for n in {blk[li].net for li in toggled}:
                    m1, m0 = site_lanes[n]
                    m1 &= live
                    m0 &= live
                    r = row_of[n]
                    table, key = (forced, r) if r >= 0 else (fills, n)
                    if m1 or m0:
                        table[key] = (~(m1 | m0), m1, m0)
                    else:
                        table.pop(key, None)
            if not live and not state:
                if cycle >= last_event:
                    break
                continue
            plane = planes[cycle]

            # Sources: divergent state, then fill-level injection.
            touched: List[int] = list(state)
            for q, val in state.items():
                dv[q] = val
            for n, (em, m1, m0) in fills.items():
                j = n + n
                go = full if plane[j] else 0
                gz = full if plane[j + 1] else 0
                val = dv[n]
                o, z = (go, gz) if val is None else val
                o = (o & em) | m1
                z = (z & em) | m0
                if o != go or z != gz:
                    if val is None:
                        touched.append(n)
                    dv[n] = (o, z)
                elif val is not None:
                    dv[n] = None  # the fault masks a divergent Q
            for r in forced:
                queued[r] = 1
            marked: List[int] = []  # divergent observe points and D nets
            for n in touched:
                if dv[n] is not None:
                    for r in readers[n]:
                        queued[r] = 1
                    if role[n]:
                        marked.append(n)

            # Rows only feed higher rows: one forward scan of the marks
            # visits every scheduled row once, in row (levelized) order.
            r = queued.find(1)
            while r >= 0:
                queued[r] = 0
                evals += 1
                op, out, ins, fanout = rows[r]
                if op == OP_AND or op == OP_NAND:
                    o, z = full, 0
                    for i in ins:
                        val = dv[i]
                        if val is not None:
                            o &= val[0]
                            z |= val[1]
                        elif not plane[i + i]:
                            o = 0
                            if plane[i + i + 1]:  # controlling 0
                                z = full
                                break
                    if op == OP_NAND:
                        o, z = z, o
                elif op == OP_OR or op == OP_NOR:
                    o, z = 0, full
                    for i in ins:
                        val = dv[i]
                        if val is not None:
                            o |= val[0]
                            z &= val[1]
                        elif plane[i + i]:  # controlling 1
                            o, z = full, 0
                            break
                        elif not plane[i + i + 1]:
                            z = 0
                    if op == OP_NOR:
                        o, z = z, o
                else:  # BUF / NOT, and XOR / XNOR folded from input 0
                    i = ins[0]
                    val = dv[i]
                    if val is None:
                        o = full if plane[i + i] else 0
                        z = full if plane[i + i + 1] else 0
                    else:
                        o, z = val
                    for i in ins[1:]:
                        val = dv[i]
                        if val is None:
                            io = full if plane[i + i] else 0
                            iz = full if plane[i + i + 1] else 0
                        else:
                            io, iz = val
                        o, z = (o & iz) | (z & io), (o & io) | (z & iz)
                    if op == OP_NOT or op == OP_XNOR:
                        o, z = z, o
                if r in forced:
                    em, m1, m0 = forced[r]
                    o = (o & em) | m1
                    z = (z & em) | m0
                j = out + out
                if plane[j]:
                    diverged = o != full or z
                elif plane[j + 1]:
                    diverged = o or z != full
                else:
                    diverged = o or z
                if diverged:
                    dv[out] = (o, z)
                    touched.append(out)
                    for r2 in fanout:
                        queued[r2] = 1
                    if role[out]:
                        marked.append(out)
                r = queued.find(1, r + 1)

            # Detect at divergent observe points, latch divergent D values
            # and reset the touched nets to their broadcast.
            nxt: Dict[int, Mask] = {}
            for n in marked:
                val = dv[n]
                if role[n] & 1:
                    if plane[n + n]:
                        det |= val[1]
                    elif plane[n + n + 1]:
                        det |= val[0]
                if role[n] & 2:
                    for q in feeds[n]:
                        nxt[q] = val
            for n in touched:
                dv[n] = None
            state = nxt
            if det == full:
                break
        counter("fault_sim.arena.gate_evals").inc(evals)
        return det, full

    def _interp_blocks(self, ordered: Sequence[Fault], window, planes,
                       obs_set: frozenset, lanes: int):
        """Run ``ordered`` in consecutive ``lanes``-wide blocks;
        ``window(fault)`` gives each lane's live cycles."""
        _rows, _readers, _row_of, feeds = self._event_tables()
        role = bytearray(self.arena.num_nets)
        for d in feeds:
            role[d] = 2
        for p in obs_set:
            role[p] |= 1
        results = []
        for start in range(0, len(ordered), lanes):
            blk = ordered[start:start + lanes]
            det, present = self._run_lane_block(
                blk, [window(f) for f in blk], planes, role)
            results.append((blk, det, present))
        return results

    def _observe_set(self, extra_observables: Optional[Sequence[int]]
                     ) -> frozenset:
        obs_points: Set[int] = set(self.arena.pos)
        if extra_observables:
            obs_points.update(extra_observables)
        return frozenset(obs_points)

    @staticmethod
    def _decode(results) -> Tuple[Set[Fault], int]:
        """Detected faults from ``(blk, det, present)`` lane masks, plus
        the block count; records the per-block ``fault_sim.arena``
        counters."""
        from repro.obs import counter

        detected: Set[Fault] = set()
        early = 0
        filled = 0
        for blk, det, present in results:
            filled += bin(present).count("1")
            if det == present:
                early += 1
            while det:
                li = (det & -det).bit_length() - 1
                detected.add(blk[li])
                det &= det - 1
        counter("fault_sim.arena.passes").inc(len(results))
        counter("fault_sim.arena.lanes_filled").inc(filled)
        counter("fault_sim.arena.early_exits").inc(early)
        return detected, len(results)

    # -- public entry --------------------------------------------------------

    def detected_faults(
        self,
        vectors: Sequence[Vector],
        faults: Sequence[Fault],
        initial_state: Optional[Mapping[int, int]] = None,
        extra_observables: Optional[Sequence[int]] = None,
        lanes: int = 512,
    ) -> Tuple[Set[Fault], int]:
        """Detected subset of ``faults`` plus the number of lane blocks run.

        Bit-identical to the interpreted oracle for any mix of X inputs,
        initial flip-flop state and extra observe points.
        """
        from repro.obs import counter

        if not faults:
            return set(), 0
        planes, token = self._good_pass(vectors, initial_state)
        arena = self.arena
        obs_set = self._observe_set(extra_observables)

        # A stuck-at-v site must carry binary 1-v in some good cycle: plane
        # slot 2*net + 1 holds "is 0", slot 2*net "is 1".
        excitable: Dict[int, bool] = {}
        surv = []
        for f in faults:
            i = 2 * f.net + (f.value == 1)
            hit = excitable.get(i)
            if hit is None:
                hit = excitable[i] = any(plane[i] for plane in planes)
            if hit:
                surv.append(f)
        counter("fault_sim.arena.filtered_undetectable").inc(
            len(faults) - len(surv))
        if not surv:
            return set(), 0
        ordered = arena.cone_pack_order(surv)

        key = (tuple(ordered), tuple(sorted(obs_set)))
        blocks = self._blocks.get(key)
        use_codegen = blocks is not None or (
            len(vectors) >= _env_int("REPRO_ARENA_CODEGEN_MIN_VECTORS",
                                     CODEGEN_MIN_VECTORS)
            and len(ordered) >= _env_int("REPRO_ARENA_CODEGEN_MIN_FAULTS",
                                         CODEGEN_MIN_FAULTS))
        if not use_codegen:
            counter("fault_sim.arena.fallback_calls").inc()
            every_cycle = (0, len(planes))
            return self._decode(self._interp_blocks(
                ordered, lambda f: every_cycle, planes, obs_set, lanes))
        if blocks is None:
            counter("fault_sim.arena.codegen_builds").inc()
            parts = self._partition(ordered, base=max(lanes, 64))
            blocks = [
                self._build_codegen_block(blk, cone, obs_set)
                for blk, cone, _ng in parts
            ]
            self._blocks[key] = blocks
            while len(self._blocks) > 8:
                self._blocks.popitem(last=False)
        else:
            counter("fault_sim.arena.block_cache_hits").inc()
            self._blocks.move_to_end(key)
        results = []
        for b in blocks:
            det, present = self._run_codegen_block(b, planes, token,
                                                   initial_state)
            results.append((b["blk"], det, present))
        return self._decode(results)

    # -- transient (SEU) faults ----------------------------------------------

    def detected_transients(
        self,
        vectors: Sequence[Vector],
        faults: Sequence[TransientFault],
        initial_state: Optional[Mapping[int, int]] = None,
        extra_observables: Optional[Sequence[int]] = None,
        lanes: int = 512,
    ) -> Tuple[Set[TransientFault], int]:
        """Detected subset of single-cycle upsets plus lane blocks run.

        Reuses the memoized good planes twice: as the undetectability
        pre-filter (an upset forcing ``v`` at a (site, cycle) where the
        good machine already carries ``v`` is the identity; where it
        carries X the forced binary value is a Kleene refinement — either
        way no binary-vs-binary difference can ever reach an observe
        point, by the same monotonicity argument as the stuck-at filter,
        so only sites whose good value is binary ``1-v`` at the flip
        cycle survive) and as the broadcast value of every net a lane
        block does not disturb.  Survivors are sorted flip-cycle first, so
        each block starts late and its live lanes change on few cycles.
        Bit-identical to the interpreted oracle.
        """
        from repro.obs import counter

        if not faults:
            return set(), 0
        planes, _token = self._good_pass(vectors, initial_state)
        arena = self.arena
        obs_set = self._observe_set(extra_observables)

        ncyc = len(planes)
        surv: List[TransientFault] = []
        for f in faults:
            if f.cycle >= ncyc:
                continue
            plane = planes[f.cycle]
            i = 2 * f.net
            if plane[i + 1] if f.value == 1 else plane[i]:
                surv.append(f)
        counter("fault_sim.arena.filtered_undetectable").inc(
            len(faults) - len(surv))
        if not surv:
            return set(), 0

        rank = arena.site_rank
        nn = arena.num_nets
        ordered = sorted(
            surv,
            key=lambda f: (f.cycle, rank[f.net] if f.net < nn else -1,
                           f.net, f.value),
        )
        return self._decode(self._interp_blocks(
            ordered, lambda f: (f.cycle, f.cycle + 1), planes, obs_set,
            lanes))


_SIMS: "WeakKeyDictionary[NetlistArena, ArenaFaultSim]" = WeakKeyDictionary()


def get_arena_sim(arena: NetlistArena) -> ArenaFaultSim:
    """The shared :class:`ArenaFaultSim` for an arena: every facade over
    the same arena object reuses one good-plane memo and block cache."""
    sim = _SIMS.get(arena)
    if sim is None:
        sim = ArenaFaultSim(arena)
        _SIMS[arena] = sim
    return sim
