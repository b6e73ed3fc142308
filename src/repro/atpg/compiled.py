"""Compiled good-machine evaluation and simulation-backend selection.

Instead of interpreting the gate list with per-gate dict lookups, this module
code-generates one specialized straight-line Python function per netlist:
every net becomes a local variable (``o<net>``/``z<net>`` for the ones/zeros
masks), gate operations are inlined in levelized topological order, and the
results are flushed into a flat list ``V`` (``V[2n]`` = ones, ``V[2n+1]`` =
zeros of net *n*).  The generated code is chunked into functions of bounded
size so CPython's compiler stays fast, built once per :class:`Netlist` and
cached (:func:`get_compiled`).  :class:`~repro.atpg.simulator.LogicSimulator`
and the arena fault simulator's good-machine pass both run this code.

Backend selection: ``backend="arena"`` (default, see
:mod:`repro.atpg.arena`) or ``"interpreted"`` (the reference oracle); the
environment variable ``REPRO_SIM_BACKEND`` overrides the default.  Both
backends produce bit-identical values and detected sets.
"""

from __future__ import annotations

import os
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Set,
                    Tuple)
from weakref import WeakKeyDictionary

from repro.synth.netlist import Gate, GateType, Netlist

Mask = Tuple[int, int]

BACKENDS = ("arena", "interpreted")

# Gates per generated function: bounds CPython compile time per chunk while
# keeping the per-call dispatch overhead negligible.
_CHUNK_GATES = 1500


def default_backend() -> str:
    """Session-wide default backend (``REPRO_SIM_BACKEND`` to override)."""
    return os.environ.get("REPRO_SIM_BACKEND", "arena")


def resolve_backend(backend: Optional[str]) -> str:
    resolved = backend or default_backend()
    if resolved not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {resolved!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    return resolved


# -- code generation ----------------------------------------------------------

def _gate_statements(gate: Gate) -> List[str]:
    """Python statements computing ``o<out>``/``z<out>`` from input locals.

    The expressions replicate :func:`repro.atpg.simulator.eval_gate` exactly,
    including the identity-element folds (``full`` trims the AND/XOR masks the
    same way the interpreted fold starting from ``(full, 0)`` / ``(0, full)``
    does), so both backends agree bit-for-bit on all three values.
    """
    t, out, ins = gate.type, gate.output, gate.inputs
    if t is GateType.BUF:
        a = ins[0]
        return [f" o{out} = o{a}; z{out} = z{a}"]
    if t is GateType.NOT:
        a = ins[0]
        return [f" o{out} = z{a}; z{out} = o{a}"]
    if t is GateType.AND or t is GateType.NAND:
        ones = " & ".join(["full"] + [f"o{i}" for i in ins])
        zeros = " | ".join(f"z{i}" for i in ins)
        if t is GateType.NAND:
            return [f" o{out} = {zeros}; z{out} = {ones}"]
        return [f" o{out} = {ones}; z{out} = {zeros}"]
    if t is GateType.OR or t is GateType.NOR:
        ones = " | ".join(f"o{i}" for i in ins)
        zeros = " & ".join(["full"] + [f"z{i}" for i in ins])
        if t is GateType.NOR:
            return [f" o{out} = {zeros}; z{out} = {ones}"]
        return [f" o{out} = {ones}; z{out} = {zeros}"]
    if t is GateType.XOR or t is GateType.XNOR:
        first = ins[0]
        stmts = [f" _to = full & o{first}; _tz = full & z{first}"]
        for i in ins[1:]:
            stmts.append(
                f" _to, _tz = (_to & z{i}) | (_tz & o{i}), "
                f"(_to & o{i}) | (_tz & z{i})"
            )
        if t is GateType.XNOR:
            stmts.append(f" o{out} = _tz; z{out} = _to")
        else:
            stmts.append(f" o{out} = _to; z{out} = _tz")
        return stmts
    raise ValueError(f"cannot compile gate type {t}")


def _codegen_code_objects(order: Sequence[Gate], name: str):
    """Generate and compile one code object per gate chunk."""
    codes = []
    for start in range(0, len(order), _CHUNK_GATES):
        gates = order[start:start + _CHUNK_GATES]
        lines = ["def _chunk(V, full):"]
        local: Set[int] = set()
        for gate in gates:
            for inp in gate.inputs:
                if inp not in local:
                    lines.append(
                        f" o{inp} = V[{2 * inp}]; z{inp} = V[{2 * inp + 1}]"
                    )
                    local.add(inp)
            lines.extend(_gate_statements(gate))
            local.add(gate.output)
            out = gate.output
            lines.append(f" V[{2 * out}] = o{out}; V[{2 * out + 1}] = z{out}")
        if len(lines) == 1:
            lines.append(" pass")
        source = "\n".join(lines)
        codes.append(compile(source, f"<compiled:{name}:{start}>", "exec"))
    return codes


def _chunks_from_codes(codes) -> List:
    chunks = []
    for code in codes:
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        chunks.append(namespace["_chunk"])
    return chunks


def _codegen_chunks(order: Sequence[Gate], name: str,
                    num_nets: Optional[int] = None):
    """The ``fn(V, full)`` chunk functions for a levelized gate order.

    Codegen and CPython compilation dominate first-call latency on large
    netlists, so the compiled code objects are persisted in the artifact
    store as :mod:`marshal` blobs keyed by the gate-order fingerprint and
    the interpreter's bytecode magic; a warm process deserializes instead
    of re-generating and re-compiling.  Any failure to deserialize falls
    back to a fresh compile.
    """
    import importlib.util
    import marshal

    from repro.store import MISS, gates_fingerprint, get_store

    store = get_store()
    key = {
        "gates": gates_fingerprint(order,
                                   num_nets if num_nets is not None else 0),
        "chunk_gates": _CHUNK_GATES,
        "magic": importlib.util.MAGIC_NUMBER.hex(),
    }
    blobs = store.get("codegen", key)
    if blobs is not MISS:
        try:
            return _chunks_from_codes(marshal.loads(blob) for blob in blobs)
        except (ValueError, EOFError, TypeError, KeyError):
            pass  # foreign/damaged blob: fall through to a fresh compile
    codes = _codegen_code_objects(order, name)
    store.put("codegen", key, [marshal.dumps(code) for code in codes])
    return _chunks_from_codes(codes)


class NetValues(Mapping[int, Mask]):
    """Read-only mapping view of a flat simulation value list.

    Every net id in ``range(num_nets)`` is a key; undriven nets read as
    ``(0, 0)`` (X), matching the ``values.get(net, (0, 0))`` convention of
    the interpreted simulator.
    """

    __slots__ = ("_values", "_num_nets")

    def __init__(self, values: List[int], num_nets: int):
        self._values = values
        self._num_nets = num_nets

    def __getitem__(self, net: int) -> Mask:
        if not 0 <= net < self._num_nets:
            raise KeyError(net)
        i = 2 * net
        return (self._values[i], self._values[i + 1])

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._num_nets))

    def __len__(self) -> int:
        return self._num_nets


class CompiledNetlist:
    """Code-generated evaluator for one netlist.  Build once (via
    :func:`get_compiled`), reuse for every simulation over the netlist."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.num_nets = netlist.num_nets
        topo = netlist.topological_order()
        level = netlist.levels(topo)
        self.order: List[Gate] = sorted(topo, key=lambda g: level[g.output])
        self.pis: List[int] = list(netlist.pis)
        self._chunks = _codegen_chunks(self.order, netlist.name,
                                       num_nets=self.num_nets)
        self._fingerprint = self._current_fingerprint()

    def _current_fingerprint(self) -> Tuple[int, int, int, int]:
        nl = self.netlist
        return (nl.num_nets, len(nl.gates), len(nl.pis), len(nl.pos))

    def stale(self) -> bool:
        """True when the netlist grew after compilation (append-only
        mutation is the only kind this codebase performs)."""
        return self._current_fingerprint() != self._fingerprint

    # -- good-machine evaluation -------------------------------------------

    def fresh_values(self, full: int) -> List[int]:
        """A flat value list with the constant nets pre-set."""
        values = [0] * (2 * self.num_nets)
        values[1] = full  # const0: zeros mask
        values[2] = full  # const1: ones mask
        return values

    def eval_into(self, values: List[int], full: int) -> None:
        """Evaluate all combinational gates in place (sources pre-filled)."""
        for chunk in self._chunks:
            chunk(values, full)


_CACHE: "WeakKeyDictionary[Netlist, CompiledNetlist]" = WeakKeyDictionary()


def get_compiled(netlist: Netlist) -> CompiledNetlist:
    """The cached compiled form of ``netlist`` (rebuilt when it grew)."""
    cached = _CACHE.get(netlist)
    if cached is None or cached.stale():
        cached = CompiledNetlist(netlist)
        _CACHE[netlist] = cached
    return cached
