"""PODEM test generation over a time-frame-expanded model.

Implements the classic objective / backtrace / imply loop with:

- five-valued D-algebra simulation (event-driven, with undo logs),
- fault injection in every time frame,
- X-path pruning,
- a backtrack limit and a per-fault CPU budget (aborts are reported, which
  is exactly what produces the "ATPG Eff. %" column of the paper's tables).

The search runs on the flat integer indexes of :class:`UnrolledModel`
(``frame * num_nets + net``) over the tables the model builds once: values
live in a list copied from the model's base values, implication is a FIFO
event loop with the gate evaluation inlined, and the D-frontier is kept
incrementally from a per-gate count of D/D' inputs.  The frontier itself
stays a set of ``(frame, net)`` tuples, fed the same effective adds and
discards in the same order as a from-scratch rebuild would, because the
objective's tie-break between equal-level frontier gates is that set's
iteration order (``docs/performance.md``, "PODEM data layout").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.obs import CpuTimer, Deadline, progress
from repro.atpg.faults import Fault
from repro.atpg.sequential import (OP_AND, OP_BUF, OP_NAND, OP_NOT, OP_OR,
                                   OP_SRC, OP_XOR, OP_XNOR, Key,
                                   UnrolledModel)
from repro.atpg.values import (AND_TABLE, NOT_TABLE, OR_TABLE, V0, V1, VD,
                               VDBAR, VX, XOR_TABLE, from_components,
                               good_bit)

# Good-machine bit of each value (None = X), and its D-ness.
_GOOD = tuple(good_bit(v) for v in range(5))
_IS_D = tuple(v == VD or v == VDBAR for v in range(5))
# X or D: a net a fault effect can still travel along.
_X_OR_D = tuple(v == VX or v == VD or v == VDBAR for v in range(5))
# Value at a stuck-at-v site: good machine kept, faulty machine forced.
_FAULTIZE = tuple(
    tuple(from_components(_GOOD[v], stuck) for v in range(5))
    for stuck in (0, 1)
)
# Value that does not control a frontier gate's output (0 when no input
# value controls it).
_NONCONTROLLING = tuple(1 if op in (OP_AND, OP_NAND) else 0
                        for op in range(OP_XNOR + 1))


@dataclass
class PodemResult:
    status: str  # "detected" | "untestable" | "aborted"
    fault: Fault
    frames: int
    vectors: List[Dict[int, int]] = field(default_factory=list)
    initial_state: Dict[int, int] = field(default_factory=dict)
    backtracks: int = 0
    decisions: int = 0
    implications: int = 0
    cpu_seconds: float = 0.0
    abort_reason: Optional[str] = None  # "time_limit" | "backtrack_limit"

    @property
    def detected(self) -> bool:
        return self.status == "detected"


# An undo log: the indexes changed, in order, and their previous values.
Undo = Tuple[List[int], List[int]]


class Podem:
    """One PODEM search for one fault on one unrolled model."""

    def __init__(self, model: UnrolledModel, fault: Fault,
                 backtrack_limit: int = 100,
                 time_limit: Optional[float] = None):
        self.model = model
        self.fault = fault
        self.backtrack_limit = backtrack_limit
        self.time_limit = time_limit
        self._sites = [model.index(f, fault.net) for f in range(model.frames)]
        self._site_set = frozenset(self._sites)
        self._faultize = _FAULTIZE[fault.value]
        self.val: List[int] = []
        self._d_nets: Set[int] = set()   # indexes currently carrying D/D'
        self._frontier: Set[Key] = set()  # gate-output keys on D-frontier
        self.backtracks = 0
        self.decisions = 0
        self.implications = 0

    # -- public ------------------------------------------------------------

    def run(self) -> PodemResult:
        timer = CpuTimer().start()
        deadline = Deadline(self.time_limit)
        model = self.model
        self._init_values()

        stack: List[List] = []  # [index, value, tried_other, undo_log]
        status = "untestable"
        abort_reason: Optional[str] = None

        while True:
            if deadline.expired():
                status = "aborted"
                abort_reason = "time_limit"
                break
            if not self._d_nets.isdisjoint(model.observable_set):
                status = "detected"
                break

            objective = self._objective()
            target = self._backtrace(*objective) if objective else None
            if target is not None:
                index, value = target
                self.decisions += 1
                undo = self._assign(index, value)
                stack.append([index, value, False, undo])
                continue

            # Dead end: chronological backtracking.
            backtracked = False
            while stack:
                index, value, tried, undo = stack.pop()
                self._revert(undo)
                self.backtracks += 1
                if self.backtracks % 256 == 0:
                    progress("podem.search", backtracks=self.backtracks,
                             decisions=self.decisions,
                             frames=model.frames)
                if self.backtracks > self.backtrack_limit:
                    status = "aborted"
                    abort_reason = "backtrack_limit"
                    break
                if not tried:
                    undo2 = self._assign(index, 1 - value)
                    stack.append([index, 1 - value, True, undo2])
                    backtracked = True
                    break
            if not backtracked:
                # Search space exhausted (untestable at this depth) or the
                # backtrack limit fired (aborted).
                break

        result = PodemResult(
            status=status,
            fault=self.fault,
            frames=model.frames,
            backtracks=self.backtracks,
            decisions=self.decisions,
            implications=self.implications,
            cpu_seconds=timer.stop(),
            abort_reason=abort_reason if status == "aborted" else None,
        )
        if status == "detected":
            vectors, init_state = self._extract_vectors()
            result.vectors = vectors
            result.initial_state = init_state
        return result

    # -- value maintenance ---------------------------------------------------

    def _init_values(self) -> None:
        """Initial implication pass: copy the model's fault-free base values
        and propagate the fault injection from its site copies only."""
        size = len(self.model.base)
        self.val = val = list(self.model.base)
        self._queued = bytearray(size)
        self._d_count = [0] * size   # D/D' inputs per gate output
        self._is_d = bytearray(size)
        self._in_frontier = bytearray(size)
        self._d_nets = set()
        self._frontier = set()
        changed: List[int] = []
        for i in self._sites:
            old = val[i]
            new = self._faultize[old]
            if new != old:
                val[i] = new
                changed.append(i)
        self._imply(changed, changed, [])
        self._after_changes(changed)

    def _assign(self, index: int, bit: int) -> Undo:
        """Assign a PI/PIER index and propagate; returns the undo log."""
        val = self.val
        old = val[index]
        new = V1 if bit else V0
        if index in self._site_set:
            new = self._faultize[new]
        if new == old:
            return [], []
        val[index] = new
        changed, olds = [index], [old]
        self._imply(changed, changed, olds)
        self._after_changes(changed)
        return changed, olds

    def _imply(self, seeds: List[int], changed: List[int],
               olds: List[int]) -> None:
        """FIFO event-driven forward implication from ``seeds``' fanouts;
        appends every changed index and its old value to the log."""
        model = self.model
        val = self.val
        ops, fanins, fanouts = model.ops, model.fanins, model.fanouts
        sites, faultize = self._site_set, self._faultize
        queued = self._queued
        queue = deque()
        push = queue.append
        for seed in seeds:
            for nxt in fanouts[seed]:
                if not queued[nxt]:
                    queued[nxt] = 1
                    push(nxt)
        pop = queue.popleft
        log_index, log_old = changed.append, olds.append
        implications = 0
        and_t, or_t, xor_t, not_t = AND_TABLE, OR_TABLE, XOR_TABLE, NOT_TABLE
        while queue:
            cur = pop()
            queued[cur] = 0
            op = ops[cur]
            ins = fanins[cur]
            if op >= OP_AND:
                if op < OP_OR:
                    new = V1
                    for i in ins:
                        new = and_t[new][val[i]]
                        if new == V0:
                            break
                elif op < OP_XOR:
                    new = V0
                    for i in ins:
                        new = or_t[new][val[i]]
                        if new == V1:
                            break
                else:
                    new = V0
                    for i in ins:
                        new = xor_t[new][val[i]]
                if op & 1:
                    new = not_t[new]
            elif op == OP_NOT:
                new = not_t[val[ins[0]]]
            else:  # OP_BUF or a frame-f>0 flop output; sources never queue
                new = val[ins[0]]
            if cur in sites:
                new = faultize[new]
            old = val[cur]
            if new == old:
                continue
            log_index(cur)
            log_old(old)
            implications += 1
            val[cur] = new
            for nxt in fanouts[cur]:
                if not queued[nxt]:
                    queued[nxt] = 1
                    push(nxt)
        self.implications += implications

    def _revert(self, undo: Undo) -> None:
        changed, olds = undo
        val = self.val
        for k in range(len(changed) - 1, -1, -1):
            val[changed[k]] = olds[k]
        self._after_changes(changed)

    def _after_changes(self, changed: List[int]) -> None:
        """Incrementally update the D-net set, the per-gate D-input counts
        and the D-frontier after the values at ``changed`` moved."""
        model = self.model
        val = self.val
        ops, gate_fanouts = model.ops, model.gate_fanouts
        is_d, d_count, d_nets = self._is_d, self._d_count, self._d_nets
        candidates: List[int] = []
        for i in changed:
            d = _IS_D[val[i]]
            if d != is_d[i]:
                is_d[i] = d
                outs = gate_fanouts[i]
                if d:
                    d_nets.add(i)
                    for g in outs:
                        d_count[g] += 1
                else:
                    d_nets.discard(i)
                    for g in outs:
                        d_count[g] -= 1
                candidates.extend(outs)
            if ops[i] >= OP_BUF:
                candidates.append(i)
        in_frontier = self._in_frontier
        flips: List[int] = []
        for g in candidates:
            member = val[g] == VX and d_count[g] > 0
            if member != in_frontier[g]:
                in_frontier[g] = member
                flips.append(g)
        if not flips:
            return
        n = model.num_nets
        if len(flips) == 1:
            keys = [divmod(flips[0], n)]
        else:
            # Apply several flips in the iteration order of the set of
            # affected gate keys a from-scratch update would visit, so the
            # frontier set's internal order (the objective's tie-break) is
            # the one that update would leave.
            affected: Set[Key] = set()
            for i in changed:
                if ops[i] >= OP_BUF:
                    affected.add(divmod(i, n))
                for g in gate_fanouts[i]:
                    affected.add(divmod(g, n))
            flipped = set(flips)
            keys = [key for key in affected if key[0] * n + key[1] in flipped]
        frontier = self._frontier
        for frame, net in keys:
            if in_frontier[frame * n + net]:
                frontier.add((frame, net))
            else:
                frontier.discard((frame, net))

    # -- search guidance -------------------------------------------------------

    def _objective(self) -> Optional[Tuple[int, int]]:
        model = self.model
        val = self.val
        controllable = model.controllable_flags

        if not any(_IS_D[val[i]] for i in self._sites):
            # Activate the fault, latest frame first.
            desired = 1 - self.fault.value
            for i in reversed(self._sites):
                if val[i] == VX and controllable[i]:
                    return (i, desired)
            return None

        if not self._x_path_exists():
            return None

        # Propagate: pick the D-frontier gate closest to the outputs; equal
        # levels keep the frontier set's iteration order (stable sort).
        n = model.num_nets
        frontier = sorted((f * n + net for f, net in self._frontier),
                          key=model.levels.__getitem__, reverse=True)
        ops, fanins = model.ops, model.fanins
        for g in frontier:
            for i in fanins[g]:
                if val[i] == VX and controllable[i]:
                    return (i, _NONCONTROLLING[ops[g]])
        return None

    def _x_path_exists(self) -> bool:
        """Some D value can still reach an observable index through X
        nets."""
        model = self.model
        val = self.val
        fanouts, observable = model.fanouts, model.observable_set
        seen: Set[int] = set()
        stack = list(self._d_nets)
        while stack:
            i = stack.pop()
            if i in observable:
                return True
            for nxt in fanouts[i]:
                if nxt in seen:
                    continue
                if _X_OR_D[val[nxt]]:
                    seen.add(nxt)
                    if nxt in observable:
                        return True
                    stack.append(nxt)
        # Direct observation of a D at an observable index is "detected",
        # handled elsewhere; reaching here means no path remains.
        return False

    def _backtrace(self, index: int, value: int
                   ) -> Optional[Tuple[int, int]]:
        """Map an objective to an unassigned assignable input."""
        model = self.model
        val = self.val
        ops, fanins, levels = model.ops, model.fanins, model.levels
        assignable = model.assignable_flags
        controllable = model.controllable_flags
        guard = 0
        while True:
            guard += 1
            if guard > 100000:
                return None
            if assignable[index] and val[index] == VX:
                return (index, value)
            op = ops[index]
            if op == OP_SRC:
                return None
            ins = fanins[index]
            if op <= OP_BUF:  # a buffer or a frame-f>0 flop output
                index = ins[0]
                continue
            if op == OP_NOT:
                index = ins[0]
                value = 1 - value
                continue
            if op & 1:
                value = 1 - value
            if op < OP_XOR:
                ctrl = 0 if op < OP_OR else 1
                candidates = [i for i in ins
                              if val[i] == VX and controllable[i]]
                if not candidates:
                    return None
                if value == ctrl:
                    # One controlling input suffices: pick the easiest.
                    index = min(candidates, key=levels.__getitem__)
                else:
                    # All inputs must be non-controlling: pick the hardest.
                    index = max(candidates, key=levels.__getitem__)
                continue
            parity = 0
            candidates = []
            for i in ins:
                bit = _GOOD[val[i]]
                if bit is None:
                    if controllable[i]:
                        candidates.append(i)
                else:
                    parity ^= bit
            if not candidates:
                return None
            index = min(candidates, key=levels.__getitem__)
            value = value ^ parity

    # -- vector extraction -------------------------------------------------------

    def _extract_vectors(self) -> Tuple[List[Dict[int, int]], Dict[int, int]]:
        model = self.model
        val = self.val
        n = model.num_nets
        vectors: List[Dict[int, int]] = []
        for frame in range(model.frames):
            vec: Dict[int, int] = {}
            for pi in model.base_pis:
                bit = _GOOD[val[frame * n + pi]]
                vec[pi] = bit if bit is not None else 0
            vectors.append(vec)
        init_state: Dict[int, int] = {}
        for q in model.pier_qs:
            bit = _GOOD[val[q]]
            if bit is not None:
                init_state[q] = bit
        return vectors, init_state
