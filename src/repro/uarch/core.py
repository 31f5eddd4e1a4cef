"""Cycle-level in-order superscalar timing model.

The model executes a program functionally *in fetch order* while computing,
per dynamic instruction, the cycle it fetches and the cycle it issues under
the machine constraints of Table 1:

* width-limited fetch groups, I-cache timing, a fetch buffer that bounds how
  far fetch runs ahead of issue;
* a 5-stage front end (a redirect costs that depth before the first
  correct-path instruction can issue);
* strictly in-order issue with per-cycle width and per-class FU-port limits
  (2x LD/ST, 2x INT, 4x FP) -- head-of-line blocking falls out naturally;
* operand readiness through a scoreboard with 1-cycle bypass;
* loads timed by the cache hierarchy (4-cycle L1 hit .. 140-cycle DRAM),
  with the dual LD/ST ports providing MLP.

Decomposed-branch semantics follow the paper exactly: a PREDICT is consumed
by the front end (it steers fetch and allocates a DBB entry but never
occupies an issue slot); the architecture then *commits* the predicted
path.  The RESOLVE issues like a branch, and on a mispredict redirects
fetch into the compiler's correction code and triggers the deferred
predictor update through the DBB.  Ordinary branches predict at fetch and
squash-and-redirect at execute on a mispredict.

Performance: the run loop drives off the program's pre-decoded rows
(:mod:`repro.isa.decode`) -- flat tuples of ints, flags and bound
evaluator functions -- instead of ``Instruction`` dataclasses, dispatches
on an integer *kind* instead of ``is Opcode.X`` chains, and tracks
per-cycle issue/port occupancy in fixed-size stamped rings instead of
unbounded dicts.  Issue cycles are monotone in an in-order machine, so a
ring slot whose stamp does not match the probed cycle is provably dead
and reads as empty; this replaces the old 50k-entry periodic prune with
O(1) state.  The architectural and stats output is bit-identical to the
pre-decoded-free implementation (see ``tests/golden/``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..branchpred import BranchTargetBuffer, ReturnAddressStack
from ..core.dbb import DecomposedBranchBuffer
from ..isa import (
    Instruction,
    Memory,
    Opcode,
    Program,
)
from ..isa.decode import (
    K_BINOP,
    K_BRANCH,
    K_CALL,
    K_CONST,
    K_JMP,
    K_LOAD,
    K_NOP,
    K_PREDICT,
    K_RESOLVE,
    K_RET,
    K_SEL,
    K_STORE,
    evaluate_code,
    predecode,
)
from .config import MachineConfig
from .stats import SimStats

Value = Union[int, float]

#: Bytes per instruction for I-cache addressing.
_INST_BYTES = 4
_LINE_SHIFT = 6  # 64-byte lines

#: Stamped-ring size for the per-cycle issue/port occupancy tables.  Any
#: power of two works (stamps disambiguate aliased cycles; in-order issue
#: makes entries below the current issue cycle dead), sized generously so
#: a ring slot is rarely recycled within one scheduling burst.
_RING = 4096
_RING_MASK = _RING - 1


class SimulationError(Exception):
    """Raised when a program misbehaves (runs off the end, bad opcode...)."""


@dataclass
class SimulationResult:
    """Architectural and timing outcome of one run."""

    stats: SimStats
    registers: List[Value]
    memory: Memory
    program: Program

    def register(self, index: int) -> Value:
        return self.registers[index]

    def memory_snapshot(self) -> Tuple[Tuple[int, Value], ...]:
        return self.memory.snapshot()

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class InOrderCore:
    """One in-order superscalar core built from a :class:`MachineConfig`."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()

    # The run loop is deliberately one long function: it is the hot path of
    # every experiment, and locals are markedly faster than attribute
    # lookups in CPython.
    def run(
        self,
        program: Program,
        max_instructions: int = 2_000_000,
        trace=None,
    ) -> SimulationResult:
        """Simulate ``program`` execute-driven: the golden timing oracle.

        ``trace``, if given, is called as ``trace(pc, inst, fetch_cycle,
        issue_cycle, complete_cycle)`` for every back-end instruction --
        a debugging/visualisation hook (PREDICTs do not reach the back
        end and are not traced).

        Committed-instruction traces for replay are not captured here:
        :func:`repro.uarch.functional.capture_trace` records the same
        stream without the timing machinery.
        """
        from ..memory import MemoryHierarchy

        config = self.config
        stats = SimStats()
        decoded = predecode(program)
        rows = decoded.rows
        program_len = decoded.length
        instructions = program.instructions  # only for the trace hook

        regs: List[Value] = [0] * 64
        reg_ready = [0] * 64
        reg_from_load = [False] * 64
        memory = Memory()
        for address, value in program.data.items():
            memory.store(address, value)

        hierarchy = MemoryHierarchy(config.hierarchy)
        predictor = config.predictor_factory()
        btb = BranchTargetBuffer(config.btb_entries)
        ras = ReturnAddressStack(config.ras_entries)
        dbb = DecomposedBranchBuffer(config.dbb_entries)

        # Bound methods as locals: every one of these is called per
        # dynamic instruction or branch.
        access_inst = hierarchy.access_inst
        access_data = hierarchy.access_data
        predictor_lookup = predictor.lookup
        predictor_update = predictor.update
        btb_lookup = btb.lookup
        btb_insert = btb.insert
        dbb_insert = dbb.insert
        dbb_resolve = dbb.resolve
        dbb_recover_tail = dbb.recover_tail
        ras_push = ras.push
        ras_pop = ras.pop
        mem_load = memory.load
        mem_store = memory.store
        mem_spec_load = memory.load_speculative

        width = config.width
        front_depth = config.front_end_stages
        fetch_buffer = config.fetch_buffer_entries
        l1_latency = config.hierarchy.l1_latency
        taken_bubble = config.taken_redirect_bubble
        btb_bubble = config.btb_miss_bubble
        port_caps = (0, config.int_ports, config.mem_ports, config.fp_ports)

        # Per-cycle occupancy over the scheduling horizon: stamped rings
        # indexed by ``cycle & _RING_MASK``; a mismatched stamp reads as
        # an empty cycle (see the module docstring for why this is exact).
        issued_cnt = [0] * _RING
        issued_stamp = [-1] * _RING
        port_cnt = (None, [0] * _RING, [0] * _RING, [0] * _RING)
        port_stamp = (None, [-1] * _RING, [-1] * _RING, [-1] * _RING)

        fetch_cycle = 0
        fetch_slots = 0
        current_line = -1
        prev_issue = 0
        last_cycle = 0
        under_mispredict_window = False
        # Issue cycles of the last `fetch_buffer` back-end instructions;
        # when full, its head gates fetch (the buffer entry frees at issue).
        issue_ring = deque(maxlen=fetch_buffer)

        # Stats counters as locals; folded into `stats` once at the end.
        fetched = 0
        committed = 0
        hoisted_committed = 0
        issued = 0
        loads = 0
        stores = 0
        load_use_stall_cycles = 0
        cond_branches = 0
        cond_mispredicts = 0
        taken_redirects = 0
        btb_miss_bubbles = 0
        predicts = 0
        resolves = 0
        resolve_mispredicts = 0
        resolution_stall_cycles = 0
        speculative_loads = 0
        ras_mispredicts = 0
        icache_misses = 0
        icache_misses_under_mispredict = 0
        halted = False

        pc = 0

        while committed < max_instructions:
            if pc < 0 or pc >= program_len:
                raise SimulationError(
                    f"pc {pc} outside program of length {program_len}"
                )
            row = rows[pc]
            kind = row[0]

            # ---------------- fetch timing ----------------
            byte_pc = pc << 2
            line = byte_pc >> _LINE_SHIFT
            if line != current_line:
                ready = access_inst(byte_pc, fetch_cycle)
                if ready > fetch_cycle:
                    icache_misses += 1
                    if under_mispredict_window:
                        icache_misses_under_mispredict += 1
                    fetch_cycle = ready
                    fetch_slots = 0
                under_mispredict_window = False
                current_line = line
            if fetch_slots >= width:
                fetch_cycle += 1
                fetch_slots = 0
            if len(issue_ring) == fetch_buffer:
                # The fetch buffer is full until the instruction
                # `fetch_buffer` back has issued.
                gate = issue_ring[0]
                if gate > fetch_cycle:
                    fetch_cycle = gate
                    fetch_slots = 0
            fetch_time = fetch_cycle
            fetch_slots += 1
            fetched += 1

            committed += 1
            if row[10]:  # hoisted
                hoisted_committed += 1

            # ------------- front-end-only kinds (PREDICT / HALT) -------
            if kind >= K_PREDICT:
                if kind == K_PREDICT:
                    predicts += 1
                    branch_id = row[6]
                    prediction = predictor_lookup(branch_id)
                    dbb_insert(prediction, branch_id)
                    if prediction.taken:
                        target = row[5]
                        if btb_lookup(pc) is None:
                            fetch_cycle = (
                                fetch_time + taken_bubble + btb_bubble
                            )
                            btb_miss_bubbles += 1
                            btb_insert(pc, target)
                        else:
                            fetch_cycle = fetch_time + taken_bubble
                        fetch_slots = 0
                        current_line = -1
                        taken_redirects += 1
                        pc = target
                    else:
                        pc += 1
                    if last_cycle < fetch_time:
                        last_cycle = fetch_time
                    continue
                # HALT
                halted = True
                if last_cycle < fetch_time:
                    last_cycle = fetch_time
                break

            # ---------------- issue-slot computation ----------------
            base = fetch_time + front_depth
            if base < prev_issue:
                base = prev_issue
            operand_wait_from_load = False
            operand_ready = base
            for reg in row[2]:
                ready = reg_ready[reg]
                if ready > operand_ready:
                    operand_ready = ready
                    operand_wait_from_load = reg_from_load[reg]
            if operand_wait_from_load and operand_ready > base:
                load_use_stall_cycles += operand_ready - base

            fu = row[8]
            t = operand_ready
            if fu == 0:  # FU_NONE: NOP
                issue = t
            else:
                cap = port_caps[fu]
                pcnt = port_cnt[fu]
                pstamp = port_stamp[fu]
                while True:
                    slot = t & _RING_MASK
                    have = issued_cnt[slot] if issued_stamp[slot] == t else 0
                    if have >= width:
                        t += 1
                        continue
                    used = pcnt[slot] if pstamp[slot] == t else 0
                    if used >= cap:
                        t += 1
                        continue
                    break
                issued_stamp[slot] = t
                issued_cnt[slot] = have + 1
                pstamp[slot] = t
                pcnt[slot] = used + 1
                issue = t
                issued += 1
            prev_issue = issue
            issue_ring.append(issue)
            if kind == K_BRANCH or kind == K_RESOLVE:
                # Total back-end queueing delay of the resolution point:
                # how long the branch sat past its earliest front-end
                # arrival before it could issue (the ASPCB numerator).
                wait = issue - (fetch_time + front_depth)
                if wait > 0:
                    resolution_stall_cycles += wait

            complete = issue + row[7]
            next_pc = pc + 1

            # ---------------- execute ----------------
            if kind == K_BINOP:
                b_reg = row[4]
                value = row[12](
                    regs[row[2][0]], row[3] if b_reg < 0 else regs[b_reg]
                )
                dest = row[1]
                regs[dest] = value
                reg_ready[dest] = complete
                reg_from_load[dest] = False
            elif kind == K_LOAD:
                address = regs[row[4]] + row[3]
                if row[9]:  # speculative: faults are suppressed
                    value, suppressed = mem_spec_load(address)
                    if suppressed:
                        complete = issue + l1_latency
                    else:
                        complete = access_data(address << 3, issue)
                    speculative_loads += 1
                else:
                    value = mem_load(address)
                    complete = access_data(address << 3, issue)
                dest = row[1]
                regs[dest] = value
                reg_ready[dest] = complete
                reg_from_load[dest] = True
                loads += 1
            elif kind == K_BRANCH:
                cond_branches += 1
                branch_id = row[6]
                prediction = predictor_lookup(branch_id)
                taken = (regs[row[4]] != 0) == row[12]
                predictor_update(prediction, taken)
                actual_target = row[5] if taken else next_pc
                if prediction.taken != taken:
                    cond_mispredicts += 1
                    dbb_recover_tail(dbb.tail)
                    fetch_cycle = complete + 1
                    fetch_slots = 0
                    current_line = -1
                    under_mispredict_window = True
                elif taken:
                    taken_redirects += 1
                    if btb_lookup(pc) is None:
                        fetch_cycle = (
                            fetch_time + taken_bubble + btb_bubble
                        )
                        btb_miss_bubbles += 1
                        btb_insert(pc, row[5])
                    else:
                        fetch_cycle = fetch_time + taken_bubble
                    fetch_slots = 0
                    current_line = -1
                next_pc = actual_target
            elif kind == K_STORE:
                address = regs[row[4]] + row[3]
                mem_store(address, regs[row[2][0]])
                access_data(address << 3, issue)
                stores += 1
                complete = issue + 1
            elif kind == K_CONST:
                dest = row[1]
                regs[dest] = row[3]
                reg_ready[dest] = complete
                reg_from_load[dest] = False
            elif kind == K_SEL:
                srcs = row[2]
                value = regs[srcs[1]] if regs[srcs[0]] else regs[srcs[2]]
                dest = row[1]
                regs[dest] = value
                reg_ready[dest] = complete
                reg_from_load[dest] = False
            elif kind == K_RESOLVE:
                resolves += 1
                diverted = (regs[row[4]] != 0) == row[12]
                predicted_dir = row[11]
                actual_taken = (
                    (not predicted_dir) if diverted else predicted_dir
                )
                dbb_resolve(dbb.tail, actual_taken, predictor)
                if diverted:
                    resolve_mispredicts += 1
                    fetch_cycle = complete + 1
                    fetch_slots = 0
                    current_line = -1
                    under_mispredict_window = True
                    next_pc = row[5]
            elif kind == K_JMP:
                taken_redirects += 1
                fetch_cycle = fetch_time + taken_bubble
                fetch_slots = 0
                current_line = -1
                next_pc = row[5]
            elif kind == K_CALL:
                dest = row[1]
                regs[dest] = pc + 1
                reg_ready[dest] = complete
                reg_from_load[dest] = False
                ras_push(pc + 1)
                taken_redirects += 1
                fetch_cycle = fetch_time + taken_bubble
                fetch_slots = 0
                current_line = -1
                next_pc = row[5]
            elif kind == K_RET:
                actual = regs[row[4]]
                predicted = ras_pop()
                if predicted != actual:
                    ras_mispredicts += 1
                    fetch_cycle = complete + 1
                    under_mispredict_window = True
                else:
                    taken_redirects += 1
                    fetch_cycle = fetch_time + taken_bubble
                fetch_slots = 0
                current_line = -1
                next_pc = actual
            elif kind == K_NOP:
                pass
            else:  # K_EVAL_GEN: degenerate ALU shapes
                value = _evaluate_row(row, regs)
                dest = row[1]
                regs[dest] = value
                reg_ready[dest] = complete
                reg_from_load[dest] = False

            if complete > last_cycle:
                last_cycle = complete
            if trace is not None:
                trace(pc, instructions[pc], fetch_time, issue, complete)
            pc = next_pc

        stats.cycles = last_cycle + 1
        stats.fetched = fetched
        stats.committed = committed
        stats.hoisted_committed = hoisted_committed
        stats.issued = issued
        stats.loads = loads
        stats.stores = stores
        stats.load_use_stall_cycles = load_use_stall_cycles
        stats.cond_branches = cond_branches
        stats.cond_mispredicts = cond_mispredicts
        stats.taken_redirects = taken_redirects
        stats.btb_miss_bubbles = btb_miss_bubbles
        stats.predicts = predicts
        stats.resolves = resolves
        stats.resolve_mispredicts = resolve_mispredicts
        stats.resolution_stall_cycles = resolution_stall_cycles
        stats.speculative_loads = speculative_loads
        stats.ras_mispredicts = ras_mispredicts
        stats.icache_misses = icache_misses
        stats.icache_misses_under_mispredict = (
            icache_misses_under_mispredict
        )
        stats.halted = halted
        return SimulationResult(
            stats=stats,
            registers=list(regs),
            memory=memory,
            program=program,
        )


def _evaluate_row(row, regs: List[Value]) -> Value:
    """Evaluate a K_EVAL_GEN row (opcode carried in the fn slot)."""
    try:
        return evaluate_code(row[12], row[2], row[3], regs)
    except KeyError:
        raise SimulationError(f"unhandled opcode {row[12]}") from None


def _evaluate(op: Opcode, inst: Instruction, regs: List[Value]) -> Value:
    """Evaluate one ALU/FP/compare/move instruction.

    Kept as the generic (non-pre-decoded) evaluation entry point; the
    dispatch itself now lives in :mod:`repro.isa.decode` so the fast
    paths and this helper cannot drift apart.
    """
    try:
        return evaluate_code(op, inst.srcs, inst.imm, regs)
    except KeyError:
        raise SimulationError(f"unhandled opcode {op}") from None
