"""Out-of-order reference core.

The paper's motivation (Section 1, citing the authors' ASPLOS'13 study) is
that control speculation already lets *out-of-order* machines schedule
around predictable branches dynamically -- the decomposed branch
transformation exists because in-order machines cannot.  This model makes
that premise testable: a window-based OOO core over the same ISA, caches
and predictors, on which the transformation should yield ~nothing.

Model: instructions enter a ROB-like window in fetch order and issue when
their operands are ready and a port is free -- no in-order issue
constraint; the window size and commit width bound how far execution runs
ahead.  Branches still predict at fetch and squash-and-redirect at
execute.  This is deliberately idealised (perfect renaming, no issue-queue
capacity separate from the window): it over-approximates a real OOO, which
only *strengthens* the motivation result.

The run loop shares the in-order core's fast-path machinery: pre-decoded
rows (:mod:`repro.isa.decode`), integer-kind dispatch, local stats
counters, and stamped occupancy rings instead of unbounded per-cycle
dicts.  OOO issue is not monotone, so the rings are sized well past the
completion run-ahead the 64-entry window permits.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..core.dbb import DecomposedBranchBuffer
from ..isa import Memory, Program
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
    predecode,
)
from .config import MachineConfig
from .core import SimulationError, SimulationResult, _evaluate_row
from .stats import SimStats

Value = Union[int, float]

_LINE_SHIFT = 6

#: Occupancy-ring size.  OOO issue cycles are not monotone, so stale ring
#: slots are only provably dead when the completion-gated window keeps the
#: live issue-cycle span far below the ring size; 64 in-flight
#: instructions cannot spread issue over anything near 2^16 cycles.
_RING = 65536
_RING_MASK = _RING - 1


class OutOfOrderCore:
    """A window-based OOO core sharing the in-order core's front end."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        window: int = 64,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.config = config or MachineConfig()
        self.window = window

    def run(
        self,
        program: Program,
        max_instructions: int = 2_000_000,
    ) -> SimulationResult:
        from ..branchpred import BranchTargetBuffer, ReturnAddressStack
        from ..memory import MemoryHierarchy

        config = self.config
        stats = SimStats()
        decoded = predecode(program)
        rows = decoded.rows
        program_len = decoded.length
        window = self.window

        regs: List[Value] = [0] * 64
        reg_ready = [0] * 64
        memory = Memory()
        for address, value in program.data.items():
            memory.store(address, value)

        hierarchy = MemoryHierarchy(config.hierarchy)
        predictor = config.predictor_factory()
        btb = BranchTargetBuffer(config.btb_entries)
        ras = ReturnAddressStack(config.ras_entries)
        dbb = DecomposedBranchBuffer(config.dbb_entries)

        access_inst = hierarchy.access_inst
        access_data = hierarchy.access_data
        predictor_lookup = predictor.lookup
        predictor_update = predictor.update
        btb_lookup = btb.lookup
        btb_insert = btb.insert
        dbb_insert = dbb.insert
        dbb_resolve = dbb.resolve
        ras_push = ras.push
        ras_pop = ras.pop
        mem_load = memory.load
        mem_store = memory.store
        mem_spec_load = memory.load_speculative

        width = config.width
        front_depth = config.front_end_stages
        l1_latency = config.hierarchy.l1_latency
        port_caps = (0, config.int_ports, config.mem_ports, config.fp_ports)

        issued_cnt = [0] * _RING
        issued_stamp = [-1] * _RING
        port_cnt = (None, [0] * _RING, [0] * _RING, [0] * _RING)
        port_stamp = (None, [-1] * _RING, [-1] * _RING, [-1] * _RING)

        fetch_cycle = 0
        fetch_slots = 0
        current_line = -1
        last_cycle = 0
        # Completion times of the youngest `window` instructions: entry to
        # the window stalls until the instruction `window` back completes
        # (a commit-bound ROB approximation).
        inflight: List[int] = []
        inflight_append = inflight.append

        fetched = 0
        committed = 0
        hoisted_committed = 0
        issued = 0
        loads = 0
        stores = 0
        cond_branches = 0
        cond_mispredicts = 0
        taken_redirects = 0
        predicts = 0
        resolves = 0
        resolve_mispredicts = 0
        resolution_stall_cycles = 0
        speculative_loads = 0
        ras_mispredicts = 0
        icache_misses = 0
        halted = False

        pc = 0

        while committed < max_instructions:
            if pc < 0 or pc >= program_len:
                raise SimulationError(
                    f"pc {pc} outside program of length {program_len}"
                )
            row = rows[pc]
            kind = row[0]

            # ---- fetch (same model as the in-order core) ----
            byte_pc = pc << 2
            line = byte_pc >> _LINE_SHIFT
            if line != current_line:
                ready = access_inst(byte_pc, fetch_cycle)
                if ready > fetch_cycle:
                    icache_misses += 1
                    fetch_cycle = ready
                    fetch_slots = 0
                current_line = line
            if fetch_slots >= width:
                fetch_cycle += 1
                fetch_slots = 0
            inflight_len = len(inflight)
            if inflight_len >= window:
                gate = inflight[inflight_len - window]
                if gate > fetch_cycle:
                    fetch_cycle = gate
                    fetch_slots = 0
            fetch_time = fetch_cycle
            fetch_slots += 1
            fetched += 1
            committed += 1
            if row[10]:  # hoisted
                hoisted_committed += 1

            if kind >= K_PREDICT:
                if kind == K_PREDICT:
                    predicts += 1
                    branch_id = row[6]
                    prediction = predictor_lookup(branch_id)
                    dbb_insert(prediction, branch_id)
                    if prediction.taken:
                        if btb_lookup(pc) is None:
                            btb_insert(pc, row[5])
                            fetch_cycle = fetch_time + 2
                        else:
                            fetch_cycle = fetch_time + 1
                        fetch_slots = 0
                        current_line = -1
                        pc = row[5]
                    else:
                        pc += 1
                    continue
                # HALT
                halted = True
                break

            # ---- dataflow issue: operands + a free port, no ordering ----
            base = fetch_time + front_depth
            operand_ready = base
            for reg in row[2]:
                if reg_ready[reg] > operand_ready:
                    operand_ready = reg_ready[reg]

            fu = row[8]
            t = operand_ready
            if fu:
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
                issued += 1
            issue = t
            if kind == K_BRANCH or kind == K_RESOLVE:
                wait = issue - base
                if wait > 0:
                    resolution_stall_cycles += wait

            complete = issue + row[7]
            next_pc = pc + 1

            # ---- execute (architecturally identical to the in-order) ----
            if kind == K_BINOP:
                b_reg = row[4]
                value = row[12](
                    regs[row[2][0]], row[3] if b_reg < 0 else regs[b_reg]
                )
                dest = row[1]
                regs[dest] = value
                reg_ready[dest] = complete
            elif kind == K_LOAD:
                address = regs[row[4]] + row[3]
                if row[9]:  # speculative
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
                loads += 1
            elif kind == K_BRANCH:
                cond_branches += 1
                branch_id = row[6]
                prediction = predictor_lookup(branch_id)
                taken = (regs[row[4]] != 0) == row[12]
                predictor_update(prediction, taken)
                if prediction.taken != taken:
                    cond_mispredicts += 1
                    fetch_cycle = complete + 1
                    fetch_slots = 0
                    current_line = -1
                elif taken:
                    taken_redirects += 1
                    fetch_cycle = fetch_time + 1
                    fetch_slots = 0
                    current_line = -1
                next_pc = row[5] if taken else next_pc
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
            elif kind == K_SEL:
                srcs = row[2]
                value = regs[srcs[1]] if regs[srcs[0]] else regs[srcs[2]]
                dest = row[1]
                regs[dest] = value
                reg_ready[dest] = complete
            elif kind == K_RESOLVE:
                resolves += 1
                diverted = (regs[row[4]] != 0) == row[12]
                predicted_dir = row[11]
                actual = (
                    (not predicted_dir) if diverted else predicted_dir
                )
                dbb_resolve(dbb.tail, actual, predictor)
                if diverted:
                    resolve_mispredicts += 1
                    fetch_cycle = complete + 1
                    fetch_slots = 0
                    current_line = -1
                    next_pc = row[5]
            elif kind == K_JMP:
                taken_redirects += 1
                fetch_cycle = fetch_time + 1
                fetch_slots = 0
                current_line = -1
                next_pc = row[5]
            elif kind == K_CALL:
                dest = row[1]
                regs[dest] = pc + 1
                reg_ready[dest] = complete
                ras_push(pc + 1)
                fetch_cycle = fetch_time + 1
                fetch_slots = 0
                current_line = -1
                next_pc = row[5]
            elif kind == K_RET:
                actual = regs[row[4]]
                predicted = ras_pop()
                if predicted != actual:
                    ras_mispredicts += 1
                    fetch_cycle = complete + 1
                else:
                    fetch_cycle = fetch_time + 1
                fetch_slots = 0
                current_line = -1
                next_pc = actual
            elif kind == K_NOP:
                pass
            else:  # K_EVAL_GEN
                value = _evaluate_row(row, regs)
                dest = row[1]
                regs[dest] = value
                reg_ready[dest] = complete

            inflight_append(complete)
            if len(inflight) > 4 * window:
                inflight = inflight[-window:]
                inflight_append = inflight.append
            if complete > last_cycle:
                last_cycle = complete
            pc = next_pc

        stats.cycles = last_cycle + 1
        stats.fetched = fetched
        stats.committed = committed
        stats.hoisted_committed = hoisted_committed
        stats.issued = issued
        stats.loads = loads
        stats.stores = stores
        stats.cond_branches = cond_branches
        stats.cond_mispredicts = cond_mispredicts
        stats.taken_redirects = taken_redirects
        stats.predicts = predicts
        stats.resolves = resolves
        stats.resolve_mispredicts = resolve_mispredicts
        stats.resolution_stall_cycles = resolution_stall_cycles
        stats.speculative_loads = speculative_loads
        stats.ras_mispredicts = ras_mispredicts
        stats.icache_misses = icache_misses
        stats.halted = halted
        return SimulationResult(
            stats=stats,
            registers=list(regs),
            memory=memory,
            program=program,
        )
