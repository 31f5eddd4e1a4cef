"""Timing-free functional executor.

Three uses, one interpreter loop:

* **Profiling** (the paper's TRAIN runs): execute the baseline program and
  record every conditional branch's (branch_id, outcome) so the selection
  heuristic can measure bias and predictability.
* **Trace capture** (:func:`capture_trace`): the committed instruction
  stream every timing replay re-times (:mod:`repro.uarch.trace`).  The
  stream is timing-invariant, so no caches, BTB, RAS or scoreboard are
  modelled; the only machine state that steers it is the direction
  predictor (a decomposed program's PREDICTs commit the predicted path).
  The pass therefore drives the configured predictor and a
  :class:`~repro.core.dbb.DecomposedBranchBuffer` in commit order,
  making exactly the calls the in-order core makes: PREDICT -> lookup
  plus DBB insert, BRANCH -> lookup+update (the ``predict_and_train``
  fast path gives identical transitions), RESOLVE -> ``dbb.resolve``
  of the tail entry.  Capture -> replay is bit-identical to
  ``InOrderCore.run`` (``tests/golden``, ``tests/uarch/
  test_capture_differential.py``).
* **Differential correctness**: the Decomposed Branch Transformation must
  preserve program semantics *regardless of prediction accuracy* -- the
  correction code repairs any misprediction.  This executor takes an
  arbitrary prediction policy for PREDICT instructions, so tests can drive
  transformed programs down always-taken, always-not-taken, random, and
  adversarial prediction streams and assert identical final memory.

Like the timing cores, the interpreter loop drives off the program's
pre-decoded rows (:mod:`repro.isa.decode`): integer-kind dispatch and
pre-bound evaluators instead of dataclass attribute walks, sharing one
decode pass with every timing run of the same program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from ..branchpred import DirectionPredictor
from ..core.dbb import DecomposedBranchBuffer
from ..isa import Memory, Program
from ..isa.decode import (
    K_BINOP,
    K_BRANCH,
    K_CALL,
    K_CONST,
    K_HALT,
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
from .core import SimulationError, _evaluate_row
from .trace import Trace, TraceCapture, predictor_id

Value = Union[int, float]

#: Maps a static branch id to a predicted direction for PREDICT.
PredictPolicy = Callable[[int], bool]


def always_taken(_branch_id: int) -> bool:
    return True


def always_not_taken(_branch_id: int) -> bool:
    return False


@dataclass
class FunctionalResult:
    registers: List[Value]
    memory: Memory
    instructions_executed: int
    branch_trace: List[Tuple[int, bool]] = field(default_factory=list)
    halted: bool = False
    #: Dynamic count per static pc, for hot-spot inspection.
    resolve_mispredicts: int = 0

    def memory_snapshot(self):
        return self.memory.snapshot()


def execute(
    program: Program,
    predict_policy: PredictPolicy = always_not_taken,
    max_instructions: int = 5_000_000,
    record_branch_trace: bool = False,
    capture: Optional[TraceCapture] = None,
    predictor: Optional[DirectionPredictor] = None,
) -> FunctionalResult:
    """Run ``program`` functionally.

    ``predict_policy`` chooses the direction of each PREDICT instruction;
    the RESOLVE on the chosen path then checks the real condition and, on a
    "mispredict", diverts into the correction code exactly as the hardware
    would.

    ``capture`` (with ``predictor``, required alongside it) records the
    committed stream into a :class:`~repro.uarch.trace.TraceCapture`:
    the predictor -- not ``predict_policy`` -- then steers every
    PREDICT and is trained in commit order (see the module docstring).
    Use :func:`capture_trace` rather than calling this directly.
    """
    capturing = capture is not None
    if capturing:
        if predictor is None:
            raise ValueError("capture needs the predictor that steers it")
        predictor_lookup = predictor.lookup
        predict_and_train = predictor.predict_and_train
        dbb = DecomposedBranchBuffer()
        dbb_insert = dbb.insert
        dbb_resolve = dbb.resolve
        cap_redirect = capture.redirects.append
        cap_branch_pred = capture.branch_pred.append
        cap_branch_taken = capture.branch_taken.append
        cap_predict_taken = capture.predict_taken.append
        cap_resolve_diverted = capture.resolve_diverted.append
        cap_load_addr = capture.load_addrs.append
        cap_load_suppressed = capture.load_suppressed.append
        cap_store_addr = capture.store_addrs.append
        cap_ret_target = capture.ret_targets.append
    decoded = predecode(program)
    rows = decoded.rows
    program_len = decoded.length
    regs: List[Value] = [0] * 64
    memory = Memory()
    for address, value in program.data.items():
        memory.store(address, value)
    mem_load = memory.load
    mem_spec_load = memory.load_speculative
    mem_store = memory.store

    trace: List[Tuple[int, bool]] = []
    trace_append = trace.append
    executed = 0
    resolve_mispredicts = 0
    halted = False
    pc = 0

    # Capture records ``pcs`` run-length: sequential commits cost
    # nothing, and every control transfer appends (commits so far,
    # target pc) -- see :meth:`TraceCapture.finish`.
    while executed < max_instructions:
        if pc < 0 or pc >= program_len:
            raise SimulationError(
                f"pc {pc} outside program of length {program_len}"
            )
        row = rows[pc]
        kind = row[0]
        executed += 1

        if kind == K_BINOP:
            b_reg = row[4]
            regs[row[1]] = row[12](
                regs[row[2][0]], row[3] if b_reg < 0 else regs[b_reg]
            )
            pc += 1
        elif kind == K_BRANCH:
            taken = (regs[row[4]] != 0) == row[12]
            if record_branch_trace:
                trace_append((row[6], taken))
            if taken:
                pc = row[5]
            else:
                pc += 1
            if capturing:
                correct = predict_and_train(row[6], taken)
                cap_branch_pred(taken if correct else not taken)
                cap_branch_taken(taken)
                if taken:
                    cap_redirect(executed)
                    cap_redirect(pc)
        elif kind == K_LOAD:
            address = regs[row[4]] + row[3]
            if row[9]:  # speculative: faults are suppressed
                regs[row[1]], suppressed = mem_spec_load(address)
                if capturing:
                    cap_load_suppressed(suppressed)
            else:
                regs[row[1]] = mem_load(address)
            if capturing:
                cap_load_addr(address)
            pc += 1
        elif kind == K_STORE:
            address = regs[row[4]] + row[3]
            mem_store(address, regs[row[2][0]])
            if capturing:
                cap_store_addr(address)
            pc += 1
        elif kind == K_CONST:
            regs[row[1]] = row[3]
            pc += 1
        elif kind == K_SEL:
            srcs = row[2]
            regs[row[1]] = (
                regs[srcs[1]] if regs[srcs[0]] else regs[srcs[2]]
            )
            pc += 1
        elif kind == K_PREDICT:
            if capturing:
                prediction = predictor_lookup(row[6])
                dbb_insert(prediction, row[6])
                taken = prediction.taken
                cap_predict_taken(taken)
                if taken:
                    pc = row[5]
                    cap_redirect(executed)
                    cap_redirect(pc)
                else:
                    pc += 1
            else:
                pc = row[5] if predict_policy(row[6]) else pc + 1
        elif kind == K_RESOLVE:
            diverted = (regs[row[4]] != 0) == row[12]
            if capturing:
                cap_resolve_diverted(diverted)
                predicted_dir = row[11]
                dbb_resolve(
                    dbb.tail,
                    (not predicted_dir) if diverted else predicted_dir,
                    predictor,
                )
            if diverted:
                resolve_mispredicts += 1
                pc = row[5]
                if capturing:
                    cap_redirect(executed)
                    cap_redirect(pc)
            else:
                pc += 1
        elif kind == K_JMP:
            pc = row[5]
            if capturing:
                cap_redirect(executed)
                cap_redirect(pc)
        elif kind == K_CALL:
            regs[row[1]] = pc + 1
            pc = row[5]
            if capturing:
                cap_redirect(executed)
                cap_redirect(pc)
        elif kind == K_RET:
            pc = regs[row[4]]
            if capturing:
                cap_ret_target(pc)
                cap_redirect(executed)
                cap_redirect(pc)
        elif kind == K_NOP:
            pc += 1
        elif kind == K_HALT:
            halted = True
            break
        else:  # K_EVAL_GEN
            regs[row[1]] = _evaluate_row(row, regs)
            pc += 1

    return FunctionalResult(
        registers=regs,
        memory=memory,
        instructions_executed=executed,
        branch_trace=trace,
        halted=halted,
        resolve_mispredicts=resolve_mispredicts,
    )


def capture_trace(
    program: Program,
    predictor_factory: Callable[[], DirectionPredictor],
    max_instructions: int = 2_000_000,
) -> Trace:
    """Functional-first trace capture: the committed stream of
    ``program`` steered by a fresh ``predictor_factory()`` predictor,
    with the final architectural state in its ``meta``.

    Replaying the result under any :class:`MachineConfig` with the
    same predictor (any predictor, for a baseline program) is
    bit-identical to ``InOrderCore(config).run(program,
    max_instructions)``.
    """
    capture = TraceCapture()
    result = execute(
        program,
        max_instructions=max_instructions,
        capture=capture,
        predictor=predictor_factory(),
    )
    return capture.finish(
        program,
        registers=result.registers,
        memory=result.memory,
        committed=result.instructions_executed,
        halted=result.halted,
        max_instructions=max_instructions,
        predictor=predictor_id(predictor_factory),
    )


def collect_branch_trace(
    program: Program, max_instructions: int = 5_000_000
) -> List[Tuple[int, bool]]:
    """The profiling entry point: run and return the branch trace."""
    result = execute(
        program,
        max_instructions=max_instructions,
        record_branch_trace=True,
    )
    return result.branch_trace
