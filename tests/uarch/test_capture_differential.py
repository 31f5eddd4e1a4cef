"""Functional capture -> replay equals ``InOrderCore.run``, across the
configuration space.

Every simulation the experiment layer runs is a replay of a trace the
timing-free functional pass captured (:func:`repro.uarch.capture_trace`).
The golden suite pins that at the paper's machine; here Hypothesis
draws the rest of the space -- width, ports, fetch buffer, front-end
depth, bubbles, BTB/RAS/DBB sizes, cache geometry and a
predictor-ladder rung -- for baseline and decomposed programs, the
cache-geometry draws replaying through the persisted trace and prep
containers, and each draw must agree with the
execute-driven oracle on the full ``SimStats``, registers, memory image
and suppressed-fault count.  Targeted cases cover the two places the
functional pass could drift from the timing core's view: speculative
loads that fault, and RET targets under a small RAS.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.branchpred import PREDICTOR_LADDER
from repro.compiler import (
    compile_baseline,
    compile_decomposed,
    profile_program,
)
from repro.ir import FunctionBuilder, lower
from repro.isa.decode import K_CALL, K_RET, predecode
from repro.memory import HierarchyConfig
from repro.uarch import (
    InOrderCore,
    MachineConfig,
    Trace,
    TraceCapture,
    capture_trace,
    functional,
    replay_inorder,
    replay_vec,
)
from repro.workloads import spec_benchmark

_BUDGET = 30_000

#: Memory words are valid below 1 << 24 (``repro.isa.Memory.limit``).
_LIMIT = 1 << 24


def _assert_same(replayed, executed):
    assert dataclasses.asdict(replayed.stats) == dataclasses.asdict(
        executed.stats
    )
    assert replayed.registers == executed.registers
    assert replayed.memory.snapshot() == executed.memory.snapshot()
    assert (
        replayed.memory.faults_suppressed
        == executed.memory.faults_suppressed
    )


def _capture_and_replay(program, config, budget=_BUDGET):
    trace = Trace.from_bytes(
        capture_trace(program, config.predictor_factory, budget).to_bytes()
    )
    return trace, replay_inorder(program, trace, config)


@functools.lru_cache(maxsize=None)
def _workload(name: str):
    spec = spec_benchmark(name, iterations=40)
    profile = profile_program(
        lower(spec.build(seed=0)), max_instructions=_BUDGET
    )
    ref = spec.build(seed=1)
    return {
        "baseline": compile_baseline(ref, profile=profile).program,
        "decomposed": compile_decomposed(ref, profile=profile).program,
    }


def _pow2(low: int, high: int):
    return st.sampled_from([1 << k for k in range(low, high + 1)])


machine_configs = st.builds(
    MachineConfig,
    width=st.sampled_from((1, 2, 4, 8, 16)),
    front_end_stages=st.integers(1, 12),
    fetch_buffer_entries=st.integers(1, 64),
    mem_ports=st.integers(1, 4),
    int_ports=st.integers(1, 4),
    fp_ports=st.integers(1, 4),
    btb_entries=_pow2(0, 12),
    ras_entries=st.integers(1, 64),
    dbb_entries=_pow2(0, 6),
    predictor_factory=st.sampled_from(PREDICTOR_LADDER),
    btb_miss_bubble=st.integers(0, 3),
    taken_redirect_bubble=st.integers(0, 3),
)


@settings(max_examples=40, deadline=None)
@given(
    config=machine_configs,
    name=st.sampled_from(("bzip2", "h264ref", "mcf", "ammp00")),
    kind=st.sampled_from(("baseline", "decomposed")),
)
def test_capture_replay_equals_core(config, name, kind):
    program = _workload(name)[kind]
    _, replayed = _capture_and_replay(program, config)
    executed = InOrderCore(config).run(program, max_instructions=_BUDGET)
    _assert_same(replayed, executed)


@st.composite
def hierarchy_configs(draw):
    """Valid cache geometry: each level a drawn set count (not only
    powers of two -- indexing is by modulo) times a drawn way count of
    drawn-size lines, down to one-set caches, and latencies up to a
    400-cycle DRAM, so the persisted latency columns cross the 8-bit
    narrowing boundary."""
    line = draw(_pow2(3, 7))

    def level():
        assoc = draw(_pow2(0, 4))
        return draw(st.integers(1, 32)) * assoc * line, assoc

    l1d_bytes, l1d_assoc = level()
    l1i_bytes, l1i_assoc = level()
    l2_bytes, l2_assoc = level()
    l3_bytes, l3_assoc = level()
    return HierarchyConfig(
        l1d_bytes=l1d_bytes,
        l1d_assoc=l1d_assoc,
        l1i_bytes=l1i_bytes,
        l1i_assoc=l1i_assoc,
        l2_bytes=l2_bytes,
        l2_assoc=l2_assoc,
        l3_bytes=l3_bytes,
        l3_assoc=l3_assoc,
        line_bytes=line,
        l1_latency=draw(st.integers(0, 8)),
        l2_latency=draw(st.integers(0, 60)),
        l3_latency=draw(st.integers(0, 200)),
        dram_latency=draw(st.integers(0, 400)),
        miss_buffer_entries=draw(st.integers(1, 64)),
        next_line_prefetch=draw(st.booleans()),
    )


@settings(max_examples=30, deadline=None)
@given(
    hierarchy=hierarchy_configs(),
    predictor=st.sampled_from(PREDICTOR_LADDER),
    name=st.sampled_from(("bzip2", "mcf", "ammp00")),
    kind=st.sampled_from(("baseline", "decomposed")),
)
def test_persisted_prep_replay_equals_core(hierarchy, predictor, name, kind):
    """Cache geometry as a drawn axis, replayed through the persisted
    containers: the trace and its prep slice are serialised, and the
    slice is attached to a freshly decoded trace before replay, so
    every prep column takes the narrow-store/widen-back round trip."""
    program = _workload(name)[kind]
    config = MachineConfig(
        hierarchy=hierarchy, predictor_factory=predictor
    )
    blob = capture_trace(program, predictor, _BUDGET).to_bytes()
    slice_blob = replay_vec.build_prep_slice(
        program, Trace.from_bytes(blob), config
    )
    assert slice_blob is not None
    trace = Trace.from_bytes(blob)
    assert replay_vec.attach_prep_slice(program, trace, config, slice_blob)
    assert replay_vec.prep_slice_ready(program, trace, config)
    replayed = replay_inorder(program, trace, config)
    executed = InOrderCore(config).run(program, max_instructions=_BUDGET)
    _assert_same(replayed, executed)


# ----------------------------------------------------- targeted programs


def _faulting_speculative_loads():
    """A decomposed-style loop: a PREDICT steers into one of two arms,
    each with a hoisted *speculative* load, then RESOLVEs (diverting
    into correction code on a mispredict).  Both arms' loads walk off
    the end of memory part-way through the loop, at different
    iterations, so under any predictor some loads are suppressed and
    some are not."""
    pattern = [1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0] * 4
    fb = FunctionBuilder("spec_faults")
    fb.data(1000, pattern)

    init = fb.block("init")
    init.li(1, 0)
    init.li(2, len(pattern))
    init.li(3, 0)
    init.block.fallthrough = "head"

    head = fb.block("head")
    head.load(5, 1, offset=1000)
    head.cmp_ne(6, 5, imm=0)
    head.predict("p_taken", "p_fall", branch_id=7)

    # Predicted not taken; the hoisted load faults once i >= 6.
    p_fall = fb.block("p_fall")
    p_fall.load(8, 1, offset=_LIMIT - 6, speculative=True)
    p_fall.resolve_nz(6, "fix_fall", "fall_ok", 7, predicted_dir=False)
    fall_ok = fb.block("fall_ok")
    fall_ok.add(3, 3, 8)
    fall_ok.jmp("merge")

    # Predicted taken; the hoisted load faults once i >= 30.
    p_taken = fb.block("p_taken")
    p_taken.load(9, 1, offset=_LIMIT - 30, speculative=True)
    p_taken.resolve_z(6, "fix_taken", "taken_ok", 7, predicted_dir=True)
    taken_ok = fb.block("taken_ok")
    taken_ok.add(3, 3, 9)
    taken_ok.jmp("merge")

    fix_fall = fb.block("fix_fall")
    fix_fall.add(3, 3, imm=100)
    fix_fall.jmp("merge")
    fix_taken = fb.block("fix_taken")
    fix_taken.sub(3, 3, imm=1)
    fix_taken.jmp("merge")

    merge = fb.block("merge")
    merge.store(3, 1, offset=3000)
    merge.add(1, 1, imm=1)
    merge.cmp_lt(7, 1, 2)
    merge.bnz(7, target="head", fallthrough="done", branch_id=9)

    done = fb.block("done")
    done.halt()
    return lower(fb.build())


def _call_heavy():
    """Two call sites into a callee that itself calls a leaf, chosen by
    a data-dependent branch: nested and alternating RET targets, so a
    small RAS overflows and mispredicts."""
    pattern = [1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1] * 4
    fb = FunctionBuilder("calls")
    fb.data(1000, pattern)

    init = fb.block("init")
    init.li(1, 0)
    init.li(2, len(pattern))
    init.li(3, 0)
    init.block.fallthrough = "head"

    head = fb.block("head")
    head.load(5, 1, offset=1000)
    head.bnz(5, target="site_b", fallthrough="site_a", branch_id=3)
    site_a = fb.block("site_a")
    site_a.call("outer", link=63, fallthrough="after_a")
    after_a = fb.block("after_a")
    after_a.add(3, 3, imm=1)
    after_a.jmp("merge")
    site_b = fb.block("site_b")
    site_b.call("leaf", link=62, fallthrough="after_b")
    after_b = fb.block("after_b")
    after_b.call("outer", link=63, fallthrough="merge")

    merge = fb.block("merge")
    merge.store(3, 1, offset=3000)
    merge.add(1, 1, imm=1)
    merge.cmp_lt(7, 1, 2)
    merge.bnz(7, target="head", fallthrough="done", branch_id=4)
    done = fb.block("done")
    done.halt()

    outer = fb.block("outer")
    outer.add(3, 3, imm=2)
    outer.call("leaf", link=62, fallthrough="outer_ret")
    outer_ret = fb.block("outer_ret")
    outer_ret.ret(63)

    leaf = fb.block("leaf")
    leaf.mul(3, 3, imm=3)
    leaf.ret(62)
    return lower(fb.build())


@pytest.mark.parametrize("predictor", PREDICTOR_LADDER)
def test_faulting_speculative_loads(predictor):
    """The suppressed bit of every speculative load and the final
    suppressed-fault count come from the functional pass; both must
    match the core, and the trace's bits must add up to the count."""
    program = _faulting_speculative_loads()
    config = MachineConfig.paper_default(width=4).with_predictor(predictor)
    trace, replayed = _capture_and_replay(program, config)
    executed = InOrderCore(config).run(program, max_instructions=_BUDGET)
    _assert_same(replayed, executed)
    assert executed.stats.halted
    suppressed = sum(trace.load_suppressed)
    assert suppressed == executed.memory.faults_suppressed
    # The program exercises both sides of the suppression.
    assert 0 < suppressed < len(trace.load_suppressed)
    assert executed.stats.resolve_mispredicts > 0


@pytest.mark.parametrize("ras_entries", [1, 2, 64])
def test_ret_targets_on_call_heavy_program(ras_entries):
    program = _call_heavy()
    rows = predecode(program).rows
    assert sum(row[0] == K_CALL for row in rows) >= 3
    config = dataclasses.replace(
        MachineConfig.paper_default(width=4), ras_entries=ras_entries
    )
    trace, replayed = _capture_and_replay(program, config)
    executed = InOrderCore(config).run(program, max_instructions=_BUDGET)
    _assert_same(replayed, executed)
    assert executed.stats.halted
    rets = sum(row[0] == K_RET for row in rows)
    assert rets >= 2 and len(trace.ret_targets) > 2 * 12
    if ras_entries == 1:
        assert executed.stats.ras_mispredicts > 0


def test_content_digest_is_dbb_size_independent(monkeypatch):
    """Trace keys omit the DBB size; that is only sound if the stream a
    DBB of any size steers is the same.  Drive the functional pass
    with DBBs from 1 to 64 entries and compare content digests."""
    program = _workload("bzip2")["decomposed"]
    assert predecode(program).has_decomposed
    factory = MachineConfig().predictor_factory
    original = functional.DecomposedBranchBuffer
    digests = set()
    for entries in (1, 2, 16, 64):
        monkeypatch.setattr(
            functional,
            "DecomposedBranchBuffer",
            functools.partial(original, entries),
        )
        trace = capture_trace(program, factory, _BUDGET)
        assert trace.max_outstanding_predicts(program) >= 1
        digests.add(trace.content_digest())
    assert len(digests) == 1


@settings(max_examples=50, deadline=None)
@given(
    transfers=st.lists(
        st.tuples(st.integers(1, 40), st.integers(0, 1000)), max_size=12
    ),
    tail=st.integers(0, 40),
)
def test_run_length_pcs_match_a_per_commit_walk(transfers, tail):
    """``pcs`` is recorded as (commits so far, target) pairs and
    expanded with numpy; it must equal the per-commit walk."""
    capture = TraceCapture()
    committed = 0
    for gap, target in transfers:
        committed += gap
        capture.redirects.extend((committed, target))
    committed += tail
    pairs = capture.redirects
    redirect_at = dict(zip(pairs[::2], pairs[1::2]))
    expected, pc = [], 0
    for index in range(committed):
        pc = redirect_at.get(index, pc)
        expected.append(pc)
        pc += 1
    assert capture._expand_pcs(committed).tolist() == expected
