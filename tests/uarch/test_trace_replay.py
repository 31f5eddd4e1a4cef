"""Trace capture -> serialise -> load -> replay must be invisible.

Traces are captured by the timing-free functional pass
(:func:`repro.uarch.capture_trace`), and the replay loops
(:mod:`repro.uarch.replay`) claim bit-identity with execute-driven
simulation.  These tests hold the pair to the same golden fingerprints
as the simulator itself: for every SPEC-like workload, both program
kinds, widths 2/4/8, one functional capture -- round-tripped through
the binary container -- must replay to the exact fingerprints
``tests/golden/sim_goldens.json`` records for execute-driven runs.  Plus: cross-core replay (in-order capture ->
OOO replay), live-predictor replay of baseline traces, the
``TraceMismatch`` guard for decomposed programs, and container
corruption detection.
"""

from __future__ import annotations

import json

import pytest

from repro.branchpred import GSharePredictor, HybridPredictor
from repro.compiler import (
    compile_baseline,
    compile_decomposed,
    profile_program,
)
from repro.ir import lower
from repro.isa.decode import predecode
from repro.uarch import (
    InOrderCore,
    MachineConfig,
    OutOfOrderCore,
    Trace,
    TraceError,
    TraceMismatch,
    capture_trace,
    replay_inorder,
    replay_ooo,
)
from repro.workloads import spec_benchmark

from tests.golden import generate


@pytest.fixture(scope="module")
def goldens():
    data = json.loads(generate.GOLDEN_PATH.read_text())
    return data["fingerprints"]


def _programs(name: str):
    """Baseline + decomposed programs at the golden-suite scale."""
    spec = spec_benchmark(name, iterations=generate.ITERATIONS)
    profile = profile_program(
        lower(spec.build(seed=generate.TRAIN_SEED)),
        max_instructions=generate.MAX_INSTRUCTIONS,
    )
    ref = spec.build(seed=generate.REF_SEED)
    return {
        "baseline": compile_baseline(ref, profile=profile).program,
        "decomposed": compile_decomposed(ref, profile=profile).program,
    }


def _capture(program, machine, max_instructions=generate.MAX_INSTRUCTIONS):
    return capture_trace(
        program, machine.predictor_factory, max_instructions
    )


@pytest.mark.parametrize("name", generate.workload_names())
def test_replay_roundtrip_matches_golden(name, goldens):
    """Capture once, serialise, reload, replay at 2/4/8: every
    replayed run must hash to the execute-driven golden."""
    for kind, program in _programs(name).items():
        machine = MachineConfig.paper_default(width=2)
        trace = _capture(program, machine)
        # Capture -> replay equals InOrderCore.run, which is still the
        # golden oracle.
        executed = InOrderCore(machine).run(
            program, max_instructions=generate.MAX_INSTRUCTIONS
        )
        assert (
            generate.fingerprint_run(executed)
            == goldens[f"{name}/{kind}/w2"]
        )
        # Full container round-trip before any replay.
        trace = Trace.from_bytes(trace.to_bytes())
        for width in generate.WIDTHS:
            replayed = replay_inorder(
                program, trace, MachineConfig.paper_default(width=width)
            )
            assert (
                generate.fingerprint_run(replayed)
                == goldens[f"{name}/{kind}/w{width}"]
            ), f"replay diverged for {name}/{kind}/w{width}"


@pytest.mark.parametrize("name", ["mcf", "h264ref"])
def test_ooo_replay_matches_execute(name):
    """The committed stream is core-independent: an in-order capture
    replays bit-identically on the out-of-order core."""
    for kind, program in _programs(name).items():
        machine = MachineConfig.paper_default(width=4)
        trace = Trace.from_bytes(_capture(program, machine).to_bytes())
        executed = OutOfOrderCore(machine, window=64).run(
            program, max_instructions=generate.MAX_INSTRUCTIONS
        )
        replayed = replay_ooo(program, trace, machine, window=64)
        assert generate.fingerprint_run(replayed) == \
            generate.fingerprint_run(executed)


def test_live_predictor_replay_of_baseline_trace():
    """A baseline program's committed stream is predictor-independent,
    so one capture replays under *any* predictor -- re-simulating the
    direction predictor live -- and matches execute-driven runs."""
    program = _programs("h264ref")["baseline"]
    hybrid = MachineConfig.paper_default(width=4)
    assert hybrid.predictor_factory is HybridPredictor
    trace = _capture(program, hybrid)
    gshare = hybrid.with_predictor(GSharePredictor)
    executed = InOrderCore(gshare).run(
        program, max_instructions=generate.MAX_INSTRUCTIONS
    )
    replayed = replay_inorder(program, trace, gshare)
    assert generate.fingerprint_run(replayed) == \
        generate.fingerprint_run(executed)


def test_decomposed_trace_guards_predictor_identity():
    """A decomposed program's committed path depends on the predictor:
    replaying its trace under a different predictor must refuse."""
    program = _programs("bzip2")["decomposed"]
    assert predecode(program).has_decomposed
    machine = MachineConfig.paper_default(width=4)
    trace = _capture(program, machine)
    # Same predictor: legal (recorded-bits mode).
    replay_inorder(program, trace, machine)
    with pytest.raises(TraceMismatch):
        replay_inorder(
            program, trace, machine.with_predictor(GSharePredictor)
        )


def test_trace_rejects_wrong_program():
    # bzip2 converts branches, so its decomposed program's content
    # digest genuinely differs from the baseline's.
    programs = _programs("bzip2")
    machine = MachineConfig.paper_default(width=4)
    trace = _capture(programs["baseline"], machine)
    with pytest.raises(TraceMismatch):
        replay_inorder(programs["decomposed"], trace, machine)


def test_container_detects_corruption():
    program = _programs("mcf")["baseline"]
    trace = _capture(program, MachineConfig.paper_default(width=2))
    blob = trace.to_bytes()
    with pytest.raises(TraceError):
        Trace.from_bytes(blob[: len(blob) // 2])  # truncated
    with pytest.raises(TraceError):
        Trace.from_bytes(b"NOTTRACE" + blob[8:])  # bad magic
    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF  # corrupt the last column payload
    with pytest.raises(TraceError):
        Trace.from_bytes(bytes(flipped))


def test_max_outstanding_predicts_is_size_independent():
    """The DBB occupancy statistic read off the trace: positive for a
    program that converts branches, zero for baseline."""
    programs = _programs("bzip2")
    machine = MachineConfig.paper_default(width=4)
    dec_trace = _capture(programs["decomposed"], machine)
    base_trace = _capture(programs["baseline"], machine)
    assert dec_trace.max_outstanding_predicts(
        programs["decomposed"]
    ) >= 1
    assert base_trace.max_outstanding_predicts(
        programs["baseline"]
    ) == 0
