"""Vectorized-vs-scalar replay equivalence, tier-1 scale.

The golden suite already holds the default (vectorized) replay path
to the execute-driven fingerprints; this file is the fast guard that
compares the two replay implementations *directly* on a small
workload -- in-order and OOO, recorded and live prediction -- and
pins down the dispatch contract: the env knob forces the scalar
oracle, and the fast path really is the one running otherwise
(``trace._prep`` only materialises when a vectorized kernel accepts
the trace).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.branchpred import GSharePredictor
from repro.compiler import (
    compile_baseline,
    compile_decomposed,
    profile_program,
)
from repro.ir import lower
from repro.uarch import (
    InOrderCore,
    MachineConfig,
    Trace,
    TraceMismatch,
    capture_trace,
    replay_inorder,
    replay_ooo,
)
from repro.workloads import spec_benchmark

_BUDGET = 60_000


@pytest.fixture(scope="module")
def setup():
    # iterations=40 is the smallest h264ref scale whose profile is hot
    # enough to decompose branches (below it the decomposed program
    # degenerates to the baseline and the mode guards have nothing to
    # reject); the instruction budget keeps the streams tier-1 sized.
    spec = spec_benchmark("h264ref", iterations=40)
    profile = profile_program(
        lower(spec.build(seed=0)), max_instructions=_BUDGET
    )
    ref = spec.build(seed=1)
    programs = {
        "baseline": compile_baseline(ref, profile=profile).program,
        "decomposed": compile_decomposed(ref, profile=profile).program,
    }
    machine = MachineConfig.paper_default(width=4)
    traces = {}
    for kind, program in programs.items():
        trace = capture_trace(program, machine.predictor_factory, _BUDGET)
        traces[kind] = Trace.from_bytes(trace.to_bytes())
    return programs, traces, machine


def _scalar(monkeypatch, fn, *args, **kwargs):
    monkeypatch.setenv("REPRO_REPLAY_VECTORIZED", "0")
    try:
        return fn(*args, **kwargs)
    finally:
        monkeypatch.delenv("REPRO_REPLAY_VECTORIZED")


@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
@pytest.mark.parametrize("width", [2, 8])
def test_inorder_vectorized_matches_scalar(setup, monkeypatch, kind, width):
    programs, traces, _ = setup
    config = MachineConfig.paper_default(width=width)
    fast = replay_inorder(programs[kind], traces[kind], config)
    slow = _scalar(
        monkeypatch, replay_inorder, programs[kind], traces[kind], config
    )
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(slow.stats)
    assert fast.registers == slow.registers
    # The comparison is meaningless if the fast path declined the
    # trace and both runs were scalar: prep proves the kernel ran.
    assert traces[kind]._prep is not None


@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
def test_ooo_vectorized_matches_scalar(setup, monkeypatch, kind):
    programs, traces, machine = setup
    fast = replay_ooo(programs[kind], traces[kind], machine, window=32)
    slow = _scalar(
        monkeypatch,
        replay_ooo,
        programs[kind],
        traces[kind],
        machine,
        window=32,
    )
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(slow.stats)
    assert traces[kind]._prep is not None


def test_live_predictor_replay_matches_scalar(setup, monkeypatch):
    """A baseline trace replayed under a *different* predictor runs
    the predictor live; the vectorized path batches that predictor
    pass and must still agree with the scalar loop."""
    programs, traces, _ = setup
    config = MachineConfig.paper_default(width=4).with_predictor(
        GSharePredictor
    )
    fast = replay_inorder(programs["baseline"], traces["baseline"], config)
    slow = _scalar(
        monkeypatch,
        replay_inorder,
        programs["baseline"],
        traces["baseline"],
        config,
    )
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(slow.stats)


def test_env_knob_forces_scalar_oracle(setup, monkeypatch):
    """``REPRO_REPLAY_VECTORIZED=0`` must keep the fast path fully
    out of the loop: no prep is ever attached to the trace."""
    programs, traces, machine = setup
    result = InOrderCore(machine).run(
        programs["baseline"], max_instructions=_BUDGET
    )
    fresh = Trace.from_bytes(
        capture_trace(
            programs["baseline"], machine.predictor_factory, _BUDGET
        ).to_bytes()
    )
    monkeypatch.setenv("REPRO_REPLAY_VECTORIZED", "0")
    replayed = replay_inorder(programs["baseline"], fresh, machine)
    assert replayed.stats == result.stats
    assert fresh._prep is None


class TestMismatchMessages:
    """`TraceMismatch` must name both identities with cleanly
    shortened digests -- no ``{...!r:.20}`` truncation that leaves an
    unbalanced quote."""

    def test_wrong_program_message(self, setup):
        programs, traces, machine = setup
        with pytest.raises(TraceMismatch) as excinfo:
            replay_inorder(programs["decomposed"], traces["baseline"], machine)
        message = str(excinfo.value)
        assert "trace program" in message
        assert "requested program" in message
        # Shortened digests keep head..tail form, no dangling quote.
        assert message.count("'") % 2 == 0
        assert ".." in message

    def test_predictor_identity_message(self, setup):
        programs, traces, _ = setup
        config = MachineConfig.paper_default(width=4).with_predictor(
            GSharePredictor
        )
        with pytest.raises(TraceMismatch) as excinfo:
            replay_inorder(programs["decomposed"], traces["decomposed"], config)
        message = str(excinfo.value)
        assert "captured under" in message
        assert "cannot replay under" in message
        # Both predictor identities appear in full, distinguishable.
        assert "HybridPredictor" in message
        assert "GSharePredictor" in message
