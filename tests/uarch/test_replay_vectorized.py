"""Vectorized replay vs the execute-driven cores, tier-1 scale.

The golden suite already holds the replay path to the execute-driven
fingerprints; this file is the fast guard that compares the
vectorized kernels *directly* against the scalar reference -- the
instruction-at-a-time ``InOrderCore.run`` / ``OutOfOrderCore.run`` --
on a small workload, in-order and OOO, recorded and live prediction.
It also pins the decline contract: a trace the kernels cannot prove
safe raises :class:`ReplayDeclined` with a named reason, and the
artifact store then runs the execute-driven core and counts the
decline.
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
from repro.experiments.artifacts import ArtifactStore
from repro.ir import lower
from repro.uarch import (
    InOrderCore,
    MachineConfig,
    OutOfOrderCore,
    ReplayDeclined,
    Trace,
    TraceMismatch,
    capture_trace,
    replay_inorder,
    replay_ooo,
)
from repro.workloads import spec_benchmark

_BUDGET = 60_000
_COLUMN_NAMES = (
    "pcs",
    "branch_pred",
    "branch_taken",
    "predict_taken",
    "resolve_diverted",
    "load_addrs",
    "load_suppressed",
    "store_addrs",
    "ret_targets",
)


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


def _core_run(program, config, window=None):
    core = (
        InOrderCore(config)
        if window is None
        else OutOfOrderCore(config, window=window)
    )
    return core.run(program, max_instructions=_BUDGET)


@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
@pytest.mark.parametrize("width", [2, 8])
def test_inorder_vectorized_matches_scalar(setup, kind, width):
    programs, traces, _ = setup
    config = MachineConfig.paper_default(width=width)
    fast = replay_inorder(programs[kind], traces[kind], config)
    slow = _core_run(programs[kind], config)
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(slow.stats)
    assert fast.registers == slow.registers
    assert fast.memory.snapshot() == slow.memory.snapshot()
    assert traces[kind]._prep is not None


@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
def test_ooo_vectorized_matches_scalar(setup, kind):
    programs, traces, machine = setup
    fast = replay_ooo(programs[kind], traces[kind], machine, window=32)
    slow = _core_run(programs[kind], machine, window=32)
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(slow.stats)
    assert fast.registers == slow.registers
    assert traces[kind]._prep is not None


def test_live_predictor_replay_matches_scalar(setup):
    """A baseline trace replayed under a *different* predictor runs
    the predictor live; the vectorized path batches that predictor
    pass and must still agree with the execute-driven core."""
    programs, traces, _ = setup
    config = MachineConfig.paper_default(width=4).with_predictor(
        GSharePredictor
    )
    fast = replay_inorder(programs["baseline"], traces["baseline"], config)
    slow = _core_run(programs["baseline"], config)
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(slow.stats)


def test_declined_trace_runs_core_via_store(setup, tmp_path, monkeypatch):
    """An unnameable live predictor (a lambda) has no safe prep key,
    so the kernel declines; the store runs the execute-driven core,
    bit-identical to ``InOrderCore.run``, and counts the decline."""
    programs, traces, _ = setup
    program = programs["baseline"]
    config = MachineConfig.paper_default(width=4).with_predictor(
        lambda: GSharePredictor()
    )
    with pytest.raises(ReplayDeclined) as excinfo:
        replay_inorder(program, traces["baseline"], config)
    assert excinfo.value.reason == "unnamed_predictor"

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store = ArtifactStore(cache_dir=tmp_path)
    mark = store.mark()
    result = store.simulate_inorder(
        program, config, max_instructions=_BUDGET
    )
    ooo = store.simulate_ooo(
        program, config, max_instructions=_BUDGET, window=32
    )
    expected = _core_run(program, config)
    assert dataclasses.asdict(result.stats) == dataclasses.asdict(
        expected.stats
    )
    assert result.registers == expected.registers
    assert result.memory.snapshot() == expected.memory.snapshot()
    assert ooo.stats == _core_run(program, config, window=32).stats
    delta = store.delta(mark)
    assert delta["replay_declines"] == 2
    assert delta["replay_decline_unnamed_predictor"] == 2
    assert "trace_replays" not in delta


def test_empty_stream_declines_to_core(setup, tmp_path, monkeypatch):
    """A zero-instruction budget captures an empty stream: the kernel
    declines it by name and the store's core run matches exactly."""
    programs, _, machine = setup
    program = programs["decomposed"]
    empty = capture_trace(program, machine.predictor_factory, 0)
    with pytest.raises(ReplayDeclined) as excinfo:
        replay_inorder(program, empty, machine)
    assert excinfo.value.reason == "empty_stream"

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store = ArtifactStore(cache_dir=tmp_path)
    result = store.simulate_inorder(program, machine, max_instructions=0)
    expected = InOrderCore(machine).run(program, max_instructions=0)
    assert result.stats == expected.stats
    assert store.counters["replay_decline_empty_stream"] == 1


def test_truncated_event_column_declines(setup):
    """A trace whose event columns disagree with its stream is
    refused by name, never replayed into a wrong answer."""
    programs, traces, machine = setup
    trace = traces["baseline"]
    views = {name: trace.column(name) for name in _COLUMN_NAMES}
    views["load_addrs"] = views["load_addrs"][:-1]
    broken = Trace.from_views(dict(trace.meta), views)
    with pytest.raises(ReplayDeclined) as excinfo:
        replay_inorder(programs["baseline"], broken, machine)
    assert excinfo.value.reason == "event_mismatch"


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
