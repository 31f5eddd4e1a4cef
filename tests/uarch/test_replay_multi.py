"""Sweep-fused vs per-point replay equivalence, tier-1 scale.

The fused multi-config pass (:mod:`repro.uarch.replay_multi`) claims
bit-exactness lane by lane against the per-point vectorized kernel --
which the golden suite in turn holds to the execute-driven oracle.
This file is the fast guard: for one workload per suite kind
(int2006/fp2006/int2000/fp2000), for baseline and decomposed
programs, under recorded and live prediction, one fused width-sweep
pass must reproduce the per-point replays' full ``SimStats`` and
architectural state exactly.  It also pins the dispatch contract:
single points replay per-point, mixed recorded/live lanes and
mismatched prep slices fall back by name, and the fused path really
is the one running otherwise (the ``regions`` prep layer only
materialises when a fused pass accepts the sweep).
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
    MachineConfig,
    Trace,
    capture_trace,
    replay_inorder,
    replay_inorder_sweep,
)
from repro.workloads import BENCHMARKS, spec_benchmark

_BUDGET = 60_000
_WIDTHS = (2, 4, 8)

#: One workload per suite kind (see BENCHMARKS[...].suite).
_PICKS = ("h264ref", "bwaves", "bzip200", "ammp00")


@pytest.fixture(scope="module")
def setup():
    assert {BENCHMARKS[n].suite for n in _PICKS} == {
        "int2006", "fp2006", "int2000", "fp2000",
    }
    machine = MachineConfig.paper_default(width=4)
    programs = {}
    traces = {}
    for name in _PICKS:
        spec = spec_benchmark(name, iterations=40)
        profile = profile_program(
            lower(spec.build(seed=0)), max_instructions=_BUDGET
        )
        ref = spec.build(seed=1)
        for kind, compiled in (
            ("baseline", compile_baseline(ref, profile=profile)),
            ("decomposed", compile_decomposed(ref, profile=profile)),
        ):
            program = compiled.program
            trace = capture_trace(
                program, machine.predictor_factory, _BUDGET
            )
            programs[(name, kind)] = program
            traces[(name, kind)] = Trace.from_bytes(trace.to_bytes())
    return programs, traces


def _sweep_machines(widths=_WIDTHS):
    return [MachineConfig.paper_default(width=w) for w in widths]


def _assert_equal_runs(fused, per_point):
    assert len(fused) == len(per_point)
    for fast, slow in zip(fused, per_point):
        assert dataclasses.asdict(fast.stats) == dataclasses.asdict(
            slow.stats
        )
        assert fast.registers == slow.registers
        assert fast.memory.snapshot() == slow.memory.snapshot()


@pytest.mark.parametrize("name", _PICKS)
@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
def test_fused_sweep_matches_per_point(setup, name, kind):
    programs, traces = setup
    program, trace = programs[(name, kind)], traces[(name, kind)]
    machines = _sweep_machines()
    fused, outcome = replay_inorder_sweep(program, trace, machines)
    assert outcome == "fused"
    per_point = [
        replay_inorder(program, trace, machine) for machine in machines
    ]
    _assert_equal_runs(fused, per_point)
    # The regions layer only materialises when a fused pass ran.
    assert trace._prep is not None and len(trace._prep.regions) >= 1


def test_live_predictor_lanes_fuse(setup):
    """A baseline trace swept under a foreign predictor runs every
    lane live; the fused pass shares the live prep slice and must
    still match per-point replay exactly."""
    programs, traces = setup
    program = programs[("h264ref", "baseline")]
    trace = traces[("h264ref", "baseline")]
    machines = [
        machine.with_predictor(GSharePredictor)
        for machine in _sweep_machines()
    ]
    fused, outcome = replay_inorder_sweep(program, trace, machines)
    assert outcome == "fused"
    _assert_equal_runs(
        fused,
        [replay_inorder(program, trace, machine) for machine in machines],
    )


def test_single_point_stays_per_point(setup):
    programs, traces = setup
    program = programs[("h264ref", "baseline")]
    trace = traces[("h264ref", "baseline")]
    runs, outcome = replay_inorder_sweep(
        program, trace, [MachineConfig.paper_default(width=4)]
    )
    assert outcome == "per_point"
    assert len(runs) == 1


def test_mismatched_slices_fall_back(setup):
    """Lanes on different prep slices (here: different BTB sizes)
    cannot share one fused kernel; the sweep declines and replays
    per-point, bit-identically."""
    programs, traces = setup
    program = programs[("h264ref", "baseline")]
    trace = traces[("h264ref", "baseline")]
    machines = [
        MachineConfig.paper_default(width=4),
        dataclasses.replace(
            MachineConfig.paper_default(width=8), btb_entries=1024
        ),
    ]
    runs, outcome = replay_inorder_sweep(program, trace, machines)
    assert outcome == "mismatched_slices"
    _assert_equal_runs(
        runs,
        [replay_inorder(program, trace, machine) for machine in machines],
    )


def test_mixed_modes_fall_back(setup):
    """One recorded lane plus one live lane cannot fuse (different
    prediction streams); the sweep falls back per-point."""
    programs, traces = setup
    program = programs[("h264ref", "baseline")]
    trace = traces[("h264ref", "baseline")]
    machines = [
        MachineConfig.paper_default(width=4),
        MachineConfig.paper_default(width=8).with_predictor(
            GSharePredictor
        ),
    ]
    runs, outcome = replay_inorder_sweep(program, trace, machines)
    assert outcome == "mixed_modes"
    _assert_equal_runs(
        runs,
        [replay_inorder(program, trace, machine) for machine in machines],
    )
