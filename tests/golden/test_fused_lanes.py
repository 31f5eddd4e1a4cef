"""Functional capture -> fused replay, pinned to the simulator goldens.

``tests/uarch/test_replay_multi.py`` proves fused == per-point replay;
this file closes the loop to the *execute-driven* oracle along the path
every sweep now takes: for every workload and both program kinds, a
trace captured by the timing-free functional pass, round-tripped
through the binary container and scored by one fused width sweep must
land, lane by lane, on all 330 ``sim_goldens.json`` fingerprints the
golden suite pins for ``InOrderCore.run``.
"""

from __future__ import annotations

import json

import pytest

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
    replay_inorder_sweep,
)
from repro.workloads import spec_benchmark

from . import generate


@pytest.fixture(scope="module")
def goldens():
    return json.loads(generate.GOLDEN_PATH.read_text())["fingerprints"]


@pytest.mark.parametrize("name", generate.workload_names())
def test_fused_lanes_match_goldens(name, goldens):
    spec = spec_benchmark(name, iterations=generate.ITERATIONS)
    profile = profile_program(
        lower(spec.build(seed=generate.TRAIN_SEED)),
        max_instructions=generate.MAX_INSTRUCTIONS,
    )
    ref = spec.build(seed=generate.REF_SEED)
    programs = {
        "baseline": compile_baseline(ref, profile=profile).program,
        "decomposed": compile_decomposed(ref, profile=profile).program,
    }
    machines = [MachineConfig.paper_default(width=w) for w in generate.WIDTHS]
    for kind, program in programs.items():
        trace = Trace.from_bytes(
            capture_trace(
                program,
                machines[0].predictor_factory,
                generate.MAX_INSTRUCTIONS,
            ).to_bytes()
        )
        runs, outcome = replay_inorder_sweep(program, trace, machines)
        assert outcome == "fused"
        for width, run in zip(generate.WIDTHS, runs):
            key = f"{name}/{kind}/w{width}"
            assert generate.fingerprint_run(run) == goldens[key], (
                f"fused replay lane diverged from golden for {key}"
            )
