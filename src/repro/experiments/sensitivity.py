"""Section 5.3: branch-predictor sensitivity.

The paper simulates "a series of ever improving conditional branch
predictors, culminating in a 64-KB version of ISL-TAGE" and finds that on
the four hard-to-predict integer benchmarks (astar, sjeng, gobmk, mcf) the
speedup from the transformation *improves* roughly 0.3% for each 1%
reduction in misprediction rate.

We run the same ladder (bimodal -> gshare -> hybrid -> TAGE -> ISL-TAGE)
and report, per benchmark and predictor: the baseline misprediction rate
and the decomposed-over-baseline speedup, plus the fitted
speedup-per-accuracy slope.

One engine job runs a benchmark's whole ladder: its workloads are built
and its baseline compiled once, not once per rung.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis import render_table, speedup_percent
from ..branchpred import (
    BimodalPredictor,
    DirectionPredictor,
    GSharePredictor,
    HybridPredictor,
    IslTagePredictor,
    TagePredictor,
)
from ..compiler import compile_baseline, compile_decomposed
from ..ir import lower
from ..uarch import MachineConfig
from ..workloads import spec_benchmark
from .artifacts import get_store
from .engine import ExperimentEngine, get_engine
from .harness import RunConfig

#: The hard-to-predict benchmarks the paper calls out.
HARD_BENCHMARKS = ("astar", "sjeng", "gobmk", "mcf")

#: The predictor ladder, weakest to strongest.
LADDER: Tuple[Tuple[str, Callable[[], DirectionPredictor]], ...] = (
    ("bimodal", BimodalPredictor),
    ("gshare", GSharePredictor),
    ("hybrid-24KB", HybridPredictor),
    ("tage", TagePredictor),
    ("isl-tage-64KB", IslTagePredictor),
)


@dataclass
class SensitivityPoint:
    benchmark: str
    predictor: str
    mispredict_rate: float  # baseline, %
    speedup: float  # decomposed over baseline with the same predictor, %


@dataclass
class SensitivityResult:
    points: List[SensitivityPoint]
    #: ``sensitivity:<benchmark>:<predictor>`` labels of the rungs whose
    #: benchmark's engine job failed (points omitted; a failed job
    #: drops its benchmark's whole ladder).
    failed: List[str] = dataclass_field(default_factory=list)

    def slope(self, benchmark: str) -> float:
        """Least-squares % speedup gained per 1% mispredict-rate drop."""
        series = [
            (p.mispredict_rate, p.speedup)
            for p in self.points
            if p.benchmark == benchmark
        ]
        if len(series) < 2:
            return 0.0
        xs = [-x for x, _ in series]  # accuracy improvement axis
        ys = [y for _, y in series]
        n = len(series)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        var = sum((x - mean_x) ** 2 for x in xs)
        return cov / var if var else 0.0

    def render(self) -> str:
        rows = [
            [p.benchmark, p.predictor, f"{p.mispredict_rate:.2f}",
             f"{p.speedup:.2f}"]
            for p in self.points
        ]
        table = render_table(
            ["benchmark", "predictor", "mispredict%", "speedup%"],
            rows,
            title="Section 5.3: predictor sensitivity "
            "(paper: ~0.3% speedup per 1% mispredict reduction)",
        )
        slopes = [
            [name, f"{self.slope(name):.3f}"]
            for name in sorted({p.benchmark for p in self.points})
        ]
        out = (
            table
            + "\n\n"
            + render_table(["benchmark", "%speedup per 1% accuracy"], slopes)
        )
        if self.failed:
            out += "\nmissing rungs (job failures): " + ", ".join(
                self.failed
            )
        return out


def _sensitivity_job(payload) -> Dict:
    """The whole predictor ladder of one benchmark; engine-mappable.

    TRAIN is built and lowered once and REF is built once.  Each rung
    profiles TRAIN with its own predictor (the functional TRAIN branch
    stream is predictor-independent and shared through the artifact
    store, so a rung costs one cheap measurement) and compiles its own
    decomposed binary.  The baseline binary is compiled once: layout
    reads only execution and taken counts, which no predictor changes,
    and its committed stream is predictor-independent too, so every
    rung replays the same baseline trace.
    """
    name, config = payload
    store = get_store()
    mark = store.mark()
    spec = spec_benchmark(name, iterations=config.iterations)
    train = lower(spec.build(seed=config.train_seed))
    ref = spec.build(seed=config.ref_seeds[0])
    baseline = None
    rungs = []
    cycles = committed = 0
    for pred_name, factory in LADDER:
        # Profile/select with the same predictor the hardware runs:
        # better predictors expose more candidates, as in the paper.
        profile = store.profile(
            train,
            max_instructions=config.max_instructions,
            predictor_factory=factory,
        )
        if baseline is None:
            baseline = compile_baseline(ref, profile=profile).program
        decomposed = compile_decomposed(
            ref,
            profile=profile,
            selection_config=config.selection,
            transform_config=config.transform,
        ).program
        machine = MachineConfig.paper_default().with_predictor(factory)
        # One point per program and rung: each predictor is its own
        # prep slice, so there is nothing to fuse across rungs.
        [base_run] = store.simulate_inorder_sweep(
            baseline, [machine], max_instructions=config.max_instructions
        )
        [dec_run] = store.simulate_inorder_sweep(
            decomposed, [machine], max_instructions=config.max_instructions
        )
        total = base_run.stats.cond_branches or 1
        rungs.append({
            "predictor": pred_name,
            "mispredict_rate":
                100.0 * base_run.stats.cond_mispredicts / total,
            "speedup": speedup_percent(base_run, dec_run),
        })
        cycles += base_run.cycles + dec_run.cycles
        committed += base_run.stats.committed + dec_run.stats.committed
    return {
        "rungs": rungs,
        "simulated_cycles": cycles,
        "committed_instructions": committed,
        "artifacts": store.delta(mark),
    }


def run(
    benchmarks: Tuple[str, ...] = HARD_BENCHMARKS,
    config: Optional[RunConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> SensitivityResult:
    config = config or RunConfig()
    results = get_engine(engine).map(
        _sensitivity_job,
        [(name, config) for name in benchmarks],
        labels=[f"sensitivity:{name}" for name in benchmarks],
    )
    points: List[SensitivityPoint] = []
    failed: List[str] = []
    for name, result in zip(benchmarks, results):
        if result is None:
            failed.extend(
                f"sensitivity:{name}:{pred_name}" for pred_name, _ in LADDER
            )
            continue
        points.extend(
            SensitivityPoint(benchmark=name, **rung)
            for rung in result["rungs"]
        )
    return SensitivityResult(points=points, failed=failed)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
