"""What the benchmark runs, what it reports, and how it checks outputs.

Shared by ``run.py`` (the client that drives regenerations), ``rep.py``
(one regeneration in a fresh process) and the tests.  Everything that
names a ``repro`` function lives here, so a program change that renames
one breaks this file and nothing else.  See README.md for why each
workload and metric was chosen.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import spans

HERE = pathlib.Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: Seed whose outputs ``references.json`` pins.
DEFAULT_SEED = 0

#: Input size: the CLI defaults (``--iterations 500 --seeds 1``).
ITERATIONS = 500

#: The predictor of the paper's machine (Table 1), used to score the
#: ladder against Table 2.
PAPER_PREDICTOR = "hybrid-24KB"

#: The declaration of workloads and metrics, with units and bounds.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Metric name -> unit, as declared.
END_TO_END: Dict[str, str] = {
    m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
}
PER_LAYER: Dict[str, str] = {
    m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
}


@dataclass(frozen=True)
class Workload:
    #: ``fig8`` or ``sec53``: which paper artifact is regenerated.
    artifact: str
    #: Warm: result cache off, store primed before timing.  Cold: a
    #: fresh empty store per regeneration, result cache on.
    warm: bool


#: Why each one was chosen: BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    "fig8_cold": Workload("fig8", warm=False),
    "fig8_warm": Workload("fig8", warm=True),
    "sec53_warm": Workload("sec53", warm=True),
}


def ref_seed(seed: int) -> int:
    """REF input for workload seed ``seed``; input 0 is TRAIN."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed + 1


# -- the regeneration ------------------------------------------------------


def import_program() -> None:
    """Import every module a regeneration runs, so imports count as
    set-up and tracing sees every ``from x import f`` alias."""
    import repro.experiments.sensitivity  # noqa: F401
    import repro.experiments.speedups  # noqa: F401


def run_config(artifact: str, seed: int):
    from repro.experiments import RunConfig

    widths = (2, 4, 8) if artifact == "fig8" else (4,)
    return RunConfig(
        iterations=ITERATIONS, ref_seeds=(ref_seed(seed),), widths=widths
    )


def regenerate(artifact: str, config, engine):
    """The timed call: one regeneration of the paper artifact."""
    if artifact == "fig8":
        from repro.experiments import speedups

        return speedups.run_figure("fig8", config, engine=engine)
    from repro.experiments import sensitivity

    return sensitivity.run(config=config, engine=engine)


def paper_pairs(artifact: str, result) -> List[Tuple[str, float]]:
    """(benchmark, simulated 4-wide % speedup) at the paper's machine:
    Fig. 8's 4-wide series, or the ladder's paper-predictor rung."""
    if artifact == "fig8":
        return list(result.series[4])
    return [
        (p.benchmark, p.speedup)
        for p in result.points
        if p.predictor == PAPER_PREDICTOR
    ]


def spd_mae_pp(pairs: Sequence[Tuple[str, float]]) -> float:
    """Mean |simulated - Table 2 SPD| in percentage points."""
    from repro.workloads.spec import BENCHMARKS

    if not pairs:
        raise ValueError("no simulated speedups to score")
    return statistics.fmean(
        abs(speedup - BENCHMARKS[name].paper.spd) for name, speedup in pairs
    )


# -- output check ----------------------------------------------------------

OUTPUT_KEYS = ("digest", "cycles", "instructions")


def output_record(text: str, totals: Dict) -> Dict:
    """What must not change when only the simulator's speed changes."""
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "cycles": totals["simulated_cycles"],
        "instructions": totals["committed_instructions"],
    }


def load_references(path: pathlib.Path = REFERENCES) -> Dict:
    return json.loads(path.read_text())


def reference_for(
    workload: str, seed: int, references: Dict
) -> Optional[Dict]:
    """The shipped reference, or ``None`` for a seed without one."""
    if seed != references["seed"]:
        return None
    return references["workloads"][workload]


def check_output(observed: Dict, expected: Dict) -> List[str]:
    """One line per output field that differs; empty when they match."""
    return [
        f"{key}: expected {expected.get(key)!r}, got {observed.get(key)!r}"
        for key in OUTPUT_KEYS
        if observed.get(key) != expected.get(key)
    ]


def store_mb(store: pathlib.Path) -> float:
    """MB of traces, preps and profiles (with their digest sidecars)."""
    total = 0
    for sub in ("traces", "preps", "profiles"):
        folder = store / sub
        if folder.is_dir():
            total += sum(
                p.stat().st_size for p in folder.iterdir() if p.is_file()
            )
    return total / 1e6


def not_warm(artifacts: Dict) -> List[str]:
    """Store work a warm regeneration must not do, as ``name=count``."""
    return [
        f"{name}={artifacts[name]}"
        for name in ("trace_captures", "prep_builds", "store_puts")
        if artifacts.get(name, 0)
    ]


# -- tracing ---------------------------------------------------------------


def _committed(args, kwargs, result) -> Dict[str, float]:
    return {"insts": result.stats.committed}


def _encoded(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": len(result)}


def _replayed(args, kwargs, result) -> Dict[str, float]:
    return {"insts": result.committed} if result is not None else {}


def _fused(args, kwargs, result) -> Dict[str, float]:
    if result is None:
        return {}
    return {
        "lanes": len(args[2]),
        "insts": sum(stats.committed for stats in result),
    }


def _put_bytes(args, kwargs, result) -> Dict[str, float]:
    blob = args[2] if len(args) > 2 else kwargs["blob"]
    return {"bytes": len(blob)}


def _hit(args, kwargs, result) -> Dict[str, float]:
    return {"hits": 0 if result is None else 1}


#: (span name, module, qualname, measure(args, kwargs, result)).
TRACE_TARGETS = (
    ("workloads.build", "repro.workloads.synthetic",
     "WorkloadSpec.build", None),
    ("compiler.compile", "repro.compiler.pipeline", "compile_baseline", None),
    ("compiler.compile", "repro.compiler.pipeline",
     "compile_decomposed", None),
    ("compiler.profile", "repro.experiments.artifacts",
     "ArtifactStore.profile", None),
    ("uarch.functional", "repro.uarch.functional",
     "collect_branch_trace", None),
    ("branchpred.measure", "repro.branchpred.measure", "measure_trace", None),
    ("uarch.core", "repro.uarch.core", "InOrderCore.run",
     _committed),
    ("uarch.trace.encode", "repro.uarch.trace", "Trace.to_bytes",
     _encoded),
    ("uarch.trace.decode", "repro.uarch.trace", "Trace.from_bytes", None),
    ("uarch.replay_vec.prep_build", "repro.uarch.replay_vec",
     "build_prep_slice", None),
    ("uarch.replay_vec.prep_attach", "repro.uarch.replay_vec",
     "attach_prep_slice", None),
    ("uarch.replay_vec.replay", "repro.uarch.replay_vec",
     "replay_inorder_stats", _replayed),
    ("uarch.replay_multi", "repro.uarch.replay_multi",
     "replay_inorder_multi_stats", _fused),
    ("experiments.artifacts.load_trace", "repro.experiments.artifacts",
     "ArtifactStore.load_trace", None),
    ("experiments.artifacts.sweep", "repro.experiments.artifacts",
     "ArtifactStore.simulate_inorder_sweep", None),
    ("experiments.store.put", "repro.experiments.store", "FileStore.put",
     _put_bytes),
    ("experiments.store.get", "repro.experiments.store", "FileStore.get",
     None),
    ("experiments.plane.publish", "repro.experiments.plane",
     "publish_trace", None),
    ("experiments.plane.publish", "repro.experiments.plane",
     "publish_prep", None),
    ("experiments.plane.attach", "repro.experiments.plane", "attach_trace",
     _hit),
    ("experiments.plane.attach", "repro.experiments.plane", "attach_prep",
     _hit),
    # One engine job: the body a pool worker runs for one sweep point.
    ("experiments.engine.job", "repro.experiments.harness", "run_seed",
     None),
    ("experiments.engine.job", "repro.experiments.sensitivity",
     "_sensitivity_job", None),
    ("experiments.engine.map", "repro.experiments.engine",
     "ExperimentEngine.map", None),
)


def _ratio(num: float, den: float) -> float:
    """``num / den``, 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(
    spans_list: List[Dict], manifest: Dict, wall_s: float
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except the two tracing ones.

    Times and call counts come from the spans; hit ratios, puts,
    retries and engine counters from the engine manifest.  The
    manifest's ``totals.wall_s`` is the *sum of job walls*, so it is
    reported as engine busy time, never as elapsed time.
    """
    agg = spans.aggregate(spans_list)
    totals = manifest["totals"]
    art = totals["artifacts"]
    workers = manifest["engine"]["jobs"]

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def self_s(name):
        return agg[name]["self_s"] if name in agg else 0.0

    def extra(name, key):
        return agg[name].get(key, 0.0) if name in agg else 0.0

    def kips(name):
        return _ratio(extra(name, "insts"), self_s(name)) / 1000.0

    by_id = {s["id"]: s for s in spans_list}
    queue_wait = sum(
        s["start"] - by_id[s["parent"]]["start"]
        for s in spans_list
        if s["name"] == "experiments.engine.job"
        and s["parent"] in by_id
    )
    return {
        "workloads.build.calls": calls("workloads.build"),
        "workloads.build.s": self_s("workloads.build"),
        "compiler.compile.calls": calls("compiler.compile"),
        "compiler.compile.s": self_s("compiler.compile"),
        "compiler.profile.s": self_s("compiler.profile"),
        "compiler.memo_hit_ratio": _ratio(
            art.get("compile_hits", 0),
            art.get("compile_hits", 0) + art.get("compile_misses", 0),
        ),
        "uarch.functional.s": self_s("uarch.functional"),
        "branchpred.measure.s": self_s("branchpred.measure"),
        "uarch.core.calls": calls("uarch.core"),
        "uarch.core.s": self_s("uarch.core"),
        "uarch.core.kips": kips("uarch.core"),
        "uarch.trace.encode.s": self_s("uarch.trace.encode"),
        "uarch.trace.decode.s": self_s("uarch.trace.decode"),
        "uarch.trace.bytes": extra("uarch.trace.encode", "bytes"),
        "uarch.replay_vec.prep_build.calls":
            calls("uarch.replay_vec.prep_build"),
        "uarch.replay_vec.prep_build.s":
            self_s("uarch.replay_vec.prep_build"),
        "uarch.replay_vec.prep_attach.calls":
            calls("uarch.replay_vec.prep_attach"),
        "uarch.replay_vec.prep_attach.s":
            self_s("uarch.replay_vec.prep_attach"),
        "uarch.replay_vec.replay.calls": calls("uarch.replay_vec.replay"),
        "uarch.replay_vec.replay.s": self_s("uarch.replay_vec.replay"),
        "uarch.replay_vec.replay.kips": kips("uarch.replay_vec.replay"),
        "uarch.replay_multi.passes": calls("uarch.replay_multi"),
        "uarch.replay_multi.lanes": extra("uarch.replay_multi", "lanes"),
        "uarch.replay_multi.s": self_s("uarch.replay_multi"),
        "uarch.replay_multi.kips": kips("uarch.replay_multi"),
        "uarch.replay_multi.fallback_ratio": _ratio(
            art.get("fused_fallbacks", 0),
            art.get("fused_passes", 0) + art.get("fused_fallbacks", 0),
        ),
        "experiments.artifacts.trace_hit_ratio": _ratio(
            art.get("trace_hits", 0),
            art.get("trace_hits", 0) + art.get("trace_misses", 0),
        ),
        "experiments.artifacts.prep_hit_ratio": _ratio(
            art.get("prep_hits", 0),
            art.get("prep_hits", 0) + art.get("prep_misses", 0),
        ),
        "experiments.artifacts.profile_hit_ratio": _ratio(
            art.get("profile_hits", 0),
            art.get("profile_hits", 0) + art.get("profile_misses", 0),
        ),
        "experiments.artifacts.load_trace.s":
            self_s("experiments.artifacts.load_trace"),
        "experiments.artifacts.sweep.s":
            self_s("experiments.artifacts.sweep"),
        "experiments.store.puts": art.get("store_puts", 0),
        "experiments.store.put.s": self_s("experiments.store.put"),
        "experiments.store.put.bytes":
            extra("experiments.store.put", "bytes"),
        "experiments.store.get.s": self_s("experiments.store.get"),
        "experiments.store.retries": (
            art.get("store_put_retries", 0)
            + art.get("store_get_retries", 0)
        ),
        "experiments.store.verify_failures":
            art.get("store_verify_failures", 0),
        "experiments.plane.publish.calls":
            calls("experiments.plane.publish"),
        "experiments.plane.publish.s": self_s("experiments.plane.publish"),
        "experiments.plane.attach.calls": calls("experiments.plane.attach"),
        "experiments.plane.attach.s": self_s("experiments.plane.attach"),
        "experiments.plane.attach_ratio": _ratio(
            extra("experiments.plane.attach", "hits"),
            calls("experiments.plane.attach"),
        ),
        "experiments.engine.jobs": totals["jobs"],
        "experiments.engine.busy_s": totals["wall_s"],
        "experiments.engine.utilization": _ratio(
            totals["wall_s"], workers * wall_s
        ),
        "experiments.engine.queue_wait_s": queue_wait,
        "experiments.engine.batches": totals["batches"],
        "experiments.engine.batch_points": totals["batch_points"],
        "experiments.engine.retries": totals["retries_used"],
        "experiments.engine.cache_hits": totals["cache_hits"],
        "experiments.engine.map.s": self_s("experiments.engine.map"),
        "experiments.engine.job.s": self_s("experiments.engine.job"),
    }
