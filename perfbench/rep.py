"""One regeneration of a paper artifact, in a fresh process.

Run by ``run.py``, never by hand: ``python3 perfbench/rep.py '<json>'``
where the JSON names the artifact, seed, store directory, worker count,
whether the result cache is on, whether to trace, and the client's
``time.perf_counter()`` at spawn (``CLOCK_MONOTONIC`` on Linux, shared
by every process), so that interpreter start and imports count as
set-up.  Prints one JSON record as its last line of stdout.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import time


def main(spec: dict) -> dict:
    root = pathlib.Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    import ledger

    ledger.import_program()
    from repro.experiments import ExperimentEngine

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(pathlib.Path(spec["spool"]))
        spans.install(tracer, ledger.TRACE_TARGETS)
    artifact = spec["artifact"]
    config = ledger.run_config(artifact, spec["seed"])
    engine = ExperimentEngine(
        jobs=spec["jobs"],
        cache_dir=pathlib.Path(spec["store"]),
        use_cache=spec["result_cache"],
        run_id=None,
    )

    start = time.perf_counter()
    result = ledger.regenerate(artifact, config, engine)
    wall_s = time.perf_counter() - start

    # Every pool has been shut down and reaped by now, so the children's
    # high-water mark covers every worker this regeneration used.
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    manifest = engine.manifest()
    totals = manifest["totals"]
    record = {
        "setup_s": start - spec["spawned"],
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "store_mb": ledger.store_mb(pathlib.Path(spec["store"])),
        "jobs": totals["jobs"],
        "failed_jobs": totals["failed"] + totals["timeout"],
        "artifacts": totals["artifacts"],
        "spd_mae_pp": ledger.spd_mae_pp(ledger.paper_pairs(artifact, result)),
        "output": ledger.output_record(result.render(), totals),
    }
    if tracer is not None:
        record["layers"] = ledger.layer_metrics(
            tracer.collect(), manifest, wall_s
        )
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
