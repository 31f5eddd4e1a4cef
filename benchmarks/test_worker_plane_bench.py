"""Warm-worker execution plane benchmarks.

Two layers:

* pytest-benchmark micros of one sweep-point trace load -- per-job
  dispatch (a cold store per point, plane off: disk container read +
  zlib inflate + prep rebuild) vs the shared-memory plane (a cold
  store attaching the published columns zero-copy);
* a snapshot (``results/BENCH_worker_plane.json``) of a warm
  multi-point machine sweep replaying one captured trace: one cold
  store per point (the price a point pays when it lands on a worker
  whose LRU has not seen the trace -- always, right after a watchdog
  respawn) vs one warm worker store (what a pool worker's resident
  store gives every job after its first: the trace mapped once and
  the layered replay prep reused across points).  Gated at >= 1.5x.

The pool-level dispatcher is deliberately not wall-clocked here: on a
1-2 core CI box a pool ratio measures scheduler noise, not the plane.
Engine-level behaviour (plane on == plane off bit-for-bit, schema-11
manifests, segment lifecycle) is pinned by
``tests/integration/test_worker_plane.py``.
"""

import json
import pathlib
import time

from repro.compiler import compile_baseline, profile_program
from repro.experiments import plane
from repro.experiments.artifacts import ArtifactStore
from repro.ir import lower
from repro.uarch import MachineConfig
from repro.workloads import spec_benchmark

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

_MICRO_BUDGET = 400_000
_SWEEP_WIDTHS = (1, 2, 4, 8)
_SWEEP_BTBS = (1024, 4096)


def _sweep_machines():
    """A width x BTB machine sweep sharing one captured trace -- one
    artifact group of sweep points."""
    import dataclasses

    return [
        dataclasses.replace(
            MachineConfig.paper_default(width=w), btb_entries=b
        )
        for w in _SWEEP_WIDTHS
        for b in _SWEEP_BTBS
    ]


def _program_machine():
    spec = spec_benchmark("h264ref", iterations=120)
    profile = profile_program(
        lower(spec.build(seed=0)), max_instructions=_MICRO_BUDGET
    )
    program = compile_baseline(
        spec.build(seed=1), profile=profile
    ).program
    return program, MachineConfig.paper_default(width=4)


def _seed_trace(cache_dir):
    """Capture the sweep's shared trace into the store once."""
    store = ArtifactStore(cache_dir=cache_dir)
    program, machine = _program_machine()
    store.simulate_inorder(
        program, machine, max_instructions=_MICRO_BUDGET
    )
    assert store.counters["trace_captures"] == 1
    return program


def _cold_point(cache_dir, program, machine):
    """One sweep point on a cold store (fresh LRU, no prep warmth)."""
    store = ArtifactStore(cache_dir=cache_dir)
    return store.simulate_inorder(
        program, machine, max_instructions=_MICRO_BUDGET
    )


#: Fixed content key the point-load micros publish the trace under.
_POINT_KEY = "77" * 32


def _seed_point_key(cache_dir):
    """Capture the trace and file it under :data:`_POINT_KEY` (which
    also publishes it when a run prefix is active)."""
    program = _seed_trace(cache_dir)
    store = ArtifactStore(cache_dir=cache_dir)
    trace = store.peek_trace(
        program,
        MachineConfig.paper_default(width=4),
        max_instructions=_MICRO_BUDGET,
    )
    assert trace is not None
    store.store_trace(_POINT_KEY, trace)
    return program


def _cold_load(cache_dir):
    """The pure load a cold worker pays before it can replay."""
    return ArtifactStore(cache_dir=cache_dir).load_trace(_POINT_KEY)


def test_point_trace_load_per_job(benchmark, tmp_path, monkeypatch):
    """Per-job dispatch: every cold worker re-inflates the container."""
    monkeypatch.setenv("REPRO_SHM", "0")
    monkeypatch.delenv(plane.PREFIX_ENV, raising=False)
    _seed_point_key(tmp_path)
    trace = benchmark(lambda: _cold_load(tmp_path))
    assert trace is not None


def test_point_trace_load_warm_plane(benchmark, tmp_path, monkeypatch):
    """The plane: a cold worker maps the published columns zero-copy."""
    prefix = plane.new_prefix()
    monkeypatch.setenv(plane.PREFIX_ENV, prefix)
    monkeypatch.delenv("REPRO_SHM", raising=False)
    _seed_point_key(tmp_path)  # active prefix: store_trace publishes
    assert plane.list_segments(prefix)
    try:
        trace = benchmark(lambda: _cold_load(tmp_path))
    finally:
        plane.cleanup_run(prefix)
    assert trace is not None


def _best_of(fn, reps=3):
    best, out = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def test_worker_plane_snapshot(tmp_path, monkeypatch):
    """Archive cold-store vs warm-store sweep walls in
    ``results/BENCH_worker_plane.json`` and hold the warm worker store
    to the >= 1.5x target on a warm multi-point sweep."""
    monkeypatch.setenv("REPRO_SHM", "0")
    monkeypatch.delenv(plane.PREFIX_ENV, raising=False)
    program = _seed_point_key(tmp_path)
    machines = _sweep_machines()

    def cold_store_per_point():
        # Every point on a worker whose LRU has not seen the trace
        # (the guaranteed state after any respawn).
        return [_cold_point(tmp_path, program, m) for m in machines]

    def warm_worker_store():
        # One worker-resident store: it maps the trace once and the
        # layered replay prep accumulates across the points.
        store = ArtifactStore(cache_dir=tmp_path)
        return [
            store.simulate_inorder(
                program, m, max_instructions=_MICRO_BUDGET
            )
            for m in machines
        ]

    cold_wall, before = _best_of(cold_store_per_point)
    warm_wall, after = _best_of(warm_worker_store)
    assert [r.stats for r in before] == [r.stats for r in after], (
        "warm worker store changed the results"
    )

    # Point-load flavor: container inflate vs zero-copy shm attach.
    disk_s, _ = _best_of(lambda: _cold_load(tmp_path), reps=5)
    prefix = plane.new_prefix()
    monkeypatch.setenv(plane.PREFIX_ENV, prefix)
    monkeypatch.delenv("REPRO_SHM", raising=False)
    try:
        # A disk hit under an active prefix publishes; later cold
        # stores attach instead of inflating.
        _cold_load(tmp_path)
        assert plane.list_segments(prefix)
        shm_s, _ = _best_of(lambda: _cold_load(tmp_path), reps=5)
    finally:
        plane.cleanup_run(prefix)

    snapshot = {
        "config": {
            "workload": "h264ref",
            "iterations": 120,
            "max_instructions": _MICRO_BUDGET,
            "sweep_widths": list(_SWEEP_WIDTHS),
            "sweep_btb_entries": list(_SWEEP_BTBS),
        },
        "lever": (
            "worker-resident store (one store per pool worker, kept "
            "across jobs) + REPRO_SHM"
        ),
        "warm_sweep": {
            "points": len(machines),
            "cold_store_per_point_wall_s": round(cold_wall, 3),
            "warm_worker_store_wall_s": round(warm_wall, 3),
            "speedup": round(cold_wall / warm_wall, 2),
        },
        "point_load": {
            "disk_inflate_s": round(disk_s, 4),
            "shm_attach_s": round(shm_s, 4),
            "speedup": round(disk_s / shm_s, 2),
        },
        "note": (
            "warm_sweep gates the worker-resident store; "
            "point_load isolates the zero-copy segment attach the "
            "plane gives workers that never decoded the trace"
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_worker_plane.json").write_text(
        json.dumps(snapshot, indent=2) + "\n"
    )
    assert snapshot["warm_sweep"]["speedup"] >= 1.5, (
        f"warm sweep speedup {snapshot['warm_sweep']['speedup']}x "
        "< 1.5x target"
    )
