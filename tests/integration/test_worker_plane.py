"""The warm-worker execution plane: shared-memory traces, batched
dispatch, and the leak-proof segment lifecycle.

Unit-level tests drive ``repro.experiments.plane`` directly under a
hand-set run prefix; engine-level tests run real 2-process pools whose
workers share a tiny trace through the artifact store, so publish /
attach, batch fusion, respawn remapping, and run-end cleanup are
exercised the same way production sweeps exercise them.
"""

from __future__ import annotations

import json
import os
import pathlib
from array import array

import pytest

from repro.experiments import ExperimentEngine
from repro.experiments import plane
from repro.experiments.artifacts import ArtifactStore, default_store
from repro.experiments.engine import MANIFEST_SCHEMA
from repro.uarch.trace import Trace

pytestmark = pytest.mark.skipif(
    not plane.shm_available(), reason="no multiprocessing.shared_memory"
)

#: Content-style keys (any 64 hex chars); one per artifact group.
KEY_A = "ab" * 32
KEY_B = "cd" * 32


@pytest.fixture(autouse=True)
def _clean_plane_env(monkeypatch):
    """No fault plans, knobs, or prefixes leaking in from the caller's
    environment; tests that want them set them explicitly."""
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    for name in (
        "REPRO_FAULT_INJECT", "REPRO_SHM", "REPRO_BATCH", plane.PREFIX_ENV,
    ):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def prefix(monkeypatch):
    """A fresh run-scoped prefix, activated the way the engine does it
    (via the environment) and always swept at teardown."""
    value = plane.new_prefix()
    monkeypatch.setenv(plane.PREFIX_ENV, value)
    yield value
    plane.cleanup_run(value)


def _tiny_trace(events: int = 64, name: str = "plane-test") -> Trace:
    """A hand-built trace with distinctive values in every column."""
    meta = {
        "schema": 1,
        "program": KEY_A,
        "name": name,
        "budget": events,
        "predictor": None,
        "has_decomposed": False,
        "committed": events,
        "halted": True,
        "faults_suppressed": 0,
        "registers": [0] * 8,
        "memory": [[16, 42]],
    }
    branches = events // 2
    loads = events // 4
    return Trace(
        meta,
        pcs=array("i", range(events)),
        branch_pred=bytearray(i % 2 for i in range(branches)),
        branch_taken=bytearray((i + 1) % 2 for i in range(branches)),
        predict_taken=bytearray(i % 3 == 0 for i in range(branches)),
        resolve_diverted=bytearray(i % 5 == 0 for i in range(branches)),
        load_addrs=array("q", (i * 8 for i in range(loads))),
        load_suppressed=bytearray(loads),
        store_addrs=array("q", (i * 16 for i in range(loads))),
        ret_targets=array("i", [3, 1]),
    )


# -- engine-mappable workers (top level so they pickle) --------------------

def _trace_sharing_job(payload) -> dict:
    """Load-or-capture the group's shared trace through the store."""
    key, value = payload
    store = default_store()
    trace = store.load_trace(key)
    if trace is None:
        trace = _tiny_trace(name=key[:8])
        store.store_trace(key, trace)
    return {
        "value": value * value,
        "committed": int(trace.meta["committed"]),
        "simulated_cycles": 10,
        "committed_instructions": 10,
    }


def _fragile_trace_job(payload) -> dict:
    """Shares a trace, then dies once per payload (the marker-file
    pattern from test_faults) to force a pool respawn."""
    marker_dir, key, value, die_once = payload
    result = _trace_sharing_job((key, value))
    if die_once:
        marker = pathlib.Path(marker_dir) / f"{value}.died"
        if not marker.exists():
            marker.write_text("died")
            os._exit(3)
    return result


class TestSegmentRoundtrip:
    def test_publish_then_attach_is_bit_identical(self, prefix):
        trace = _tiny_trace()
        name = plane.publish_trace(KEY_A, trace)
        assert name == plane.segment_name(prefix, KEY_A)
        assert plane.list_segments(prefix) == [name]

        attached = plane.attach_trace(KEY_A)
        assert attached is not None
        assert attached.meta == trace.meta
        # Same serialised container byte-for-byte: every column and the
        # meta block survived the shared-memory round trip.
        assert attached.to_bytes() == trace.to_bytes()

    def test_create_race_loser_returns_none(self, prefix):
        assert plane.publish_trace(KEY_A, _tiny_trace()) is not None
        assert plane.publish_trace(KEY_A, _tiny_trace()) is None
        assert len(plane.list_segments(prefix)) == 1

    def test_absent_key_attaches_as_none(self, prefix):
        assert plane.attach_trace(KEY_B) is None

    def test_unready_segment_reads_as_absent(self, prefix):
        """A segment created but not yet published (no magic) must look
        absent, not corrupt: the reader falls back to disk."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(
            name=plane.segment_name(prefix, KEY_A), create=True, size=64
        )
        plane._unregister(shm)
        shm.close()
        assert plane.attach_trace(KEY_A) is None

    def test_knob_disables_the_plane(self, prefix, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        assert plane.active_prefix() is None
        assert plane.publish_trace(KEY_A, _tiny_trace()) is None
        assert plane.attach_trace(KEY_A) is None
        assert plane.list_segments(prefix) == []

    def test_cleanup_unlinks_but_attached_views_survive(self, prefix):
        trace = _tiny_trace()
        plane.publish_trace(KEY_A, trace)
        attached = plane.attach_trace(KEY_A)
        assert plane.cleanup_run(prefix) == 1
        assert plane.list_segments(prefix) == []
        # Linux keeps the mapping valid for attached processes after
        # the unlink; the trace's columns must remain readable.
        assert int(attached.column("pcs").sum()) == sum(range(64))
        assert attached.to_bytes() == trace.to_bytes()


class TestStoreIntegration:
    def test_store_publishes_and_fresh_store_attaches(
        self, prefix, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = ArtifactStore(cache_dir=tmp_path)
        trace = _tiny_trace()
        store.store_trace(KEY_A, trace)
        assert store.counters["shm_publishes"] == 1
        assert plane.list_segments(prefix) == [
            plane.segment_name(prefix, KEY_A)
        ]

        # A different process's store (modelled by a fresh instance with
        # a cold LRU) maps the segment instead of re-inflating the disk
        # container.
        other = ArtifactStore(cache_dir=tmp_path)
        mark = other.mark()
        loaded = other.load_trace(KEY_A)
        delta = other.delta(mark)
        assert delta.get("shm_attaches") == 1
        assert delta.get("trace_hits") == 1
        assert loaded.to_bytes() == trace.to_bytes()

    def test_disk_hit_republishes_after_sweep(
        self, prefix, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        trace = _tiny_trace()
        ArtifactStore(cache_dir=tmp_path).store_trace(KEY_A, trace)
        plane.cleanup_run(prefix)

        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        reloaded = fresh.load_trace(KEY_A)
        # The disk hit repopulated the plane for subsequent siblings.
        assert fresh.delta(mark).get("shm_publishes") == 1
        assert plane.list_segments(prefix) != []
        assert reloaded.to_bytes() == trace.to_bytes()


class TestBatchedDispatch:
    def _sweep(self, cache_dir, monkeypatch, batch, shm, **engine_kw):
        """Two 3-point artifact groups over a 2-process pool."""
        monkeypatch.setenv("REPRO_BATCH", batch)
        monkeypatch.setenv("REPRO_SHM", shm)
        engine = ExperimentEngine(
            jobs=2, cache_dir=cache_dir, use_cache=True, **engine_kw
        )
        keys = [KEY_A, KEY_B]
        payloads = [(keys[i // 3], i) for i in range(6)]
        groups = [keys[i // 3] for i in range(6)]
        labels = [f"pt{i}" for i in range(6)]
        results = engine.map(
            _trace_sharing_job, payloads, labels=labels, groups=groups
        )
        return engine, results

    def test_batched_matches_per_job_bit_for_bit(
        self, tmp_path, monkeypatch
    ):
        batched, a = self._sweep(tmp_path / "a", monkeypatch, "1", "1")
        plain, b = self._sweep(tmp_path / "b", monkeypatch, "0", "0")
        assert all(r is not None for r in a)
        assert a == b  # plane on+batched == plane off+per-job

        # Per group: the leader runs solo, the 2 followers fuse.
        assert batched.batches == 2
        assert batched.batch_points == 4
        assert any(r["batched"] for r in batched.records)
        assert plain.batches == 0
        assert not any(r["batched"] for r in plain.records)
        assert plain.last_shm_prefix is None

    def test_chunk_cap_splits_groups(self, tmp_path, monkeypatch):
        """REPRO_BATCH=N caps fused chunks; 1-element chunks degrade
        to plain submissions and are not counted as batches."""
        engine, results = self._sweep(tmp_path, monkeypatch, "2", "1")
        assert all(r is not None for r in results)
        # 2 followers per group fit one 2-chunk exactly.
        assert engine.batches == 2
        assert engine.batch_points == 4

    def test_manifest_schema5_plane_fields(self, tmp_path, monkeypatch):
        engine, _ = self._sweep(tmp_path, monkeypatch, "1", "1")
        manifest = engine.manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA == 10
        totals = manifest["totals"]
        assert totals["pool_respawns"] == 0
        assert totals["batches"] == 2
        assert totals["batch_points"] == 4
        # One publish per group leader, aggregated from the worker-side
        # counters the envelopes carried home.
        assert totals["artifacts"].get("shm_publishes", 0) == 2
        assert totals["shm_segments_cleaned"] == 2
        workers = manifest["workers"]
        assert workers and all(v["jobs"] >= 1 for v in workers.values())
        assert sum(v["jobs"] for v in workers.values()) == 6
        for record in manifest["jobs"]:
            assert isinstance(record["worker_pid"], int)
            assert record["batched"] in (True, False)

    def test_resume_replays_batched_points_individually(
        self, tmp_path, monkeypatch
    ):
        engine, first = self._sweep(
            tmp_path, monkeypatch, "1", "1", run_id="wp"
        )
        journal = tmp_path / "runs" / "wp.jsonl"
        entries = [
            json.loads(line)
            for line in journal.read_text().splitlines()
        ]
        # Batched or not, every point checkpoints as its own line.
        assert len(entries) == 6
        assert all(e["status"] == "ok" for e in entries)

        monkeypatch.setenv("REPRO_BATCH", "1")
        resumed = ExperimentEngine(
            jobs=2, cache_dir=tmp_path, use_cache=False,
            run_id="wp", resume=True,
        )
        keys = [KEY_A, KEY_B]
        payloads = [(keys[i // 3], i) for i in range(6)]
        second = resumed.map(
            _trace_sharing_job, payloads,
            labels=[f"pt{i}" for i in range(6)],
            groups=[keys[i // 3] for i in range(6)],
        )
        assert second == first
        assert resumed.journal_hits == 6
        assert resumed.batches == 0  # nothing left to dispatch


class TestShmLifecycle:
    def test_run_end_unlinks_every_segment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "1")
        engine = ExperimentEngine(jobs=2, cache_dir=tmp_path, use_cache=True)
        payloads = [(KEY_A, i) for i in range(4)]
        engine.map(
            _trace_sharing_job, payloads,
            labels=[f"p{i}" for i in range(4)], groups=[KEY_A] * 4,
        )
        assert engine.last_shm_prefix is not None
        assert plane.list_segments(engine.last_shm_prefix) == []
        assert engine.shm_segments_cleaned == 1
        # Settled batches also removed their spools.
        assert list((tmp_path / "batches").glob("*.jsonl")) == []

    def test_worker_death_respawn_remaps(self, tmp_path, monkeypatch):
        """A respawned worker has a cold LRU; the published segment
        survives the pool death and the retry maps it zero-copy."""
        payloads = [
            (str(tmp_path), KEY_A, 0, False),
            (str(tmp_path), KEY_A, 1, True),
        ]
        engine = ExperimentEngine(
            jobs=2, cache_dir=tmp_path / "cache", use_cache=False,
            retries=3,
        )
        results = engine.map(
            _fragile_trace_job, payloads,
            labels=["lead", "frail"], groups=[KEY_A, KEY_A],
        )
        assert [r["value"] for r in results] == [0, 1]
        assert all(r["status"] == "ok" for r in engine.records)
        assert engine.manifest()["totals"]["pool_respawns"] >= 1
        counters = [r["artifacts"] or {} for r in engine.records]
        assert sum(c.get("shm_publishes", 0) for c in counters) >= 1
        assert sum(c.get("shm_attaches", 0) for c in counters) >= 1
        assert plane.list_segments(engine.last_shm_prefix) == []

    def test_interrupt_unlinks_segments(self, tmp_path, monkeypatch):
        def progress(done, total, label):
            if done == 1:
                raise KeyboardInterrupt

        monkeypatch.setenv("REPRO_BATCH", "1")
        engine = ExperimentEngine(
            jobs=2, cache_dir=tmp_path, use_cache=True, progress=progress,
        )
        payloads = [(KEY_A, i) for i in range(4)]
        with pytest.raises(KeyboardInterrupt):
            engine.map(
                _trace_sharing_job, payloads,
                labels=[f"p{i}" for i in range(4)], groups=[KEY_A] * 4,
            )
        # The group leader finished (and published) before the
        # interrupt; the finally-path sweep still unlinked everything.
        assert engine.last_shm_prefix is not None
        assert plane.list_segments(engine.last_shm_prefix) == []
        assert engine.shm_segments_cleaned >= 1

    def test_injected_leak_swept_at_run_end(self, tmp_path, monkeypatch):
        """shm_leak faults abandon a never-ready sibling segment per
        publish -- the namespace sweep must reclaim those too."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "shm_leak:1.0@seed=1")
        monkeypatch.setenv("REPRO_BATCH", "1")
        engine = ExperimentEngine(jobs=2, cache_dir=tmp_path, use_cache=True)
        keys = [KEY_A, KEY_B]
        payloads = [(keys[i // 2], i) for i in range(4)]
        results = engine.map(
            _trace_sharing_job, payloads,
            labels=[f"p{i}" for i in range(4)],
            groups=[keys[i // 2] for i in range(4)],
        )
        assert all(r is not None for r in results)
        assert plane.list_segments(engine.last_shm_prefix) == []
        # 2 published traces + 2 abandoned strays, all reclaimed.
        assert engine.shm_segments_cleaned == 4
