"""Digest-verified blob store (:class:`repro.experiments.store.FileStore`)
and the shared quarantine move: round trips, pre-sidecar blobs,
tampered and torn blobs, collision-safe quarantine and its retention
cap.  Torn writes come from the seeded ``torn_put`` fault kind."""

import pytest

from repro.experiments.store import (
    FileStore,
    QUARANTINE_CAP,
    quarantine_file,
)


@pytest.fixture(autouse=True)
def _no_fault_plan(monkeypatch):
    """No fault plan leaking in from the caller's environment; the
    torn-put test sets its own."""
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)


class TestStoreProtocol:
    def test_put_get_round_trip_with_sidecar(self, tmp_path):
        store = FileStore(tmp_path)
        assert store.put("traces/a.bin", b"payload")
        assert store.contains("traces/a.bin")
        assert (tmp_path / "traces" / "a.bin.sum").is_file()
        assert store.get("traces/a.bin") == b"payload"
        store.delete("traces/a.bin")
        assert not store.contains("traces/a.bin")
        assert not (tmp_path / "traces" / "a.bin.sum").exists()
        assert store.get("traces/a.bin") is None

    def test_pre_sidecar_blob_served_unverified(self, tmp_path):
        (tmp_path / "old.bin").write_bytes(b"legacy")
        store = FileStore(tmp_path)
        assert store.get("old.bin") == b"legacy"

    def test_tampered_blob_quarantined_and_missed(self, tmp_path):
        store = FileStore(tmp_path)
        store.put("t.bin", b"original-bytes")
        (tmp_path / "t.bin").write_bytes(b"tampered-bytes")
        assert store.get("t.bin") is None
        assert store.counters["verify_failures"] == 1
        assert [p.name for p in (tmp_path / "quarantine").iterdir()] \
            == ["t.bin"]
        # The sidecar went with it, so a recapture starts clean.
        assert store.put("t.bin", b"recaptured")
        assert store.get("t.bin") == b"recaptured"

    def test_torn_put_detected_on_read_then_recaptured(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "torn_put:1.0@seed=1")
        store = FileStore(tmp_path)
        assert store.put("torn.bin", b"X" * 64)  # digest full, blob half
        assert (tmp_path / "torn.bin").stat().st_size == 32
        assert store.get("torn.bin") is None  # tear detected
        assert store.counters["verify_failures"] == 1
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert store.put("torn.bin", b"X" * 64)
        assert store.get("torn.bin") == b"X" * 64

    def test_quarantine_uniquifies_collisions(self, tmp_path):
        qdir = tmp_path / "q"
        for round_no in range(3):
            victim = tmp_path / "same-name.bin"
            victim.write_text(f"round {round_no}")
            assert quarantine_file(qdir, victim) is not None
        names = sorted(p.name for p in qdir.iterdir())
        assert len(names) == 3  # nothing clobbered
        assert "same-name.bin" in names
        assert all(n.startswith("same-name.bin") for n in names)

    def test_quarantine_retention_cap(self, tmp_path):
        qdir = tmp_path / "q"
        for i in range(QUARANTINE_CAP + 5):
            victim = tmp_path / f"victim{i:03d}.bin"
            victim.write_text("x")
            quarantine_file(qdir, victim)
        assert len(list(qdir.iterdir())) == QUARANTINE_CAP
