"""The resilient artifact store: atomicity, integrity, LRU, locking."""

import json
import os

import numpy as np
import pytest

from repro.errors import ArtifactError
from repro.store import (
    ArtifactStore,
    FileLock,
    MemoryLRU,
    atomic_write_bytes,
    default_model_cache_dir,
    get_store,
    sha256_bytes,
    sha256_file,
    spec_hash,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


class TestAtomicWrite:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "a" / "b.bin")
        atomic_write_bytes(path, b"payload")
        with open(path, "rb") as fh:
            assert fh.read() == b"payload"

    def test_replaces_existing(self, tmp_path):
        path = str(tmp_path / "x.bin")
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new")
        with open(path, "rb") as fh:
            assert fh.read() == b"new"

    def test_no_temp_litter(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "x.bin"), b"data")
        assert os.listdir(tmp_path) == ["x.bin"]

    def test_failed_write_propagates_and_cleans_up(self, tmp_path,
                                                   monkeypatch):
        path = str(tmp_path / "x.bin")
        atomic_write_bytes(path, b"old")
        failure = OSError("disk full")

        def fail_fsync(fd):
            raise failure

        monkeypatch.setattr(os, "fsync", fail_fsync)
        with pytest.raises(OSError) as raised:
            atomic_write_bytes(path, b"new")
        assert raised.value is failure
        assert os.listdir(tmp_path) == ["x.bin"]
        with open(path, "rb") as fh:
            assert fh.read() == b"old"

    def test_sha_helpers_agree(self, tmp_path):
        path = str(tmp_path / "x.bin")
        atomic_write_bytes(path, b"data")
        assert sha256_file(path) == sha256_bytes(b"data")


class TestSpecHash:
    def test_deterministic_and_order_insensitive(self):
        assert spec_hash({"a": 1, "b": (2, 3)}) == spec_hash({"b": (2, 3), "a": 1})

    def test_distinguishes_specs(self):
        assert spec_hash({"epochs": 10}) != spec_hash({"epochs": 11})


class TestMemoryLRU:
    def test_evicts_least_recently_used(self):
        lru = MemoryLRU(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == (True, 1)  # refresh a
        lru.put("c", 3)  # evicts b
        assert "b" not in lru
        assert "a" in lru and "c" in lru

    def test_zero_capacity_disables(self):
        lru = MemoryLRU(max_entries=0)
        lru.put("a", 1)
        assert lru.get("a") == (False, None)


class TestFileLock:
    def test_acquire_release(self, tmp_path):
        lock = FileLock(str(tmp_path / "k.lock"))
        with lock:
            assert lock.locked
        assert not lock.locked

    def test_contention_times_out(self, tmp_path):
        path = str(tmp_path / "k.lock")
        with FileLock(path):
            with pytest.raises(ArtifactError):
                FileLock(path, timeout=0.2, poll=0.05).acquire()


class TestPutGet:
    def test_bytes_round_trip_with_manifest(self, store):
        store.put_bytes("blob.bin", b"\x00\x01", spec_hash="abc")
        manifest_path = store.path_for("blob.bin") + ".manifest.json"
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["sha256"] == sha256_bytes(b"\x00\x01")
        assert manifest["size"] == 2
        assert manifest["spec_hash"] == "abc"
        assert store.get_bytes("blob.bin", spec_hash="abc") == b"\x00\x01"

    def test_npz_round_trip(self, store):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        store.put_npz("m.npz", arrays)
        out = store.get_npz("m.npz")
        assert set(out) == {"w", "b"}
        assert np.array_equal(out["w"], arrays["w"])

    def test_json_round_trip(self, store):
        store.put_json("meta.json", {"accuracy": 0.9})
        assert store.get_json("meta.json") == {"accuracy": 0.9}

    def test_absent_is_miss(self, store):
        assert store.get_bytes("nope.bin") is None
        assert store.stats.misses == 1
        assert store.stats.corruptions == 0

    def test_counters(self, store):
        store.put_json("k.json", 1)
        store.get_json("k.json")
        store.get_json("absent.json")
        assert store.stats.writes == 1
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_memory_layer_serves_repeats(self, store):
        store.put_bytes("k.bin", b"v")
        store.get_bytes("k.bin")
        store.get_bytes("k.bin")
        assert store.stats.memory_hits == 2  # put pre-populates memory

    def test_fetch_json_computes_once(self, store):
        calls = []
        for _ in range(2):
            value = store.fetch_json("f.json", lambda: calls.append(1) or 42)
            assert value == 42
        assert calls == [1]

    def test_invalid_keys_rejected(self, store):
        for key in ["", "/abs", "../escape", "a/../b", "x.lock",
                    "y.manifest.json", "z.corrupt"]:
            with pytest.raises(ArtifactError):
                store.path_for(key)

    def test_nested_keys(self, store):
        store.put_json("sub/dir/k.json", [1, 2])
        assert store.get_json("sub/dir/k.json") == [1, 2]
        assert "sub/dir/k.json" in store.keys()


class TestIntegrity:
    def test_stale_spec_hash_is_miss_not_quarantine(self, store):
        store.put_json("k.json", 1, spec_hash="old")
        fresh = ArtifactStore(store.root)  # bypass the memory layer
        assert fresh.get_json("k.json", spec_hash="new") is None
        assert fresh.stats.stale == 1
        assert fresh.stats.corruptions == 0
        assert os.path.exists(store.path_for("k.json"))  # left for overwrite

    def test_missing_manifest_quarantined(self, store):
        path = store.path_for("legacy.npz")
        os.makedirs(store.root, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"PK\x03\x04 truncated")
        assert store.get_npz("legacy.npz") is None
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert store.stats.corruptions == 1

    def test_payload_hash_mismatch_quarantined(self, store):
        store.put_bytes("k.bin", b"good")
        with open(store.path_for("k.bin"), "wb") as fh:
            fh.write(b"evil")
        fresh = ArtifactStore(store.root)
        assert fresh.get_bytes("k.bin") is None
        assert fresh.stats.corruptions == 1
        assert os.path.exists(store.path_for("k.bin") + ".corrupt")

    def test_truncated_payload_quarantined(self, store):
        arrays = {"w": np.arange(100.0)}
        store.put_npz("m.npz", arrays)
        path = store.path_for("m.npz")
        size = os.path.getsize(path)
        with open(path, "rb+") as fh:
            fh.truncate(size // 2)
        fresh = ArtifactStore(store.root)
        assert fresh.get_npz("m.npz") is None
        assert fresh.stats.corruptions == 1

    def test_garbled_manifest_quarantined(self, store):
        store.put_bytes("k.bin", b"v")
        with open(store.path_for("k.bin") + ".manifest.json", "w") as fh:
            fh.write("{not json")
        fresh = ArtifactStore(store.root)
        assert fresh.get_bytes("k.bin") is None
        assert fresh.stats.corruptions == 1

    def test_rewrite_after_quarantine_recovers(self, store):
        path = store.path_for("k.json")
        os.makedirs(store.root, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("garbage")
        assert store.get_json("k.json") is None
        store.put_json("k.json", {"v": 1})
        fresh = ArtifactStore(store.root)
        assert fresh.get_json("k.json") == {"v": 1}
        assert fresh.stats.hits == 1


class TestMaintenance:
    def test_entries_statuses(self, store):
        store.put_json("ok.json", 1)
        os.makedirs(store.root, exist_ok=True)
        with open(store.path_for("legacy.bin"), "wb") as fh:
            fh.write(b"x")
        by_key = {e.key: e.status for e in store.entries()}
        assert by_key["ok.json"] == "ok"
        assert by_key["legacy.bin"] == "no-manifest"

    def test_verify_scrubs_bad_entries(self, store):
        store.put_json("ok.json", 1)
        os.makedirs(store.root, exist_ok=True)
        with open(store.path_for("bad.npz"), "wb") as fh:
            fh.write(b"junk")
        bad = store.verify()
        assert bad == ["bad.npz"]
        assert os.path.exists(store.path_for("bad.npz") + ".corrupt")
        statuses = {e.key: e.status for e in store.entries()}
        assert statuses["ok.json"] == "ok"

    def test_clear(self, store):
        store.put_json("a.json", 1)
        store.put_json("b.json", 2)
        assert store.clear() > 0
        assert store.keys() == []
        fresh = ArtifactStore(store.root)
        assert fresh.get_json("a.json") is None


class TestDefaults:
    def test_default_cache_dir_is_absolute(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        path = default_model_cache_dir()
        assert os.path.isabs(path)
        assert ".." not in path
        assert path.endswith(os.path.join(".cache", "models"))

    def test_env_override_normalised(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path) + os.sep)
        assert default_model_cache_dir() == str(tmp_path)

    def test_get_store_memoised_per_root(self, tmp_path):
        a = get_store(str(tmp_path / "r"))
        b = get_store(str(tmp_path / "r"))
        c = get_store(str(tmp_path / "other"))
        assert a is b
        assert a is not c
