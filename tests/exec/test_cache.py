"""Cache-correctness tests: stable hashing and the on-disk result store.

The campaign point hash must be (a) invariant under parameter-dict
ordering and process boundaries, and (b) sensitive to every semantic
input — circuit content, backend caps, parameter values, seeds.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuditCircuit
from repro.core.exceptions import SimulationError
from repro.exec import Campaign, ResultCache, point_key, stable_hash, zip_sweep
from repro.exec.cache import MISS, Canonical

SRC = str(Path(__file__).resolve().parents[2] / "src")


# -- strategies --------------------------------------------------------
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, width=64),
    st.text(max_size=12),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
param_dicts = st.dictionaries(st.text(min_size=1, max_size=8), values, max_size=6)


class TestStableHash:
    @settings(max_examples=80, deadline=None)
    @given(params=param_dicts, seed=st.integers(min_value=0, max_value=2**31))
    def test_invariant_under_dict_ordering(self, params, seed):
        reordered = dict(reversed(list(params.items())))
        assert point_key("m:f", "1", params, seed) == point_key(
            "m:f", "1", reordered, seed
        )

    @settings(max_examples=80, deadline=None)
    @given(params=param_dicts, seed=st.integers(min_value=0, max_value=2**31))
    def test_sensitive_to_seed_and_version(self, params, seed):
        base = point_key("m:f", "1", params, seed)
        assert base != point_key("m:f", "1", params, seed + 1)
        assert base != point_key("m:f", "2", params, seed)
        assert base != point_key("m:g", "1", params, seed)

    @settings(max_examples=60, deadline=None)
    @given(params=param_dicts)
    def test_sensitive_to_any_param_change(self, params):
        base = stable_hash(params)
        mutated = dict(params)
        mutated["__probe__"] = 1
        assert stable_hash(mutated) != base

    def test_type_distinctions(self):
        assert stable_hash(1) != stable_hash(1.0)
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) != stable_hash(1)
        assert stable_hash([1, 2]) != stable_hash([[1], [2]])
        assert stable_hash({"a": 1}) != stable_hash([("a", 1)])

    def test_numpy_values(self):
        assert stable_hash(np.float64(0.5)) == stable_hash(0.5)
        assert stable_hash(np.int32(3)) == stable_hash(3)
        arr = np.arange(6, dtype=float).reshape(2, 3)
        assert stable_hash(arr) == stable_hash(arr.copy())
        assert stable_hash(arr) != stable_hash(arr.T)
        assert stable_hash(arr) != stable_hash(arr.astype(np.float32))

    def test_unhashable_type_rejected(self):
        with pytest.raises(SimulationError):
            stable_hash(object())

    def test_object_dtype_array_rejected(self):
        # tobytes() on object arrays would hash raw pointers — different
        # every process — so they must be refused, not mis-hashed.
        with pytest.raises(SimulationError):
            stable_hash(np.array([1, "x"], dtype=object))
        with pytest.raises(SimulationError):
            stable_hash({"p": np.array([[1, 2], [3, "x"]], dtype=object)})

    @settings(max_examples=80, deadline=None)
    @given(params=param_dicts, seed=st.integers(min_value=0, max_value=2**31))
    def test_canonical_hashes_like_its_value(self, params, seed):
        """A point's params, encoded once, give the same seed and key."""
        encoded = Canonical(params)
        assert stable_hash(encoded) == stable_hash(params)
        assert point_key("m:f", "1", encoded, seed) == point_key(
            "m:f", "1", params, seed
        )

    def test_digests_are_pinned(self):
        """Keys and spawned seeds never move between versions, so results
        cached by an earlier version keep resolving."""
        payload = {
            "b": [1, 2.5, "x", None, True, -3, 1e-300],
            "a": {"nested": {"deep": (3, 4)}, 7: "int key"},
            "np": [np.int32(5), np.float64(0.25), np.bool_(False), np.arange(3)],
            "z": 1 - 2j,
            "u": "ünï",
        }
        digest = "c91c7ace67e4ee924e3f1c7d1b3c4c65b22ef56979031800650f722c43375fb4"
        key = "cf6a49b05ed97cd319757452d122408a1b16df1edbe723a2b063f9fb8988884a"
        assert stable_hash(payload) == digest
        assert point_key("mod:fn", "7", payload, 123) == key
        points = Campaign(
            task="repro.sqed.noise_study:damage_task",
            sweep=zip_sweep(epsilon=[0.1, 0.2]),
            base_params={"n": 2},
            seed=0,
        ).points()
        assert [p.seed for p in points] == [7864148762623875034, 10481330342326378560]
        assert [p.key for p in points] == [
            "bbc62b7272fb4969b7a81dee71f38f53bf497ad7ffecae6434656a9fb3ea1f87",
            "469850c0e31b3e8e96528e15c261c6134b14d9cc6d3f2ea577d29edf588b9cc1",
        ]

    def test_invariant_across_process_boundary(self):
        """A fresh interpreter (fresh hash salt) produces the same key."""
        payload = {
            "b": [1, 2.5, "x", None, True],
            "a": {"nested": {"deep": [3, 4]}},
            "arr": None,
        }
        local = point_key("mod:fn", "7", payload, 123)
        code = (
            "from repro.exec import point_key;"
            f"payload = {payload!r};"
            "print(point_key('mod:fn', '7', payload, 123))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PYTHONHASHSEED": "random"},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == local


class TestCircuitFingerprint:
    def _circuit(self, strength=1.0):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.controlled_phase(0, 1, strength)
        return qc

    def test_identical_circuits_share_keys(self):
        a, b = self._circuit(), self._circuit()
        assert a.fingerprint() == b.fingerprint()
        assert stable_hash({"circuit": a}) == stable_hash({"circuit": b})

    def test_gate_content_changes_key(self):
        base = stable_hash({"circuit": self._circuit(1.0)})
        assert stable_hash({"circuit": self._circuit(1.1)}) != base

    def test_channel_content_and_mutation_change_key(self):
        from repro.core.channels import photon_loss

        a = self._circuit()
        a.channel(photon_loss(3, 0.1).kraus, 0, name="loss")
        b = self._circuit()
        b.channel(photon_loss(3, 0.2).kraus, 0, name="loss")
        assert a.fingerprint() != b.fingerprint()
        before = a.fingerprint()
        a.x(1)
        assert a.fingerprint() != before

    def test_backend_caps_change_point_key(self):
        qc = self._circuit()
        base = point_key("m:f", "1", {"circuit": qc, "max_bond": 16, "max_kraus": 4}, 0)
        assert base != point_key(
            "m:f", "1", {"circuit": qc, "max_bond": 32, "max_kraus": 4}, 0
        )
        assert base != point_key(
            "m:f", "1", {"circuit": qc, "max_bond": 16, "max_kraus": 8}, 0
        )


class TestResultCache:
    def test_round_trip_and_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = stable_hash({"x": 1})
        assert cache.get(key) is MISS
        cache.put(key, {"value": [1, 2, 3], "nested": {"ok": True}})
        assert cache.get(key) == {"value": [1, 2, 3], "nested": {"ok": True}}
        assert key in cache and len(cache) == 1

    def test_len_ignores_orphaned_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("entry")
        cache.put(key, 1)
        # Simulate a worker killed between mkstemp and os.replace.
        (cache._path(key).parent / ".tmp-orphan.json").write_text("{}")
        assert len(cache) == 1

    def test_cached_none_distinct_from_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, None)
        assert cache.get("a" * 64) is None
        assert ("a" * 64) in cache

    def test_corrupted_entry_is_evicted_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("probe")
        cache.put(key, 42)
        path = cache._path(key)
        path.write_text('{"key": "' + key + '", "value": 4')  # truncated
        assert cache.get(key) is MISS
        assert not path.exists()  # healed by eviction
        cache.put(key, 43)
        assert cache.get(key) == 43

    def test_transient_read_failure_is_miss_without_eviction(self, tmp_path):
        """An OSError on read must not destroy a valid entry."""
        cache = ResultCache(tmp_path)
        key = stable_hash("survivor")
        cache.put(key, 99)
        path = cache._path(key)
        original = Path.read_text

        def flaky(self, *args, **kwargs):
            if self == path:
                raise OSError("transient")
            return original(self, *args, **kwargs)

        import unittest.mock

        with unittest.mock.patch.object(Path, "read_text", flaky):
            assert cache.get(key) is MISS
        assert path.exists()  # entry survived the transient failure
        assert cache.get(key) == 99

    def test_key_mismatch_treated_as_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("x")
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"key": "wrong", "value": 1}))
        assert cache.get(key) is MISS


class TestCacheEviction:
    """LRU size caps: touch-on-hit access stamps, evict(), stats()."""

    def _stamp(self, cache, key, ns):
        import os

        os.utime(cache._path(key), ns=(ns, ns))

    def test_least_recently_accessed_evicted_first(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2, evict_interval=1)
        keys = [stable_hash(i) for i in range(3)]
        base = 1_700_000_000_000_000_000
        cache.put(keys[0], 0)
        self._stamp(cache, keys[0], base + 1)
        cache.put(keys[1], 1)
        self._stamp(cache, keys[1], base + 2)
        # A hit refreshes key 0's access stamp, making key 1 the LRU.
        assert cache.get(keys[0]) == 0
        self._stamp(cache, keys[0], base + 3)
        cache.put(keys[2], 2)  # breaches the cap; evict runs on this put
        assert cache.get(keys[1]) is MISS
        assert cache.get(keys[0]) == 0
        assert cache.get(keys[2]) == 2
        assert len(cache) == 2

    def test_max_bytes_cap_enforced(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=400, evict_interval=1)
        for i in range(8):
            cache.put(stable_hash(f"entry-{i}"), "x" * 40)
        stats = cache.stats()
        assert stats["total_bytes"] <= 400
        assert 0 < stats["entries"] < 8

    def test_explicit_evict_reports_what_was_removed(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1, evict_interval=10_000)
        base = 1_700_000_000_000_000_000
        for i in range(4):
            cache.put(stable_hash(i), i)
            self._stamp(cache, stable_hash(i), base + i)
        report = cache.evict()
        assert report["evicted_entries"] == 3
        assert report["entries"] == 1
        assert report["evicted_bytes"] > 0
        # The newest access stamp survives.
        assert cache.get(stable_hash(3)) == 3

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(100):
            cache.put(stable_hash(i), i)
        assert len(cache) == 100
        assert cache.evict()["evicted_entries"] == 0

    def test_evict_interval_batches_scans(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1, evict_interval=5)
        for i in range(4):
            cache.put(stable_hash(i), i)
        assert len(cache) == 4  # under the interval: no scan yet
        cache.put(stable_hash(4), 4)  # fifth put triggers the scan
        assert len(cache) == 1

    def test_cap_validation(self, tmp_path):
        with pytest.raises(SimulationError):
            ResultCache(tmp_path, max_bytes=-1)
        with pytest.raises(SimulationError):
            ResultCache(tmp_path, max_entries=-1)
        with pytest.raises(SimulationError):
            ResultCache(tmp_path, evict_interval=0)


class TestEvictionRaceDiscipline:
    """Removals use the same atomic replace-or-unlink discipline as put.

    The regression scenario: a reader observes a corrupted entry (a torn
    copy), and between its read and its eviction a concurrent writer
    re-puts a *valid* entry at the same shard file.  The old unlink-based
    evict path would destroy the fresh entry; the rename-aside path
    re-validates and restores it.
    """

    def test_get_recovers_entry_written_during_corrupt_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("raced")
        cache.put(key, 11)
        path = cache._path(key)
        path.write_text("torn copy, not json")
        original = cache._discard

        def racing_discard(p, *, expect_key=None):
            # The concurrent writer lands after the corrupt read, before
            # the removal — exactly the window of the old unlink race.
            ResultCache(tmp_path).put(key, 11)
            return original(p, expect_key=expect_key)

        cache._discard = racing_discard
        assert cache.get(key) == 11  # recovered, not reported as a miss
        cache._discard = original
        assert path.exists()  # ...and the fresh entry survived on disk
        assert cache.get(key) == 11

    def test_conditional_discard_restores_valid_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("valid")
        cache.put(key, 7)
        path = cache._path(key)
        removed, recovered = cache._discard(path, expect_key=key)
        assert removed is False
        assert recovered == 7
        assert path.exists()

    def test_unconditional_discard_removes_valid_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("gone")
        cache.put(key, 7)
        removed, recovered = cache._discard(cache._path(key))
        assert removed is True
        assert recovered is MISS
        assert cache.get(key) is MISS

    def test_discard_of_missing_file_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        removed, recovered = cache._discard(tmp_path / "ab" / "nope.json")
        assert removed is False
        assert recovered is MISS

    def test_no_tombstones_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1, evict_interval=1)
        for i in range(6):
            cache.put(stable_hash(i), i)
        leftovers = [p for p in Path(tmp_path).rglob(".evict-*") if p.is_file()]
        assert leftovers == []

    def test_evict_sweeps_stale_orphan_dotfiles(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path, max_entries=10)
        key = stable_hash("live")
        cache.put(key, 1)
        shard = cache._path(key).parent
        stale_tomb = shard / ".evict-9999-0.json"
        stale_tmp = shard / ".tmp-orphan.json"
        fresh_tomb = shard / ".evict-9999-1.json"
        for orphan in (stale_tomb, stale_tmp, fresh_tomb):
            orphan.write_text("{}")
        old = time.time() - 7200
        os.utime(stale_tomb, (old, old))
        os.utime(stale_tmp, (old, old))
        cache.evict()
        assert not stale_tomb.exists() and not stale_tmp.exists()
        assert fresh_tomb.exists()  # in-flight files are never touched
        assert cache.get(key) == 1
