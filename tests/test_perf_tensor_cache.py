"""Unit tests for the content-addressed tensor cache (repro.perf)."""

import numpy as np
import pytest

from repro.perf import DEFAULT_MAX_BYTES, StageCounters, TensorCache, content_key


# ---- key construction --------------------------------------------------------


def test_key_deterministic(rng):
    a = rng.standard_normal((3, 4)).astype(np.float32)
    assert content_key("scope", 3, "gate", a) == content_key(
        "scope", 3, "gate", a.copy()
    )
    assert TensorCache.key("s", a) == content_key("s", a)


def test_key_discriminates_values(rng):
    a = rng.standard_normal((3, 4)).astype(np.float32)
    b = a.copy()
    b[0, 0] += 1.0
    assert content_key("s", a) != content_key("s", b)
    assert content_key("s", 0, a) != content_key("s", 1, a)
    assert content_key("s", "gate", a) != content_key("s", "route", a)


def test_key_discriminates_types_and_boundaries():
    # Concatenation ambiguity: ("ab", "c") vs ("a", "bc").
    assert content_key("ab", "c") != content_key("a", "bc")
    # Type confusion: int vs str vs bool vs None.
    assert content_key(1) != content_key("1")
    assert content_key(1) != content_key(True)
    assert content_key(None) != content_key("")
    assert content_key(1.0) != content_key(1)


def test_key_covers_dtype_and_shape():
    a = np.arange(6, dtype=np.float32)
    assert content_key(a) != content_key(a.reshape(2, 3))
    assert content_key(a) != content_key(a.astype(np.float64))
    # Non-contiguous views hash by content, not by memory layout.
    m = np.arange(12, dtype=np.float32).reshape(3, 4)
    assert content_key(m[:, ::2]) == content_key(
        np.ascontiguousarray(m[:, ::2])
    )


def test_single_array_fast_path_matches_content_key(rng):
    """``TensorCache.key(array)`` is byte-identical to ``content_key``.

    The one-array fast path hashes a cached dtype/shape header plus the
    buffer; every other part list goes through :func:`content_key`, so
    both spellings must agree for every layout and dtype.
    """
    m = rng.standard_normal((6, 8)).astype(np.float32)
    arrays = [
        m,
        m[:1],                       # one row: a decode-step activation
        m[:, ::2],                   # non-contiguous view
        np.asfortranarray(m),        # Fortran order
        m.astype(np.float64),
        m.astype(">f4"),             # non-native byte order
        np.arange(5, dtype=np.int64),
        np.zeros((0, 8), dtype=np.float32),
        np.array(3.0, dtype=np.float32),  # 0-d
    ]
    for a in arrays:
        assert TensorCache.key(a) == content_key(a)
    # The header cache is keyed by dtype and shape, not by the array.
    assert TensorCache.key(m.reshape(8, 6)) != TensorCache.key(m)
    assert TensorCache.key(m.astype(">f4")) != TensorCache.key(m)


def test_tuple_keys_share_the_cache_with_digest_keys(rng):
    """``get``/``put`` accept any hashable key; tuples and digests never
    alias one another."""
    cache = TensorCache()
    a = rng.standard_normal(4).astype(np.float32)
    digest = cache.key(a)
    cache.put(("scope", 0, "gate", digest), "gate", a)
    assert cache.get(digest, "gate") is None
    assert cache.get(("scope", 1, "gate", digest), "gate") is None
    np.testing.assert_array_equal(
        cache.get(("scope", 0, "gate", cache.key(a.copy())), "gate"), a
    )


def test_key_rejects_unhashable_parts():
    with pytest.raises(TypeError):
        content_key([1, 2, 3])


# ---- get / put ---------------------------------------------------------------


def test_put_get_roundtrip_is_bitwise_and_readonly(rng):
    cache = TensorCache()
    value = rng.standard_normal((4, 8)).astype(np.float32)
    key = cache.key("s", 0, "gate", value)
    stored = cache.put(key, "gate", value)
    # Mutating the original cannot corrupt the entry.
    value[:] = 0.0
    hit = cache.get(key, "gate")
    assert hit is stored
    assert not hit.flags.writeable
    assert np.any(hit != 0.0)
    with pytest.raises(ValueError):
        hit[0, 0] = 1.0


def test_tuple_values_roundtrip(rng):
    cache = TensorCache()
    k = rng.standard_normal((2, 3)).astype(np.float32)
    v = rng.standard_normal((2, 3)).astype(np.float32)
    key = cache.key("s", "attn", k)
    stored = cache.put(key, "attn", (k, v))
    assert isinstance(stored, tuple) and len(stored) == 2
    hit_k, hit_v = cache.get(key, "attn")
    np.testing.assert_array_equal(hit_k, k)
    np.testing.assert_array_equal(hit_v, v)
    assert not hit_k.flags.writeable and not hit_v.flags.writeable


def test_put_rejects_non_arrays():
    cache = TensorCache()
    with pytest.raises(TypeError):
        cache.put(b"key", "gate", [1, 2, 3])
    with pytest.raises(TypeError):
        cache.put(b"key", "gate", (np.zeros(2), "nope"))


def test_max_bytes_must_be_positive():
    with pytest.raises(ValueError):
        TensorCache(max_bytes=0)


# ---- LRU byte budget (acceptance criterion) ----------------------------------


def test_lru_eviction_enforces_byte_budget():
    one_kib = np.zeros(256, dtype=np.float32)  # 1024 bytes each
    cache = TensorCache(max_bytes=3 * one_kib.nbytes)
    for i in range(3):
        cache.put(cache.key(i), "expert", one_kib + i)
    assert len(cache) == 3 and cache.evictions == 0
    # Touch entry 0 so entry 1 becomes the LRU victim.
    assert cache.get(cache.key(0), "expert") is not None
    cache.put(cache.key(3), "expert", one_kib + 3)
    assert len(cache) == 3
    assert cache.evictions == 1
    assert cache.current_bytes <= cache.max_bytes
    assert cache.get(cache.key(1), "expert") is None      # evicted
    assert cache.get(cache.key(0), "expert") is not None  # kept (recent)
    assert cache.get(cache.key(3), "expert") is not None  # kept (new)


def test_oversize_value_skipped_not_stored():
    cache = TensorCache(max_bytes=64)
    big = np.zeros(1024, dtype=np.float32)
    stored = cache.put(cache.key("big"), "expert", big)
    np.testing.assert_array_equal(stored, big)
    assert not stored.flags.writeable
    assert len(cache) == 0
    assert cache.oversize_skips == 1
    assert cache.evictions == 0


def test_reinsert_same_key_replaces_bytes():
    cache = TensorCache(max_bytes=8192)
    key = cache.key("k")
    cache.put(key, "gate", np.zeros(16, dtype=np.float32))
    before = cache.current_bytes
    cache.put(key, "gate", np.zeros(16, dtype=np.float32))
    assert len(cache) == 1
    assert cache.current_bytes == before


# ---- counters and stats ------------------------------------------------------


def test_stage_counters_and_stats(rng):
    cache = TensorCache()
    a = rng.standard_normal((2, 2)).astype(np.float32)
    key = cache.key("s", a)
    assert cache.get(key, "gate") is None
    cache.put(key, "gate", a)
    assert cache.get(key, "gate") is not None
    assert cache.get(cache.key("other"), "route") is None

    gate = cache.stage_counters["gate"]
    assert (gate.hits, gate.misses, gate.lookups) == (1, 1, 2)
    assert gate.hit_rate == pytest.approx(0.5)
    assert cache.hits == 1 and cache.misses == 2

    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["max_bytes"] == DEFAULT_MAX_BYTES
    assert stats["stages"]["gate"]["hit_rate"] == pytest.approx(0.5)
    assert stats["stages"]["route"] == {
        "hits": 0, "misses": 1, "memo_hits": 0, "hit_rate": 0.0,
    }
    # JSON-serializable snapshot.
    import json

    json.dumps(stats)


def test_unused_stage_counters_convention():
    assert StageCounters().hit_rate == 0.0


def test_clear_and_reset_counters(rng):
    cache = TensorCache()
    a = rng.standard_normal(4).astype(np.float32)
    key = cache.key(a)
    cache.put(key, "gate", a)
    cache.get(key, "gate")
    cache.clear()
    assert len(cache) == 0 and cache.current_bytes == 0
    assert cache.hits == 1  # counters survive clear()
    cache.reset_counters()
    assert cache.hits == 0 and cache.misses == 0
    assert cache.evictions == 0 and cache.oversize_skips == 0


# ---- batch-dimension aliasing (gathered execution) ---------------------------


def test_key_discriminates_leading_batch_dim():
    """Same bytes under different leading dims must never share a key."""
    flat = np.arange(256, dtype=np.float32)
    assert content_key(flat.reshape(4, 64)) != content_key(
        flat.reshape(1, 256)
    )
    assert content_key(flat.reshape(4, 64)) != content_key(
        flat.reshape(2, 128)
    )


def test_expert_stage_key_separates_gathered_from_solo(tiny_bundle, rng):
    """A [batch*k, d] gathered input misses against the [k, d] solo entry."""
    model = tiny_bundle.model
    cache = TensorCache()
    model.attach_compute_cache(cache)
    try:
        block = model.blocks[0]
        d_model = model.profile.sim.d_model
        solo = rng.standard_normal((1, d_model)).astype(np.float32)
        stacked = np.vstack([solo, solo])

        block.expert_forward(0, solo)
        counters = cache.stage_counters["expert"]
        assert (counters.hits, counters.misses) == (0, 1)

        # Two rows of identical bytes: distinct shape, distinct key.
        block.expert_forward(0, stacked)
        assert (counters.hits, counters.misses) == (0, 2)

        # The original solo entry is still retrievable.
        block.expert_forward(0, solo)
        assert (counters.hits, counters.misses) == (1, 2)
    finally:
        model.detach_compute_cache()
