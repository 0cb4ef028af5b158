"""Bounded object-identity memoization for repeated stage inputs.

The content-addressed :class:`~repro.perf.tensor_cache.TensorCache`
deduplicates by *bytes*; this module deduplicates by *object identity*,
which is cheaper still — no digesting, no key building.  The motivating
consumer is ``MoEBlock.ffn_normed``: the gate and every routed expert of
a block step normalize the same post-attention array, so the same object
recurs several times in quick succession.  A one-slot memo covers that
for solo execution, but gathered cross-sequence rounds interleave many
sequences' arrays through one block, evicting a single slot almost every
call (BENCH_compute measured a 3.3% ffn_norm stage hit rate against
84–93% for the digest-keyed stages).  A small LRU keyed by ``id()``
keeps every in-flight sequence's entry live at once.  The same LRU,
uncounted, memoizes ``MoEBlock``'s post-attention key digest, so the
array read by the gate, ``ffn_norm`` and every routed expert is hashed
once even when a gathered round interleaves sequences.

Entries hold strong references to their input arrays, which is what
makes ``id()`` a safe key: a memoized input cannot be garbage collected
(so its id cannot be reused) while its entry lives.  Values are returned
exactly as stored, so a memo hit is bitwise-identical to the compute or
cache lookup it replaced.
"""

from __future__ import annotations

from collections import OrderedDict


class IdentityLRUMemo:
    """LRU memo keyed by input-object identity.

    Args:
        capacity: bound on live entries (>= 1); least-recently-used
            entries (and their strong input references) are dropped
            past it.
        counters: optional
            :class:`~repro.perf.tensor_cache.StageCounters` credited
            one ``memo_hits`` per memo hit.  Misses are *not* counted
            here — a miss falls through to the content-addressed
            cache, which tallies its own lookup — so a stage's hit
            rate reflects both memo and cache hits over all stage
            calls while the cache's own hit/miss tallies stay pure.
    """

    def __init__(self, capacity: int = 16, counters=None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.counters = counters
        # id(input) -> (input, value); insertion order == recency order.
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, arr):
        """Return the memoized value for ``arr`` (the very object), or
        ``None``; a hit refreshes recency and credits the counters."""
        entry = self._entries.get(id(arr))
        if entry is None or entry[0] is not arr:
            return None
        self._entries.move_to_end(id(arr))
        if self.counters is not None:
            self.counters.memo_hits += 1
        return entry[1]

    def put(self, arr, value):
        """Memoize ``value`` for the object ``arr``; returns ``value``."""
        key = id(arr)
        self._entries.pop(key, None)
        self._entries[key] = (arr, value)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop every entry (and its input reference)."""
        self._entries.clear()
