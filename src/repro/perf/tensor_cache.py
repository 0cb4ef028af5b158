"""Content-addressed memoization of deterministic tensor computations.

Every functional forward in this repository is a pure function of its
input bytes and of the model weights: placement and scheduling decide
*when and where* a tensor is computed, never *what* it contains.  The
:class:`TensorCache` exploits that — it is a bounded-byte LRU whose keys
name a stage call by content, so a hit returns the exact array the
deterministic compute would have produced.

The model stages key with plain tuples, ``(model fingerprint,
block_idx, stage, ...)``: integers and strings go in as they are, and
each array input goes in as its 16-byte BLAKE2 digest
(:meth:`TensorCache.key` on one array, which hashes a cached
dtype/shape header plus the buffer).  An activation is hashed once and
its digest reused by every stage that reads it, so a key lookup costs a
tuple hash rather than a re-hash of every part.  Bitwise parity holds by
construction: a key matches only when every part is equal, so any
byte-level input difference (including DAOP's stale-input predictive
pre-calculation, which feeds the *previous* block's hidden states to an
expert) produces a different key and therefore a fresh computation.
:func:`content_key` still folds an arbitrary multi-part sequence into
one digest for callers that want a single ``bytes`` key.

The cache is injected into the model via
``MoETransformer.attach_compute_cache`` (duck-typed, so ``repro.model``
never imports this package) and shared across engines by
``repro.audit.differential`` and across sweep points by
``repro.hardware.sweeps`` and the fig10/ablation benchmarks.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.perf.memo import IdentityLRUMemo

#: Default byte budget: generous for audit-scale runs, small enough to
#: stay friendly on a laptop (all cached values are float32 activations).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Default entry bound of :meth:`TensorCache.identity_memo` — enough for
#: every sequence of a gathered batch round (scheduler batches are
#: single digits) times the handful of per-block consumers.
DEFAULT_MEMO_CAPACITY = 16


@dataclass
class StageCounters:
    """Hit/miss tally for one named compute stage.

    ``hits``/``misses`` count content-addressed lookups that reached
    the cache; ``memo_hits`` counts calls served even earlier by an
    identity memo fronting the stage (:meth:`TensorCache.
    identity_memo`), which never touch the cache at all.  The hit rate
    covers both, so it reflects the fraction of *stage calls* that
    avoided recomputation, however they avoided it.
    """

    hits: int = 0
    misses: int = 0
    memo_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total stage calls recorded (cache lookups plus memo hits)."""
        return self.hits + self.misses + self.memo_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of stage calls served without recomputation."""
        if not self.lookups:
            return 0.0
        return (self.hits + self.memo_hits) / self.lookups


@lru_cache(maxsize=1024)
def _array_header(dtype: np.dtype, shape: tuple) -> bytes:
    """Length-prefixed type tag of a C-contiguous array part.

    The tag names dtype and shape, so equal bytes under different
    shapes or dtypes never collide; it is followed by the byte count
    of the buffer that comes next.  Memoized per ``(dtype, shape)``:
    the model stages hash the same few activation shapes over and over.
    """
    tag = b"A" + f"{dtype.str}|{shape}|".encode("ascii")
    nbytes = math.prod(shape) * dtype.itemsize
    return len(tag).to_bytes(4, "big") + tag + nbytes.to_bytes(8, "big")


def _update_part(digest: "hashlib._Hash", part: object) -> None:
    """Fold one key part into ``digest`` with an unambiguous encoding.

    Each part contributes a one-byte type tag, a length prefix, and its
    payload, so distinct part sequences can never collide by
    concatenation (``("ab", "c")`` vs ``("a", "bc")``) or by type
    confusion (``1`` vs ``"1"`` vs a 0-d array).
    """
    if part is None:
        tag, payload = b"N", b""
    elif isinstance(part, np.ndarray):
        a = np.ascontiguousarray(part)
        digest.update(_array_header(a.dtype, a.shape))
        # Hash straight from the array buffer — no tobytes() copy.
        digest.update(a)
        return
    elif isinstance(part, (bytes, bytearray)):
        tag, payload = b"B", bytes(part)
    elif isinstance(part, str):
        tag, payload = b"S", part.encode("utf-8")
    elif isinstance(part, bool):
        tag, payload = b"O", (b"1" if part else b"0")
    elif isinstance(part, (int, np.integer)):
        tag, payload = b"I", str(int(part)).encode("ascii")
    elif isinstance(part, float):
        tag, payload = b"F", np.float64(part).tobytes()
    else:
        raise TypeError(f"unhashable cache key part of type {type(part)!r}")
    digest.update(len(tag).to_bytes(4, "big") + tag
                  + len(payload).to_bytes(8, "big") + payload)


def content_key(*parts: object) -> bytes:
    """16-byte BLAKE2 digest of an ordered sequence of key parts.

    Accepted parts: ``None``, ``str``, ``bytes``, ``bool``, ``int``,
    ``float``, and ``np.ndarray`` (hashed with dtype and shape, so equal
    bytes under different shapes do not collide).
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        _update_part(digest, part)
    return digest.digest()


def _freeze(array: np.ndarray) -> np.ndarray:
    """Defensive read-only copy of an array about to be stored/returned."""
    frozen = np.array(array, copy=True)
    frozen.setflags(write=False)
    return frozen


class TensorCache:
    """Bounded-byte LRU cache of content-addressed tensor values.

    Values are single ``np.ndarray``s or tuples of them; they are stored
    as read-only copies (and returned as such), so neither later caller
    mutation nor aliasing can corrupt an entry.  When an insertion pushes
    the total stored bytes past ``max_bytes``, least-recently-used
    entries are evicted until the budget holds again; a single value
    larger than the whole budget is skipped (and counted) rather than
    flushing the cache.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self.current_bytes = 0
        self.evictions = 0
        self.oversize_skips = 0
        self.stage_counters: dict[str, StageCounters] = {}
        # key -> (value, nbytes); insertion order == recency order.
        self._entries: "OrderedDict[Hashable, tuple[object, int]]" = (
            OrderedDict()
        )

    # ---- keys ----------------------------------------------------------------

    @staticmethod
    def key(*parts: object) -> bytes:
        """Build a content-addressed key; see :func:`content_key`.

        A single C-contiguous array (of at least one dimension) takes a
        fast path: one BLAKE2 hash over its cached dtype/shape header
        and its buffer, byte-identical to ``content_key(array)``.  This
        is how the model stages digest each activation once before
        putting the digest into their tuple keys.
        """
        if len(parts) == 1:
            part = parts[0]
            if (isinstance(part, np.ndarray) and part.ndim
                    and part.flags.c_contiguous):
                digest = hashlib.blake2b(
                    _array_header(part.dtype, part.shape), digest_size=16
                )
                digest.update(part)
                return digest.digest()
        return content_key(*parts)

    # ---- lookup / insert -----------------------------------------------------

    def _counters(self, stage: str) -> StageCounters:
        counters = self.stage_counters.get(stage)
        if counters is None:
            counters = self.stage_counters[stage] = StageCounters()
        return counters

    def identity_memo(self, stage: str | None = None,
                      capacity: int = DEFAULT_MEMO_CAPACITY) -> IdentityLRUMemo:
        """Build an :class:`~repro.perf.memo.IdentityLRUMemo` whose hits
        are credited to ``stage``'s counters (uncounted when ``None``).

        The memo fronts this cache for a stage whose callers re-present
        the *same input object* repeatedly: a memo hit skips digesting
        and lookup entirely yet still shows up in the stage's hit rate,
        so :meth:`stats` reflects all stage calls, however served.
        """
        counters = self._counters(stage) if stage is not None else None
        return IdentityLRUMemo(capacity=capacity, counters=counters)

    def get(self, key: Hashable, stage: str):
        """Return the cached value for ``key`` (marking it most recent),
        or ``None`` on a miss.  Either way the ``stage`` counters are
        updated.

        ``key`` is any hashable value that names the computation by
        content: a :meth:`key` digest, or a tuple of plain parts and
        digests as the model stages build.
        """
        entry = self._entries.get(key)
        counters = self._counters(stage)
        if entry is None:
            counters.misses += 1
            return None
        counters.hits += 1
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: Hashable, stage: str, value):
        """Store ``value`` (an array or tuple of arrays) under ``key``
        (any hashable, as for :meth:`get`).

        Returns the stored read-only copy so callers can return the very
        object a later hit would produce — hit and miss paths then hand
        out byte-identical, equally-immutable values.  Oversized values
        are returned frozen but not stored.
        """
        arrays = value if isinstance(value, tuple) else (value,)
        if not all(isinstance(a, np.ndarray) for a in arrays):
            raise TypeError("cache values must be ndarrays or tuples of them")
        frozen = tuple(_freeze(a) for a in arrays)
        nbytes = sum(a.nbytes for a in frozen)
        stored = frozen if isinstance(value, tuple) else frozen[0]
        if nbytes > self.max_bytes:
            self.oversize_skips += 1
            return stored
        old = self._entries.pop(key, None)
        if old is not None:
            self.current_bytes -= old[1]
        self._entries[key] = (stored, nbytes)
        self.current_bytes += nbytes
        while self.current_bytes > self.max_bytes:
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self.current_bytes -= evicted_bytes
            self.evictions += 1
        return stored

    # ---- maintenance / reporting ---------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
        self.current_bytes = 0

    def reset_counters(self) -> None:
        """Zero all hit/miss/eviction/skip counters (entries are kept)."""
        self.stage_counters.clear()
        self.evictions = 0
        self.oversize_skips = 0

    @property
    def hits(self) -> int:
        """Total hits across all stages."""
        return sum(c.hits for c in self.stage_counters.values())

    @property
    def misses(self) -> int:
        """Total misses across all stages."""
        return sum(c.misses for c in self.stage_counters.values())

    def stats(self) -> dict:
        """JSON-serializable snapshot of occupancy and per-stage counters."""
        return {
            "entries": len(self._entries),
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "evictions": self.evictions,
            "oversize_skips": self.oversize_skips,
            "hits": self.hits,
            "misses": self.misses,
            "stages": {
                stage: {
                    "hits": c.hits,
                    "misses": c.misses,
                    "memo_hits": c.memo_hits,
                    "hit_rate": c.hit_rate,
                }
                for stage, c in sorted(self.stage_counters.items())
            },
        }
