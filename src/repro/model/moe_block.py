"""One MoE transformer block with a fine-grained execution API.

The inference engines in :mod:`repro.core` schedule attention, gating, and
individual expert FFNs separately (that is the whole point of DAOP), so the
block exposes each stage as its own method instead of a single ``forward``.

Every stage is *cache-aware*: when a content-addressed compute cache
(duck-typed ``repro.perf.TensorCache``) is attached via
:meth:`set_compute_cache` — normally through
``MoETransformer.attach_compute_cache`` — each stage first looks up the
digest of its inputs and only computes on a miss.  Because the stages are
pure functions of their input bytes and the block weights, a hit is
bitwise-identical to recomputation; with no cache attached the stages
compute directly, unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.attention import GroupedQueryAttention, KVCache
from repro.model.config import SimSpec
from repro.model.experts import SwiGLUExpert
from repro.model.gating import Router, RoutingDecision
from repro.model.layers import RMSNorm


class MoEBlock:
    """Self-attention followed by a top-k mixture-of-experts FFN."""

    def __init__(self, sim: SimSpec, n_experts: int, top_k: int,
                 rng: np.random.Generator, block_idx: int = 0) -> None:
        self.sim = sim
        self.n_experts = n_experts
        self.top_k = top_k
        self.block_idx = block_idx
        # Early blocks update the residual stream more strongly (Fig. 5).
        self.residual_scale = sim.residual_scale * (
            1.0 + sim.early_residual_boost * math.exp(-float(block_idx))
        )
        self.attn_norm = RMSNorm(sim.d_model)
        self.attention = GroupedQueryAttention(sim, rng)
        self.ffn_norm = RMSNorm(sim.d_model)
        self.router = Router(sim.d_model, n_experts, top_k, rng)
        self.experts = [
            SwiGLUExpert(sim.d_model, sim.d_ff, rng) for _ in range(n_experts)
        ]
        # Content-addressed compute cache (duck-typed repro.perf.TensorCache)
        # and its key namespace (the owning model's weights fingerprint).
        # None means "compute directly".
        self.compute_cache = None
        self.cache_scope: str | None = None
        # One-slot identity memo for ffn_norm: (h_att object, normed).
        # Holding the input reference keeps its id() stable and valid.
        self._norm_memo: tuple[np.ndarray, np.ndarray] | None = None
        # Bounded identity-LRU upgrade of the ffn_norm memo, built by an
        # attached cache's duck-typed ``identity_memo`` factory (gathered
        # rounds interleave many sequences' arrays through one block,
        # which thrashes a single slot).  None -> one-slot fallback.
        self._norm_lru = None
        # One-slot identity memo for hidden-state digests: the gate, the
        # routed experts, and ffn_norm all key on the same h_att object,
        # which therefore only needs hashing once per block step.
        self._digest_memo: tuple[np.ndarray, bytes] | None = None

    # ---- compute-cache plumbing ----------------------------------------------

    def set_compute_cache(self, cache, scope: str | None) -> None:
        """Attach (or detach, with ``None``) a content-addressed cache.

        ``scope`` namespaces every key — callers pass the model's weights
        fingerprint so in-place weight mutation (quantization) can never
        alias entries from different weight states.
        """
        self.compute_cache = cache
        self.cache_scope = scope
        self._norm_memo = None
        self._digest_memo = None
        memo_factory = getattr(cache, "identity_memo", None)
        self._norm_lru = (
            memo_factory("ffn_norm") if memo_factory is not None else None
        )

    def _arr_digest(self, arr: np.ndarray) -> bytes:
        """Content digest of one array, memoized by object identity."""
        memo = self._digest_memo
        if memo is not None and memo[0] is arr:
            return memo[1]
        digest = self.compute_cache.key(arr)
        self._digest_memo = (arr, digest)
        return digest

    def weight_arrays(self) -> list[np.ndarray]:
        """Every functional weight array of the block, in a fixed order."""
        arrays = [
            self.attn_norm.gain,
            self.attention.wq.weight,
            self.attention.wk.weight,
            self.attention.wv.weight,
            self.attention.wo.weight,
            self.ffn_norm.gain,
            self.router.gate.weight,
        ]
        for expert in self.experts:
            arrays.extend((expert.w1.weight, expert.w2.weight, expert.w3.weight))
        return arrays

    # ---- fine-grained stages -------------------------------------------------

    def attention_part(self, h: np.ndarray, cache: KVCache,
                       positions: np.ndarray) -> np.ndarray:
        """Non-MoE part: pre-norm attention plus residual connection.

        With a compute cache attached, the key covers the KV cache's
        content digest as well as ``h`` and ``positions`` (attention reads
        the whole cached prefix), and the memoized value carries the
        appended keys/values so a hit replays the ``cache.append`` side
        effect exactly.  A KV cache whose digest is ``None`` (truncated
        history) bypasses memoization.
        """
        tensor_cache = self.compute_cache
        kv_digest = None if tensor_cache is None else cache.content_digest
        if tensor_cache is None or kv_digest is None:
            attn_out = self.attention(self.attn_norm(h), cache, positions)
            return h + self.residual_scale * attn_out
        key = tensor_cache.key(
            self.cache_scope, self.block_idx, "attn", kv_digest,
            self._arr_digest(h), np.asarray(positions),
        )
        hit = tensor_cache.get(key, "attn")
        if hit is not None:
            h_att, k, v = hit
            cache.append(k, v)
            return h_att
        attn_out, k, v = self.attention.forward_with_kv(
            self.attn_norm(h), cache, positions
        )
        h_att = h + self.residual_scale * attn_out
        h_att, _, _ = tensor_cache.put(key, "attn", (h_att, k, v))
        return h_att

    def ffn_normed(self, h_att: np.ndarray) -> np.ndarray:
        """``ffn_norm`` of the post-attention states, computed once.

        The normalization is shared by the gate and every routed expert
        (previously recomputed per consumer — 3x per token at top-2); an
        identity memo makes repeat calls on the same array free even
        without a compute cache attached.  With a cache attached the
        memo is a bounded LRU from its ``identity_memo`` factory, so
        gathered rounds that interleave several sequences' arrays
        through the block still hit; standalone blocks fall back to a
        one-slot memo.
        """
        h_att = np.atleast_2d(h_att)
        lru = self._norm_lru
        if lru is not None:
            normed = lru.get(h_att)
            if normed is not None:
                return normed
        else:
            memo = self._norm_memo
            if memo is not None and memo[0] is h_att:
                return memo[1]
        tensor_cache = self.compute_cache
        if tensor_cache is None:
            normed = self.ffn_norm(h_att)
        else:
            key = tensor_cache.key(
                self.cache_scope, self.block_idx, "ffn_norm",
                self._arr_digest(h_att),
            )
            normed = tensor_cache.get(key, "ffn_norm")
            if normed is None:
                normed = tensor_cache.put(key, "ffn_norm", self.ffn_norm(h_att))
        if lru is not None:
            lru.put(h_att, normed)
        else:
            self._norm_memo = (h_att, normed)
        return normed

    def gate_logits(self, h_att: np.ndarray) -> np.ndarray:
        """Router logits on the (normalized) post-attention hidden states."""
        h_att = np.atleast_2d(h_att)
        tensor_cache = self.compute_cache
        if tensor_cache is None:
            return self.router.logits(self.ffn_normed(h_att))
        key = tensor_cache.key(
            self.cache_scope, self.block_idx, "gate", self._arr_digest(h_att)
        )
        logits = tensor_cache.get(key, "gate")
        if logits is None:
            logits = tensor_cache.put(
                key, "gate", self.router.logits(self.ffn_normed(h_att))
            )
        return logits

    def route_from_logits(self, logits: np.ndarray) -> RoutingDecision:
        """Top-k routing decision from precomputed gate logits.

        The memoized value is the ``(experts, weights)`` pair; the caller's
        logits are re-attached to the returned decision, so hit and miss
        produce identical :class:`RoutingDecision` contents.
        """
        logits = np.atleast_2d(logits)
        tensor_cache = self.compute_cache
        if tensor_cache is None:
            return self.router.route_from_logits(logits)
        key = tensor_cache.key(self.cache_scope, self.block_idx, "route", logits)
        hit = tensor_cache.get(key, "route")
        if hit is None:
            decision = self.router.route_from_logits(logits)
            hit = tensor_cache.put(
                key, "route", (decision.experts, decision.weights)
            )
        experts, weights = hit
        return RoutingDecision(logits=logits, experts=experts, weights=weights)

    def route(self, h_att: np.ndarray) -> RoutingDecision:
        """Top-k routing decision from post-attention hidden states."""
        return self.route_from_logits(self.gate_logits(h_att))

    def expert_forward(self, expert_idx: int, h_att: np.ndarray,
                       token_idx: np.ndarray | None = None) -> np.ndarray:
        """Run one expert FFN on (a subset of) post-attention states.

        ``token_idx`` selects rows of ``h_att`` *after* normalization —
        RMSNorm is row-wise, so ``ffn_norm(h_att)[token_idx]`` is bitwise
        equal to ``ffn_norm(h_att[token_idx])`` while letting all experts
        of a block share one normalization (and one cache entry for it).
        A ``token_idx`` covering every row in order is canonicalized to
        ``None`` so both spellings share a cache key.
        """
        h_att = np.atleast_2d(h_att)
        if token_idx is not None:
            token_idx = np.asarray(token_idx, dtype=np.int64)
            if token_idx.shape == (h_att.shape[0],) and np.array_equal(
                token_idx, np.arange(h_att.shape[0])
            ):
                token_idx = None
        tensor_cache = self.compute_cache
        if tensor_cache is None:
            normed = self.ffn_normed(h_att)
            x = normed if token_idx is None else normed[token_idx]
            return self.experts[expert_idx](x)
        # The key carries the input's row count explicitly (on top of the
        # shape already folded into the array digest) so a gathered
        # ``[batch*k, d]`` input can never alias a ``[k, d]``
        # single-sequence digest.
        key = tensor_cache.key(
            self.cache_scope, self.block_idx, "expert", int(expert_idx),
            int(h_att.shape[0]), self._arr_digest(h_att), token_idx,
        )
        out = tensor_cache.get(key, "expert")
        if out is None:
            normed = self.ffn_normed(h_att)
            x = normed if token_idx is None else normed[token_idx]
            out = tensor_cache.put(key, "expert", self.experts[expert_idx](x))
        return out

    def expert_forward_rows(self, expert_idx: int, segments) -> list:
        """Gathered expert execution over per-sequence row segments.

        ``segments`` is a sequence of ``(h_att, token_idx)`` pairs, one
        per participating sequence, each exactly as
        :meth:`expert_forward` would receive it.  Functionally this is
        the batched ``[sum(rows), d]`` expert matmul of one gathered
        cross-sequence kernel, but it is evaluated segment-by-segment:
        BLAS GEMM reductions are not row-wise bitwise stable, so a naive
        ``vstack`` would change every participant's values at the last
        ulp and break the batch=1 parity contract.  Per-segment
        evaluation keeps each sequence's outputs (and compute-cache
        keys) bitwise identical to its solo call; the simulated *cost*
        of the single gathered kernel is charged by the engine's cost
        model, not here.

        Returns one output array per segment, in segment order.
        """
        return [
            self.expert_forward(expert_idx, h_att, token_idx=token_idx)
            for h_att, token_idx in segments
        ]

    def combine(self, h_att: np.ndarray, expert_outputs: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
        """Mix expert outputs and apply the FFN residual connection.

        Args:
            h_att: post-attention hidden states ``(n_tokens, d)``.
            expert_outputs: stacked outputs ``(n_tokens, k, d)``.
            weights: mixing weights ``(n_tokens, k)``.
        """
        mixed = np.einsum("tk,tkd->td", weights, expert_outputs)
        return h_att + self.residual_scale * mixed

    # ---- convenience ---------------------------------------------------------

    def forward(self, h: np.ndarray, cache: KVCache,
                positions: np.ndarray) -> tuple[np.ndarray, RoutingDecision]:
        """Reference (exact) forward pass through the whole block.

        Experts dispatch grouped per expert id — the same order and
        batching as the engines' ``_routed_block_work`` and
        :meth:`MoETransformer.forward_exact` — so the reference path
        produces (and, with a cache attached, shares) the exact tensors
        the scheduled paths do.
        """
        h_att = self.attention_part(h, cache, positions)
        decision = self.route(h_att)
        outs = np.empty(
            (h_att.shape[0], self.top_k, self.sim.d_model), dtype=np.float32
        )
        for expert_idx in np.unique(decision.experts):
            mask = decision.experts == expert_idx
            token_idx = np.nonzero(mask.any(axis=1))[0]
            out = self.expert_forward(int(expert_idx), h_att, token_idx=token_idx)
            for row, t in enumerate(token_idx):
                for slot in np.nonzero(mask[t])[0]:
                    outs[t, int(slot)] = out[row]
        return self.combine(h_att, outs, decision.weights), decision

    @property
    def n_params(self) -> int:
        """Number of parameters in the block."""
        return (
            self.attn_norm.n_params
            + self.attention.n_params
            + self.ffn_norm.n_params
            + self.router.n_params
            + sum(e.n_params for e in self.experts)
        )
