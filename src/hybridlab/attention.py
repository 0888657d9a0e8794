"""Causal self-attention with grouped KV heads, full-context or windowed.

The windowed variant keeps a block of always-visible sink positions at
the start of the sequence plus a sliding window of the most recent
positions, so its state is bounded by window + sink entries no matter
how long the sequence grows. One rule, `visible(q_pos, k_pos, window,
sink)`, says which keys a query sees; masks are plain boolean numpy
arrays built from it over absolute positions, for training, prefill, a
chunk against a filled cache and the decode step alike, so any split of
a sequence into chunks computes what the whole sequence does.
The softmax itself is `tensor.attention_core`, one fused op that takes
q, k and v in the (B, L, heads, d) layout the projections produce, so no
head transposes surround it, and walks the queries in 16-row tiles of
whole rows; masked lanes get exactly-zero weight, and a tile scores no
key past its last visible mask column. One set of rotary tables per call
serves q and k. With a KV cache a chunk of any length attends over the
cached keys, each rotated when it was written, and its own; a chunk that
evicts nothing it still sees writes first and reads the cache's views
uncopied, and the one-token step is that chunk with no mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import RopeConfig, proj_init, rope_tables
from .tensor import ContractError, DimensionError, Tensor, attention_core, concat, matmul, rope_rotate


@dataclass(frozen=True)
class AttnConfig:
    d_model: int
    n_heads: int
    n_kv_heads: int
    d_qk: int
    d_v: int

    def __post_init__(self):
        if self.n_heads % self.n_kv_heads != 0:
            raise ContractError(
                f"n_heads {self.n_heads} not a multiple of n_kv_heads {self.n_kv_heads}"
            )

    @property
    def group_size(self) -> int:
        return self.n_heads // self.n_kv_heads


def visible(q_pos, k_pos, window: int | None = None, sink: int = 0) -> np.ndarray:
    """(Lq, Lk) boolean, True where the key at k_pos is visible to the query
    at q_pos: k <= q and, with a window, q - k < window or k < sink.

    The one visibility rule: training, prefill, a chunk against a filled
    cache and the step all build their mask from it.
    """
    q = np.asarray(q_pos)[:, None]
    k = np.asarray(k_pos)[None, :]
    seen = k <= q
    if window is not None:
        seen &= (q - k < window) | (k < sink)
    return seen


def check_window(window: int | None, sink: int | None) -> None:
    """Reject window < 1 (a query sees itself) or sink < 0; None (unset) passes."""
    if window is not None and window < 1:
        raise ContractError(f"window must be >= 1, got {window}")
    if sink is not None and sink < 0:
        raise ContractError(f"sink must be >= 0, got {sink}")


def causal_mask(seq_len: int) -> np.ndarray:
    """(L, L) boolean, True where key position j is visible to query i."""
    return visible(np.arange(seq_len), np.arange(seq_len))


def swa_mask(seq_len: int, window: int, sink: int) -> np.ndarray:
    """Causal sliding-window mask with always-visible sink positions.

    Visible(i, j) iff j <= i and (i - j < window or j < sink). Every
    query sees at most window + sink keys.
    """
    check_window(window, sink)
    return visible(np.arange(seq_len), np.arange(seq_len), window, sink)


def init_attn_params(cfg: AttnConfig, rng: np.random.Generator | None, prefix: str = "attn") -> dict:
    """q, k, v and output projections; with rng None, their shapes."""
    return {
        f"{prefix}.wq": proj_init(rng, cfg.d_model, cfg.n_heads * cfg.d_qk),
        f"{prefix}.wk": proj_init(rng, cfg.d_model, cfg.n_kv_heads * cfg.d_qk),
        f"{prefix}.wv": proj_init(rng, cfg.d_model, cfg.n_kv_heads * cfg.d_v),
        f"{prefix}.wo": proj_init(rng, cfg.n_heads * cfg.d_v, cfg.d_model),
    }


def repeat_kv_heads(t: Tensor, group_size: int) -> Tensor:
    """(B, L, n_kv, d) -> (B, L, n_kv * group_size, d), grouped order.

    `attention_core` broadcasts KV heads over their group instead; this
    explicit copy is the reference the kernel is checked against.
    """
    if group_size == 1:
        return t
    b, l, kv, d = t.shape
    ones = Tensor(np.ones((1, 1, 1, group_size, 1)))
    return (t.reshape(b, l, kv, 1, d) * ones).reshape(b, l, kv * group_size, d)


def attention_context(
    x: Tensor,
    weights: dict[str, Tensor],
    cfg: AttnConfig,
    rope: RopeConfig,
    positions: np.ndarray,
    window: tuple[int, int] | None = None,
    prefix: str = "attn",
    cache=None,
) -> Tensor:
    """Per-head context before the output projection.

    x (B, L, d_model) -> (B, L, n_heads, d_v). `positions` are the
    absolute positions of the L tokens (rotary embedding is
    position-absolute). `window` is the (window, sink) pair of the
    windowed variant, None for plain causal attention; either way the
    mask is `visible` over the query and key positions.

    With a KV `cache` (`decode.FullKV` or `decode.RollingKV`), each key
    is rotated once, at its own position, and the chunk's (B, L, ...)
    keys and values are written with one `extend`. The cache may hold
    any number of earlier tokens and the chunk may have any length; the
    key positions come from the cache's `positions()`. Where the write
    evicts nothing a query of the chunk still sees (a full cache, or
    one token) the chunk writes first and attends over the `(k, v)`
    views `read` returns. A longer chunk against a rolling cache would
    overwrite ring slots that its earlier queries still see, so it
    checks its batch, attends over `read()` plus its own keys and writes
    after. One token sees every key its cache holds, so its mask stays
    None.
    """
    if x.ndim != 3:
        raise DimensionError(f"attention expects (batch, seq, d_model), got {x.shape}")
    b, l, d = x.shape
    if d != cfg.d_model:
        raise DimensionError(f"d_model mismatch: config {cfg.d_model}, input {d}")
    if np.shape(positions) != (l,):
        raise DimensionError(f"positions {np.shape(positions)} vs sequence length {l}")

    wq, wk = weights[f"{prefix}.wq"], weights[f"{prefix}.wk"]
    wv = weights[f"{prefix}.wv"]

    # one set of rope tables serves q and, through its leading heads, k
    cos, sin = rope_tables(rope, positions, cfg.n_heads)
    kv_cos, kv_sin = cos[:, : cfg.n_kv_heads], sin[:, : cfg.n_kv_heads]
    q = rope_rotate(matmul(x, wq).reshape(b, l, cfg.n_heads, cfg.d_qk), cos, sin)
    k = rope_rotate(matmul(x, wk).reshape(b, l, cfg.n_kv_heads, cfg.d_qk), kv_cos, kv_sin)
    v = matmul(x, wv).reshape(b, l, cfg.n_kv_heads, cfg.d_v)
    key_pos = positions
    if cache is not None and (window is None or l == 1):
        cache.extend(k.data, v.data, positions)
        k, v = cache.read()
        key_pos = None if l == 1 else cache.positions()
    elif cache is not None:
        cache.check_batch(b)                  # the read comes before extend's checks
        # the ring write could evict keys this chunk's earlier queries see
        new_k, new_v = k.data, v.data
        if cache.entries:
            held_k, held_v = cache.read()
            key_pos = np.concatenate([cache.positions(), positions])
            k, v = concat([held_k, k], axis=1), concat([held_v, v], axis=1)
        cache.extend(new_k, new_v, positions)
    mask = None if l == 1 else visible(positions, key_pos, *(window or ()))
    return attention_core(q, k, v, mask)      # (B, L, H, d_v)


def attention_forward(
    x: Tensor,
    weights: dict[str, Tensor],
    cfg: AttnConfig,
    rope: RopeConfig,
    positions: np.ndarray,
    window: tuple[int, int] | None = None,
    cache=None,
) -> Tensor:
    """Full block pass: x (B, L, d_model) -> (B, L, d_model)."""
    ctx = attention_context(x, weights, cfg, rope, positions, window, cache=cache)
    b, l = x.shape[0], x.shape[1]
    ctx = ctx.reshape(b, l, cfg.n_heads * cfg.d_v)
    return matmul(ctx, weights["attn.wo"])
