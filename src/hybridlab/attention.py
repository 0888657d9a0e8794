"""Causal self-attention with grouped KV heads, full-context or windowed.

The windowed variant keeps a block of always-visible sink positions at
the start of the sequence plus a sliding window of the most recent
positions, so its state is bounded by window + sink entries no matter
how long the sequence grows. Masks are plain boolean numpy arrays.
The softmax itself is `tensor.attention_core`, one fused op that takes
q, k and v in the (B, L, heads, d) layout the projections produce, so no
head transposes surround it, and walks the queries in 16-row tiles of
whole rows; masked lanes get exactly-zero weight, and a tile scores no
key past its last visible mask column. One set of rotary tables per call
serves q and k. The decode step is this same path with a KV cache: one
query against every cached key, rotated when it was written, read
straight from the cache's views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import RopeConfig, proj_init, rope_tables
from .tensor import ContractError, DimensionError, Tensor, attention_core, matmul, rope_rotate


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


def causal_mask(seq_len: int) -> np.ndarray:
    """(L, L) boolean, True where key position j is visible to query i."""
    return np.tril(np.ones((seq_len, seq_len), dtype=bool))


def swa_mask(seq_len: int, window: int, sink: int) -> np.ndarray:
    """Causal sliding-window mask with always-visible sink positions.

    Visible(i, j) iff j <= i and (i - j < window or j < sink). Every
    query sees at most window + sink keys.
    """
    if window < 1:
        raise ContractError("window must be >= 1")
    if sink < 0:
        raise ContractError("sink must be >= 0")
    i = np.arange(seq_len)[:, None]
    j = np.arange(seq_len)[None, :]
    return (j <= i) & ((i - j < window) | (j < sink))


def attn_param_shapes(cfg: AttnConfig, prefix: str = "attn") -> dict[str, tuple[int, ...]]:
    return {
        f"{prefix}.wq": (cfg.d_model, cfg.n_heads * cfg.d_qk),
        f"{prefix}.wk": (cfg.d_model, cfg.n_kv_heads * cfg.d_qk),
        f"{prefix}.wv": (cfg.d_model, cfg.n_kv_heads * cfg.d_v),
        f"{prefix}.wo": (cfg.n_heads * cfg.d_v, cfg.d_model),
    }


def init_attn_params(cfg: AttnConfig, rng: np.random.Generator, prefix: str = "attn") -> dict[str, Tensor]:
    return {
        name: proj_init(rng, shape[0], shape[1])
        for name, shape in attn_param_shapes(cfg, prefix).items()
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
    mask: np.ndarray | None = None,
    prefix: str = "attn",
    cache=None,
) -> Tensor:
    """Per-head context before the output projection.

    x (B, L, d_model) -> (B, L, n_heads, d_v). `mask` defaults to plain
    causal; pass `swa_mask(...)` for the windowed variant. `positions`
    are the absolute positions of the L tokens (rotary embedding is
    position-absolute).

    With a KV `cache` (`decode.FullKV` or `decode.RollingKV`), each key
    is rotated once, at its own position, and the whole (B, L, ...)
    block of keys and values is written with one `extend`. An empty
    cache is filled from the whole sequence, which attends under `mask`
    as usual; a filled one takes one token, whose query attends with no
    mask over the `(k, v)` views `read` returns (every cached key is
    visible to it by construction).
    """
    if x.ndim != 3:
        raise DimensionError(f"attention expects (batch, seq, d_model), got {x.shape}")
    b, l, d = x.shape
    if d != cfg.d_model:
        raise DimensionError(f"d_model mismatch: config {cfg.d_model}, input {d}")
    if np.shape(positions) != (l,):
        raise DimensionError(f"positions {np.shape(positions)} vs sequence length {l}")
    step = cache is not None and cache.entries > 0
    if step and l != 1:
        raise ContractError(f"a filled KV cache takes one token at a time, got {l}")

    wq, wk = weights[f"{prefix}.wq"], weights[f"{prefix}.wk"]
    wv = weights[f"{prefix}.wv"]

    # one set of rope tables serves q and, through its leading heads, k
    cos, sin = rope_tables(rope, positions, cfg.n_heads)
    kv_cos, kv_sin = cos[:, : cfg.n_kv_heads], sin[:, : cfg.n_kv_heads]
    q = rope_rotate(matmul(x, wq).reshape(b, l, cfg.n_heads, cfg.d_qk), cos, sin)
    k = rope_rotate(matmul(x, wk).reshape(b, l, cfg.n_kv_heads, cfg.d_qk), kv_cos, kv_sin)
    v = matmul(x, wv).reshape(b, l, cfg.n_kv_heads, cfg.d_v)
    if cache is not None:
        cache.extend(k.data, v.data, positions)
    if step:
        k, v = cache.read()
        mask = None
    elif mask is None:
        mask = causal_mask(l)
    return attention_core(q, k, v, mask)      # (B, L, H, d_v)


def attention_forward(
    x: Tensor,
    weights: dict[str, Tensor],
    cfg: AttnConfig,
    rope: RopeConfig,
    positions: np.ndarray,
    mask: np.ndarray | None = None,
    prefix: str = "attn",
    cache=None,
) -> Tensor:
    """Full block pass: x (B, L, d_model) -> (B, L, d_model)."""
    ctx = attention_context(x, weights, cfg, rope, positions, mask, prefix, cache)
    b, l = x.shape[0], x.shape[1]
    ctx = ctx.reshape(b, l, cfg.n_heads * cfg.d_v)
    return matmul(ctx, weights[f"{prefix}.wo"])
