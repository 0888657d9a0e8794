"""Shared network primitives: norms, gated FFN, rotary embedding, init.

`weight` draws one trainable tensor, or with no rng only names its
shape, so each block's `init_*_params` is also its shape inventory.
The gated FFN `siglu_ffn` is `tensor.siglu_ffn`, one fused op, imported
here for the dense FFN and the MoE experts.

Conventions used by every model in the package:

* projections are stored as (d_in, d_out) matrices applied as ``x @ W``,
  bias-free unless stated otherwise;
* all norms use eps = 1e-5 inside the square root;
* rotary embedding rotates adjacent channel pairs (2i, 2i+1) by
  ``pos * base**(-2i/d)`` and is applied at absolute positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import (
    ContractError,
    DimensionError,
    Tensor,
    normalize_lastdim,
    rope_rotate,
    siglu_ffn,
)

NORM_EPS = 1e-5


@dataclass(frozen=True)
class RopeConfig:
    head_dim: int
    base: float = 500000.0

    def __post_init__(self):
        if self.head_dim % 2 != 0:
            raise ContractError(f"rotary head_dim must be even, got {self.head_dim}")


def weight(
    rng: np.random.Generator | None, shape: tuple[int, ...], init: float | Callable
) -> Tensor | tuple[int, ...]:
    """A trainable tensor filled with the number `init` or drawn by
    `init(rng, shape)`. With rng None it is just `shape`: nothing is
    drawn or allocated, which is how the cost model reads an inventory.
    """
    if rng is None:
        return shape
    data = init(rng, shape) if callable(init) else np.full(shape, float(init))
    return Tensor(data, requires_grad=True)


def param(rng: np.random.Generator | None, shape: tuple[int, ...], std: float) -> Tensor | tuple[int, ...]:
    """Gaussian parameter tensor with requires_grad set."""
    return weight(rng, shape, lambda r, s: r.normal(0.0, std, size=s))


def proj_init(rng: np.random.Generator | None, d_in: int, d_out: int) -> Tensor | tuple[int, ...]:
    return param(rng, (d_in, d_out), d_in ** -0.5)


def rms_norm(x: Tensor, weight: Tensor) -> Tensor:
    """x * rsqrt(mean(x^2) + eps) * weight over the last dim, as one op."""
    if weight.shape != (x.shape[-1],):
        raise DimensionError(f"rms_norm weight {weight.shape} vs features {x.shape[-1]}")
    return normalize_lastdim(x, weight, NORM_EPS)


def group_norm_per_head(x: Tensor, weight: Tensor) -> Tensor:
    """Zero-mean unit-variance per (position, head) with per-head affine.

    x: (..., n_heads, head_dim); weight: (n_heads, head_dim). A constant
    head normalizes to zeros (variance floor NORM_EPS), never to NaN. One op.
    """
    if x.ndim < 2:
        raise DimensionError("group_norm_per_head needs (..., heads, head_dim)")
    if weight.shape != x.shape[-2:]:
        raise DimensionError(f"group norm weight {weight.shape} vs heads {x.shape[-2:]}")
    return normalize_lastdim(x, weight, NORM_EPS, center=True)


def rope_angles(cfg: RopeConfig, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables for integer positions, shape (len(positions), d/2)."""
    positions = np.asarray(positions, dtype=np.float64)
    half = cfg.head_dim // 2
    inv_freq = cfg.base ** (-np.arange(half, dtype=np.float64) * 2.0 / cfg.head_dim)
    theta = positions[..., None] * inv_freq
    return np.cos(theta), np.sin(theta)


def rope_tables(cfg: RopeConfig, positions: np.ndarray, n_heads: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-width `rope_rotate` tables, shape (len(positions), n_heads, d).

    cos(theta) fills both entries of each pair and sin(theta) is signed
    (-sin, sin). A caller with fewer heads uses the leading heads' slice,
    so one build serves q and its grouped k.
    """
    cos, sin = rope_angles(cfg, positions)
    row = (cos.shape[0], 1, cfg.head_dim)
    c = np.repeat(cos, 2, axis=-1).reshape(row)
    s = np.stack((-sin, sin), axis=-1).reshape(row)
    return np.repeat(c, n_heads, axis=1), np.repeat(s, n_heads, axis=1)


def apply_rope(x: Tensor, cfg: RopeConfig, positions: np.ndarray) -> Tensor:
    """Rotate (..., seq, n_heads, head_dim) at the given absolute positions.

    positions has shape (seq,). Pair (2i, 2i+1) rotates by angle
    pos * base**(-2i/head_dim); position 0 is the identity. One op.
    """
    if x.shape[-1] != cfg.head_dim:
        raise DimensionError(f"rope head_dim {cfg.head_dim} vs input {x.shape[-1]}")
    positions = np.asarray(positions)
    if positions.ndim != 1 or x.shape[-3] != positions.shape[0]:
        raise DimensionError("positions must be 1-d and match the sequence axis")
    return rope_rotate(x, *rope_tables(cfg, positions, x.shape[-2]))
