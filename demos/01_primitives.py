#!/usr/bin/env python3
"""
Core primitives: masks, grouped attention, the selective scan, and rotation.

Everything runs on CPU in a few seconds and prints what it checks.

Usage:
    python3 demos/01_primitives.py
"""

import numpy as np

from hybridlab.attention import AttnConfig, attention_forward, causal_mask, init_attn_params, swa_mask
from hybridlab.nn import RopeConfig, apply_rope
from hybridlab.ssm import SsmConfig, init_ssm_params, init_ssm_state, ssm_forward, ssm_step
from hybridlab.tensor import Tensor, named_rng, no_grad

# ---------------------------------------------------------------------------
# 1. visibility masks
# ---------------------------------------------------------------------------
# A causal mask lets position i see keys 0..i. The windowed variant
# keeps only the last `window` keys plus `sink` always-visible prefix
# tokens, so the per-query key count stops growing with length.

print("causal mask, 6 tokens (rows = queries):")
print(causal_mask(6).astype(int))

print("\nwindowed mask, window=3, sink=1:")
print(swa_mask(6, window=3, sink=1).astype(int))

# ---------------------------------------------------------------------------
# 2. grouped-query attention
# ---------------------------------------------------------------------------
# Four query heads share two key/value heads; the KV cache is half the
# size it would be with one KV head per query head.

cfg = AttnConfig(d_model=16, n_heads=4, n_kv_heads=2, d_qk=4, d_v=4)
rope = RopeConfig(head_dim=4)
rng = named_rng(0, "demo-attn")
weights = init_attn_params(cfg, rng)
x = Tensor(rng.normal(size=(1, 6, 16)))
with no_grad():
    y = attention_forward(x, weights, cfg, rope, positions=np.arange(6))
print(f"\nGQA forward: x {x.shape} -> y {y.shape}")

# ---------------------------------------------------------------------------
# 3. rotary positions preserve norms
# ---------------------------------------------------------------------------
# Rotation mixes adjacent coordinate pairs by a position-dependent
# angle. It never changes vector length, which is easy to confirm.

q = rng.normal(size=(1, 5, 2, 8))
with no_grad():
    rotated = apply_rope(Tensor(q), RopeConfig(head_dim=8), np.arange(5)).data
print("\nrope norm drift:", float(np.abs(
    np.linalg.norm(rotated, axis=-1) - np.linalg.norm(q, axis=-1)).max()))

# ---------------------------------------------------------------------------
# 4. the selective scan agrees with its one-token-at-a-time form
# ---------------------------------------------------------------------------
# The chunked scan is how training, prefill and decoding run; the step
# fold is its composed reference. They are the same recurrence, so
# outputs must match to noise.

scfg = SsmConfig(d_model=6, d_ssm=8, d_head=4, d_state=4, n_conv=3)
sweights = init_ssm_params(scfg, rng)
xs = rng.normal(size=(2, 24, 6))
with no_grad():
    scan = ssm_forward(Tensor(xs), sweights, scfg, chunk=5).data
    state = init_ssm_state(scfg, batch=2)
    rows = []
    for t in range(24):
        y_t, state = ssm_step(Tensor(xs[:, t]), sweights, scfg, state)
        rows.append(y_t.data)
    fold = np.stack(rows, axis=1)
print("scan vs fold max abs diff:", float(np.abs(scan - fold).max()))

print("\nall primitive checks done")
