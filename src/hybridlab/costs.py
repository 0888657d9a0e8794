"""Analytic parameter / FLOPs / decode-cache accounting for any layout.

Two routes are kept deliberately separate:

* instantiated counts run the builder's own code: `model.block_weights`
  called with rng=None names every weight shape a built model draws,
  and draws nothing (the ground truth; no remainder by construction),
  and
* closed-form per-block expressions mirror the published scaling
  formulas and are reported alongside for reference.

FLOPs use the standard 6 * params * tokens training estimate over
non-embedding (and, for MoE, activated) parameters, plus the
length-dependent terms the linear projections miss:

  attention       12 * d_model * L(L+1)/2          per block per sample
  windowed attn   12 * d_model * V * ((V+1)/2 + (L - V)),  V = window + sink
  ssm scan        3 * L * (9 * d_ssm * d_state + 2 * d_ssm)

Decode-cache bytes always assume 2-byte elements regardless of the
working precision of the live process:

  attention  4 * d_head * n_kv * min(L, context)  (K and V)
  windowed   the same with context capped at window + sink
  ssm        2 * (d_ssm * d_state + n_conv * (2 * n_groups * d_state + d_ssm))

Each accounting sums a block's branches (`ModelConfig.block_branches`):
attention over n_heads * (d_qk + d_v), or n_kv * (d_qk + d_v) cached,
with min(L, window + sink) visible keys when windowed, plus the SSM.
Every term is an integer below 2^53, so regrouping cannot change a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import ModelConfig
from .layout import BlockSpec, LayoutSpec
from .model import block_weights
from .tensor import ContractError

CACHE_BYTES_PER_ELEMENT = 2


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def block_param_shapes(spec: BlockSpec, cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every weight shape of one block: the builder's `block_weights` with rng=None."""
    return block_weights(spec, cfg, None)


def model_param_shapes(layout: LayoutSpec, cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {"embed.weight": (cfg.vocab, cfg.d_model)}
    for i, spec in enumerate(layout.blocks):
        for name, shape in block_param_shapes(spec, cfg).items():
            shapes[f"blocks.{i}.{name}"] = shape
    shapes["final_norm.weight"] = (cfg.d_model,)
    shapes["head.weight"] = (cfg.d_model, cfg.vocab)
    return shapes


def _total(shapes: dict[str, tuple[int, ...]]) -> int:
    return sum(math.prod(shape) for shape in shapes.values())


def block_params(spec: BlockSpec, cfg: ModelConfig) -> int:
    return _total(block_param_shapes(spec, cfg))


def mixer_params(spec: BlockSpec, cfg: ModelConfig) -> int:
    """Sequence-mixer weights only (no norms, no FFN/MoE)."""
    shapes = block_param_shapes(spec, cfg)
    drop = {"attn_norm.weight", "ffn_norm.weight"}
    return _total(
        {
            k: v
            for k, v in shapes.items()
            if k not in drop and not k.startswith(("ffn.", "moe."))
        }
    )


def params_embedding(cfg: ModelConfig) -> int:
    return cfg.vocab * cfg.d_model


def params_non_embedding(layout: LayoutSpec, cfg: ModelConfig) -> int:
    """All block weights plus the final norm; embedding and head excluded."""
    return sum(block_params(spec, cfg) for spec in layout.blocks) + cfg.d_model


def activated_block_params(spec: BlockSpec, cfg: ModelConfig) -> int:
    """Weights one token runs through: MoE counts router + shared + one routed,
    expert 0 standing in for it, and drops the idle experts' entries."""
    idle = tuple(f"moe.expert{e}." for e in range(1, cfg.moe_cfg().n_experts))
    shapes = block_param_shapes(spec, cfg)
    return _total({k: v for k, v in shapes.items() if not k.startswith(idle)})


def activated_params_non_embedding(layout: LayoutSpec, cfg: ModelConfig) -> int:
    """Per-token active weights of every block plus the final norm."""
    return sum(activated_block_params(spec, cfg) for spec in layout.blocks) + cfg.d_model


def closed_form_mixer_params(kind: str, cfg: ModelConfig) -> int:
    """Published per-block scaling formulas (reference route).

    Attention counts the four projections exactly; the SSM form counts
    the input projection, conv, dt and state vectors (its published
    form leaves out the output projection, so it undershoots the
    instantiated count by d_ssm * d_model).
    """
    d = cfg.d_model
    if kind in ("attn", "swa"):
        return 2 * d * d + 2 * d * cfg.d_head * cfg.n_kv_heads
    if kind == "mamba":
        h = cfg.d_ssm // cfg.d_head_ssm
        return (
            d * (2 * cfg.d_ssm + 2 * cfg.d_state + h)
            + cfg.d_state * (cfg.n_conv + d)
            + 2 * h
        )
    raise ContractError(f"no closed form for kind {kind!r}")


# ---------------------------------------------------------------------------
# flops
# ---------------------------------------------------------------------------


def _visible(window: tuple[int, int] | None, seq_len: int) -> int:
    """Keys the last of seq_len queries sees: all of them, or window + sink."""
    return seq_len if window is None else min(seq_len, window[0] + window[1])


def block_flops_extra(spec: BlockSpec, cfg: ModelConfig, seq_len: int) -> float:
    """Length-dependent training FLOPs one block adds beyond 6 * params * L."""
    attn, window, ssm = cfg.block_branches(spec)
    extra = 0.0
    if attn is not None:
        # 3x (fwd + bwd) times 2 matmul flops over the query/key and
        # prob/value widths; query i sees min(i + 1, V) keys
        v = _visible(window, seq_len)
        width = attn.n_heads * (attn.d_qk + attn.d_v)
        extra += 6.0 * width * (v * (v + 1) / 2 + v * (seq_len - v))
    if ssm is not None:
        extra += 3.0 * seq_len * (9.0 * ssm.d_ssm * ssm.d_state + 2.0 * ssm.d_ssm)
    return extra


def flops_per_sample(layout: LayoutSpec, cfg: ModelConfig, seq_len: int) -> float:
    """Training FLOPs for one sample of seq_len tokens (non-embedding)."""
    base = 6.0 * activated_params_non_embedding(layout, cfg) * seq_len
    extra = sum(block_flops_extra(spec, cfg, seq_len) for spec in layout.blocks)
    return base + extra


def train_flops(layout: LayoutSpec, cfg: ModelConfig, seq_len: int, tokens: float) -> float:
    return flops_per_sample(layout, cfg, seq_len) * (tokens / seq_len)


def decode_step_flops(spec: BlockSpec, cfg: ModelConfig, position: int) -> float:
    """Forward-only op estimate for decoding one token at `position`.

    A MoE block is charged its activated weights, as in training.
    """
    attn, window, ssm = cfg.block_branches(spec)
    flops = 2.0 * activated_block_params(spec, cfg)
    if attn is not None:
        width = attn.n_heads * (attn.d_qk + attn.d_v)
        flops += 2.0 * width * _visible(window, position + 1)
    if ssm is not None:
        flops += 9.0 * ssm.d_ssm * ssm.d_state + 2.0 * ssm.d_ssm
    return flops


def model_decode_step_flops(layout: LayoutSpec, cfg: ModelConfig, position: int) -> float:
    """Whole-model forward ops for one decoded token (blocks + output head)."""
    blocks = sum(decode_step_flops(spec, cfg, position) for spec in layout.blocks)
    return blocks + 2.0 * cfg.d_model * cfg.vocab


# ---------------------------------------------------------------------------
# decode cache
# ---------------------------------------------------------------------------


def block_cache_bytes(spec: BlockSpec, cfg: ModelConfig, context_len: int) -> int:
    """Decode-state bytes for one block at the given context length."""
    attn, window, ssm = cfg.block_branches(spec)
    elems = 0
    if attn is not None:
        elems += _visible(window, context_len) * attn.n_kv_heads * (attn.d_qk + attn.d_v)
    if ssm is not None:
        elems += ssm.d_ssm * ssm.d_state + ssm.n_conv * ssm.conv_channels
    return CACHE_BYTES_PER_ELEMENT * elems


def cache_bytes(layout: LayoutSpec, cfg: ModelConfig, context_len: int) -> int:
    return sum(block_cache_bytes(spec, cfg, context_len) for spec in layout.blocks)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostReport:
    layout_id: str
    context_len: int
    depth: int
    params_non_embedding: int
    params_embedding: int
    activated_non_embedding: int
    block_params: tuple[int, ...]
    flops_per_sample: float
    train_flops: float | None
    cache_bytes: int

    @property
    def cache_mib(self) -> float:
        return self.cache_bytes / (1024.0 * 1024.0)


def cost_report(
    layout: LayoutSpec,
    cfg: ModelConfig,
    context_len: int,
    tokens: float | None = None,
    layout_id: str = "custom",
) -> CostReport:
    return CostReport(
        layout_id=layout_id,
        context_len=context_len,
        depth=layout.depth,
        params_non_embedding=params_non_embedding(layout, cfg),
        params_embedding=params_embedding(cfg),
        activated_non_embedding=activated_params_non_embedding(layout, cfg),
        block_params=tuple(block_params(spec, cfg) for spec in layout.blocks),
        flops_per_sample=flops_per_sample(layout, cfg, context_len),
        train_flops=None if tokens is None else train_flops(layout, cfg, context_len, tokens),
        cache_bytes=cache_bytes(layout, cfg, context_len),
    )


# published 1B comparison: five layouts at 8192 context, 60e9 tokens
GOLDEN_CONTEXT = 8192
GOLDEN_TOKENS = 60e9
GOLDEN_EXPECTED = {
    "llama-1b": {"train_flops": 4.5e20, "cache_mib": (256.0, 256.0)},
    "mamba-1b": {"train_flops": 3.7e20, "cache_mib": (13.3, 13.5)},
    "swa-1b": {"train_flops": 3.8e20, "cache_mib": (62.0, 64.0)},
    "inter-1b": {"train_flops": 3.7e20, "cache_mib": (42.0, 44.0)},
    "intra-1b": {"train_flops": 3.7e20, "cache_mib": (36.0, 40.0)},
}
GOLDEN_PRESETS = tuple(GOLDEN_EXPECTED)
GOLDEN_FLOPS_RTOL = 0.03


def golden_rows(context_len: int = GOLDEN_CONTEXT, tokens: float = GOLDEN_TOKENS) -> list[dict]:
    """Produced-vs-published rows for the five 1B layouts; pass/fail each.

    The published numbers hold at the default context/token budget; forcing
    either off the published point makes the comparison report drift.
    """
    from .config import preset

    rows = []
    for name in GOLDEN_PRESETS:
        cfg, layout = preset(name)
        report = cost_report(layout, cfg, context_len, tokens=tokens, layout_id=name)
        expected = GOLDEN_EXPECTED[name]
        lo, hi = expected["cache_mib"]
        flops_ok = (
            abs(report.train_flops - expected["train_flops"]) / expected["train_flops"]
            <= GOLDEN_FLOPS_RTOL
        )
        cache_ok = lo <= report.cache_mib <= hi
        rows.append(
            {
                "layout_id": name,
                "train_flops": report.train_flops,
                "expected_flops": expected["train_flops"],
                "flops_ok": flops_ok,
                "cache_mib": report.cache_mib,
                "expected_cache": (lo, hi),
                "cache_ok": cache_ok,
                "params_non_embedding": report.params_non_embedding,
            }
        )
    return rows
