"""Runnable models: embedding, pre-norm block stack, head.

Every layer is residual pre-norm twice over: once around its mixer
(attention, windowed attention, SSM, or the fused intra-layer hybrid)
and once around its FFN (dense or mixture-of-experts). Weights live in
flat name->Tensor dicts with dotted prefixes ("blocks.3.ssm.in_proj"),
drawn by `block_weights`, whose shapes the cost model counts.
"""

from __future__ import annotations

import numpy as np

from .attention import attention_forward, init_attn_params
from .config import ModelConfig
from .hybrid import default_lambda_init, init_intra_params, intra_hybrid_forward
from .layout import BlockSpec, LayoutSpec
from .moe import RouterState, init_moe_params, moe_forward, update_balance
from .nn import RopeConfig, param, proj_init, rms_norm, siglu_ffn, weight
from .ssm import init_ssm_params, ssm_forward
from .tensor import ContractError, Tensor, embedding_lookup, matmul, named_rng

EMBED_STD = 0.02
HEAD_STD = 0.02


def block_weights(spec: BlockSpec, cfg: ModelConfig, rng: np.random.Generator | None) -> dict:
    """Every weight of one block in draw order; with rng None, their shapes.

    The one inventory of a block: `Block` draws from it and
    `costs.block_param_shapes` counts it.
    """
    attn_cfg, _, ssm_cfg = cfg.block_branches(spec)
    weights = {"attn_norm.weight": weight(rng, (cfg.d_model,), 1.0)}
    if spec.kind == "intra":
        weights.update(init_intra_params(cfg.intra_cfg(spec), cfg.block_fusion(spec), rng))
    elif attn_cfg is not None:
        weights.update(init_attn_params(attn_cfg, rng))
    else:
        weights.update(init_ssm_params(ssm_cfg, rng))
    weights["ffn_norm.weight"] = weight(rng, (cfg.d_model,), 1.0)
    if spec.moe:
        weights.update(init_moe_params(cfg.moe_cfg(), rng))
    else:
        weights["ffn.gate"] = proj_init(rng, cfg.d_model, cfg.d_ffn)
        weights["ffn.up"] = proj_init(rng, cfg.d_model, cfg.d_ffn)
        weights["ffn.down"] = proj_init(rng, cfg.d_ffn, cfg.d_model)
    return weights


class Block:
    """One layer: pre-norm mixer + pre-norm FFN/MoE, both residual.

    `attn_cfg`, `window` and `ssm_cfg` are its branches (see
    `ModelConfig.block_branches`); intra also keeps `intra_cfg` and
    `fusion`, as its weights are not the sum of its branches.
    """

    def __init__(self, spec: BlockSpec, cfg: ModelConfig, rng: np.random.Generator, index: int):
        self.spec = spec
        self.index = index
        self.kind = spec.kind
        self.moe_state: RouterState | None = None
        self.last_moe_load: np.ndarray | None = None
        self.lambda_init = default_lambda_init(index)

        self.attn_cfg, self.window, self.ssm_cfg = cfg.block_branches(spec)
        self.rope = None if self.attn_cfg is None else RopeConfig(self.attn_cfg.d_qk, cfg.rope_base)
        if spec.kind == "intra":
            self.intra_cfg = cfg.intra_cfg(spec)
            self.fusion = cfg.block_fusion(spec)
        if spec.moe:
            self.moe_cfg = cfg.moe_cfg()
            self.moe_state = RouterState.fresh(self.moe_cfg.n_experts)
        self.weights: dict[str, Tensor] = block_weights(spec, cfg, rng)

    def mixer(self, normed: Tensor, positions: np.ndarray, cache=None) -> Tensor:
        """Mixer output; `cache` is this block's decode state (see `decode`)."""
        if self.kind == "intra":
            return intra_hybrid_forward(
                normed, self.weights, self.intra_cfg, self.fusion, positions,
                lambda_init=self.lambda_init, cache=cache,
            )
        if self.attn_cfg is None:
            return ssm_forward(normed, self.weights, self.ssm_cfg, state=cache)
        return attention_forward(
            normed, self.weights, self.attn_cfg, self.rope, positions, window=self.window, cache=cache
        )

    def ffn(self, normed: Tensor) -> Tensor:
        if self.spec.moe:
            out, loads = moe_forward(normed, self.weights, self.moe_cfg, self.moe_state)
            self.last_moe_load = loads
            return out
        return siglu_ffn(
            normed, self.weights["ffn.gate"], self.weights["ffn.up"], self.weights["ffn.down"]
        )

    def forward(self, x: Tensor, positions: np.ndarray, cache=None) -> Tensor:
        x = x + self.mixer(rms_norm(x, self.weights["attn_norm.weight"]), positions, cache)
        x = x + self.ffn(rms_norm(x, self.weights["ffn_norm.weight"]))
        return x

    def update_moe_balance(self) -> None:
        if self.moe_state is not None and self.last_moe_load is not None:
            update_balance(self.moe_state, self.last_moe_load)
            self.last_moe_load = None


class HybridModel:
    """Embedding + block stack + final norm + untied output head."""

    def __init__(self, cfg: ModelConfig, layout: LayoutSpec, seed: int = 0):
        self.cfg = cfg
        self.layout = layout
        self.seed = seed
        self.embed = param(named_rng(seed, "embed"), (cfg.vocab, cfg.d_model), EMBED_STD)
        self.blocks = [
            Block(spec, cfg, named_rng(seed, f"blocks.{i}"), index=i)
            for i, spec in enumerate(layout.blocks)
        ]
        self.final_norm = Tensor(np.ones(cfg.d_model), requires_grad=True)
        self.head = param(named_rng(seed, "head"), (cfg.d_model, cfg.vocab), HEAD_STD)

    def forward(self, tokens: np.ndarray, caches: list | None = None, start: int = 0) -> Tensor:
        """tokens (batch, seq) int -> logits (batch, seq, vocab).

        The tokens sit at absolute positions start, start + 1, ...; with
        `caches` (one decode state per block) each mixer reads and
        advances its block's state.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ContractError(f"tokens must be (batch, seq), got {tokens.shape}")
        positions = np.arange(start, start + tokens.shape[1])
        x = embedding_lookup(self.embed, tokens)
        for block, cache in zip(self.blocks, caches or [None] * len(self.blocks)):
            x = block.forward(x, positions, cache)
        x = rms_norm(x, self.final_norm)
        return matmul(x, self.head)

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {"embed.weight": self.embed}
        for i, block in enumerate(self.blocks):
            for name, tensor in block.weights.items():
                out[f"blocks.{i}.{name}"] = tensor
        out["final_norm.weight"] = self.final_norm
        out["head.weight"] = self.head
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, block in enumerate(self.blocks):
            if block.moe_state is not None:
                out[f"blocks.{i}.moe.expert_bias"] = block.moe_state.expert_bias
        return out

    def update_moe_balance(self) -> None:
        for block in self.blocks:
            block.update_moe_balance()

    def zero_grad(self) -> None:
        for t in self.parameters().values():
            t.grad = None

    def load_state(self, arrays: dict[str, np.ndarray], buffers: dict[str, np.ndarray] | None = None) -> None:
        params = self.parameters()
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise ContractError(f"state mismatch: missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}")
        routers = {
            f"blocks.{i}.moe.expert_bias": block.moe_state
            for i, block in enumerate(self.blocks) if block.moe_state is not None
        }
        # every array is checked before any is assigned: a bad file loads nothing
        loaded = {name: np.asarray(arrays[name], dtype=t.data.dtype) for name, t in params.items()}
        biases = {k: np.asarray(v, dtype=np.float64) for k, v in (buffers or {}).items() if k in routers}
        for name, arr in loaded.items():
            if arr.shape != params[name].shape:
                raise ContractError(f"shape mismatch for {name}: {arr.shape} vs {params[name].shape}")
        for name, arr in {**loaded, **biases}.items():
            if not np.isfinite(arr).all():
                raise ContractError(f"non-finite values in {name}")
        for name, arr in loaded.items():
            params[name].data = arr
        for key, arr in biases.items():
            routers[key].expert_bias = arr
