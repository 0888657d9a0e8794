"""Incremental decoding with per-kind bounded caches.

`prefill` runs the whole prompt in one batched pass and captures each
block's decode state; `decode_step` then advances one token at a time.
Both paths are numerically the full forward pass, just reordered, and
the tests pin cached-vs-full logit agreement per block kind.

Cache shapes per block:

  attn    full KV: every past key and value (keys kept unrotated;
          rotary embedding is applied at read time from the stored
          absolute positions)
  swa     rolling KV: `sink` pinned slots plus a ring of the most
          recent `window` entries, so occupancy never exceeds
          window + sink
  mamba   conv ring (n_conv - 1 raw channel rows) + per-head SSM state
  intra   full KV for the attention half + SSM state for the other

The one-token step and the full pass share one attention core,
`tensor.attention_core`: the step calls it with a single query row and
no mask, since every cached key is visible to it.

`DecodeState.cache_bytes()` measures the live caches at 2 bytes per
element (the in-flight conv row counts toward the ring, matching the
closed-form accounting in `costs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig
from .costs import CACHE_BYTES_PER_ELEMENT
from .hybrid import fuse_branches, ssm_branch_prefill, ssm_branch_step
from .layout import LayoutSpec
from .model import Block, HybridModel
from .nn import RopeConfig, apply_rope, rms_norm
from .ssm import SsmState, ssm_prefill, ssm_step
from .tensor import ContractError, Tensor, attention_core, matmul, no_grad


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------


@dataclass
class FullKV:
    """Unbounded KV cache; keys stored before rotation."""

    n_kv: int
    d_qk: int
    d_v: int
    ks: list[np.ndarray] = field(default_factory=list)   # each (B, n_kv, d_qk)
    vs: list[np.ndarray] = field(default_factory=list)   # each (B, n_kv, d_v)
    positions: list[int] = field(default_factory=list)

    @property
    def entries(self) -> int:
        return len(self.ks)

    def append(self, k_t: np.ndarray, v_t: np.ndarray, position: int) -> None:
        self.ks.append(k_t)
        self.vs.append(v_t)
        self.positions.append(position)

    def extend(self, k: np.ndarray, v: np.ndarray, positions: np.ndarray) -> None:
        """Bulk append from a prefill pass; k (B, L, n_kv, d_qk)."""
        for j, pos in enumerate(positions):
            self.append(k[:, j], v[:, j], int(pos))

    def read(self) -> tuple[Tensor, Tensor, np.ndarray]:
        k = Tensor(np.stack(self.ks, axis=1))
        v = Tensor(np.stack(self.vs, axis=1))
        return k, v, np.array(self.positions)

    def elems_per_sample(self) -> int:
        return self.entries * self.n_kv * (self.d_qk + self.d_v)


@dataclass
class RollingKV:
    """Sink + ring KV cache: occupancy is capped at window + sink.

    Slot j holds position j while j < sink; later positions cycle
    through the ring slots. Slot order is not position order, which is
    fine: attention is a softmax over a key set, and each key is
    rotated by its own stored absolute position at read time.
    """

    window: int
    sink: int
    n_kv: int
    d_qk: int
    d_v: int
    count: int = 0
    k_buf: np.ndarray | None = None
    v_buf: np.ndarray | None = None
    pos_buf: np.ndarray | None = None

    @property
    def capacity(self) -> int:
        return self.window + self.sink

    @property
    def entries(self) -> int:
        return min(self.count, self.capacity)

    def _ensure(self, batch: int) -> None:
        if self.k_buf is None:
            self.k_buf = np.zeros((batch, self.capacity, self.n_kv, self.d_qk))
            self.v_buf = np.zeros((batch, self.capacity, self.n_kv, self.d_v))
            self.pos_buf = np.full(self.capacity, -1, dtype=np.int64)

    def append(self, k_t: np.ndarray, v_t: np.ndarray, position: int) -> None:
        self._ensure(k_t.shape[0])
        if position < self.sink:
            slot = position
        else:
            slot = self.sink + (position - self.sink) % self.window
        self.k_buf[:, slot] = k_t
        self.v_buf[:, slot] = v_t
        self.pos_buf[slot] = position
        self.count = position + 1

    def extend(self, k: np.ndarray, v: np.ndarray, positions: np.ndarray) -> None:
        for j, pos in enumerate(positions):
            self.append(k[:, j], v[:, j], int(pos))

    def read(self) -> tuple[Tensor, Tensor, np.ndarray]:
        occ = self.entries
        return (
            Tensor(self.k_buf[:, :occ].copy()),
            Tensor(self.v_buf[:, :occ].copy()),
            self.pos_buf[:occ].copy(),
        )

    def elems_per_sample(self) -> int:
        return self.entries * self.n_kv * (self.d_qk + self.d_v)


@dataclass
class IntraCache:
    kv: FullKV
    ssm: SsmState


BlockCache = FullKV | RollingKV | SsmState | IntraCache


def _ssm_state_elems(state: SsmState) -> int:
    batch = state.h.shape[0]
    conv_channels = state.conv_buf.shape[-1]
    # ring rows + the in-flight row, then the recurrent state itself
    return (state.conv_buf.size // batch + conv_channels) + state.h.size // batch


def _cache_elems(cache: BlockCache) -> int:
    if isinstance(cache, (FullKV, RollingKV)):
        return cache.elems_per_sample()
    if isinstance(cache, SsmState):
        return _ssm_state_elems(cache)
    return cache.kv.elems_per_sample() + _ssm_state_elems(cache.ssm)


@dataclass
class DecodeState:
    """Per-block caches plus the number of tokens consumed so far."""

    cfg: ModelConfig
    layout: LayoutSpec
    position: int
    caches: list[BlockCache]

    def cache_bytes(self) -> int:
        """Live cache footprint per sample at 2 bytes per element."""
        return CACHE_BYTES_PER_ELEMENT * sum(_cache_elems(c) for c in self.caches)


# ---------------------------------------------------------------------------
# per-kind steps
# ---------------------------------------------------------------------------


def _project_kv(normed: Tensor, block: Block, prefix: str):
    cfg = block.attn_cfg if block.kind in ("attn", "swa") else block.intra_cfg.attn_cfg
    b, l = normed.shape[0], normed.shape[1]
    k = matmul(normed, block.weights[f"{prefix}.wk"]).data.reshape(b, l, cfg.n_kv_heads, cfg.d_qk)
    v = matmul(normed, block.weights[f"{prefix}.wv"]).data.reshape(b, l, cfg.n_kv_heads, cfg.d_v)
    return k, v


def _attn_context_step(
    x_t: Tensor,
    weights: dict[str, Tensor],
    cfg,
    rope: RopeConfig,
    cache: FullKV | RollingKV,
    position: int,
    prefix: str = "attn",
) -> Tensor:
    """One-token context (B, 1, H, d_v) against the cache (self included)."""
    b = x_t.shape[0]
    q = matmul(x_t, weights[f"{prefix}.wq"]).reshape(b, 1, cfg.n_heads, cfg.d_qk)
    k_t = matmul(x_t, weights[f"{prefix}.wk"]).data.reshape(b, cfg.n_kv_heads, cfg.d_qk)
    v_t = matmul(x_t, weights[f"{prefix}.wv"]).data.reshape(b, cfg.n_kv_heads, cfg.d_v)
    cache.append(k_t, v_t, position)

    k_all, v_all, positions = cache.read()
    q = apply_rope(q, rope, np.array([position]))
    k_all = apply_rope(k_all, rope, positions)

    q = q.swapaxes(1, 2)                                  # (B, H, 1, d_qk)
    k_all = k_all.swapaxes(1, 2)                          # (B, H_kv, n, d_qk)
    v_all = v_all.swapaxes(1, 2)
    # every cached entry is visible by construction, so no mask here
    return attention_core(q, k_all, v_all).swapaxes(1, 2)  # (B, 1, H, d_v)


def _block_step(block: Block, cache: BlockCache, x_t: Tensor, position: int) -> Tensor:
    """Mixer output (B, d_model) for one token, updating the cache."""
    b = x_t.shape[0]
    if block.kind in ("attn", "swa"):
        ctx = _attn_context_step(
            x_t, block.weights, block.attn_cfg, block.rope, cache, position
        )
        flat = ctx.reshape(b, block.attn_cfg.n_heads * block.attn_cfg.d_v)
        return matmul(flat, block.weights["attn.wo"])
    if block.kind == "mamba":
        out, new_state = ssm_step(x_t, block.weights, block.ssm_cfg, cache)
        cache.conv_buf, cache.h = new_state.conv_buf, new_state.h
        return out
    # intra: attention half against the KV cache, SSM half against the state
    icfg = block.intra_cfg
    a = _attn_context_step(
        x_t, block.weights, icfg.attn_cfg, block.rope, cache.kv, position, prefix="intra.attn"
    )
    m, new_state = ssm_branch_step(x_t, block.weights, icfg.ssm_cfg, cache.ssm)
    cache.ssm.conv_buf, cache.ssm.h = new_state.conv_buf, new_state.h
    fused = fuse_branches(a, m, block.weights, icfg, block.fusion, block.lambda_init)
    return fused.reshape(b, block.cfg.d_model)


def _fresh_cache(block: Block) -> BlockCache:
    from .ssm import init_ssm_state

    if block.kind == "attn":
        acfg = block.attn_cfg
        return FullKV(acfg.n_kv_heads, acfg.d_qk, acfg.d_v)
    if block.kind == "swa":
        acfg = block.attn_cfg
        window, sink = block.cfg.block_window(block.spec)
        return RollingKV(window, sink, acfg.n_kv_heads, acfg.d_qk, acfg.d_v)
    if block.kind == "mamba":
        return init_ssm_state(block.ssm_cfg)
    acfg = block.intra_cfg.attn_cfg
    return IntraCache(
        kv=FullKV(acfg.n_kv_heads, acfg.d_qk, acfg.d_v),
        ssm=init_ssm_state(block.intra_cfg.ssm_cfg),
    )


# ---------------------------------------------------------------------------
# prefill / step
# ---------------------------------------------------------------------------


def prefill(model: HybridModel, tokens: np.ndarray) -> tuple[DecodeState, Tensor]:
    """Batched prompt pass. tokens (B, L) -> (state at position L, logits).

    The mixer math reuses the exact training-path functions; only the
    cache captures are extra.
    """
    from .attention import attention_context, swa_mask
    from .tensor import embedding_lookup

    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < 1:
        raise ContractError(f"prefill wants (batch, seq >= 1) tokens, got {tokens.shape}")
    b, l = tokens.shape
    positions = np.arange(l)
    caches: list[BlockCache] = []

    with no_grad():
        x = embedding_lookup(model.embed, tokens)
        for block in model.blocks:
            cache = _fresh_cache(block)
            normed = rms_norm(x, block.weights["attn_norm.weight"])
            if block.kind in ("attn", "swa"):
                mask = None
                if block.kind == "swa":
                    window, sink = block.cfg.block_window(block.spec)
                    mask = swa_mask(l, window, sink)
                ctx = attention_context(
                    normed, block.weights, block.attn_cfg, block.rope, positions, mask=mask
                )
                mixer = matmul(
                    ctx.reshape(b, l, block.attn_cfg.n_heads * block.attn_cfg.d_v),
                    block.weights["attn.wo"],
                )
                k, v = _project_kv(normed, block, "attn")
                cache.extend(k, v, positions)
            elif block.kind == "mamba":
                mixer, state = ssm_prefill(normed, block.weights, block.ssm_cfg)
                cache.conv_buf, cache.h = state.conv_buf, state.h
            else:
                icfg = block.intra_cfg
                a = attention_context(
                    normed, block.weights, icfg.attn_cfg, block.rope, positions,
                    prefix="intra.attn",
                )
                m, sstate = ssm_branch_prefill(normed, block.weights, icfg.ssm_cfg)
                mixer = fuse_branches(
                    a, m, block.weights, icfg, block.fusion, block.lambda_init
                )
                k, v = _project_kv(normed, block, "intra.attn")
                cache.kv.extend(k, v, positions)
                cache.ssm.conv_buf, cache.ssm.h = sstate.conv_buf, sstate.h
            x = x + mixer
            x = x + block.ffn(rms_norm(x, block.weights["ffn_norm.weight"]))
            caches.append(cache)
        logits = matmul(rms_norm(x, model.final_norm), model.head)

    return DecodeState(cfg=model.cfg, layout=model.layout, position=l, caches=caches), logits


def decode_step(model: HybridModel, state: DecodeState, tokens: np.ndarray | int) -> Tensor:
    """Consume one token per sequence and return next-token logits (B, V)."""
    from .tensor import embedding_lookup

    if isinstance(tokens, (int, np.integer)):
        tokens = np.array([tokens])
    tokens = np.asarray(tokens).reshape(-1)
    t = state.position

    with no_grad():
        x = embedding_lookup(model.embed, tokens.reshape(-1, 1)).reshape(
            tokens.shape[0], model.cfg.d_model
        )
        for block, cache in zip(model.blocks, state.caches):
            normed = rms_norm(x, block.weights["attn_norm.weight"])
            x = x + _block_step(block, cache, normed, t)
            ffn_in = rms_norm(x, block.weights["ffn_norm.weight"])
            x = x + block.ffn(ffn_in.reshape(-1, 1, model.cfg.d_model)).reshape(
                tokens.shape[0], model.cfg.d_model
            )
        logits = matmul(rms_norm(x, model.final_norm), model.head)

    state.position = t + 1
    return logits


def sample_token(logits, temperature: float = 0.0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Greedy at temperature 0, else categorical. logits (B, V) -> (B,)."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if temperature <= 0.0:
        return np.argmax(arr, axis=-1)
    if rng is None:
        raise ContractError("sampling with temperature > 0 needs an rng")
    scaled = arr / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= probs.sum(axis=-1, keepdims=True)
    return np.array([rng.choice(arr.shape[-1], p=p) for p in probs])


def generate(
    model: HybridModel,
    prompt: np.ndarray,
    n_new: int,
    temperature: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, DecodeState]:
    """Prefill the prompt then decode n_new tokens. Returns (B, n_new)."""
    state, logits = prefill(model, prompt)
    out = []
    next_tok = sample_token(Tensor(logits.data[:, -1]), temperature, rng)
    for _ in range(n_new):
        out.append(next_tok)
        logits = decode_step(model, state, next_tok)
        next_tok = sample_token(logits, temperature, rng)
    return np.stack(out, axis=1), state


@dataclass(frozen=True)
class DecodeStepTrace:
    position: int
    flops: float
    cache_bytes_measured: int
    cache_bytes_accounted: int


def measure_decode(
    model: HybridModel, prompt_len: int, gen_len: int, seed: int = 0
) -> list[DecodeStepTrace]:
    """Decode a seeded random prompt, logging per-step op counts (from the
    cost model) and live state bytes against the closed-form accounting."""
    from .costs import cache_bytes, model_decode_step_flops
    from .tensor import named_rng

    if prompt_len < 1 or gen_len < 1:
        raise ContractError("measure_decode needs prompt_len >= 1 and gen_len >= 1")
    rng = named_rng(seed, "measure-decode")
    prompt = rng.integers(0, model.cfg.vocab, size=(1, prompt_len))
    state, logits = prefill(model, prompt)
    trace = []
    next_tok = sample_token(Tensor(logits.data[:, -1]))
    for _ in range(gen_len):
        pos = state.position
        logits = decode_step(model, state, next_tok)
        next_tok = sample_token(logits)
        trace.append(
            DecodeStepTrace(
                position=pos,
                flops=model_decode_step_flops(model.layout, model.cfg, pos),
                cache_bytes_measured=state.cache_bytes(),
                cache_bytes_accounted=cache_bytes(model.layout, model.cfg, state.position),
            )
        )
    return trace
