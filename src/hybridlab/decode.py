"""Incremental decoding with per-kind bounded caches.

Decoding is the model's forward pass with caches, not a second copy of
its math: `prefill` is `HybridModel.forward` over the prompt in
fixed 64-token chunks against fresh caches, and `decode_step` is the
same forward on one token at `state.position`. A filled cache takes a
chunk of any length at its own next position, so any split of a
sequence gives the logits of the whole one, and a prefill's activations
grow with the chunk, not with the prompt. Each mixer takes its block's
cache as an optional argument and advances it in place, and the tests
pin split-vs-full logit agreement per block kind.

Cache shapes per block:

  attn    full KV: every past key and value, each key rotated once at
          its own absolute position when it is written
  swa     rolling KV: `sink` pinned slots plus a ring of the most
          recent `window` entries, so occupancy never exceeds
          window + sink
  mamba   conv ring (n_conv - 1 raw channel rows) + per-head SSM state
  intra   full KV for the attention half + SSM state for the other

Each KV cache keeps its keys and its values in one preallocated
(B, slots, n_kv, d) buffer; `prefill` reserves each full KV buffer for
the whole prompt (`generate` for the prompt and its new tokens), and a
decode step doubles it when it is full.
`extend` is the only write: a chunk writes its (B, L, ...) block in one
slice assignment and a step writes one row, each at the cache's next
position only. `read` returns views of the filled slots, valid until
the next `extend`, so a step neither stacks nor copies the history, nor
scans it again for non-finite values; `positions` names the position
each slot holds.

`DecodeState.cache_bytes()` measures the live caches at 2 bytes per
element (the in-flight conv row counts toward the ring, matching the
closed-form accounting in `costs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CACHE_BYTES_PER_ELEMENT
from .model import Block, HybridModel
from .ssm import SsmState, init_ssm_state
from .tensor import ContractError, Tensor, checked_view, no_grad


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------


def _grown(buf: np.ndarray | None, filled: int, block: np.ndarray, slots: int) -> np.ndarray:
    """A (B, slots, ...) buffer for `block`'s rows, holding buf's filled slots."""
    out = np.empty((block.shape[0], slots) + block.shape[2:])
    if filled:
        out[:, :filled] = buf[:, :filled]
    return out


class _KVRead:
    """`read` and the write checks of a KV cache with `k_buf`, `v_buf` and `entries`."""

    def check_batch(self, batch: int) -> None:
        """Refuse a block of another batch than the one held."""
        if self.k_buf is not None and batch != self.k_buf.shape[0]:
            raise ContractError(f"this KV cache holds batch {self.k_buf.shape[0]}, got {batch}")

    def _check_write(self, k: np.ndarray, positions: np.ndarray, next_pos: int) -> None:
        if positions[0] != next_pos:
            raise ContractError(f"this KV cache takes position {next_pos} next, got {positions[0]}")
        self.check_batch(k.shape[0])

    def read(self) -> tuple[Tensor, Tensor]:
        """Views of the filled slots, valid until the next `extend`.

        Every slot was written by `extend` from a checked op output, so
        the views are wrapped without a second finiteness scan.
        """
        return checked_view(self.k_buf[:, : self.entries]), checked_view(self.v_buf[:, : self.entries])


@dataclass
class FullKV(_KVRead):
    """Unbounded KV cache: slot j holds position j, key already rotated.

    The buffer doubles when an `extend` would overflow it, so a decode
    step writes one row in place and copies the history only
    log2(L) times over L steps.
    """

    n_kv: int
    d_qk: int
    d_v: int
    entries: int = 0
    k_buf: np.ndarray | None = None   # (B, slots, n_kv, d_qk)
    v_buf: np.ndarray | None = None   # (B, slots, n_kv, d_v)

    def positions(self) -> np.ndarray:
        """The position each filled slot holds: slot j holds position j."""
        return np.arange(self.entries)

    def extend(self, k: np.ndarray, v: np.ndarray, positions: np.ndarray) -> None:
        """Write a (B, L, n_kv, d) block at positions entries, entries + 1, ..."""
        self._check_write(k, positions, self.entries)
        end = self.entries + k.shape[1]
        if self.k_buf is None or end > self.k_buf.shape[1]:
            slots = max(end, 2 * self.entries)
            self.k_buf = _grown(self.k_buf, self.entries, k, slots)
            self.v_buf = _grown(self.v_buf, self.entries, v, slots)
        self.k_buf[:, self.entries : end] = k
        self.v_buf[:, self.entries : end] = v
        self.entries = end


@dataclass
class RollingKV(_KVRead):
    """Sink + ring KV cache: occupancy is capped at window + sink.

    Position p lives in slot p while p < sink, else in ring slot
    sink + (p - sink) % window. Slot order is not position order, which
    is fine: attention is a softmax over a key set, and each key was
    rotated at its own absolute position before it was written.
    """

    window: int
    sink: int
    n_kv: int
    d_qk: int
    d_v: int
    count: int = 0
    k_buf: np.ndarray | None = None   # (B, window + sink, n_kv, d_qk)
    v_buf: np.ndarray | None = None   # (B, window + sink, n_kv, d_v)

    @property
    def capacity(self) -> int:
        return self.window + self.sink

    @property
    def entries(self) -> int:
        return min(self.count, self.capacity)

    def positions(self) -> np.ndarray:
        """The position each filled slot holds, derived from `count`: a sink
        sits at its own slot, and ring slot s holds the latest p < count
        with p - s a multiple of the window."""
        slots = np.arange(self.entries)
        last = self.count - 1
        return np.where(slots < self.sink, slots, last - (last - slots) % self.window)

    def extend(self, k: np.ndarray, v: np.ndarray, positions: np.ndarray) -> None:
        """Write the sinks and the last `window` positions of a block that
        starts at position `count`."""
        self._check_write(k, positions, self.count)
        if self.k_buf is None:
            self.k_buf = np.empty((k.shape[0], self.capacity, self.n_kv, self.d_qk))
            self.v_buf = np.empty((k.shape[0], self.capacity, self.n_kv, self.d_v))
        # the rest would be overwritten within this block: dropping them
        # keeps every slot distinct in the one assignment
        keep = (positions < self.sink) | (positions > positions[-1] - self.window)
        p = positions[keep]
        slots = np.where(p < self.sink, p, self.sink + (p - self.sink) % self.window)
        self.k_buf[:, slots] = k[:, keep]
        self.v_buf[:, slots] = v[:, keep]
        self.count = int(positions[-1]) + 1


@dataclass
class IntraCache:
    kv: FullKV
    ssm: SsmState


BlockCache = FullKV | RollingKV | SsmState | IntraCache


def _cache_elems(cache: BlockCache) -> int:
    if isinstance(cache, IntraCache):
        return _cache_elems(cache.kv) + _cache_elems(cache.ssm)
    if isinstance(cache, SsmState):
        batch = cache.h.shape[0]
        # ring rows + the in-flight row, then the recurrent state itself
        return cache.conv_buf.size // batch + cache.conv_buf.shape[-1] + cache.h.size // batch
    return cache.entries * cache.n_kv * (cache.d_qk + cache.d_v)


@dataclass
class DecodeState:
    """Per-block caches plus the number of tokens consumed so far."""

    position: int
    caches: list[BlockCache]

    def cache_bytes(self) -> int:
        """Live cache footprint per sample at 2 bytes per element."""
        return CACHE_BYTES_PER_ELEMENT * sum(_cache_elems(c) for c in self.caches)


def _fresh_cache(block: Block, batch: int, slots: int) -> BlockCache:
    """A `FullKV` (`RollingKV` if windowed) for an attention branch, an
    `SsmState` for an SSM branch, an `IntraCache` for both. A `FullKV`
    starts with room for `slots` entries."""
    kv = ssm = None
    if block.attn_cfg is not None:
        n_kv, d_qk, d_v = block.attn_cfg.n_kv_heads, block.attn_cfg.d_qk, block.attn_cfg.d_v
        if block.window is None:
            kv = FullKV(n_kv, d_qk, d_v, k_buf=np.empty((batch, slots, n_kv, d_qk)),
                        v_buf=np.empty((batch, slots, n_kv, d_v)))
        else:
            kv = RollingKV(*block.window, n_kv, d_qk, d_v)
    if block.ssm_cfg is not None:
        ssm = init_ssm_state(block.ssm_cfg, batch)
    if kv is not None and ssm is not None:
        return IntraCache(kv=kv, ssm=ssm)
    return kv if kv is not None else ssm


# ---------------------------------------------------------------------------
# prefill / step
# ---------------------------------------------------------------------------

# Prompt tokens per prefill forward: a multiple of `ssm.SSM_CHUNK`, and
# equal to `ssm._SCAN_SLAB`, so the chunked scan computes exactly what the
# whole-prompt scan does. Batch 4 x 320, median of 15 alternating rounds,
# one BLAS thread; MiB is the tracemalloc peak minus what prefill keeps:
#
#   chunk                  32     64    128   whole
#   toy-llama, ms        61.6   58.1   59.4   60.5
#   toy-mamba, ms        70.3   63.9   69.9   70.6
#   toy-intra, ms        93.8   75.7   79.9   85.1
#   toy-mamba, MiB        3.0    4.8    6.4   10.7
#
# Below 64 the per-chunk op overhead shows; above it the activations grow.
_PREFILL_CHUNK = 64


def prefill(model: HybridModel, tokens: np.ndarray) -> tuple[DecodeState, Tensor]:
    """Batched prompt pass. tokens (B, L) -> (state at position L, logits).

    The prompt runs through `HybridModel.forward` in `_PREFILL_CHUNK`-token
    chunks against fresh caches, so a call's activations grow with the
    chunk, not the prompt. Each full KV buffer is reserved for the whole
    prompt up front, so the chunk writes never regrow it; each chunk's
    logits go into one (B, L, V) array.
    """
    return _prefill(model, tokens, 0)


def _prefill(model: HybridModel, tokens: np.ndarray, n_new: int) -> tuple[DecodeState, Tensor]:
    """`prefill`, with each full KV buffer reserved for the prompt and `n_new` more tokens."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < 1:
        raise ContractError(f"prefill wants (batch, seq >= 1) tokens, got {tokens.shape}")
    batch, length = tokens.shape
    caches = [_fresh_cache(block, batch, length + n_new) for block in model.blocks]
    logits = np.empty((batch, length, model.cfg.vocab))
    with no_grad():
        for start in range(0, length, _PREFILL_CHUNK):
            stop = start + _PREFILL_CHUNK
            logits[:, start:stop] = model.forward(tokens[:, start:stop], caches, start=start).data
    # every chunk's logits are a checked op output
    return DecodeState(position=length, caches=caches), checked_view(logits)


def decode_step(model: HybridModel, state: DecodeState, tokens: np.ndarray | int) -> Tensor:
    """Consume one token per sequence and return next-token logits (B, V)."""
    tokens = np.asarray(tokens).reshape(-1, 1)
    with no_grad():
        logits = model.forward(tokens, state.caches, start=state.position)
    state.position += 1
    return logits.reshape(tokens.shape[0], model.cfg.vocab)


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
    """Prefill the prompt then decode n_new tokens. Returns (B, n_new) and
    the state after them; with n_new 0, a (B, 0) array and the prefilled state.
    Each full KV buffer is reserved for the prompt and the n_new tokens,
    so no decode step regrows it."""
    if n_new < 0:
        raise ContractError(f"generate needs n_new >= 0, got {n_new}")
    state, logits = _prefill(model, prompt, n_new)
    out = np.empty((logits.shape[0], n_new), dtype=np.int64)
    next_tok = sample_token(Tensor(logits.data[:, -1]), temperature, rng)
    for i in range(n_new):
        out[:, i] = next_tok
        logits = decode_step(model, state, next_tok)
        next_tok = sample_token(logits, temperature, rng)
    return out, state


@dataclass(frozen=True)
class DecodeStepTrace:
    position: int
    flops: float
    cache_bytes_measured: int
    cache_bytes_accounted: int


def measure_decode(model: HybridModel, prompt_len: int, gen_len: int) -> list[DecodeStepTrace]:
    """Decode a seeded random prompt, logging per-step op counts (from the
    cost model) and live state bytes against the closed-form accounting."""
    from .costs import cache_bytes, model_decode_step_flops
    from .tensor import named_rng

    if prompt_len < 1 or gen_len < 1:
        raise ContractError("measure_decode needs prompt_len >= 1 and gen_len >= 1")
    rng = named_rng(0, "measure-decode")
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
