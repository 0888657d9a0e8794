"""Desk-scale training and evaluation: synthetic tasks, trainer, probes.

Tasks are integer-token streams (no tokenizer):

* copy: [BOS, payload..., SEP, payload...] with loss on the second
  payload; solvable only by actually routing information across the
  separator, which is what makes it a useful mixer smoke test.
* needle: a marked (key, value) pair planted at a controlled depth
  inside filler, queried at the end of the prompt; the score is exact
  retrieval of the value tokens. Filler, key, and value alphabets are
  disjoint so a rule-based extractor can verify every generated batch.

The trainer is deliberately small: trapezoid learning-rate schedule,
decoupled weight decay, global-norm clipping, fully deterministic per
seed. Divergence (any non-finite loss) aborts with a diagnostic rather
than continuing to train on garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .decode import decode_step, prefill, sample_token
from .model import HybridModel
from .tensor import (
    ContractError,
    NonFiniteError,
    Tensor,
    backward,
    cross_entropy_logits,
    named_rng,
    no_grad,
    reset_tape,
)

# ---------------------------------------------------------------------------
# copy task
# ---------------------------------------------------------------------------

COPY_VOCAB = 32
COPY_LEN = 64
_COPY_BOS = 0
_COPY_SEP = 1
_COPY_FIRST = 2          # payload alphabet is [2, vocab)


def gen_copy_batch(
    rng: np.random.Generator, batch: int, vocab: int = COPY_VOCAB, seq_len: int = COPY_LEN
) -> tuple[np.ndarray, np.ndarray]:
    """[BOS, payload, SEP, payload]; mask marks the scored second half.

    Returns (tokens (B, seq_len), target_mask (B, seq_len)) where the
    mask is true exactly on the copied payload positions.
    """
    if seq_len % 2 != 0 or seq_len < 4:
        raise ContractError("copy task needs an even seq_len >= 4")
    payload_len = seq_len // 2 - 1
    payload = rng.integers(_COPY_FIRST, vocab, size=(batch, payload_len))
    tokens = np.empty((batch, seq_len), dtype=np.int64)
    tokens[:, 0] = _COPY_BOS
    tokens[:, 1 : 1 + payload_len] = payload
    tokens[:, 1 + payload_len] = _COPY_SEP
    tokens[:, 2 + payload_len :] = payload
    mask = np.zeros((batch, seq_len))
    mask[:, 2 + payload_len :] = 1.0
    return tokens, mask


def masked_next_token_loss(
    model: HybridModel, tokens: np.ndarray, mask: np.ndarray | None = None
) -> Tensor:
    """Mean next-token cross-entropy, optionally over masked targets only."""
    logits = model.forward(tokens)
    tgt_mask = None if mask is None else mask[:, 1:]
    return cross_entropy_logits(logits[:, :-1], tokens[:, 1:], tgt_mask)


def masked_accuracy(model: HybridModel, tokens: np.ndarray, mask: np.ndarray) -> float:
    """Teacher-forced argmax accuracy on masked target positions; records no tape."""
    with no_grad():
        logits = model.forward(tokens)
    pred = np.argmax(logits.data[:, :-1], axis=-1)
    hit = (pred == tokens[:, 1:]) * mask[:, 1:]
    return float(hit.sum() / mask[:, 1:].sum())


# ---------------------------------------------------------------------------
# needle retrieval task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeedleTask:
    """Planted key/value retrieval with disjoint token alphabets.

    Layout of one prompt of `context_len` tokens:

      [BOS] ...filler... [MARK key value] ...filler... [QUERY key]

    and the scored continuation is the value. reserved ids: 0 BOS,
    1 QUERY, 2 MARK (filler never collides with them).
    """

    vocab: int = 64
    context_len: int = 64
    depth_fraction: float = 0.5
    key_len: int = 2
    value_len: int = 2
    seed: int = 0

    BOS: ClassVar[int] = 0
    QUERY: ClassVar[int] = 1
    MARK: ClassVar[int] = 2
    filler_lo: ClassVar[int] = 4

    def __post_init__(self):
        if not 0.0 <= self.depth_fraction <= 1.0:
            raise ContractError("depth_fraction must be in [0, 1]")
        if self.context_len < self.min_context:
            raise ContractError(
                f"context_len {self.context_len} < minimum {self.min_context}"
            )
        if self.vocab < 16:
            raise ContractError("needle task wants vocab >= 16 for distinct alphabets")

    # filler / key / value split the non-reserved range ~ 11:1:1
    @property
    def key_lo(self) -> int:
        return self.filler_lo + (self.vocab - self.filler_lo) * 11 // 13

    @property
    def value_lo(self) -> int:
        return self.key_lo + (self.vocab - self.key_lo) // 2

    @property
    def needle_len(self) -> int:
        return 1 + self.key_len + self.value_len

    @property
    def query_len(self) -> int:
        return 1 + self.key_len

    @property
    def min_context(self) -> int:
        return 1 + self.needle_len + self.query_len

    def needle_start(self) -> int:
        """Absolute insert offset for this task's depth fraction."""
        lo = 1
        hi = self.context_len - self.query_len - self.needle_len
        return lo + round(self.depth_fraction * (hi - lo))


def _fill_needle_rows(
    task: NeedleTask, rng: np.random.Generator, n: int, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Prompts (n, context_len) with needles at the given start offsets."""
    prompts = rng.integers(task.filler_lo, task.key_lo, size=(n, task.context_len))
    prompts[:, 0] = task.BOS
    keys = rng.integers(task.key_lo, task.value_lo, size=(n, task.key_len))
    values = rng.integers(task.value_lo, task.vocab, size=(n, task.value_len))
    q0 = task.context_len - task.query_len
    for i, s in enumerate(starts):
        prompts[i, s] = task.MARK
        prompts[i, s + 1 : s + 1 + task.key_len] = keys[i]
        prompts[i, s + 1 + task.key_len : s + task.needle_len] = values[i]
        prompts[i, q0] = task.QUERY
        prompts[i, q0 + 1 :] = keys[i]
    return prompts, values


def gen_needle_batch(task: NeedleTask, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic eval batch: (prompts, value targets, depth labels)."""
    if n < 1:
        raise ContractError("need n >= 1")
    rng = named_rng(task.seed, f"needle-{task.context_len}-{task.depth_fraction:.4f}")
    starts = np.full(n, task.needle_start())
    prompts, values = _fill_needle_rows(task, rng, n, starts)
    depths = np.full(n, task.depth_fraction)
    return prompts, values, depths


def gen_needle_train_batch(
    task: NeedleTask, rng: np.random.Generator, batch: int
) -> tuple[np.ndarray, np.ndarray]:
    """Training batch with random depths; value appended, mask on it.

    Returns (tokens (B, context_len + value_len), target_mask).
    """
    lo = 1
    hi = task.context_len - task.query_len - task.needle_len
    starts = rng.integers(lo, hi + 1, size=batch)
    prompts, values = _fill_needle_rows(task, rng, batch, starts)
    tokens = np.concatenate([prompts, values], axis=1)
    mask = np.zeros(tokens.shape)
    mask[:, task.context_len :] = 1.0
    return tokens, mask


def extract_needle_value(task: NeedleTask, prompt: np.ndarray) -> np.ndarray:
    """Rule-based oracle: read the value straight out of one prompt row."""
    marks = np.flatnonzero(prompt == task.MARK)
    if marks.size != 1:
        raise ContractError(f"expected exactly one needle mark, found {marks.size}")
    s = int(marks[0])
    return prompt[s + 1 + task.key_len : s + task.needle_len]


def retrieve_values(model: HybridModel, task: NeedleTask, prompts: np.ndarray) -> np.ndarray:
    """Greedy-decode value_len tokens after each prompt."""
    state, logits = prefill(model, prompts)
    out = []
    tok = sample_token(Tensor(logits.data[:, -1]))
    for _ in range(task.value_len):
        out.append(tok)
        logits = decode_step(model, state, tok)
        tok = sample_token(logits)
    return np.stack(out, axis=1)


@dataclass(frozen=True)
class NiahGrid:
    depths: tuple[float, ...]
    lengths: tuple[int, ...]
    accuracy: np.ndarray        # (len(lengths), len(depths))

    def cell(self, length: int, depth: float) -> float:
        return float(self.accuracy[self.lengths.index(length), self.depths.index(depth)])


def niah_eval(
    model: HybridModel,
    depths: tuple[float, ...],
    lengths: tuple[int, ...],
    trials: int = 20,
    task: NeedleTask | None = None,
) -> NiahGrid:
    """Exact-match retrieval accuracy per (length, depth) cell."""
    base = task if task is not None else NeedleTask()
    from dataclasses import replace

    acc = np.zeros((len(lengths), len(depths)))
    for i, length in enumerate(lengths):
        for j, depth in enumerate(depths):
            cell_task = replace(base, context_len=length, depth_fraction=depth)
            prompts, values, _ = gen_needle_batch(cell_task, trials)
            got = retrieve_values(model, cell_task, prompts)
            acc[i, j] = float(np.mean(np.all(got == values, axis=1)))
    return NiahGrid(tuple(depths), tuple(lengths), acc)


# ---------------------------------------------------------------------------
# position-wise NLL
# ---------------------------------------------------------------------------


def positionwise_nll(
    model: HybridModel,
    stream: np.ndarray,
    bucket: int,
    train_len: int | None = None,
) -> list[tuple[int, float, bool]]:
    """Mean next-token NLL per position bucket over one stream.

    Returns (bucket start, mean NLL, extrapolation flag) per bucket;
    the flag marks buckets whose start lies at or beyond train_len. The
    forward records no tape.
    """
    stream = np.asarray(stream).reshape(-1)
    if bucket < 1:
        raise ContractError("bucket size must be >= 1")
    if stream.size < max(bucket, 2):
        raise ContractError("stream too short for one bucket")
    with no_grad():
        logits = model.forward(stream.reshape(1, -1)).data[0]      # (S, V)
    targets = stream[1:]
    shifted = logits[:-1]
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    nll = logz - shifted[np.arange(targets.size), targets]          # (S-1,)
    out = []
    for start in range(0, targets.size, bucket):
        chunk = nll[start : start + bucket]
        flagged = train_len is not None and start >= train_len
        out.append((start, float(chunk.mean()), flagged))
    return out


def load_token_file(path: str, mode: str = "ids") -> np.ndarray:
    """Read a dataset file: newline-delimited integer ids, or raw bytes."""
    if mode == "ids":
        with open(path) as f:
            return np.array([int(line) for line in f if line.strip()], dtype=np.int64)
    if mode == "bytes":
        with open(path, "rb") as f:
            return np.frombuffer(f.read(), dtype=np.uint8).astype(np.int64)
    raise ContractError(f"mode must be 'ids' or 'bytes', got {mode!r}")


# ---------------------------------------------------------------------------
# schedule / optimizer / trainer
# ---------------------------------------------------------------------------

ADAM_BETAS = (0.9, 0.95)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; the `train` CLI's flags and defaults come from here."""

    steps: int = 500
    batch: int = 16
    lr: float = 3e-3
    warmup_frac: float = 0.25
    cooldown_frac: float = 0.20
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        fracs = (self.warmup_frac, self.cooldown_frac)
        if any(f < 0 for f in fracs) or sum(fracs) > 1.0 + 1e-9:
            raise ContractError("warmup and cooldown fractions must be >= 0 and sum to <= 1")
        if self.steps < 1 or self.batch < 1 or self.lr < 0:
            raise ContractError("steps and batch must be positive, lr >= 0")


def trapezoid_lr(step: int, cfg: TrainConfig) -> float:
    """Linear warmup, flat plateau, linear cooldown to zero.

    The plateau is every step that warmup and cooldown leave.
    """
    warmup = round(cfg.warmup_frac * cfg.steps)
    cooldown = round(cfg.cooldown_frac * cfg.steps)
    if step < warmup:
        return cfg.lr * (step + 1) / warmup
    if step >= cfg.steps - cooldown:
        return cfg.lr * (cfg.steps - step) / cooldown
    return cfg.lr


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float((t.grad ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for t in params.values():
            if t.grad is not None:
                t.grad *= scale
    return norm


class AdamW:
    """Decoupled weight decay; decay applies to matrices only."""

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.01):
        self.params = params
        self.weight_decay = weight_decay
        self.m = {k: np.zeros(t.shape) for k, t in params.items()}
        self.v = {k: np.zeros(t.shape) for k, t in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad ** 2
            update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            if p.data.ndim >= 2:
                update = update + self.weight_decay * p.data
            p.data = p.data - lr * update


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; carries the failing step."""


@dataclass
class StepStats:
    step: int
    loss: float
    lr: float
    grad_norm: float


@dataclass
class TrainResult:
    history: list[StepStats] = field(default_factory=list)

    @property
    def losses(self) -> np.ndarray:
        return np.array([s.loss for s in self.history])

    @property
    def final_loss(self) -> float:
        return self.history[-1].loss


def train_model(model: HybridModel, batch_fn, cfg: TrainConfig) -> TrainResult:
    """Minimal deterministic trainer.

    batch_fn(rng, batch_size) -> (tokens, target_mask or None); the rng
    is a single named generator so the whole data stream replays from
    cfg.seed.
    """
    params = model.parameters()
    opt = AdamW(params, weight_decay=cfg.weight_decay)
    rng = named_rng(cfg.seed, "train-data")
    result = TrainResult()
    for step in range(cfg.steps):
        tokens, mask = batch_fn(rng, cfg.batch)
        reset_tape()
        model.zero_grad()
        try:
            loss = masked_next_token_loss(model, tokens, mask)
        except NonFiniteError as err:
            raise TrainingDiverged(f"non-finite loss at step {step}: {err}") from err
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise TrainingDiverged(f"non-finite loss at step {step}: {loss_val}")
        backward(loss)
        gnorm = clip_global_norm(params, cfg.clip_norm)
        lr = trapezoid_lr(step, cfg)
        opt.step(lr)
        model.update_moe_balance()
        result.history.append(StepStats(step, loss_val, lr, gnorm))
    reset_tape()
    return result


def copy_batch_fn(vocab: int = COPY_VOCAB, seq_len: int = COPY_LEN):
    """batch_fn closure for the copy task."""
    def fn(rng: np.random.Generator, batch: int):
        return gen_copy_batch(rng, batch, vocab, seq_len)
    return fn


def needle_batch_fn(task: NeedleTask):
    """batch_fn closure for needle training at random depths."""
    def fn(rng: np.random.Generator, batch: int):
        return gen_needle_train_batch(task, rng, batch)
    return fn
