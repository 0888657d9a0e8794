"""Selective state-space mixer (multi-head, scalar per-head decay).

One block maps (batch, seq, d_model) -> (batch, seq, d_model):

  in_proj -> [z | x | B | C | dt]                      (one matmul)
  causal depthwise conv + SiLU over the concatenated (x, B, C) channels
  dt = softplus(dt_raw + dt_bias)
  per head h:   a_t = exp(-dt_t * exp(A_log_h))        (exact decay)
                h_t = a_t * h_{t-1} + dt_t * (B_t outer x_t)   (Euler input)
                y_t = C_t . h_t + D_h * x_t
  gated norm:   y <- rmsnorm(y * silu(z)) * w          (full block only)
  out_proj

B and C are one (B, L, N) pair per block, the single B/C group of
Mamba-2's SSD layer (Dao & Gu 2024), which every head reads by
broadcasting. The model path has one recurrence, `ssm_scan`: one fused
op with an analytic backward, in the SSD chunked form. All chunks of a
64-token slab are evaluated at once as masked (chunk x chunk) score
matrices, and only the state carried from chunk to chunk runs as a loop,
forward and in reverse. `causal_conv` is one op as well, over one
contiguous window of the conv history and the input. One block path,
`ssm_context` (plus norm and out projection in `ssm_forward`) with an
optional decode state, serves training, a prompt and a single decode
token. `ssm_step` is the composed reference: one
token through the fold `ssm_step_core`, made of tape ops. Folded over a
sequence it must equal the scan; the two orders are exactly causal and
agree to ~1e-12 at double precision, in values and in gradients.

The recurrent state per head is (d_head, d_state); its size does not
depend on sequence length, which is the whole point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .nn import param, proj_init, rms_norm, weight
from .tensor import ContractError, DimensionError, Tensor, _mm, exp, matmul, silu_mul, softplus

DT_INIT_RANGE = (0.001, 0.1)
A_INIT_RANGE = (1.0, 16.0)
SSM_CHUNK = 16          # tokens per scan chunk on the model path


@dataclass(frozen=True)
class SsmConfig:
    d_model: int
    d_ssm: int
    d_head: int
    d_state: int
    n_conv: int
    gated_norm: bool = True

    def __post_init__(self):
        if self.d_ssm % self.d_head != 0:
            raise ContractError(f"d_ssm {self.d_ssm} not a multiple of d_head {self.d_head}")
        if self.n_conv < 1:
            raise ContractError("n_conv must be >= 1")

    @property
    def n_heads(self) -> int:
        return self.d_ssm // self.d_head

    @property
    def conv_channels(self) -> int:
        return self.d_ssm + 2 * self.d_state

    @property
    def d_in_proj(self) -> int:
        return 2 * self.d_ssm + 2 * self.d_state + self.n_heads


def _dt_bias_init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse softplus of a log-uniform dt in DT_INIT_RANGE."""
    lo, hi = DT_INIT_RANGE
    dt = np.exp(rng.uniform(math.log(lo), math.log(hi), size=shape))
    return dt + np.log(-np.expm1(-dt))


def init_ssm_params(cfg: SsmConfig, rng: np.random.Generator | None, prefix: str = "ssm") -> dict:
    """Every SSM weight; with rng None, their shapes."""
    h = cfg.n_heads
    # dt_bias is drawn first though listed fifth: the draw order fixes
    # which weights a seed gives, and seeded runs and checkpoints rely on it
    dt_bias = weight(rng, (h,), _dt_bias_init)
    params = {
        f"{prefix}.in_proj": proj_init(rng, cfg.d_model, cfg.d_in_proj),
        f"{prefix}.conv.weight": param(rng, (cfg.conv_channels, cfg.n_conv), cfg.n_conv ** -0.5),
        f"{prefix}.conv.bias": weight(rng, (cfg.conv_channels,), 0.0),
        f"{prefix}.A_log": weight(rng, (h,), lambda r, s: np.log(r.uniform(*A_INIT_RANGE, size=s))),
        f"{prefix}.dt_bias": dt_bias,
        f"{prefix}.D": weight(rng, (h,), 1.0),
    }
    if cfg.gated_norm:
        params[f"{prefix}.norm.weight"] = weight(rng, (cfg.d_ssm,), 1.0)
    params[f"{prefix}.out_proj"] = proj_init(rng, cfg.d_ssm, cfg.d_model)
    return params


def causal_conv(u: Tensor, weight: Tensor, bias: Tensor, history: Tensor | None = None) -> Tensor:
    """Depthwise causal conv along axis 1, then SiLU, as one op: u (B, L, C), weight (C, K).

    a[t] = sum over taps i of w[:, i] * u[t + i - (K - 1)] + bias, and
    the output is silu(a). Rows before u come from `history` (B, K - 1,
    C), the raw inputs just before u; None means u starts the sequence
    and those terms vanish. The history (or K - 1 zero rows) and u are
    copied into one contiguous window, so a strided u is read once; tap
    i adds the window's rows [i, i + L) into a, in tap order, so a split
    sequence sums every row as the whole one does. Values and gradients
    are byte-equal to ``silu(conv(...))``. The tape keeps a, not the
    window: the backward rebuilds the window and s = sigmoid(a), and
    correlates the gradient at a with the same shifted views.
    """
    channels, k = weight.shape
    if u.shape[-1] != channels:
        raise DimensionError(f"conv channels {channels} vs input {u.shape[-1]}")
    seq = u.shape[1]
    w = weight.data
    inputs = (u, weight, bias) if history is None else (u, weight, bias, history)

    def window():
        front = np.zeros((u.shape[0], k - 1, channels)) if history is None else history.data
        return np.concatenate([front, u.data], axis=1)

    win = window()
    a = win[:, :seq] * w[:, 0]
    for tap in range(1, k):
        a += win[:, tap : tap + seq] * w[:, tap]
    a += bias.data

    def bwd(g_out):
        # silu's gradient g * s * (1 + a * (1 - s)), in its product order
        s = tensor._sigmoid(a)
        g = g_out * s
        np.subtract(1.0, s, out=s)
        s *= a
        s += 1.0
        g *= s
        win = window()
        g_win = np.zeros(win.shape)
        g_w = np.empty_like(w)
        for tap in range(k):
            g_win[:, tap : tap + seq] += g * w[:, tap]
            g_w[:, tap] = np.einsum("blc,blc->c", g, win[:, tap : tap + seq])
        # the fourth gradient is the history's; with no history, zip drops it
        return g_win[:, k - 1 :], g_w, g.sum(axis=(0, 1)), g_win[:, : k - 1]

    return tensor._make("causal_conv", a * tensor._sigmoid(a), inputs, bwd)


def ssm_featurize(
    x: Tensor,
    weights: dict[str, Tensor],
    cfg: SsmConfig,
    prefix: str = "ssm",
    state: SsmState | None = None,
) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
    """in_proj + conv + SiLU + dt softplus for a whole sequence.

    x: (B, L, d_model). Returns (z, xs, Bm, Cm, dt) with shapes
    (B, L, d_ssm), (B, L, H, P), (B, L, N), (B, L, N), (B, L, H);
    dt is post-softplus. One in_proj matmul is sliced into z, x | B | C
    and dt, and one conv + SiLU over x | B | C into x, B and C: views of
    activations, never of a weight, and B and C are plain slices. With a
    decode `state`, the conv continues from `state.conv_buf`, which then
    moves on to the last n_conv - 1 raw x | B | C rows.
    """
    if x.ndim != 3:
        raise DimensionError(f"ssm expects (batch, seq, d_model), got {x.shape}")
    if state is not None and state.h.shape[0] != x.shape[0]:
        raise ContractError(f"this SSM state holds batch {state.h.shape[0]}, got {x.shape[0]}")
    d, n = cfg.d_ssm, cfg.d_state
    b, l = x.shape[0], x.shape[1]
    proj = matmul(x, weights[f"{prefix}.in_proj"])       # (B, L, d_in_proj)
    raw = proj[:, :, d : 2 * d + 2 * n]
    history = None if state is None else state.conv_buf
    conved = causal_conv(raw, weights[f"{prefix}.conv.weight"], weights[f"{prefix}.conv.bias"], history)
    keep = cfg.n_conv - 1
    if state is not None and keep > 0:
        # a fresh array, so the ring does not pin the in_proj output
        tail = history.data[:, min(l, keep) :]
        state.conv_buf = Tensor(np.concatenate([tail, raw.data[:, -keep:]], axis=1))
    xs = conved[:, :, :d].reshape(b, l, cfg.n_heads, cfg.d_head)
    dt = softplus(proj[:, :, 2 * d + 2 * n :] + weights[f"{prefix}.dt_bias"])
    return proj[:, :, :d], xs, conved[:, :, d : d + n], conved[:, :, d + n :], dt


# Tokens per scan slab. The scan walks the sequence in slabs of whole
# chunks and carries the state across them, so its (B, H, n_chunks, C, C)
# scratch never spans more than one slab; a size, not a knob.
_SCAN_SLAB = 64

# (B, n_chunks, C, ...) -> kernel layout, for x (.., H, P), dt (.., H) and
# B, C (.., N): every head reads the one B and C by broadcasting, with no copy
_X_PERM = (0, 3, 1, 2, 4)       # -> (B, H, nc, C, P)
_DT_PERM = (0, 3, 1, 2)         # -> (B, H, nc, C)
_BC_PERM = (0, 1, 2, 3)         # -> (B, nc, C, N)


def _to_chunks(a: np.ndarray, start: int, stop: int, chunk: int, perm: tuple) -> np.ndarray:
    """Rows [start, stop) of a (B, L, ...) array in chunks of `chunk`, permuted by `perm`.

    A partial last chunk is zero-padded: a zero dt leaves the state as it
    is, and a zero x, B or C adds exactly nothing.
    """
    part = a[:, start:stop]
    nc = -(-part.shape[1] // chunk)
    pad = nc * chunk - part.shape[1]
    if pad:
        part = np.concatenate([part, np.zeros((part.shape[0], pad) + part.shape[2:])], axis=1)
    part = part.reshape(part.shape[0], nc, chunk, *part.shape[2:])
    return np.ascontiguousarray(part.transpose(perm))


def _from_chunks(a: np.ndarray, perm: tuple, rows: int) -> np.ndarray:
    """Inverse of `_to_chunks`: the first `rows` rows, as (B, rows, ...)."""
    a = a.transpose(np.argsort(perm))
    return a.reshape(a.shape[0], -1, *a.shape[3:])[:, :rows]


def ssm_scan(
    xs: Tensor,
    dt: Tensor,
    bm: Tensor,
    cm: Tensor,
    a_log: Tensor,
    d_skip: Tensor,
    h0: Tensor | None = None,
    chunk: int = SSM_CHUNK,
    return_state: bool = False,
):
    """Chunked causal scan as one op. xs (B, L, H, P), dt (B, L, H), bm/cm (B, L, N).

    The SSD chunked form (Dao & Gu 2024, section 6). With s the per-chunk
    cumulative log decay, each chunk's output is (C B^T * exp(s_i - s_j)
    * dt_j) x over j <= i, for all chunks of a slab at once, plus the
    state carried into the chunk, read out by C and decayed by exp(s_i).
    B and C are shared by every head, so the scores C B^T are one
    (B, nc, C, C) product that broadcasts over the heads. Only the state
    recurrence across chunks is a loop; the backward runs it in reverse.
    Returns y (B, L, H, P) including the D skip, and optionally the final
    state (B, H, P, N), which under a recording tape carries its own
    exact gradient.

    The decay matrix is exp((s_i - s_j) * lower), lower the 0/1 lower
    triangle: the lanes above the diagonal read exp(0) = 1, so they never
    overflow for any sign of dt, and the scores C B^T are masked to zero
    there instead. Under a recording tape a slab keeps what the backward
    cannot rebuild in one pass (see `tensor`); its chunked x, the
    intra-chunk map w and the end inputs v are rebuilt from the inputs
    and the kept products, one copy and four passes.
    """
    if chunk < 1:
        raise ContractError("chunk size must be >= 1")
    b, l, h, p = xs.shape
    n = bm.shape[-1]
    chunk = min(chunk, l)
    slab = chunk * max(1, _SCAN_SLAB // chunk)
    inputs = (xs, dt, bm, cm, a_log, d_skip) + (() if h0 is None else (h0,))
    keep = tensor.default_tape().enabled and any(t.requires_grad for t in inputs)

    decay = np.exp(a_log.data).reshape(h, 1, 1)
    d_eye = d_skip.data.reshape(h, 1, 1, 1) * np.eye(chunk)
    lower = np.tri(chunk)

    def intra_map(lmat, dtc, scores):
        """w + D I, the intra-chunk map: y = (w + D I) x, w = scores * exp(s_i - s_j) * dt_j."""
        w = lmat * dtc[..., None, :]
        w *= scores[:, None]
        w += d_eye
        return w

    y = np.empty(xs.shape)
    state = np.zeros((b, h, p, n)) if h0 is None else h0.data
    slabs = []
    for start in range(0, l, slab):
        stop = min(start + slab, l)
        xc = _to_chunks(xs.data, start, stop, chunk, _X_PERM)
        dtc = _to_chunks(dt.data, start, stop, chunk, _DT_PERM)
        bc = _to_chunks(bm.data, start, stop, chunk, _BC_PERM)
        cc = _to_chunks(cm.data, start, stop, chunk, _BC_PERM)

        s = np.cumsum(-dtc * decay, axis=-1)                     # <= 0, falling, for dt >= 0
        lmat = s[..., :, None] - s[..., None, :]                 # exp(s_i - s_j) on j <= i, 1 above
        lmat *= lower
        np.exp(lmat, out=lmat)
        scores = _mm(cc, bc.swapaxes(-1, -2))                    # (B, nc, C, C)
        scores *= lower                                          # 0 above the diagonal, so w is too
        w = intra_map(lmat, dtc, scores)                         # (B, H, nc, C, C)
        y_c = _mm(w, xc)

        to_end = np.exp(s[..., -1:] - s)                         # decay to the chunk end
        wend = to_end * dtc
        v = wend[..., None] * bc[:, None]                        # (B, H, nc, C, N)
        delta = _mm(xc.swapaxes(-1, -2), v)                      # (B, H, nc, P, N)
        a_end = np.exp(s[..., -1])
        entry_k = np.empty((delta.shape[2],) + state.shape)      # state entering each chunk
        for k in range(len(entry_k)):
            entry_k[k] = state
            state = a_end[..., k, None, None] * state + delta[:, :, k]
        entry = np.moveaxis(entry_k, 0, 2)                       # (B, H, nc, P, N)
        es = np.exp(s)[..., None]
        read = _mm(cc[:, None], entry.swapaxes(-1, -2))
        read *= es
        y_c += read
        y[:, start:stop] = _from_chunks(y_c, _X_PERM, stop - start)
        if keep:
            slabs.append((start, stop, dtc, bc, cc, lmat, scores, to_end, wend, a_end, entry_k, es))

    def bwd(gy, g_final):
        gx_all, gdt_all = np.empty(xs.shape), np.empty(dt.shape)
        gb_all, gc_all = np.empty(bm.shape), np.empty(cm.shape)
        g_decay, g_d = np.zeros(h), np.zeros(h)
        carry = np.zeros((b, h, p, n)) if g_final is None else g_final.reshape(b, h, p, n)
        gy_all = gy.reshape(b, l, h, p)
        for saved in reversed(slabs):
            start, stop, dtc, bc, cc, lmat, scores, to_end, wend, a_end, entry_k, es = saved
            rows = stop - start
            gyc = _to_chunks(gy_all, start, stop, chunk, _X_PERM)
            xc = _to_chunks(xs.data, start, stop, chunk, _X_PERM)  # rebuilt, as are w and v
            w = intra_map(lmat, dtc, scores)
            entry = np.moveaxis(entry_k, 0, 2)
            # readout: y += exp(s) * (C entry^T)
            g_read = gyc * es
            g_ce = _mm(g_read, entry)                            # (B, H, nc, C, N)
            g_s = np.einsum("bhkcn,bkcn->bhkc", g_ce, cc)
            g_cc = g_ce.sum(axis=1)
            g_entry = _mm(g_read.swapaxes(-1, -2), cc[:, None])
            # intra-chunk and skip: y = (w + D I) x, w = scores * exp(s_i - s_j) * dt_j
            gx = _mm(w.swapaxes(-1, -2), gyc)
            g_w = _mm(gyc, xc.swapaxes(-1, -2))
            g_d += np.einsum("bhkii->h", g_w)
            g_w *= lmat                                          # d/d(scores * dt_j)
            g_scores = np.einsum("bhkij,bhkj->bkij", g_w, dtc)
            g_scores *= lower                                    # the masked lanes carry none
            g_w *= scores[:, None]                               # d/d dt_j, before the sum over i
            g_dt = g_w.sum(axis=-2)
            # d/d s_i - d/d s_j of exp(s_i - s_j), with g_w * w summed over j and over i
            g_s += np.einsum("bhkij,bhkj->bhki", g_w, dtc)
            g_s -= g_dt * dtc
            g_cc += _mm(g_scores, bc)
            g_bc = _mm(g_scores.swapaxes(-1, -2), cc)
            # recurrence in reverse: entry[k + 1] = a_end[k] * entry[k] + delta[k]
            g_delta = np.empty_like(entry_k)
            g_end = np.empty(a_end.shape[-1:] + a_end.shape[:-1])
            for k in reversed(range(len(entry_k))):
                g_delta[k] = carry
                g_end[k] = np.einsum("bhpn,bhpn->bh", carry, entry_k[k])
                carry = carry * a_end[..., k, None, None]
                carry += g_entry[:, :, k]
            g_end = np.moveaxis(g_end, 0, -1) * a_end            # d/d s at each chunk end
            g_delta = np.moveaxis(g_delta, 0, 2)
            # delta = x^T v, v = exp(s_end - s) * dt * B
            gx += _mm(wend[..., None] * bc[:, None], g_delta.swapaxes(-1, -2))
            g_v = _mm(xc, g_delta)                               # (B, H, nc, C, N)
            g_bc += np.einsum("bhkcn,bhkc->bkcn", g_v, wend)
            g_wend = np.einsum("bhkcn,bkcn->bhkc", g_v, bc)
            g_dt += g_wend * to_end
            q_end = g_wend * wend
            g_end += q_end.sum(axis=-1)
            g_s -= q_end
            g_s[..., -1] += g_end
            # s = cumsum(-dt * A): one reverse cumsum, then the product rule
            g_alpha = np.cumsum(g_s[..., ::-1], axis=-1)[..., ::-1]
            g_dt -= decay * g_alpha
            g_decay -= np.einsum("bhkc,bhkc->h", dtc, g_alpha)
            gx_all[:, start:stop] = _from_chunks(gx, _X_PERM, rows)
            gdt_all[:, start:stop] = _from_chunks(g_dt, _DT_PERM, rows)
            gb_all[:, start:stop] = _from_chunks(g_bc, _BC_PERM, rows)
            gc_all[:, start:stop] = _from_chunks(g_cc, _BC_PERM, rows)
        return gx_all, gdt_all, gb_all, gc_all, g_decay * decay[:, 0, 0], g_d, carry

    if not return_state:
        return tensor._make("ssm_scan", y, inputs, lambda gy: bwd(gy, None))
    if not keep:
        return tensor._make("ssm_scan", y, inputs, None), Tensor(state)
    # one node for both outputs: y and the state are read back as slices of it
    packed = tensor._make(
        "ssm_scan", np.concatenate([y.ravel(), state.ravel()]), inputs,
        lambda gp: bwd(gp[: y.size], gp[y.size :]),
    )
    return packed[: y.size].reshape(y.shape), packed[y.size :].reshape(state.shape)


def ssm_step_core(
    x_t: Tensor,
    dt_t: Tensor,
    b_t: Tensor,
    c_t: Tensor,
    a_log: Tensor,
    d_skip: Tensor,
    h_state: Tensor,
) -> tuple[Tensor, Tensor]:
    """One recurrence step post-featurization.

    x_t (B, H, P), dt_t (B, H), b_t/c_t (B, N), h_state (B, H, P, N);
    the one B and C pair broadcasts over the heads. Returns (y_t (B, H, P),
    new state).
    """
    b, h, p = x_t.shape
    n = b_t.shape[-1]
    a_bar = exp(-(dt_t * exp(a_log)))                     # (B, H)
    inject = dt_t.reshape(b, h, 1, 1) * (x_t.reshape(b, h, p, 1) * b_t.reshape(b, 1, 1, n))
    h_new = a_bar.reshape(b, h, 1, 1) * h_state + inject
    y = matmul(h_new, c_t.reshape(b, 1, n, 1)).reshape(b, h, p)
    return y + x_t * d_skip.reshape(1, h, 1), h_new


@dataclass
class SsmState:
    """Decode-time recurrent state for one block (batch of 1 or more)."""

    conv_buf: Tensor  # (B, n_conv - 1, conv_channels), most recent last
    h: Tensor         # (B, H, P, N)


def init_ssm_state(cfg: SsmConfig, batch: int = 1) -> SsmState:
    return SsmState(
        conv_buf=Tensor(np.zeros((batch, cfg.n_conv - 1, cfg.conv_channels))),
        h=Tensor(np.zeros((batch, cfg.n_heads, cfg.d_head, cfg.d_state))),
    )


def ssm_context(
    x: Tensor,
    weights: dict[str, Tensor],
    cfg: SsmConfig,
    chunk: int = SSM_CHUNK,
    prefix: str = "ssm",
    state: SsmState | None = None,
) -> Tensor:
    """Featurize, scan, silu(z) gate: (B, L, d_model) -> (B, L, H, P).

    `ssm_scan` runs for every length, one token included. With a decode
    `state` the sequence continues from it, and the state is advanced in
    place to the end of the sequence.
    """
    z, xs, bm, cm, dt = ssm_featurize(x, weights, cfg, prefix, state)
    a_log, d_skip = weights[f"{prefix}.A_log"], weights[f"{prefix}.D"]
    if state is None:
        y = ssm_scan(xs, dt, bm, cm, a_log, d_skip, chunk=chunk)
    else:
        y, state.h = ssm_scan(xs, dt, bm, cm, a_log, d_skip, h0=state.h, chunk=chunk, return_state=True)
    return silu_mul(z.reshape(xs.shape), y)


def ssm_forward(
    x: Tensor,
    weights: dict[str, Tensor],
    cfg: SsmConfig,
    chunk: int = SSM_CHUNK,
    state: SsmState | None = None,
) -> Tensor:
    """Full block pass: (B, L, d_model) -> (B, L, d_model).

    `ssm_context`, then the optional RMS norm weight and the out
    projection; `state` is advanced as there.
    """
    b, l = x.shape[0], x.shape[1]
    gated = ssm_context(x, weights, cfg, chunk, state=state).reshape(b, l, cfg.d_ssm)
    if cfg.gated_norm:
        gated = rms_norm(gated, weights["ssm.norm.weight"])
    return matmul(gated, weights["ssm.out_proj"])


def ssm_step(
    x_t: Tensor,
    weights: dict[str, Tensor],
    cfg: SsmConfig,
    state: SsmState,
) -> tuple[Tensor, SsmState]:
    """The composed reference for one token: x_t (B, d_model) -> (B, d_model).

    `ssm_featurize` against a copy of the state, `ssm_step_core`, the gate,
    norm and out projection; returns a new state, leaving `state` alone.
    """
    if x_t.ndim != 2:
        raise DimensionError(f"ssm_step expects (batch, d_model), got {x_t.shape}")
    b, h = x_t.shape[0], cfg.n_heads
    new = SsmState(conv_buf=state.conv_buf, h=state.h)
    z, xs, bm, cm, dt = ssm_featurize(x_t.reshape(b, 1, cfg.d_model), weights, cfg, state=new)
    y, new.h = ssm_step_core(
        xs.reshape(b, h, cfg.d_head), dt.reshape(b, h), bm.reshape(b, cfg.d_state),
        cm.reshape(b, cfg.d_state), weights["ssm.A_log"], weights["ssm.D"], state.h,
    )
    gated = silu_mul(z.reshape(b, h, cfg.d_head), y).reshape(b, cfg.d_ssm)
    if cfg.gated_norm:
        gated = rms_norm(gated, weights["ssm.norm.weight"])
    return matmul(gated, weights["ssm.out_proj"]), new
