"""Selective state-space mixer (multi-head, scalar per-head decay).

One block maps (batch, seq, d_model) -> (batch, seq, d_model):

  in_proj -> [z | x | B | C | dt]
  causal depthwise conv + SiLU over the concatenated (x, B, C) channels
  dt = softplus(dt_raw + dt_bias)
  per head h:   a_t = exp(-dt_t * exp(A_log_h))        (exact decay)
                h_t = a_t * h_{t-1} + dt_t * (B_t outer x_t)   (Euler input)
                y_t = C_t . h_t + D_h * x_t
  gated norm:   y <- rmsnorm(y * silu(z)) * w          (full block only)
  out_proj

Two equivalent evaluation orders are provided: a token-by-token fold
(`ssm_step_core`) and a chunked matrix form (`ssm_scan`) that rewrites
each chunk as a masked score matrix plus a carried inter-chunk state.
Both are exactly causal; they agree to ~1e-12 at double precision and
the tests pin that equivalence. There is one block path,
`ssm_context` (plus norm and out projection in `ssm_forward`), with an
optional decode state: a sequence runs the scan, and a single token
against a state runs the fold. `ssm_step` is that path on one token;
a prompt runs `ssm_forward` against `init_ssm_state`.

The recurrent state per head is (d_head, d_state); its size does not
depend on sequence length, which is the whole point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import proj_init, rms_norm
from .tensor import (
    ContractError,
    DimensionError,
    Tensor,
    concat,
    cumsum,
    exp,
    matmul,
    pad_front,
    silu,
    softplus,
)

DT_INIT_RANGE = (0.001, 0.1)
A_INIT_RANGE = (1.0, 16.0)


@dataclass(frozen=True)
class SsmConfig:
    d_model: int
    d_ssm: int
    d_head: int
    d_state: int
    n_conv: int
    n_groups: int = 1
    gated_norm: bool = True

    def __post_init__(self):
        if self.d_ssm % self.d_head != 0:
            raise ContractError(f"d_ssm {self.d_ssm} not a multiple of d_head {self.d_head}")
        if self.n_heads % self.n_groups != 0:
            raise ContractError(f"n_heads {self.n_heads} not a multiple of n_groups {self.n_groups}")
        if self.n_conv < 1:
            raise ContractError("n_conv must be >= 1")

    @property
    def n_heads(self) -> int:
        return self.d_ssm // self.d_head

    @property
    def conv_channels(self) -> int:
        return self.d_ssm + 2 * self.n_groups * self.d_state

    @property
    def d_in_proj(self) -> int:
        return 2 * self.d_ssm + 2 * self.n_groups * self.d_state + self.n_heads


def ssm_param_shapes(cfg: SsmConfig, prefix: str = "ssm") -> dict[str, tuple[int, ...]]:
    shapes = {
        f"{prefix}.in_proj": (cfg.d_model, cfg.d_in_proj),
        f"{prefix}.conv.weight": (cfg.conv_channels, cfg.n_conv),
        f"{prefix}.conv.bias": (cfg.conv_channels,),
        f"{prefix}.A_log": (cfg.n_heads,),
        f"{prefix}.dt_bias": (cfg.n_heads,),
        f"{prefix}.D": (cfg.n_heads,),
    }
    if cfg.gated_norm:
        shapes[f"{prefix}.norm.weight"] = (cfg.d_ssm,)
    shapes[f"{prefix}.out_proj"] = (cfg.d_ssm, cfg.d_model)
    return shapes


def init_ssm_params(cfg: SsmConfig, rng: np.random.Generator, prefix: str = "ssm") -> dict[str, Tensor]:
    lo, hi = DT_INIT_RANGE
    dt = np.exp(rng.uniform(math.log(lo), math.log(hi), size=cfg.n_heads))
    dt_bias = dt + np.log(-np.expm1(-dt))        # inverse softplus
    params = {
        f"{prefix}.in_proj": proj_init(rng, cfg.d_model, cfg.d_in_proj),
        f"{prefix}.conv.weight": Tensor(
            rng.normal(0.0, cfg.n_conv ** -0.5, size=(cfg.conv_channels, cfg.n_conv)),
            requires_grad=True,
        ),
        f"{prefix}.conv.bias": Tensor(np.zeros(cfg.conv_channels), requires_grad=True),
        f"{prefix}.A_log": Tensor(
            np.log(rng.uniform(A_INIT_RANGE[0], A_INIT_RANGE[1], size=cfg.n_heads)),
            requires_grad=True,
        ),
        f"{prefix}.dt_bias": Tensor(dt_bias, requires_grad=True),
        f"{prefix}.D": Tensor(np.ones(cfg.n_heads), requires_grad=True),
    }
    if cfg.gated_norm:
        params[f"{prefix}.norm.weight"] = Tensor(np.ones(cfg.d_ssm), requires_grad=True)
    params[f"{prefix}.out_proj"] = proj_init(rng, cfg.d_ssm, cfg.d_model)
    return params


def _repeat_groups(t: Tensor, rep: int) -> Tensor:
    """(..., G, N) -> (..., G*rep, N) with each group repeated rep times."""
    if rep == 1:
        return t
    *lead, g, n = t.shape
    ones = Tensor(np.ones((1,) * len(lead) + (1, rep, 1)))
    return (t.reshape(*lead, g, 1, n) * ones).reshape(*lead, g * rep, n)


def causal_conv(u: Tensor, weight: Tensor, bias: Tensor, history: Tensor | None = None) -> Tensor:
    """Depthwise causal conv along axis 1: u (B, L, C), weight (C, K).

    `history` (B, K - 1, C) holds the raw inputs just before u; None
    means u starts the sequence, and zeros are used instead.
    """
    channels, k = weight.shape
    if u.shape[-1] != channels:
        raise DimensionError(f"conv channels {channels} vs input {u.shape[-1]}")
    seq = u.shape[1]
    if history is None:
        padded = pad_front(u, k - 1, axis=1)
    else:
        padded = concat([history, u], axis=1)
    out = None
    for tap in range(k):
        term = padded[:, tap : tap + seq, :] * weight[:, tap]
        out = term if out is None else out + term
    return out + bias


def ssm_featurize(
    x: Tensor,
    weights: dict[str, Tensor],
    cfg: SsmConfig,
    prefix: str = "ssm",
    state: SsmState | None = None,
) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor, Tensor]:
    """in_proj + conv + SiLU + dt softplus for a whole sequence.

    x: (B, L, d_model). Returns (z, xs, Bm, Cm, dt, conv_in) with shapes
    (B, L, d_ssm), (B, L, H, P), (B, L, G, N), (B, L, G, N), (B, L, H),
    (B, L, conv_channels); dt is post-softplus, conv_in is the raw
    pre-conv channel block. With a decode `state`, the conv continues
    from its ring, and the ring then moves on to the last n_conv - 1
    raw inputs.
    """
    if x.ndim != 3:
        raise DimensionError(f"ssm expects (batch, seq, d_model), got {x.shape}")
    proj = matmul(x, weights[f"{prefix}.in_proj"])
    d, gn, h = cfg.d_ssm, cfg.n_groups * cfg.d_state, cfg.n_heads
    z = proj[:, :, :d]
    conv_in = proj[:, :, d : 2 * d + 2 * gn]
    dt_raw = proj[:, :, 2 * d + 2 * gn :]
    history = None if state is None else state.conv_buf
    conved = silu(causal_conv(
        conv_in, weights[f"{prefix}.conv.weight"], weights[f"{prefix}.conv.bias"], history
    ))
    keep = cfg.n_conv - 1
    if state is not None and keep > 0:
        recent = np.concatenate([history.data, conv_in.data[:, -keep:]], axis=1)
        # a copy, so the ring does not pin the whole prompt behind a view
        state.conv_buf = Tensor(recent[:, -keep:].copy())
    b, l = x.shape[0], x.shape[1]
    xs = conved[:, :, :d].reshape(b, l, h, cfg.d_head)
    bm = conved[:, :, d : d + gn].reshape(b, l, cfg.n_groups, cfg.d_state)
    cm = conved[:, :, d + gn :].reshape(b, l, cfg.n_groups, cfg.d_state)
    dt = softplus(dt_raw + weights[f"{prefix}.dt_bias"])
    return z, xs, bm, cm, dt, conv_in


# decay exponents on masked (non-causal) score lanes are clamped here
# before exp so the scratch never overflows; the lanes are then zeroed
# exactly by the mask product.
_MASK_CLAMP = 100.0


def ssm_scan(
    xs: Tensor,
    dt: Tensor,
    bm: Tensor,
    cm: Tensor,
    a_log: Tensor,
    d_skip: Tensor,
    h0: Tensor | None = None,
    chunk: int = 16,
    return_state: bool = False,
):
    """Chunked causal scan. xs (B, L, H, P), dt (B, L, H), bm/cm (B, L, G, N).

    Each chunk is evaluated as an intra-chunk masked score matrix plus
    the decayed contribution of the carried state; the state is then
    folded forward. Returns y (B, L, H, P) including the D skip, and
    optionally the final state (B, H, P, N).
    """
    if chunk < 1:
        raise ContractError("chunk size must be >= 1")
    b, l, h, p = xs.shape
    n = bm.shape[-1]
    rep = h // bm.shape[-2]
    h_state = h0 if h0 is not None else Tensor(np.zeros((b, h, p, n)))

    decays = exp(a_log)                                   # (H,)
    pieces = []
    for start in range(0, l, chunk):
        cn = min(chunk, l - start)
        sl = slice(start, start + cn)
        x_c = xs[:, sl].swapaxes(1, 2)                    # (B, H, Cn, P)
        dt_c = dt[:, sl].swapaxes(1, 2)                   # (B, H, Cn)
        b_c = _repeat_groups(bm[:, sl], rep).swapaxes(1, 2)   # (B, H, Cn, N)
        c_c = _repeat_groups(cm[:, sl], rep).swapaxes(1, 2)   # (B, H, Cn, N)

        alpha = -(dt_c * decays.reshape(1, h, 1))         # log per-step decay, <= 0
        s_cum = cumsum(alpha, axis=2)                     # (B, H, Cn)
        s_col = s_cum.reshape(b, h, cn, 1)
        s_row = s_cum.reshape(b, h, 1, cn)

        mask = np.tril(np.ones((cn, cn)))
        gap = (s_col - s_row) * mask - _MASK_CLAMP * (1.0 - mask)
        decay_mat = exp(gap) * mask                       # exactly 0 above diagonal

        scores = matmul(c_c, b_c.swapaxes(-1, -2))        # (B, H, Cn, Cn)
        m = scores * decay_mat * dt_c.reshape(b, h, 1, cn)
        y_intra = matmul(m, x_c)                          # (B, H, Cn, P)

        y_state = exp(s_cum).reshape(b, h, cn, 1) * matmul(c_c, h_state.swapaxes(-1, -2))

        s_last = s_cum[:, :, cn - 1 : cn]                 # (B, H, 1)
        w_end = exp(s_last - s_cum) * dt_c                # (B, H, Cn)
        h_in = matmul(x_c.swapaxes(-1, -2), w_end.reshape(b, h, cn, 1) * b_c)
        h_state = exp(s_last).reshape(b, h, 1, 1) * h_state + h_in

        y_c = y_intra + y_state + x_c * d_skip.reshape(1, h, 1, 1)
        pieces.append(y_c.swapaxes(1, 2))                 # (B, Cn, H, P)

    y = pieces[0] if len(pieces) == 1 else concat(pieces, axis=1)
    if return_state:
        return y, h_state
    return y


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

    x_t (B, H, P), dt_t (B, H), b_t/c_t (B, G, N), h_state (B, H, P, N).
    Returns (y_t (B, H, P), new state).
    """
    b, h, p = x_t.shape
    rep = h // b_t.shape[-2]
    b_h = _repeat_groups(b_t, rep)                        # (B, H, N)
    c_h = _repeat_groups(c_t, rep)
    a_bar = exp(-(dt_t * exp(a_log)))                     # (B, H)
    inject = dt_t.reshape(b, h, 1, 1) * (
        x_t.reshape(b, h, p, 1) * b_h.reshape(b, h, 1, -1)
    )
    h_new = a_bar.reshape(b, h, 1, 1) * h_state + inject
    y = matmul(h_new, c_h.reshape(b, h, -1, 1)).reshape(b, h, p)
    return y + x_t * d_skip.reshape(1, h, 1), h_new


@dataclass
class SsmState:
    """Decode-time recurrent state for one block (batch of 1 or more)."""

    conv_buf: Tensor  # (B, n_conv - 1, conv_channels), most recent last
    h: Tensor         # (B, H, P, N)


def init_ssm_state(cfg: SsmConfig, batch: int = 1) -> SsmState:
    return SsmState(
        conv_buf=Tensor(np.zeros((batch, max(cfg.n_conv - 1, 0), cfg.conv_channels))),
        h=Tensor(np.zeros((batch, cfg.n_heads, cfg.d_head, cfg.d_state))),
    )


def ssm_context(
    x: Tensor,
    weights: dict[str, Tensor],
    cfg: SsmConfig,
    chunk: int = 16,
    prefix: str = "ssm",
    state: SsmState | None = None,
) -> Tensor:
    """Featurize, scan, silu(z) gate: (B, L, d_model) -> (B, L, H, P).

    With a decode `state` the sequence continues from it, and the state
    is advanced in place to the end of the sequence. One token against
    a state runs `ssm_step_core`, the fold the scan is tested against.
    """
    z, xs, bm, cm, dt, _ = ssm_featurize(x, weights, cfg, prefix, state)
    a_log, d_skip = weights[f"{prefix}.A_log"], weights[f"{prefix}.D"]
    b, l = x.shape[0], x.shape[1]
    if state is None:
        y = ssm_scan(xs, dt, bm, cm, a_log, d_skip, chunk=chunk)
    elif l == 1:
        h, g = cfg.n_heads, cfg.n_groups
        y, state.h = ssm_step_core(
            xs.reshape(b, h, cfg.d_head), dt.reshape(b, h), bm.reshape(b, g, cfg.d_state),
            cm.reshape(b, g, cfg.d_state), a_log, d_skip, state.h,
        )
        y = y.reshape(b, 1, h, cfg.d_head)
    else:
        y, state.h = ssm_scan(
            xs, dt, bm, cm, a_log, d_skip, h0=state.h, chunk=chunk, return_state=True
        )
    return y * silu(z).reshape(b, l, cfg.n_heads, cfg.d_head)


def ssm_forward(
    x: Tensor,
    weights: dict[str, Tensor],
    cfg: SsmConfig,
    chunk: int = 16,
    prefix: str = "ssm",
    state: SsmState | None = None,
) -> Tensor:
    """Full block pass: (B, L, d_model) -> (B, L, d_model).

    `ssm_context`, then the optional RMS norm weight and the out
    projection; `state` is advanced as there.
    """
    b, l = x.shape[0], x.shape[1]
    gated = ssm_context(x, weights, cfg, chunk, prefix, state).reshape(b, l, cfg.d_ssm)
    if cfg.gated_norm:
        gated = rms_norm(gated, weights[f"{prefix}.norm.weight"])
    return matmul(gated, weights[f"{prefix}.out_proj"])


def ssm_step(
    x_t: Tensor,
    weights: dict[str, Tensor],
    cfg: SsmConfig,
    state: SsmState,
    prefix: str = "ssm",
) -> tuple[Tensor, SsmState]:
    """Single-token block pass: x_t (B, d_model) -> (B, d_model).

    `ssm_forward` on one token; returns the output and a new state,
    leaving `state` as it was.
    """
    if x_t.ndim != 2:
        raise DimensionError(f"ssm_step expects (batch, d_model), got {x_t.shape}")
    b = x_t.shape[0]
    new = SsmState(conv_buf=state.conv_buf, h=state.h)
    out = ssm_forward(x_t.reshape(b, 1, cfg.d_model), weights, cfg, prefix=prefix, state=new)
    return out.reshape(b, cfg.d_model), new
