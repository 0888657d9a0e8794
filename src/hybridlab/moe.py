"""Mixture-of-experts FFN: one always-on shared expert plus top-1 routing.

Routing is sigmoid-scored with a loss-free balancing bias: expert
selection is argmax(score + bias) (ties to the lowest index), but the
gate that scales the chosen expert's output is the raw, unbiased score,
so the bias steers traffic without touching the math of the forward
value. The bias is a buffer, not a parameter: it is updated by a sign
rule on observed batch loads and receives no gradient.

Experts (shared and routed alike) are half-width relative to the dense
FFN they replace, so shared + one routed expert costs the same as the
dense layer it stands in for. Dispatch is by subset: tokens are sorted
by their selected expert, each expert with traffic runs on its own
contiguous rows only, and the results are put back in token order, so
a layer computes the 1 + 1 expert rows per token the cost model charges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import proj_init, siglu_ffn
from .tensor import ContractError, DimensionError, Tensor, concat, matmul, sigmoid

BALANCE_RATE = 1e-3


@dataclass(frozen=True)
class MoeConfig:
    d_model: int
    d_ffn_expert: int
    n_experts: int = 8

    def __post_init__(self):
        if self.n_experts < 1:
            raise ContractError("need at least one routed expert")


@dataclass
class RouterState:
    """Balancing bias and the most recent batch's expert loads."""

    expert_bias: np.ndarray
    last_load: np.ndarray

    @classmethod
    def fresh(cls, n_experts: int) -> "RouterState":
        return cls(
            expert_bias=np.zeros(n_experts, dtype=np.float64),
            last_load=np.zeros(n_experts, dtype=np.int64),
        )


def init_moe_params(cfg: MoeConfig, rng: np.random.Generator | None) -> dict:
    """Router, shared expert, then each routed expert; with rng None, their shapes."""
    params = {"moe.router": proj_init(rng, cfg.d_model, cfg.n_experts)}
    for expert in ["shared"] + [f"expert{e}" for e in range(cfg.n_experts)]:
        params[f"moe.{expert}.gate"] = proj_init(rng, cfg.d_model, cfg.d_ffn_expert)
        params[f"moe.{expert}.up"] = proj_init(rng, cfg.d_model, cfg.d_ffn_expert)
        params[f"moe.{expert}.down"] = proj_init(rng, cfg.d_ffn_expert, cfg.d_model)
    return params


def route(scores: np.ndarray, expert_bias: np.ndarray) -> np.ndarray:
    """Selected expert per token: argmax(score + bias), ties -> lowest index.

    Pure numpy on score values; the selection itself carries no gradient.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2 or scores.shape[1] != expert_bias.shape[0]:
        raise DimensionError(f"scores {scores.shape} vs bias {expert_bias.shape}")
    return np.argmax(scores + expert_bias[None, :], axis=1)


def update_balance(state: RouterState, loads: np.ndarray, rate: float = BALANCE_RATE) -> None:
    """bias_e += rate * sign(mean_load - load_e); overloaded experts sink."""
    loads = np.asarray(loads, dtype=np.float64)
    state.expert_bias = state.expert_bias + rate * np.sign(loads.mean() - loads)
    state.last_load = loads.astype(np.int64)


def moe_forward(
    x: Tensor,
    weights: dict[str, Tensor],
    cfg: MoeConfig,
    state: RouterState,
) -> tuple[Tensor, np.ndarray]:
    """(B, L, d_model) -> (B, L, d_model) plus per-expert token loads.

    out = shared(x) + gate * expert_selected(x); gate is the unbiased
    sigmoid score of the selected expert.
    """
    if x.ndim != 3:
        raise DimensionError(f"moe expects (batch, seq, d_model), got {x.shape}")
    b, l, d = x.shape
    tokens = b * l
    xf = x.reshape(tokens, d)

    scores = sigmoid(matmul(xf, weights["moe.router"]))             # (T, E)
    selected = route(scores.data, state.expert_bias)                # (T,)
    gates = scores[np.arange(tokens), selected].reshape(tokens, 1)  # (T, 1)

    shared = siglu_ffn(
        xf,
        weights["moe.shared.gate"],
        weights["moe.shared.up"],
        weights["moe.shared.down"],
    )
    loads = np.bincount(selected, minlength=cfg.n_experts)
    order = np.argsort(selected, kind="stable")                     # token ids grouped by expert
    xs = xf[order]
    starts = np.concatenate(([0], np.cumsum(loads)))
    parts = [
        siglu_ffn(
            xs[starts[e] : starts[e + 1]],
            weights[f"moe.expert{e}.gate"],
            weights[f"moe.expert{e}.up"],
            weights[f"moe.expert{e}.down"],
        )
        for e in range(cfg.n_experts)
        if loads[e]
    ]
    routed = concat(parts, axis=0)[np.argsort(order)]               # back to token order
    out = shared + gates * routed
    return out.reshape(b, l, d), loads
