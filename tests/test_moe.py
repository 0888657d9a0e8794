import time
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import fd_grad_check
from hybridlab import moe
from hybridlab.config import preset, with_vocab
from hybridlab.harness import TrainConfig, copy_batch_fn, train_model
from hybridlab.layout import LayoutSpec
from hybridlab.model import HybridModel
from hybridlab.moe import (
    MoeConfig,
    RouterState,
    init_moe_params,
    moe_forward,
    route,
    update_balance,
)
from hybridlab.nn import siglu_ffn
from hybridlab.tensor import DimensionError, Tensor, named_rng, no_grad, tsum

TINY = MoeConfig(d_model=6, d_ffn_expert=8, n_experts=4)


def test_route_matches_argmax_oracle():
    rng = named_rng(0, "route")
    scores = rng.normal(size=(32, 4))
    bias = rng.normal(size=4) * 0.1
    got = route(scores, bias)
    want = np.array([int(np.argmax(scores[t] + bias)) for t in range(32)])
    assert np.array_equal(got, want)


def test_route_ties_go_to_the_lowest_index():
    scores = np.array([[0.5, 0.5, 0.5], [0.2, 0.7, 0.7]])
    picked = route(scores, np.zeros(3))
    assert picked.tolist() == [0, 1]


def test_route_rejects_mismatched_bias():
    with pytest.raises(DimensionError):
        route(np.zeros((4, 3)), np.zeros(5))


def test_forward_is_shared_plus_one_gated_expert():
    rng = named_rng(0, "moefwd")
    weights = init_moe_params(TINY, rng)
    state = RouterState.fresh(TINY.n_experts)
    x = rng.normal(size=(2, 3, 6))
    with no_grad():
        out, loads = moe_forward(Tensor(x), weights, TINY, state)

        xf = x.reshape(6, 6)
        scores = 1.0 / (1.0 + np.exp(-(xf @ weights["moe.router"].data)))
        picked = route(scores, state.expert_bias)
        want = siglu_ffn(
            Tensor(xf), weights["moe.shared.gate"], weights["moe.shared.up"],
            weights["moe.shared.down"],
        ).data.copy()
        for t in range(6):
            e = picked[t]
            ye = siglu_ffn(
                Tensor(xf[t : t + 1]), weights[f"moe.expert{e}.gate"],
                weights[f"moe.expert{e}.up"], weights[f"moe.expert{e}.down"],
            ).data[0]
            want[t] += scores[t, e] * ye
    assert np.abs(out.data.reshape(6, 6) - want).max() < 1e-12
    assert loads.sum() == 6
    assert np.array_equal(loads, np.bincount(picked, minlength=4))


def test_gate_uses_unbiased_score():
    # the bias may flip WHICH expert wins, but the gate value is the raw
    # sigmoid score of the winner, not score + bias
    rng = named_rng(0, "gate")
    weights = init_moe_params(TINY, rng)
    x = rng.normal(size=(1, 2, 6))
    state = RouterState.fresh(TINY.n_experts)
    state.expert_bias = np.array([100.0, -100.0, -100.0, -100.0])
    with no_grad():
        out, loads = moe_forward(Tensor(x), weights, TINY, state)
        assert loads[0] == 2  # bias forced expert 0
        xf = x.reshape(2, 6)
        scores = 1.0 / (1.0 + np.exp(-(xf @ weights["moe.router"].data)))
        shared = siglu_ffn(
            Tensor(xf), weights["moe.shared.gate"], weights["moe.shared.up"],
            weights["moe.shared.down"],
        ).data
        y0 = siglu_ffn(
            Tensor(xf), weights["moe.expert0.gate"], weights["moe.expert0.up"],
            weights["moe.expert0.down"],
        ).data
        want = shared + scores[:, :1] * y0
    assert np.abs(out.data.reshape(2, 6) - want).max() < 1e-12


def test_update_balance_sinks_overloaded_experts():
    state = RouterState.fresh(4)
    update_balance(state, np.array([10, 0, 3, 3]), rate=0.01)
    assert state.expert_bias[0] == -0.01   # above the mean -> pushed down
    assert state.expert_bias[1] == 0.01
    assert (state.expert_bias[2:] == 0.01).all()
    assert state.last_load.tolist() == [10, 0, 3, 3]


def test_balance_loop_tames_a_skewed_router():
    # a router with a strongly preferred expert must flatten out
    rng = named_rng(0, "skew")
    n, tokens = 8, 256
    pref = np.zeros(n)
    pref[3] = 2.0
    state = RouterState.fresh(n)
    fracs = []
    for _ in range(800):
        scores = rng.normal(size=(tokens, n)) * 0.3 + pref
        picked = route(scores, state.expert_bias)
        loads = np.bincount(picked, minlength=n)
        update_balance(state, loads, rate=1e-2)
        fracs.append(loads.max() / tokens)
    # single steps are noisy; the settled max-load level is what matters
    assert fracs[0] > 0.5
    assert 0.075 <= np.mean(fracs[-100:]) <= 0.175


def test_param_shapes_include_router_shared_and_experts():
    shapes = init_moe_params(TINY, None)
    assert shapes["moe.router"] == (6, 4)
    assert shapes["moe.shared.gate"] == (6, 8)
    assert shapes["moe.expert3.down"] == (8, 6)
    assert len(shapes) == 1 + 3 + 3 * 4


def test_every_token_activates_exactly_one_routed_expert():
    rng = named_rng(0, "activate")
    weights = init_moe_params(TINY, rng)
    state = RouterState.fresh(TINY.n_experts)
    x = rng.normal(size=(4, 8, 6))
    with no_grad():
        _, loads = moe_forward(Tensor(x), weights, TINY, state)
    assert loads.sum() == 4 * 8


def test_gradients_match_fd_and_idle_expert_gets_none():
    rng = named_rng(0, "moe-grad")
    weights = init_moe_params(TINY, rng)
    state = RouterState.fresh(TINY.n_experts)
    state.expert_bias = np.array([0.0, 0.0, 0.0, -100.0])  # expert 3 gets no token
    x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
    probe = rng.normal(size=(2, 5, 6))
    with no_grad():
        _, loads = moe_forward(x, weights, TINY, state)
    assert loads[3] == 0 and (loads[:3] > 0).all()

    def loss_fn():
        out, _ = moe_forward(x, weights, TINY, state)
        return tsum(out * probe)

    busy = {k: w for k, w in weights.items() if not k.startswith("moe.expert3.")}
    fd_grad_check(loss_fn, {"x": x, **busy}, rng, coords_per_tensor=4)
    for part in ("gate", "up", "down"):
        assert weights[f"moe.expert3.{part}"].grad is None


def test_each_expert_sees_only_its_own_rows(monkeypatch):
    rng = named_rng(0, "moe-rows")
    weights = init_moe_params(TINY, rng)
    state = RouterState.fresh(TINY.n_experts)
    x = Tensor(rng.normal(size=(3, 7, 6)))
    fed = {}

    def spy(rows, gate, up, down):
        fed[next(k for k, w in weights.items() if w is gate)] = rows.shape[0]
        return siglu_ffn(rows, gate, up, down)

    monkeypatch.setattr(moe, "siglu_ffn", spy)
    with no_grad():
        out, loads = moe_forward(x, weights, TINY, state)
    tokens = 3 * 7
    assert fed.pop("moe.shared.gate") == tokens
    assert fed == {f"moe.expert{e}.gate": int(n) for e, n in enumerate(loads) if n}
    assert sum(fed.values()) == tokens

    # each token's row comes back to its own place: a one-token-at-a-time oracle
    xf = x.data.reshape(tokens, 6)
    with no_grad():
        scores = 1.0 / (1.0 + np.exp(-(xf @ weights["moe.router"].data)))
        picked = route(scores, state.expert_bias)
        for t in range(tokens):
            row = Tensor(xf[t : t + 1])
            want = siglu_ffn(row, *(weights[f"moe.shared.{p}"] for p in ("gate", "up", "down"))).data[0]
            e = picked[t]
            ye = siglu_ffn(row, *(weights[f"moe.expert{e}.{p}"] for p in ("gate", "up", "down"))).data[0]
            want = want + scores[t, e] * ye
            assert np.abs(out.data.reshape(tokens, 6)[t] - want).max() < 1e-12


def test_toy_inter_moe_trains_stably_on_the_copy_task():
    # toy-inter with the MoE FFN on every block, trained as the benchmark trains it;
    # train_model raises on the first non-finite loss
    t0 = time.monotonic()
    cfg, layout = preset("toy-inter")
    layout = LayoutSpec(tuple(replace(b, moe=True) for b in layout.blocks))
    model = HybridModel(with_vocab(cfg, 32), layout, seed=0)
    batch, seq, steps = 8, 64, 120
    loads = []
    feed = copy_batch_fn(vocab=32, seq_len=seq)

    def batch_fn(rng, n):
        loads.append([blk.moe_state.last_load.copy() for blk in model.blocks])  # previous step's
        return feed(rng, n)

    result = train_model(model, batch_fn, TrainConfig(steps=steps, batch=batch, lr=3e-3, seed=0))
    loads = np.array(loads[1:] + [[blk.moe_state.last_load for blk in model.blocks]])
    assert np.isfinite(result.losses).all()
    assert result.losses[-20:].mean() < result.losses[:20].mean()
    # every step routes each token to exactly one expert in every block
    assert (loads.sum(axis=-1) == batch * seq).all()
    # the balance loop runs in training: the busiest expert's bias sits below the idlest's
    for blk, total in zip(model.blocks, loads.sum(axis=0)):
        bias = blk.moe_state.expert_bias
        assert bias[np.argmax(total)] < bias[np.argmin(total)]
    assert time.monotonic() - t0 < 60.0
