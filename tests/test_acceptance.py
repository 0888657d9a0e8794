"""End-to-end acceptance checks, one test per shipping criterion.

Each test pins its tolerance and runtime budget inline so a red line
here means the library broke a published number, an equivalence, or a
trainability floor, not that a knob drifted.
"""

import gc
import time

import numpy as np
import pytest

from gradcheck import fd_grad_check

import hybridlab as hl
from hybridlab.attention import swa_mask
from hybridlab.config import preset, with_vocab
from hybridlab.decode import decode_step, prefill
from hybridlab.harness import (
    NeedleTask,
    TrainConfig,
    gen_copy_batch,
    masked_accuracy,
    copy_batch_fn,
    needle_batch_fn,
    niah_eval,
    train_model,
)
from hybridlab.hybrid import (
    FUSION_PRESETS,
    FusionSpec,
    IntraHybridConfig,
    init_intra_params,
    intra_hybrid_forward,
    legal_fusion_specs,
)
from hybridlab.layout import BlockSpec, plan_layout, lint_layout, uniform_layout
from hybridlab.model import HybridModel
from hybridlab.moe import MoeConfig, RouterState, init_moe_params, moe_forward, route, update_balance
from hybridlab.nn import siglu_ffn
from hybridlab.serialize import read_niah_csv, write_niah_csv
from hybridlab.ssm import SsmConfig, init_ssm_params, init_ssm_state, ssm_forward, ssm_step
from hybridlab.tensor import Tensor, named_rng, no_grad

MIB = 2 ** 20
SIZED_PRESETS = ("llama-1b", "mamba-1b", "swa-1b", "inter-1b", "intra-1b")


# ---------------------------------------------------------------------------
# 1. reference cache costs at 8K context
# ---------------------------------------------------------------------------


def test_cache_reference_costs_at_8k():
    t0 = time.monotonic()
    got = {}
    for name in SIZED_PRESETS:
        cfg, layout = preset(name)
        got[name] = hl.cache_bytes(layout, cfg, 8192)
    assert got["llama-1b"] == 268_435_456                      # 256 MiB to the byte
    assert abs(got["mamba-1b"] / MIB - 13.4) <= 0.1
    assert abs(got["swa-1b"] / MIB - 63.0) <= 1.0
    assert abs(got["inter-1b"] / MIB - 43.0) <= 1.0
    assert abs(got["intra-1b"] / MIB - 38.0) <= 2.0
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. reference training FLOPs at a 60e9-token budget
# ---------------------------------------------------------------------------


def test_training_flops_reference_costs():
    t0 = time.monotonic()
    published = {
        "llama-1b": 4.5e20,
        "mamba-1b": 3.7e20,
        "swa-1b": 3.8e20,
        "inter-1b": 3.7e20,
        "intra-1b": 3.7e20,
    }
    for name, want in published.items():
        cfg, layout = preset(name)
        got = hl.train_flops(layout, cfg, seq_len=8192, tokens=60e9)
        assert abs(got - want) / want <= 0.03, (name, got)
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. block-level cost claims at the 1B scale
# ---------------------------------------------------------------------------


def test_block_cost_claims_at_1b_scale():
    cfg, llama = preset("llama-1b")
    _, mamba = preset("mamba-1b")
    attn_per_sample = hl.flops_per_sample(llama, cfg, 8192)
    mamba_per_sample = hl.flops_per_sample(mamba, cfg, 8192)
    gap = 1.0 - mamba_per_sample / attn_per_sample
    assert 0.15 <= gap <= 0.20, gap

    # 10,485,760 is the number usually quoted rounded to 10.49M
    assert hl.mixer_params(BlockSpec("attn"), cfg) == 10_485_760
    assert 24e6 <= hl.mixer_params(BlockSpec("mamba"), cfg) <= 27e6

    ratio = hl.cache_bytes(mamba, cfg, 8192) / hl.cache_bytes(llama, cfg, 8192)
    assert ratio <= 0.06, ratio


# ---------------------------------------------------------------------------
# 4. chunked scan == sequential step-fold, everywhere
# ---------------------------------------------------------------------------


def _fold(x, weights, cfg):
    state = init_ssm_state(cfg, batch=x.shape[0])
    rows = []
    for t in range(x.shape[1]):
        y, state = ssm_step(Tensor(x[:, t]), weights, cfg, state)
        rows.append(y.data)
    return np.stack(rows, axis=1)


def test_chunked_scan_equals_step_fold_on_200_random_configs():
    t0 = time.monotonic()
    rng = named_rng(0, "scan-accept")
    worst = 0.0
    for trial in range(200):
        n_groups = int(rng.integers(1, 3))
        n_heads = n_groups * int(rng.integers(1, 4))
        d_head = int(rng.integers(1, 4))
        cfg = SsmConfig(
            d_model=int(rng.integers(2, 6)),
            d_ssm=n_heads * d_head,
            d_head=d_head,
            d_state=int(rng.integers(1, 5)),
            n_conv=int(rng.integers(2, 5)),
            n_groups=n_groups,
        )
        seq = 256 if trial % 40 == 0 else int(rng.integers(2, 33))
        chunk = int(rng.integers(1, seq + 1))
        weights = init_ssm_params(cfg, rng)
        x = rng.normal(size=(1, seq, cfg.d_model))
        with no_grad():
            scan = ssm_forward(Tensor(x), weights, cfg, chunk=chunk).data
            fold = _fold(x, weights, cfg)
        worst = max(worst, float(np.abs(scan - fold).max()))
    assert worst < 1e-9, worst
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 5. cached decode == full forward for every block kind
# ---------------------------------------------------------------------------


def test_cached_decode_matches_full_forward_for_128_steps():
    t0 = time.monotonic()
    assert FUSION_PRESETS["best"] == FusionSpec("group", "none", "diff", 2)
    stacks = {
        "attn": BlockSpec("attn"),
        "swa": BlockSpec("swa", window=8, sink=2),
        "mamba": BlockSpec("mamba"),
        "intra-default": BlockSpec("intra"),
        "intra-best": BlockSpec("intra", fusion=FUSION_PRESETS["best"]),
    }
    cfg, _ = preset("toy-llama")
    prompt, steps = 4, 128
    for label, spec in stacks.items():
        layout = uniform_layout(2, spec)
        model = HybridModel(cfg, layout, seed=3)
        tokens = named_rng(7, f"dec-{label}").integers(0, cfg.vocab, size=(2, prompt + steps))
        state, logits = prefill(model, tokens[:, :prompt])
        rows = [logits.data[:, -1]]
        for t in range(prompt, prompt + steps):
            rows.append(decode_step(model, state, tokens[:, t]).data)
        with no_grad():
            full = model.forward(tokens).data
        worst = max(
            float(np.abs(rows[i] - full[:, prompt - 1 + i]).max()) for i in range(len(rows))
        )
        assert worst < 1e-8, (label, worst)
        del model
        gc.collect()
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 6. window visibility and strict causality
# ---------------------------------------------------------------------------


def test_windowed_visibility_and_mutation_causality():
    for seq, window, sink in [(1, 1, 0), (8, 3, 1), (16, 4, 2), (33, 7, 3), (64, 16, 4)]:
        mask = swa_mask(seq, window, sink)
        for i in range(seq):
            for j in range(seq):
                want = j <= i and (i - j < window or j < sink)
                assert mask[i, j] == want, (seq, window, sink, i, j)

    cfg, _ = preset("toy-llama")
    kinds = [
        BlockSpec("attn"),
        BlockSpec("swa", window=4, sink=1),
        BlockSpec("mamba"),
        BlockSpec("intra"),
    ]
    for spec in kinds:
        model = HybridModel(cfg, uniform_layout(2, spec), seed=0)
        tokens = named_rng(0, f"causal-{spec.kind}").integers(0, cfg.vocab, size=(1, 12))
        flipped = tokens.copy()
        flipped[0, 6] = (flipped[0, 6] + 1) % cfg.vocab
        with no_grad():
            a = model.forward(tokens).data
            b = model.forward(flipped).data
        assert np.array_equal(a[:, :6], b[:, :6]), spec.kind       # bitwise, zero tolerance
        assert not np.array_equal(a[:, 6:], b[:, 6:]), spec.kind


# ---------------------------------------------------------------------------
# 7. analytic gradients across the whole fusion matrix
# ---------------------------------------------------------------------------


def test_analytic_gradients_on_every_legal_fusion_cell():
    t0 = time.monotonic()
    cells = legal_fusion_specs()
    assert len(cells) == 40
    cfg = IntraHybridConfig(d_model=4, n_heads=2, n_kv_heads=2, d_ssm=8, d_state=2, n_conv=2)
    for spec in cells:
        label = f"{spec.norm}-{spec.scalar}-{spec.fusion}-{spec.out_projs}"
        rng = named_rng(0, f"grad-{label}")
        weights = init_intra_params(cfg, spec, rng)
        x = rng.normal(size=(1, 4, 4))

        def loss_fn():
            y = intra_hybrid_forward(Tensor(x), weights, cfg, spec, np.arange(4), 0.4)
            return (y * y).sum()

        fd_grad_check(loss_fn, weights, named_rng(1, label), coords_per_tensor=2, rtol=1e-4)
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 8. layout planning defaults, lint, and published count pairs
# ---------------------------------------------------------------------------


def test_layout_placement_lint_and_published_pairs():
    lay = plan_layout(depth=13, ratio=(1, 12))
    specials = [i for i, b in enumerate(lay.blocks) if b.kind == "attn"]
    assert specials == [6]                                         # dead middle of 13

    front = plan_layout(depth=6, counts=(1, 5), positioning="front")
    assert any("front" in w for w in lint_layout(front))
    sandwich = plan_layout(depth=8, counts=(2, 6), positioning="sandwich")
    assert any("sandwich" in w for w in lint_layout(sandwich))

    for special, base, depth in [(7, 7, 14), (3, 10, 13), (2, 11, 13), (1, 12, 13)]:
        lay = plan_layout(depth=depth, counts=(special, base))
        kinds = [b.kind for b in lay.blocks]
        assert kinds.count("attn") == special and kinds.count("mamba") == base


# ---------------------------------------------------------------------------
# 9. routing oracle, activation count, and load balance band
# ---------------------------------------------------------------------------


def test_router_oracle_activation_and_balance_band():
    rng = named_rng(0, "moe-accept")
    scores = rng.normal(size=(64, 8))
    bias = rng.normal(size=8) * 0.1
    want = np.array([int(np.argmax(scores[t] + bias)) for t in range(64)])
    assert np.array_equal(route(scores, bias), want)
    assert route(np.array([[0.3, 0.3, 0.1]]), np.zeros(3)).tolist() == [0]

    # every token pays for the shared expert plus exactly one routed expert
    mcfg = MoeConfig(d_model=6, d_ffn_expert=8, n_experts=8)
    weights = init_moe_params(mcfg, rng)
    state = RouterState.fresh(mcfg.n_experts)
    x = rng.normal(size=(2, 5, 6))
    with no_grad():
        out, loads = moe_forward(Tensor(x), weights, mcfg, state)
        assert loads.sum() == 10
        xf = x.reshape(10, 6)
        raw = 1.0 / (1.0 + np.exp(-(xf @ weights["moe.router"].data)))
        picked = route(raw, state.expert_bias)
        want = siglu_ffn(Tensor(xf), weights["moe.shared.gate"], weights["moe.shared.up"],
                         weights["moe.shared.down"]).data.copy()
        for t in range(10):
            e = picked[t]
            ye = siglu_ffn(Tensor(xf[t : t + 1]), weights[f"moe.expert{e}.gate"],
                           weights[f"moe.expert{e}.up"], weights[f"moe.expert{e}.down"]).data[0]
            want[t] += raw[t, e] * ye
    assert np.abs(out.data.reshape(10, 6) - want).max() < 1e-12

    # a heavily skewed router must settle into the balanced band
    n, tokens = 8, 256
    pref = np.zeros(n)
    pref[3] = 2.0
    state = RouterState.fresh(n)
    fracs = []
    for _ in range(2000):
        scores = rng.normal(size=(tokens, n)) * 0.3 + pref
        picked = route(scores, state.expert_bias)
        loads = np.bincount(picked, minlength=n)
        update_balance(state, loads, rate=1e-2)
        fracs.append(loads.max() / tokens)
    settled = float(np.mean(fracs[-200:]))                         # single steps are noisy
    assert fracs[0] > 0.5
    assert 0.075 <= settled <= 0.175, settled


# ---------------------------------------------------------------------------
# 10. toy models learn the copy task and all presets train stably
# ---------------------------------------------------------------------------


def test_toy_models_learn_copy_and_train_stably():
    t0 = time.monotonic()

    cfg, layout = preset("toy-intra-2l")
    model = HybridModel(with_vocab(cfg, 32), layout, seed=0)
    train_model(model, copy_batch_fn(vocab=32, seq_len=64),
                TrainConfig(steps=300, batch=16, lr=3e-3, seed=0))
    tokens, mask = gen_copy_batch(named_rng(123, "copy-eval"), 16, vocab=32, seq_len=64)
    acc = masked_accuracy(model, tokens, mask)
    assert acc >= 0.95, acc
    del model
    gc.collect()

    # all five layout presets must survive a fixed budget without blowups;
    # train_model raises on the first non-finite loss
    for name in ("toy-llama", "toy-mamba", "toy-swa", "toy-inter", "toy-intra"):
        cfg, layout = preset(name)
        model = HybridModel(with_vocab(cfg, 32), layout, seed=0)
        result = train_model(model, copy_batch_fn(vocab=32, seq_len=64),
                             TrainConfig(steps=500, batch=8, lr=3e-3, seed=0))
        assert np.isfinite(result.losses).all(), name
        del model, result
        gc.collect()

    assert time.monotonic() - t0 < 900.0


# ---------------------------------------------------------------------------
# 11. needle retrieval mechanics and grid round-trip
# ---------------------------------------------------------------------------


def test_needle_retrieval_and_grid_round_trip(tmp_path):
    t0 = time.monotonic()
    task = NeedleTask(seed=0)
    cfg, layout = preset("toy-intra-2l")
    model = HybridModel(with_vocab(cfg, task.vocab), layout, seed=0)
    for phase_seed in (0, 1):
        train_model(model, needle_batch_fn(task),
                    TrainConfig(steps=150, batch=16, lr=3e-3, warmup_frac=0.2,
                                cooldown_frac=0.0, seed=phase_seed))

    depths = (0.0, 0.25, 0.5, 0.75, 1.0)
    grid = niah_eval(model, depths, lengths=(task.context_len,), trials=20, task=task)
    assert grid.accuracy.min() >= 0.90, grid.accuracy

    path = str(tmp_path / "grid.csv")
    write_niah_csv(path, grid, echo={"preset": "toy-intra-2l"})
    back = read_niah_csv(path)
    assert back.depths == grid.depths and back.lengths == grid.lengths
    np.testing.assert_array_equal(back.accuracy, grid.accuracy)
    assert time.monotonic() - t0 < 300.0
