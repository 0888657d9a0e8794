import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hybridlab.attention import AttnConfig
from hybridlab.config import PRESET_NAMES, preset
from hybridlab.costs import (
    CACHE_BYTES_PER_ELEMENT,
    GOLDEN_CONTEXT,
    GOLDEN_EXPECTED,
    GOLDEN_PRESETS,
    GOLDEN_TOKENS,
    activated_params_non_embedding,
    block_cache_bytes,
    cache_bytes,
    closed_form_mixer_params,
    cost_report,
    decode_step_flops,
    flops_per_sample,
    golden_rows,
    mixer_params,
    model_decode_step_flops,
    model_param_shapes,
    params_embedding,
    params_non_embedding,
    train_flops,
)
from hybridlab.hybrid import legal_fusion_specs
from hybridlab.layout import BlockSpec, LayoutSpec, uniform_layout
from hybridlab.model import HybridModel
from hybridlab.ssm import SsmConfig

def report_for(name):
    cfg, layout = preset(name)
    return cost_report(layout, cfg, GOLDEN_CONTEXT, tokens=GOLDEN_TOKENS, layout_id=name)


def test_llama_cache_is_exact_to_the_byte():
    assert report_for("llama-1b").cache_bytes == 268_435_456


@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_cache_band(name):
    rep = report_for(name)
    lo, hi = GOLDEN_EXPECTED[name]["cache_mib"]
    assert lo <= rep.cache_mib <= hi, rep.cache_mib


@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_flops_within_3_percent(name):
    rep = report_for(name)
    want = GOLDEN_EXPECTED[name]["train_flops"]
    assert abs(rep.train_flops - want) / want <= 0.03


def test_golden_rows_all_ok_and_fast():
    t0 = time.monotonic()
    rows = golden_rows()
    dt = time.monotonic() - t0
    assert all(r["flops_ok"] and r["cache_ok"] for r in rows)
    assert dt < 1.0


def test_golden_rows_drift_when_context_is_forced():
    rows = golden_rows(context_len=512)
    assert any(not r["cache_ok"] for r in rows)


def test_attention_mixer_closed_form_is_exact():
    cfg, _ = preset("llama-1b")
    spec = BlockSpec("attn")
    assert mixer_params(spec, cfg) == 10_485_760
    assert closed_form_mixer_params("attn", cfg) == 10_485_760


def test_mamba_mixer_band_and_closed_form():
    cfg, _ = preset("mamba-1b")
    spec = BlockSpec("mamba")
    n = mixer_params(spec, cfg)
    assert 24_000_000 <= n <= 27_000_000
    # the reference form undershoots by about the output projection
    closed = closed_form_mixer_params("mamba", cfg)
    assert closed < n
    gap = n - closed
    assert abs(gap - cfg.d_ssm * cfg.d_model) / (cfg.d_ssm * cfg.d_model) < 0.05


def test_flops_gap_between_attention_and_mamba():
    cfg_a, layout_a = preset("llama-1b")
    cfg_m, layout_m = preset("mamba-1b")
    fa = flops_per_sample(layout_a, cfg_a, GOLDEN_CONTEXT)
    fm = flops_per_sample(layout_m, cfg_m, GOLDEN_CONTEXT)
    gap = (fa - fm) / fa
    assert 0.15 <= gap <= 0.20


def test_mamba_cache_is_small_next_to_full_attention():
    cfg_a, layout_a = preset("llama-1b")
    cfg_m, layout_m = preset("mamba-1b")
    ratio = cache_bytes(layout_m, cfg_m, GOLDEN_CONTEXT) / cache_bytes(layout_a, cfg_a, GOLDEN_CONTEXT)
    assert ratio <= 0.06


def test_param_inventory_has_no_remainder():
    # blocks + final norm + embedding + untied head cover every tensor
    cfg, layout = preset("inter-1b")
    shapes = model_param_shapes(layout, cfg)
    total = sum(int(np.prod(s)) for s in shapes.values())
    head = cfg.vocab * cfg.d_model
    assert total == params_non_embedding(layout, cfg) + params_embedding(cfg) + head


def _mirror_cases():
    for name in PRESET_NAMES:
        if name.startswith("toy-"):
            yield name, *preset(name)
    cfg, layout = preset("toy-inter")
    yield "toy-inter-moe", cfg, LayoutSpec(tuple(replace(b, moe=True) for b in layout.blocks))
    cfg, _ = preset("toy-intra-2l")
    for spec in legal_fusion_specs():
        yield spec, cfg, uniform_layout(2, BlockSpec("intra", fusion=spec))


def test_shapes_mirror_the_real_model():
    cases = list(_mirror_cases())
    assert len(cases) == 6 + 1 + 40
    for case, cfg, layout in cases:
        model = HybridModel(cfg, layout, seed=0)
        real = [(k, v.shape) for k, v in model.parameters().items()]
        assert list(model_param_shapes(layout, cfg).items()) == real, case


@pytest.mark.parametrize("name", ["intra-1b", "llama-3b"])
def test_shape_query_allocates_nothing(name):
    # one drawn 1B block is hundreds of MiB; the shape query draws no weight
    cfg, layout = preset(name)
    tracemalloc.start()
    try:
        model_param_shapes(layout, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_activated_subtracts_inactive_experts():
    cfg, layout = preset("toy-llama")
    assert activated_params_non_embedding(layout, cfg) == params_non_embedding(layout, cfg)


def test_swa_cache_saturates_at_window_plus_sink():
    cfg, _ = preset("swa-1b")
    spec = BlockSpec("swa", window=cfg.window, sink=cfg.sink)
    short = block_cache_bytes(spec, cfg, 100)
    a = block_cache_bytes(spec, cfg, cfg.window + cfg.sink)
    b = block_cache_bytes(spec, cfg, 8192)
    assert short < a == b
    per_entry = CACHE_BYTES_PER_ELEMENT * 2 * cfg.n_kv_heads * cfg.d_head
    assert b == (cfg.window + cfg.sink) * per_entry


def test_mamba_cache_is_length_free():
    cfg, _ = preset("mamba-1b")
    spec = BlockSpec("mamba")
    assert block_cache_bytes(spec, cfg, 16) == block_cache_bytes(spec, cfg, 8192)


def test_train_flops_scales_with_token_budget():
    cfg, layout = preset("llama-1b")
    f1 = train_flops(layout, cfg, GOLDEN_CONTEXT, tokens=1e9)
    f2 = train_flops(layout, cfg, GOLDEN_CONTEXT, tokens=2e9)
    assert abs(f2 / f1 - 2.0) < 1e-12


def test_decode_flops_model_is_sum_of_blocks_plus_head():
    cfg, layout = preset("toy-inter")
    pos = 11
    total = model_decode_step_flops(layout, cfg, pos)
    blocks = sum(decode_step_flops(b, cfg, pos) for b in layout.blocks)
    assert total == blocks + 2 * cfg.d_model * cfg.vocab


def test_decode_flops_attention_grows_mamba_does_not():
    cfg, _ = preset("toy-inter")
    attn = BlockSpec("attn")
    mamba = BlockSpec("mamba")
    assert decode_step_flops(attn, cfg, 100) > decode_step_flops(attn, cfg, 10)
    assert decode_step_flops(mamba, cfg, 100) == decode_step_flops(mamba, cfg, 10)


@pytest.mark.parametrize("kind", ["attn", "mamba"])
def test_decode_flops_charge_a_moe_block_its_activated_weights(kind):
    # shared + one routed expert cost one dense FFN, so MoE adds only the router;
    # charging every routed expert gave 407,920 for a toy mamba block at position 100
    cfg, _ = preset("toy-inter")
    moe = cfg.moe_cfg()
    dense = decode_step_flops(BlockSpec(kind), cfg, 100)
    routed = decode_step_flops(BlockSpec(kind, moe=True), cfg, 100)
    assert routed == dense + 2 * cfg.d_model * moe.n_experts
    if kind == "mamba":
        assert (dense, routed) == (148_848, 149_872)


def test_uniform_stack_costs_are_depth_linear():
    cfg, _ = preset("toy-llama")
    one = uniform_layout(1, BlockSpec("attn"))
    four = uniform_layout(4, BlockSpec("attn"))
    assert cache_bytes(four, cfg, 64) == 4 * cache_bytes(one, cfg, 64)


@pytest.mark.parametrize("name,params", [
    ("llama-1b", 973_146_112),
    ("mamba-1b", 989_527_520),
    ("swa-1b", 973_146_112),
    ("inter-1b", 958_935_840),
    ("intra-1b", 980_004_224),
])
def test_non_embedding_params_frozen(name, params):
    cfg, layout = preset(name)
    assert params_non_embedding(layout, cfg) == params


def _pinned_case(key):
    """A preset, or "<preset>/<block>": one block on that preset's dims."""
    if "/" not in key:
        return preset(key)
    base, block = key.split("/")
    cfg, _ = preset(base)
    if block == "mamba-moe":
        return cfg, uniform_layout(1, BlockSpec("mamba", moe=True))
    a, s = block.removeprefix("intra-").split(":")
    return cfg, uniform_layout(1, BlockSpec("intra", dim_ratio=(float(a), float(s))))


# (flops_per_sample, model_decode_step_flops, cache_bytes) at L, exact:
# swa at window + sink - 1, window + sink, window + sink + 1 and 8192,
# intra at three dim ratios, a MoE mamba block and every toy preset
PINNED_COSTS = {
    ("toy-swa", 9): (10786176.0, 412672.0, 4608),
    ("toy-swa", 10): (12000000.0, 412928.0, 5120),
    ("toy-swa", 11): (13214592.0, 413184.0, 5248),
    ("toy-swa", 8192): (35653577472.0, 2507520.0, 1052416),
    ("swa-1b", 575): (3422470656000.0, 2547122176.0, 18841600),
    ("swa-1b", 576): (3428536025088.0, 2547146752.0, 18874368),
    ("swa-1b", 577): (3434601467904.0, 2547171328.0, 18880512),
    ("swa-1b", 8192): (51760907157504.0, 2734317568.0, 65667072),
    ("toy-intra/intra-1:1", 577): (325081800.0, 251352.0, 58208),
    ("toy-intra/intra-2:1", 577): (320501574.0, 253330.0, 62184),
    ("toy-intra/intra-1:3", 577): (334242252.0, 247396.0, 50256),
    ("intra-1b/intra-1:1", 577): (254205132576.0, 673962592.0, 1428992),
    ("intra-1b/intra-2:1", 577): (242736610182.0, 667540674.0, 1361584),
    ("intra-1b/intra-1:3", 577): (273059766192.0, 684558992.0, 1551616),
    ("toy-inter/mamba-moe", 577): (259650000.0, 158064.0, 5376),
    ("toy-llama", 1): (1186176.0, 404480.0, 512),
    ("toy-llama", 577): (1194916224.0, 994304.0, 295424),
    ("toy-mamba", 1): (1786560.0, 603584.0, 21504),
    ("toy-mamba", 577): (1030845120.0, 603584.0, 21504),
    ("toy-swa", 1): (1186176.0, 404480.0, 512),
    ("toy-swa", 577): (823907712.0, 558080.0, 77696),
    ("toy-inter", 1): (1636464.0, 553808.0, 16256),
    ("toy-inter", 577): (1071862896.0, 701264.0, 89984),
    ("toy-intra", 1): (1737144.0, 587304.0, 19040),
    ("toy-intra", 577): (1098049464.0, 697896.0, 74336),
    ("toy-intra-2l", 1): (794640.0, 273328.0, 5824),
    ("toy-intra-2l", 577): (649942032.0, 494512.0, 116416),
}


@pytest.mark.parametrize("key,seq_len", list(PINNED_COSTS), ids=lambda v: str(v))
def test_cost_outputs_are_pinned(key, seq_len):
    cfg, layout = _pinned_case(key)
    got = (
        flops_per_sample(layout, cfg, seq_len),
        model_decode_step_flops(layout, cfg, seq_len),
        cache_bytes(layout, cfg, seq_len),
    )
    assert got == PINNED_COSTS[key, seq_len]


# toy dims: d_model 64, 8 heads of 8 on 4 KV heads, d_ssm 128 in heads of
# 16, d_state 16, window 8 + sink 2; intra halves the heads (4 fused heads
# of 16, d_qk 8 at 1:1) and gives its SSM branch half of d_ssm
TOY_ATTN = AttnConfig(d_model=64, n_heads=8, n_kv_heads=4, d_qk=8, d_v=8)
TOY_SSM = SsmConfig(d_model=64, d_ssm=128, d_head=16, d_state=16, n_conv=4)


@pytest.mark.parametrize("spec,branches", [
    (BlockSpec("attn"), (TOY_ATTN, None, None)),
    (BlockSpec("swa"), (TOY_ATTN, (8, 2), None)),
    (BlockSpec("swa", window=5, sink=1), (TOY_ATTN, (5, 1), None)),
    (BlockSpec("mamba"), (None, None, TOY_SSM)),
    (BlockSpec("intra"), (
        AttnConfig(d_model=64, n_heads=4, n_kv_heads=2, d_qk=8, d_v=16),
        None,
        SsmConfig(d_model=64, d_ssm=64, d_head=16, d_state=16, n_conv=4, gated_norm=False),
    )),
], ids=["attn", "swa", "swa-5+1", "mamba", "intra"])
def test_block_branches_per_kind(spec, branches):
    cfg, _ = preset("toy-intra")
    assert cfg.block_branches(spec) == branches
