from dataclasses import replace

import numpy as np
import pytest

from hybridlab.config import preset
from hybridlab.hybrid import FUSION_PRESETS
from hybridlab.layout import (
    LAYOUT_HEADER,
    BlockSpec,
    LayoutError,
    LayoutSpec,
    format_layout,
    lint_layout,
    load_layout,
    parse_layout,
    parse_ratio,
    plan_layout,
    save_layout,
    scatter_indices,
    uniform_layout,
)
from hybridlab.tensor import ContractError


def test_single_special_lands_mid_stack():
    layout = plan_layout(depth=13, ratio=(1, 12), special="attn", base="mamba")
    assert layout.indices_of("attn") == (6,)
    assert layout.counts()["mamba"] == 12


def test_two_specials_scatter_to_3_and_8():
    layout = plan_layout(depth=13, counts=(2, 11), special="attn", base="mamba")
    assert layout.indices_of("attn") == (3, 8)


@pytest.mark.parametrize("pair,depth", [((7, 7), 14), ((3, 10), 13), ((2, 11), 13), ((1, 12), 13)])
def test_published_count_pairs_are_representable(pair, depth):
    layout = plan_layout(depth=depth, counts=pair, special="attn", base="mamba")
    assert layout.counts()["attn"] == pair[0]
    assert layout.counts()["mamba"] == pair[1]
    assert layout.depth == depth


@pytest.mark.parametrize("ratio,want", [((1, 1), 7), ((1, 3), 3), ((1, 5), 2), ((1, 12), 1), ((1, 0), 13), ((0, 1), 0)])
def test_ratio_sugar_rounds_half_up(ratio, want):
    layout = plan_layout(depth=13, ratio=ratio, special="attn", base="mamba")
    assert layout.counts()["attn"] == want


def test_scatter_is_deterministic_and_sorted():
    a = scatter_indices(13, 2)
    assert a == scatter_indices(13, 2) == (3, 8)
    for depth in (5, 9, 24):
        for k in range(1, depth + 1):
            idx = scatter_indices(depth, k)
            assert len(idx) == k == len(set(idx))
            assert all(0 <= i < depth for i in idx)
            assert list(idx) == sorted(idx)


def test_reversing_a_scatter_plan_keeps_the_counts():
    layout = plan_layout(depth=13, counts=(2, 11), special="attn", base="mamba")
    rev = layout.reversed()
    assert rev.counts() == layout.counts()
    assert rev.describe() == layout.describe()[::-1]


@pytest.mark.parametrize("pos,k,warn", [
    ("front", 1, True), ("sandwich", 2, True), ("middle", 1, False), ("scatter", 2, False),
    ("cluster", 3, False),
])
def test_lint_flags_known_bad_placements(pos, k, warn):
    layout = plan_layout(depth=12, counts=(k, 12 - k), special="attn", base="mamba", positioning=pos)
    warnings = lint_layout(layout)
    assert bool(warnings) == warn, warnings


def test_lint_warns_on_all_special_front_cluster():
    front = LayoutSpec(blocks=(BlockSpec("attn"), BlockSpec("attn"), BlockSpec("mamba"), BlockSpec("mamba")))
    assert any("front" in w for w in lint_layout(front))


def test_plan_validates_counts():
    with pytest.raises(LayoutError):
        plan_layout(depth=13, counts=(3, 9), special="attn", base="mamba")
    with pytest.raises(LayoutError):
        plan_layout(depth=0, ratio=(1, 1), special="attn", base="mamba")
    with pytest.raises(ContractError):
        plan_layout(depth=4, counts=(1, 3), special="gru", base="mamba")


def test_plan_requires_exactly_one_of_ratio_and_counts():
    with pytest.raises(LayoutError):
        plan_layout(depth=13, special="attn", base="mamba")
    with pytest.raises(LayoutError):
        plan_layout(depth=13, ratio=(1, 5), counts=(2, 11), special="attn", base="mamba")


def test_swa_blocks_carry_window_and_sink():
    layout = plan_layout(depth=6, counts=(2, 4), special="attn", base="swa",
                         base_spec=BlockSpec("swa", window=512, sink=64))
    for spec in layout.blocks:
        if spec.kind == "swa":
            assert spec.window == 512 and spec.sink == 64
    assert layout.counts() == {"attn": 2, "swa": 4, "mamba": 0, "intra": 0}


@pytest.mark.parametrize("special_spec, base_spec", [
    (BlockSpec("intra", fusion=FUSION_PRESETS["best"]), None),
    (BlockSpec("intra", dim_ratio=(1.5, 2.0), moe=True), BlockSpec("mamba", moe=True)),
])
def test_format_parse_round_trip(special_spec, base_spec):
    layout = plan_layout(depth=5, counts=(2, 3), special="intra", base="mamba",
                         special_spec=special_spec, base_spec=base_spec)
    text = format_layout(layout)
    assert text.splitlines()[0] == LAYOUT_HEADER
    again = parse_layout(text)
    assert again == layout


@pytest.mark.parametrize("text", ["1", "1:x", "1:2:3", ":", "nan:1", "1:inf"])
def test_a_malformed_ratio_is_a_layout_error(text):
    with pytest.raises(LayoutError, match="bad ratio"):
        parse_ratio(text)
    with pytest.raises(LayoutError, match="bad ratio"):
        parse_layout(f"{LAYOUT_HEADER}\nintra ratio={text}\n")


def test_save_load_round_trip(tmp_path):
    layout = plan_layout(depth=4, counts=(1, 3), special="swa", base="mamba",
                         special_spec=BlockSpec("swa", window=8, sink=2))
    path = tmp_path / "stack.layout"
    save_layout(str(path), layout)
    assert load_layout(str(path)) == layout


def test_parse_rejects_missing_header():
    with pytest.raises(LayoutError):
        parse_layout("attn\nmamba\n")


def test_uniform_layout():
    layout = uniform_layout(3, BlockSpec("mamba"))
    assert layout.depth == 3
    assert layout.describe() == "MMM"


@pytest.mark.parametrize("window, sink", [(0, 0), (-3, -1), (8, -1)])
def test_swa_window_and_sink_are_checked_where_they_are_set(window, sink):
    with pytest.raises(ContractError):
        BlockSpec("swa", window=window, sink=sink)
    with pytest.raises(ContractError):
        parse_layout(f"{LAYOUT_HEADER}\nswa window={window} sink={sink}\n")
    with pytest.raises(ContractError):
        replace(preset("toy-swa")[0], window=window, sink=sink)


def test_the_smallest_swa_window_and_sink_are_legal():
    assert BlockSpec("swa", window=1, sink=0).window == 1
    assert replace(preset("toy-swa")[0], window=1, sink=0).window == 1


def test_block_spec_field_contracts():
    with pytest.raises(ContractError):
        BlockSpec("mamba", window=8)
    with pytest.raises(ContractError):
        BlockSpec("attn", fusion=FUSION_PRESETS["best"])
    with pytest.raises(ContractError):
        BlockSpec("rnn")
