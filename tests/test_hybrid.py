import numpy as np
import pytest

from gradcheck import fd_grad_check
from hybridlab.hybrid import (
    FUSION_PRESETS,
    FusionSpec,
    IntraHybridConfig,
    default_lambda_init,
    diff_lambda_value,
    fused_width,
    init_intra_params,
    intra_hybrid_forward,
    legal_fusion_specs,
    ssm_branch_step,
)
from hybridlab.ssm import init_ssm_state, ssm_context
from hybridlab.tensor import ContractError, Tensor, named_rng, no_grad

# d_ssm = 2 * d_model matches the published dimensioning and keeps the
# branch widths equal, so every one of the 40 cells is legal here
TINY = IntraHybridConfig(
    d_model=8, n_heads=4, n_kv_heads=2, d_ssm=16, d_state=4, n_conv=2
)


def test_legal_matrix_has_40_cells():
    cells = legal_fusion_specs()
    assert len(cells) == 40
    assert len(set(cells)) == 40
    # 2 norms x 4 scalars x (add/diff x {1,2} + concat x {1})
    assert sum(1 for c in cells if c.fusion == "concat") == 8


@pytest.mark.parametrize("name", sorted(FUSION_PRESETS))
def test_named_presets_are_legal_cells(name):
    assert FUSION_PRESETS[name] in legal_fusion_specs()


def test_concat_rejects_two_projections():
    with pytest.raises(ContractError):
        FusionSpec(fusion="concat", out_projs=2)


@pytest.mark.parametrize("field,value", [
    ("norm", "batch"), ("scalar", "softmax"), ("fusion", "mean"), ("out_projs", 3),
])
def test_unknown_axis_values_rejected(field, value):
    kwargs = {field: value}
    with pytest.raises(ContractError):
        FusionSpec(**kwargs)


def test_config_validation():
    with pytest.raises(ContractError):
        IntraHybridConfig(d_model=8, n_heads=3, n_kv_heads=1, d_ssm=16, d_state=4, n_conv=2)
    with pytest.raises(ContractError):
        IntraHybridConfig(d_model=9, n_heads=4, n_kv_heads=2, d_ssm=16, d_state=4, n_conv=2)


def test_fused_width_adds_branches_under_concat():
    attn_w = TINY.n_half * TINY.d_fuse
    assert fused_width(TINY, FusionSpec("none", "none", "add", 1)) == attn_w
    assert fused_width(TINY, FusionSpec("none", "none", "concat", 1)) == attn_w + TINY.d_ssm_branch


@pytest.mark.parametrize("spec", legal_fusion_specs(), ids=lambda s: f"{s.norm}-{s.scalar}-{s.fusion}-{s.out_projs}")
def test_every_cell_runs_and_is_finite(spec):
    rng = named_rng(0, "cells")
    weights = init_intra_params(TINY, spec, rng)
    x = Tensor(rng.normal(size=(2, 6, 8)))
    with no_grad():
        y = intra_hybrid_forward(x, weights, TINY, spec, np.arange(6), lambda_init=0.5).data
    assert y.shape == (2, 6, 8)
    assert np.isfinite(y).all()


def test_mutating_a_future_token_never_changes_the_past():
    spec = FUSION_PRESETS["best"]
    rng = named_rng(0, "intramut")
    weights = init_intra_params(TINY, spec, rng)
    x = rng.normal(size=(1, 8, 8))
    with no_grad():
        base = intra_hybrid_forward(Tensor(x), weights, TINY, spec, np.arange(8), 0.5).data
        x2 = x.copy()
        x2[0, 5] += 10.0
        out = intra_hybrid_forward(Tensor(x2), weights, TINY, spec, np.arange(8), 0.5).data
    assert np.array_equal(out[:, :5], base[:, :5])  # bitwise
    assert not np.allclose(out[:, 5:], base[:, 5:])


def test_lambda_reparameterization_matches_formula():
    spec = FusionSpec("none", "diff_lambda", "diff", 1)
    rng = named_rng(0, "lam")
    weights = init_intra_params(TINY, spec, rng)
    lam = float(diff_lambda_value(weights, lambda_init=0.37).data)
    q1 = weights["intra.lambda_q1"].data
    k1 = weights["intra.lambda_k1"].data
    q2 = weights["intra.lambda_q2"].data
    k2 = weights["intra.lambda_k2"].data
    want = np.exp(q1 @ k1) - np.exp(q2 @ k2) + 0.37
    assert abs(lam - want) < 1e-12


def test_lambda_init_schedule_is_depth_dependent():
    vals = [default_lambda_init(i) for i in range(6)]
    assert abs(vals[0] - 0.2) < 1e-12
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.8


def test_dim_ratio_shifts_width_between_branches():
    wide_attn = IntraHybridConfig(
        d_model=8, n_heads=4, n_kv_heads=2, d_ssm=16, d_state=4, n_conv=2,
        dim_ratio=(3.0, 1.0),
    )
    assert wide_attn.d_qk > TINY.d_qk
    assert wide_attn.d_ssm_branch < TINY.d_ssm_branch


@pytest.mark.parametrize("name", ["best", "hymba", "concat", "diff-t"])
def test_gradients_on_named_cells(name):
    spec = FUSION_PRESETS[name]
    cfg = IntraHybridConfig(d_model=4, n_heads=2, n_kv_heads=2, d_ssm=8, d_state=2, n_conv=2)
    rng = named_rng(0, f"grad-{name}")
    weights = init_intra_params(cfg, spec, rng)
    x = rng.normal(size=(1, 4, 4))

    def loss_fn():
        y = intra_hybrid_forward(Tensor(x), weights, cfg, spec, np.arange(4), 0.4)
        return (y * y).sum()

    fd_grad_check(loss_fn, weights, named_rng(1, "c"), coords_per_tensor=2)


def test_ssm_branch_step_folds_to_the_branch_context():
    rng = named_rng(0, "branch-step")
    scfg = TINY.ssm_cfg
    weights = init_intra_params(TINY, FUSION_PRESETS["best"], rng)
    x = rng.normal(size=(2, 6, TINY.d_model))
    with no_grad():
        full = ssm_context(Tensor(x), weights, scfg, chunk=4, prefix="intra.ssm").data
        state = init_ssm_state(scfg, batch=2)
        for t in range(x.shape[1]):
            before = state
            m, state = ssm_branch_step(Tensor(x[:, t]), weights, scfg, state)
            assert state is not before
            assert np.abs(m.data[:, 0] - full[:, t]).max() < 1e-12
