import numpy as np
import pytest

from gradcheck import fd_grad_check
from hybridlab.config import ModelConfig
from hybridlab.costs import block_param_shapes
from hybridlab.layout import BlockSpec
from hybridlab.nn import (
    NORM_EPS,
    RopeConfig,
    apply_rope,
    group_norm_per_head,
    param,
    proj_init,
    rms_norm,
    rope_angles,
    rope_tables,
    siglu_ffn,
)
from hybridlab.tensor import (
    ContractError,
    NonFiniteError,
    Tensor,
    backward,
    concat,
    default_tape,
    matmul,
    named_rng,
    no_grad,
    reset_tape,
    silu,
    silu_mul,
    sqrt,
    square,
    tmean,
    tsum,
)


def test_rms_norm_produces_unit_rms():
    rng = named_rng(0, "rms")
    x = Tensor(rng.normal(size=(3, 5, 8)) * 4)
    w = Tensor(np.ones(8))
    y = rms_norm(x, w).data
    rms = np.sqrt((y ** 2).mean(-1))
    assert np.allclose(rms, 1.0, atol=1e-4)


def test_rms_norm_eps_keeps_zero_input_finite():
    y = rms_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(4))).data
    assert np.allclose(y, 0.0)
    assert NORM_EPS == 1e-5


def test_rms_norm_gradients():
    rng = named_rng(0, "rmsgrad")
    params = {
        "x": Tensor(rng.normal(size=(2, 6)), requires_grad=True),
        "w": Tensor(rng.normal(size=(6,)), requires_grad=True),
    }
    def loss_fn():
        y = rms_norm(params["x"], params["w"])
        return (y * y).sum()

    fd_grad_check(loss_fn, params, named_rng(1, "c"), coords_per_tensor=4)


def test_group_norm_normalizes_each_head():
    rng = named_rng(0, "gn")
    x = Tensor(rng.normal(size=(2, 3, 4, 6)) * 3 + 1)
    w = Tensor(np.ones((4, 6)))
    y = group_norm_per_head(x, w).data
    assert np.allclose(y.mean(-1), 0.0, atol=1e-10)
    assert np.allclose(y.var(-1), 1.0, atol=1e-3)


def test_group_norm_weight_is_per_head():
    rng = named_rng(0, "gnw")
    x = Tensor(rng.normal(size=(1, 2, 2, 4)))
    w = np.ones((2, 4))
    w[1] = 5.0
    y = group_norm_per_head(x, Tensor(w)).data
    base = group_norm_per_head(x, Tensor(np.ones((2, 4)))).data
    assert np.allclose(y[..., 0, :], base[..., 0, :])
    assert np.allclose(y[..., 1, :], 5.0 * base[..., 1, :])


def test_siglu_ffn_matches_reference():
    rng = named_rng(0, "ffn")
    x = rng.normal(size=(2, 3, 4))
    wg, wu, wd = rng.normal(size=(4, 6)), rng.normal(size=(4, 6)), rng.normal(size=(6, 4))
    with no_grad():
        y = siglu_ffn(Tensor(x), Tensor(wg), Tensor(wu), Tensor(wd)).data
    g = x @ wg
    want = ((g / (1 + np.exp(-g))) * (x @ wu)) @ wd
    assert np.allclose(y, want, atol=1e-12)


def test_ffn_param_shapes():
    cfg = ModelConfig(
        d_model=8, d_ffn=24, vocab=16, n_heads=2, n_kv_heads=1, d_head=4,
        d_ssm=8, d_head_ssm=4, d_state=4,
    )
    shapes = block_param_shapes(BlockSpec("attn"), cfg)
    ffn = {k: v for k, v in shapes.items() if k.startswith("ffn.")}
    assert ffn == {"ffn.gate": (8, 24), "ffn.up": (8, 24), "ffn.down": (24, 8)}


def test_rope_default_base_and_even_dim_contract():
    assert RopeConfig(head_dim=8).base == 500000.0
    with pytest.raises(ContractError):
        RopeConfig(head_dim=7)


def test_rope_preserves_vector_norms():
    rng = named_rng(0, "rope")
    cfg = RopeConfig(head_dim=16, base=10000.0)
    x = Tensor(rng.normal(size=(1, 5, 2, 16)))
    y = apply_rope(x, cfg, np.arange(5)).data
    assert np.allclose(np.linalg.norm(y, axis=-1), np.linalg.norm(x.data, axis=-1))


def test_rope_position_zero_is_identity():
    rng = named_rng(0, "rope0")
    cfg = RopeConfig(head_dim=8, base=10000.0)
    x = Tensor(rng.normal(size=(1, 1, 1, 8)))
    y = apply_rope(x, cfg, np.array([0])).data
    assert np.allclose(y, x.data)


def test_rope_scores_depend_only_on_distance():
    # q . k after rotation must be invariant to a shared position shift
    rng = named_rng(0, "ropeshift")
    cfg = RopeConfig(head_dim=8, base=10000.0)
    q = Tensor(rng.normal(size=(1, 1, 1, 8)))
    k = Tensor(rng.normal(size=(1, 1, 1, 8)))

    def score(pq, pk):
        rq = apply_rope(q, cfg, np.array([pq])).data.reshape(8)
        rk = apply_rope(k, cfg, np.array([pk])).data.reshape(8)
        return float(rq @ rk)

    assert abs(score(7, 3) - score(107, 103)) < 1e-10


def test_rope_rotates_adjacent_pairs():
    # pair (0, 1) at position p rotates by exactly angle p (frequency 1)
    cfg = RopeConfig(head_dim=4, base=10000.0)
    x = np.zeros((1, 1, 1, 4))
    x[..., 0] = 1.0
    y = apply_rope(Tensor(x), cfg, np.array([2])).data.reshape(4)
    assert abs(y[0] - np.cos(2.0)) < 1e-12
    assert abs(y[1] - np.sin(2.0)) < 1e-12


def test_rope_angles_shapes():
    cos, sin = rope_angles(RopeConfig(head_dim=10), np.arange(7))
    assert cos.shape == (7, 5) and sin.shape == (7, 5)
    assert np.allclose(cos ** 2 + sin ** 2, 1.0)


def test_rope_gradients():
    rng = named_rng(0, "ropegrad")
    cfg = RopeConfig(head_dim=4, base=100.0)
    params = {"x": Tensor(rng.normal(size=(1, 3, 2, 4)), requires_grad=True)}
    fd_grad_check(
        lambda: (apply_rope(params["x"], cfg, np.arange(3)) * apply_rope(params["x"], cfg, np.arange(3))).sum(),
        params, named_rng(1, "c"), coords_per_tensor=6,
    )


def test_rope_tables_are_full_width_and_shared_by_fewer_heads():
    cfg = RopeConfig(head_dim=6, base=100.0)
    positions = np.arange(4) + 9
    cos, sin = rope_angles(cfg, positions)
    c, s = rope_tables(cfg, positions, n_heads=3)
    assert c.shape == s.shape == (4, 3, 6)
    assert np.array_equal(c[:, 1, 0::2], cos) and np.array_equal(c[:, 1, 1::2], cos)
    assert np.array_equal(s[:, 2, 0::2], -sin) and np.array_equal(s[:, 2, 1::2], sin)
    few_c, few_s = rope_tables(cfg, positions, n_heads=2)
    assert np.array_equal(c[:, :2], few_c) and np.array_equal(s[:, :2], few_s)


def pairwise_rope(x, cos, sin):
    """The rotation on the (..., d/2, 2) view, (seq, d/2) tables broadcast over heads."""
    cos, sin = cos[:, None, :], sin[:, None, :]
    pairs = (*x.shape[:-1], x.shape[-1] // 2, 2)
    p = x.reshape(pairs)
    out = p * np.stack((cos, cos), axis=-1)
    out += p[..., ::-1] * np.stack((-sin, sin), axis=-1)
    return out.reshape(x.shape)


def test_rope_is_byte_equal_to_the_pairwise_form():
    cfg = RopeConfig(head_dim=8, base=500000.0)
    positions = np.arange(29) + 300
    rng = named_rng(0, "rope-bytes")
    x = Tensor(rng.normal(size=(3, 29, 5, 8)) * 3.0, requires_grad=True)
    probe = rng.normal(size=x.shape)
    out = apply_rope(x, cfg, positions)
    backward(tsum(out * probe))
    reset_tape()
    cos, sin = rope_angles(cfg, positions)
    assert np.array_equal(out.data, pairwise_rope(x.data, cos, sin))
    # the backward rotates by -theta
    assert np.array_equal(x.grad, pairwise_rope(probe, cos, -sin))


def test_proj_init_scales_with_fan_in():
    rng = named_rng(0, "init")
    w = proj_init(rng, 400, 50)
    assert w.requires_grad
    assert abs(w.data.std() - 400 ** -0.5) < 0.01


def test_param_marks_requires_grad():
    p = param(named_rng(0, "p"), (3, 3), 0.1)
    assert p.requires_grad and p.shape == (3, 3)


# ---------------------------------------------------------------------------
# fused kernels against their composed references
# ---------------------------------------------------------------------------


def composed_rms_norm(x, w, eps=NORM_EPS):
    return x / sqrt(tmean(square(x), axis=-1, keepdims=True) + eps) * w


def composed_group_norm(x, w, eps=NORM_EPS):
    centered = x - tmean(x, axis=-1, keepdims=True)
    return centered / sqrt(tmean(square(centered), axis=-1, keepdims=True) + eps) * w


def composed_rope(x, cfg, positions):
    cos, sin = rope_angles(cfg, positions)
    cos, sin = cos[:, None, :], sin[:, None, :]
    even, odd = x[..., 0::2], x[..., 1::2]
    r_even = even * cos - odd * sin
    r_odd = even * sin + odd * cos
    stacked = concat([r_even.reshape(*r_even.shape, 1), r_odd.reshape(*r_odd.shape, 1)], axis=-1)
    return stacked.reshape(*x.shape)


ROPE = RopeConfig(head_dim=8, base=100.0)
ROPE_POSITIONS = np.arange(5) + 37          # not starting at 0

# name: (fused, composed reference, input shapes)
FUSED = {
    "rms_norm": (rms_norm, composed_rms_norm, [(2, 5, 8), (8,)]),
    "group_norm": (group_norm_per_head, composed_group_norm, [(2, 3, 4, 6), (4, 6)]),
    "rope": (
        lambda x: apply_rope(x, ROPE, ROPE_POSITIONS),
        lambda x: composed_rope(x, ROPE, ROPE_POSITIONS),
        [(2, 5, 3, 8)],
    ),
    "silu_mul": (silu_mul, lambda a, b: silu(a) * b, [(2, 3, 7), (2, 3, 7)]),
    "siglu_ffn": (
        siglu_ffn,
        lambda x, g, u, d: matmul(silu_mul(matmul(x, g), matmul(x, u)), d),
        [(2, 3, 5), (5, 7), (5, 7), (7, 5)],
    ),
}


def fused_inputs(name):
    rng = named_rng(0, f"fused-{name}")
    return [Tensor(rng.normal(size=shape) * 2.0 + 0.3, requires_grad=True) for shape in FUSED[name][2]]


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_equals_its_composed_reference(name):
    fused, composed, shapes = FUSED[name]
    probe = named_rng(1, f"fused-{name}").normal(size=shapes[0])
    runs = []
    for fn in (fused, composed):
        inputs = fused_inputs(name)
        out = fn(*inputs)
        backward(tsum(out * probe))
        runs.append([out.data] + [t.grad for t in inputs])
        reset_tape()
    for got, want in zip(*runs):
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_gradients(name):
    fused, _composed, shapes = FUSED[name]
    inputs = fused_inputs(name)
    params = {f"in{i}": t for i, t in enumerate(inputs)}
    probe = named_rng(2, f"fused-{name}").normal(size=shapes[0])
    fd_grad_check(
        lambda: tsum(fused(*params.values()) * probe), params,
        named_rng(3, f"fused-{name}"), coords_per_tensor=8,
    )


def test_fused_op_is_one_tape_node():
    for name, (fused, _composed, _shapes) in FUSED.items():
        fused(*fused_inputs(name))
        assert [n.op for n in default_tape().nodes] == [name]
        reset_tape()


@pytest.mark.parametrize("name", ["rms_norm", "group_norm"])
def test_inf_in_a_norm_weight_names_the_fused_op(name):
    fused, _composed, _shapes = FUSED[name]
    x, w = fused_inputs(name)
    w.data.reshape(-1)[3] = np.inf
    with pytest.raises(NonFiniteError, match=f"'{name}'"):
        fused(x, w)
