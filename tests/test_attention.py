import numpy as np
import pytest

from gradcheck import fd_grad_check
from hybridlab.attention import (
    AttnConfig,
    attention_forward,
    causal_mask,
    init_attn_params,
    repeat_kv_heads,
    swa_mask,
)
from hybridlab.nn import RopeConfig, apply_rope
from hybridlab.tensor import (
    ContractError,
    NonFiniteError,
    Tensor,
    attention_core,
    backward,
    matmul,
    named_rng,
    no_grad,
    reset_tape,
    softmax_lastdim,
)

TINY = AttnConfig(d_model=16, n_heads=4, n_kv_heads=2, d_qk=4, d_v=4)
ROPE = RopeConfig(head_dim=4, base=10000.0)


def test_causal_mask_is_lower_triangular():
    m = causal_mask(5)
    assert m.shape == (5, 5)
    assert np.array_equal(m, np.tril(np.ones((5, 5))))


@pytest.mark.parametrize("window,sink", [(3, 0), (3, 2), (1, 1), (8, 2)])
def test_swa_mask_matches_bruteforce_rule(window, sink):
    L = 10
    m = swa_mask(L, window, sink)
    for i in range(L):
        for j in range(L):
            visible = j <= i and (i - j < window or j < sink)
            assert m[i, j] == (1.0 if visible else 0.0), (i, j)


def test_swa_mask_row_budget():
    m = swa_mask(40, 6, 3)
    assert m.sum(axis=1).max() == 6 + 3


def test_param_shapes_cover_gqa():
    shapes = init_attn_params(TINY, None)
    assert shapes["attn.wq"] == (16, 4 * 4)
    assert shapes["attn.wk"] == (16, 2 * 4)
    assert shapes["attn.wv"] == (16, 2 * 4)
    assert shapes["attn.wo"] == (4 * 4, 16)


def test_group_size_contract():
    assert TINY.group_size == 2
    with pytest.raises(ContractError):
        AttnConfig(d_model=16, n_heads=4, n_kv_heads=3, d_qk=4, d_v=4)


def test_repeat_kv_heads_tiles_groups():
    t = Tensor(np.arange(2 * 3 * 2 * 4, dtype=np.float64).reshape(2, 3, 2, 4))
    r = repeat_kv_heads(t, 2).data
    assert r.shape == (2, 3, 4, 4)
    assert np.array_equal(r[:, :, 0], r[:, :, 1])
    assert np.array_equal(r[:, :, 2], r[:, :, 3])
    assert np.array_equal(r[:, :, 0], t.data[:, :, 0])


def test_forward_matches_naive_reference():
    # no grouping, so the reference is a plain softmax attention per head
    cfg = AttnConfig(d_model=8, n_heads=2, n_kv_heads=2, d_qk=4, d_v=4)
    rope = RopeConfig(head_dim=4, base=10000.0)
    rng = named_rng(0, "ref")
    weights = init_attn_params(cfg, rng)
    x = rng.normal(size=(1, 6, 8))
    with no_grad():
        got = attention_forward(Tensor(x), weights, cfg, rope, np.arange(6)).data

    q = (x @ weights["attn.wq"].data).reshape(1, 6, 2, 4)
    k = (x @ weights["attn.wk"].data).reshape(1, 6, 2, 4)
    v = (x @ weights["attn.wv"].data).reshape(1, 6, 2, 4)
    with no_grad():
        q = apply_rope(Tensor(q), rope, np.arange(6)).data
        k = apply_rope(Tensor(k), rope, np.arange(6)).data
    ctx = np.zeros((1, 6, 2, 4))
    for h in range(2):
        s = q[0, :, h] @ k[0, :, h].T / np.sqrt(4)
        s = np.where(np.tril(np.ones((6, 6))) > 0, s, -np.inf)
        p = np.exp(s - s.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        ctx[0, :, h] = p @ v[0, :, h]
    want = ctx.reshape(1, 6, 8) @ weights["attn.wo"].data
    assert np.abs(got - want).max() < 1e-12


def test_mutating_a_future_token_never_changes_the_past():
    rng = named_rng(0, "mut")
    weights = init_attn_params(TINY, rng)
    x = rng.normal(size=(1, 8, 16))
    with no_grad():
        base = attention_forward(Tensor(x), weights, TINY, ROPE, np.arange(8)).data
        x2 = x.copy()
        x2[0, 5] += 10.0
        out = attention_forward(Tensor(x2), weights, TINY, ROPE, np.arange(8)).data
    assert np.array_equal(out[:, :5], base[:, :5])  # bitwise
    assert not np.allclose(out[:, 5:], base[:, 5:])


def test_swa_restricts_reach_beyond_window():
    # with window 2, sink 0: moving token 0 cannot affect token 4
    cfg = AttnConfig(d_model=8, n_heads=2, n_kv_heads=2, d_qk=4, d_v=4)
    rope = RopeConfig(head_dim=4, base=10000.0)
    rng = named_rng(0, "swamut")
    weights = init_attn_params(cfg, rng)
    x = rng.normal(size=(1, 6, 8))
    with no_grad():
        base = attention_forward(Tensor(x), weights, cfg, rope, np.arange(6), window=(2, 0)).data
        x2 = x.copy()
        x2[0, 0] += 5.0
        out = attention_forward(Tensor(x2), weights, cfg, rope, np.arange(6), window=(2, 0)).data
    assert np.array_equal(out[:, 2:], base[:, 2:])
    assert not np.allclose(out[:, 0], base[:, 0])


def test_attention_gradients():
    rng = named_rng(0, "attngrad")
    cfg = AttnConfig(d_model=6, n_heads=2, n_kv_heads=1, d_qk=4, d_v=4)
    rope = RopeConfig(head_dim=4, base=100.0)
    weights = init_attn_params(cfg, rng)
    x = rng.normal(size=(1, 4, 6))

    def loss_fn():
        y = attention_forward(Tensor(x), weights, cfg, rope, np.arange(4))
        return (y * y).sum()

    fd_grad_check(loss_fn, weights, named_rng(1, "c"), coords_per_tensor=3)


# ---------------------------------------------------------------------------
# fused kernel: attention_core against the composed reference
# ---------------------------------------------------------------------------


def composed_attention(q, k, v, mask):
    """Reference: repeat the KV heads, then matmul, masked softmax, matmul.

    Takes and returns the kernel's (B, L, heads, d) layout and composes
    the product on (B, heads, L, d) transposes of it.
    """
    group = q.shape[2] // k.shape[2]
    q = q.swapaxes(1, 2)
    k = repeat_kv_heads(k, group).swapaxes(1, 2)
    v = repeat_kv_heads(v, group).swapaxes(1, 2)
    scores = matmul(q, k.swapaxes(-1, -2)) * (q.shape[-1] ** -0.5)
    return matmul(softmax_lastdim(scores, mask), v).swapaxes(1, 2)


MASK_KINDS = ["causal", "swa", "swa-mid", "none"]


def make_mask(kind, L):
    # swa-mid's 24-key window is a tile and a half, so its lower edge falls mid-tile
    return {
        "causal": causal_mask(L),
        "swa": swa_mask(L, 3, 2),
        "swa-mid": swa_mask(L, 24, 3),
        "none": None,
    }[kind]


def make_qkv(rng, L, group, d_qk=4, d_v=4, batch=2, n_kv=2):
    return (
        Tensor(rng.normal(size=(batch, L, n_kv * group, d_qk)), requires_grad=True),
        Tensor(rng.normal(size=(batch, L, n_kv, d_qk)), requires_grad=True),
        Tensor(rng.normal(size=(batch, L, n_kv, d_v)), requires_grad=True),
    )


# lengths around the kernel's 16-row tile edges
@pytest.mark.parametrize("L", [1, 15, 16, 17, 33, 131])
@pytest.mark.parametrize("group", [1, 2, 4])
@pytest.mark.parametrize("kind", MASK_KINDS)
@pytest.mark.parametrize("d_v", [4, 8])
def test_attention_core_matches_composed_reference(L, group, kind, d_v):
    rng = named_rng(L * 100 + group * 10 + d_v, f"core-{kind}")
    q, k, v = make_qkv(rng, L, group, d_qk=6, d_v=d_v)
    mask = make_mask(kind, L)
    with no_grad():
        got = attention_core(q, k, v, mask).data
        want = composed_attention(q, k, v, mask).data
    assert got.shape == (2, L, 2 * group, d_v)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("kind", MASK_KINDS)
@pytest.mark.parametrize("L,group", [(131, 2), (33, 4), (17, 1)])
def test_attention_core_gradients_match_fd_and_reference(kind, L, group):
    rng = named_rng(3 + L + group, f"core-grad-{kind}")
    q, k, v = make_qkv(rng, L, group=group, d_v=6, batch=1)
    mask = make_mask(kind, L)
    w = Tensor(rng.normal(size=(1, L, 2 * group, 6)))
    params = {"q": q, "k": k, "v": v}

    def loss_fn():
        return (attention_core(q, k, v, mask) * w).sum()

    fd_grad_check(loss_fn, params, named_rng(4, f"core-fd-{kind}"), coords_per_tensor=6)

    grads = []
    for fn in (attention_core, composed_attention):
        reset_tape()
        for p in params.values():
            p.grad = None
        backward((fn(q, k, v, mask) * w).sum())
        grads.append([p.grad.copy() for p in params.values()])
    reset_tape()
    for got, want in zip(*grads):
        assert np.abs(got - want).max() <= 1e-10


@pytest.mark.parametrize("group", [1, 2, 4])
def test_one_query_over_a_strided_cache_view(group):
    # a decode step: one query, no mask, K and V read as views of a
    # (B, slots, n_kv, d) buffer with unused slots past the filled ones
    rng = named_rng(8 + group, "core-cache-view")
    entries, slots = 37, 64
    k_buf = rng.normal(size=(2, slots, 2, 6))
    v_buf = rng.normal(size=(2, slots, 2, 4))
    q = Tensor(rng.normal(size=(2, 1, 2 * group, 6)))
    k, v = Tensor(k_buf[:, :entries]), Tensor(v_buf[:, :entries])
    assert not k.data.flags.c_contiguous
    with no_grad():
        got = attention_core(q, k, v).data
        want = composed_attention(
            q, Tensor(k.data.copy()), Tensor(v.data.copy()), np.ones((1, entries), dtype=bool)
        ).data
    assert got.shape == (2, 1, 2 * group, 4)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("t", [16, 17, 90])
def test_attention_core_causality_is_bitwise_across_tiles(t):
    L = 131                            # 16 and 17 sit on a tile edge, 90 mid-tile
    rng = named_rng(5, "core-mut")
    q, k, v = make_qkv(rng, L, group=2)
    with no_grad():
        base = attention_core(q, k, v, causal_mask(L)).data
        mutated = [Tensor(x.data.copy()) for x in (q, k, v)]
        for x in mutated:
            x.data[:, t] += 3.0
        out = attention_core(*mutated, causal_mask(L)).data
    assert np.array_equal(out[:, :t], base[:, :t])
    assert not np.allclose(out[:, t], base[:, t])


def test_attention_core_rejects_a_row_with_no_visible_key():
    rng = named_rng(6, "core-empty")
    q, k, v = make_qkv(rng, 70, group=1)
    mask = causal_mask(70)
    mask[66] = False
    with pytest.raises(ContractError):
        attention_core(q, k, v, mask)


def test_attention_core_rejects_non_finite_results():
    rng = named_rng(7, "core-inf")
    q, k, v = make_qkv(rng, 70, group=2)
    v.data[0, 3, 1, 2] = np.inf       # slipped in after the tensor's own check
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            attention_core(q, k, v, causal_mask(70))
        # scores overflow to inf and the softmax turns them into NaN
        with pytest.raises(NonFiniteError):
            attention_core(Tensor(q.data * 1e200), Tensor(k.data * 1e200), Tensor(k.data))
