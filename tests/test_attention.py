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
    _ATTN_TILE,
    _attention_tiles,
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


MASK_KINDS = ["causal", "swa", "swa-mid", "swa-abut", "swa-overlap", "scattered", "none"]


def scattered_mask(L):
    """Each row sees a random ~30% of the keys, and at least one."""
    rng = named_rng(L, "scattered-mask")
    mask = rng.random((L, L)) < 0.3
    mask[np.arange(L), rng.integers(0, L, L)] = True
    return mask


def make_mask(kind, L):
    # swa-mid's 24-key window is a tile and a half, so its lower edge falls
    # mid-tile; in swa-abut and swa-overlap the sink ends where the second
    # tile's band starts, or past it; a scattered row sees many runs of keys
    return {
        "causal": causal_mask(L),
        "swa": swa_mask(L, 3, 2),
        "swa-mid": swa_mask(L, 24, 3),
        "swa-abut": swa_mask(L, 8, 9),
        "swa-overlap": swa_mask(L, 8, 10),
        "scattered": scattered_mask(L),
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


# ---------------------------------------------------------------------------
# band tiles: each tile scores only the keys some row of it sees
# ---------------------------------------------------------------------------


def tile_keys(mask):
    """Per tile, the key columns it scores, as a sorted array."""
    lq, lk = mask.shape
    return [np.arange(lk)[keys] for _, _, keys, _ in _attention_tiles(mask, lq, lk)]


@pytest.mark.parametrize("window,sink", [(8, 2), (8, 9), (8, 10), (8, 40), (24, 3), (1, 1), (1000, 5)])
def test_tiles_score_exactly_the_keys_their_rows_see(window, sink):
    # (8, 9): the sink ends where tile 1's band starts; (8, 10): they overlap;
    # (24, 3): the window is wider than a tile, so tile 1's band starts at key 0
    L = 70
    mask = swa_mask(L, window, sink)
    for (start, stop, keys, hidden), cols in zip(_attention_tiles(mask, L, L), tile_keys(mask)):
        assert np.array_equal(cols, np.flatnonzero(mask[start:stop].any(axis=0)))
        if isinstance(keys, slice):             # one contiguous range
            assert cols[-1] - cols[0] == len(cols) - 1
        want = ~mask[start:stop, cols]
        assert (hidden is None and not want.any()) or np.array_equal(hidden, want)


def test_band_tiles_are_one_range_where_sink_and_band_touch():
    abut, overlap, wide = swa_mask(64, 8, 9), swa_mask(64, 8, 10), swa_mask(64, 24, 3)
    # tile 1 (rows 16-31) sees keys 0-8 or 0-9 and its band from key 9
    assert _attention_tiles(abut, 64, 64)[1][2] == slice(0, 32)
    assert _attention_tiles(overlap, 64, 64)[1][2] == slice(0, 32)
    assert _attention_tiles(wide, 64, 64)[1][2] == slice(0, 32)
    # from tile 2 on, the band starts past the sink: two ranges
    assert tile_keys(abut)[2].tolist() == [*range(9), *range(25, 48)]
    assert tile_keys(wide)[3].tolist() == [0, 1, 2, *range(25, 64)]


@pytest.mark.parametrize("window,sink", [(8, 2), (64, 16)])
def test_no_swa_tile_scores_more_than_its_sink_window_and_rows(window, sink):
    L = 1024
    budget = sink + window + _ATTN_TILE - 1
    assert max(len(cols) for cols in tile_keys(swa_mask(L, window, sink))) == budget
    # causal tiles stay one range from key 0 to their last row
    for start, stop, keys, _ in _attention_tiles(causal_mask(L), L, L):
        assert keys == slice(0, stop)


def test_no_query_and_one_key():
    rng = named_rng(12, "edges")
    q, k, v = make_qkv(rng, 1, group=2)
    empty = Tensor(q.data[:, :0], requires_grad=True)
    for mask in (None, np.zeros((0, 1), dtype=bool)):
        reset_tape()
        out = attention_core(empty, k, v, mask)
        assert out.shape == (2, 0, 4, 4)
        backward(out.sum())
        assert empty.grad.shape == empty.shape and not k.grad.any()
        empty.grad = k.grad = v.grad = None
    # one key: every head returns its KV head's value row
    reset_tape()
    out = attention_core(q, k, v, np.ones((1, 1), dtype=bool))
    assert np.allclose(out.data, np.repeat(v.data, 2, axis=2), rtol=0, atol=1e-15)
    backward(out.sum())
    assert np.abs(q.grad).max() <= 1e-15         # one weight of 1, whatever q is
    reset_tape()
