import numpy as np
import pytest

from gradcheck import fd_grad_check
from hybridlab.ssm import (
    SsmConfig,
    causal_conv,
    init_ssm_params,
    init_ssm_state,
    ssm_featurize,
    ssm_forward,
    ssm_scan,
    ssm_step,
    ssm_step_core,
)
from hybridlab.tensor import (
    ContractError,
    Tensor,
    backward,
    concat,
    named_rng,
    no_grad,
    reset_tape,
    set_chaos,
    silu,
    softplus,
    tsum,
)

TINY = SsmConfig(d_model=6, d_ssm=8, d_head=4, d_state=4, n_conv=3, n_groups=1)


def _fold(x, weights, cfg):
    state = init_ssm_state(cfg, batch=x.shape[0])
    rows = []
    for t in range(x.shape[1]):
        y, state = ssm_step(Tensor(x[:, t]), weights, cfg, state)
        rows.append(y.data)
    return np.stack(rows, axis=1), state


@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_chunked_scan_equals_step_fold(chunk):
    rng = named_rng(0, f"fold-{chunk}")
    weights = init_ssm_params(TINY, rng)
    x = rng.normal(size=(2, 11, 6))
    with no_grad():
        full = ssm_forward(Tensor(x), weights, TINY, chunk=chunk).data
        fold, _ = _fold(x, weights, TINY)
    assert np.abs(full - fold).max() < 1e-12


def test_output_is_chunk_invariant():
    rng = named_rng(0, "chunkinv")
    weights = init_ssm_params(TINY, rng)
    x = Tensor(rng.normal(size=(1, 13, 6)))
    with no_grad():
        a = ssm_forward(x, weights, TINY, chunk=1).data
        b = ssm_forward(x, weights, TINY, chunk=5).data
        c = ssm_forward(x, weights, TINY, chunk=13).data
    assert np.abs(a - b).max() < 1e-12
    assert np.abs(a - c).max() < 1e-12


def test_prefill_state_continues_like_the_fold():
    rng = named_rng(0, "prefill")
    weights = init_ssm_params(TINY, rng)
    x = rng.normal(size=(2, 9, 6))
    with no_grad():
        state_pre = init_ssm_state(TINY, batch=2)
        y_pre = ssm_forward(Tensor(x[:, :6]), weights, TINY, chunk=4, state=state_pre)
        y_fold, state_fold = _fold(x[:, :6], weights, TINY)
        assert np.abs(y_pre.data - y_fold).max() < 1e-12
        assert np.abs(state_pre.h.data - state_fold.h.data).max() < 1e-12
        assert np.abs(state_pre.conv_buf.data - state_fold.conv_buf.data).max() < 1e-12
        # continuing from either state gives identical suffixes
        ya, _ = ssm_step(Tensor(x[:, 6]), weights, TINY, state_pre)
        yb, _ = ssm_step(Tensor(x[:, 6]), weights, TINY, state_fold)
    assert np.abs(ya.data - yb.data).max() < 1e-12


def test_mutating_a_future_token_never_changes_the_past():
    rng = named_rng(0, "ssm-mut")
    weights = init_ssm_params(TINY, rng)
    x = rng.normal(size=(1, 10, 6))
    with no_grad():
        base = ssm_forward(Tensor(x), weights, TINY).data
        x2 = x.copy()
        x2[0, 7] += 10.0
        out = ssm_forward(Tensor(x2), weights, TINY).data
    assert np.array_equal(out[:, :7], base[:, :7])  # bitwise
    assert not np.allclose(out[:, 7:], base[:, 7:])


def test_decay_factors_live_in_unit_interval():
    rng = named_rng(0, "decay")
    weights = init_ssm_params(TINY, rng)
    x = rng.normal(size=(1, 12, 6))
    with no_grad():
        _, _, _, _, dt = ssm_featurize(Tensor(x), weights, TINY)
        a_bar = np.exp(-dt.data * np.exp(weights["ssm.A_log"].data))
    assert (a_bar > 0).all() and (a_bar <= 1).all()


def test_dt_is_softplus_positive():
    rng = named_rng(0, "dt")
    weights = init_ssm_params(TINY, rng)
    x = rng.normal(size=(1, 5, 6)) * 10
    with no_grad():
        _, _, _, _, dt = ssm_featurize(Tensor(x), weights, TINY)
    assert (dt.data > 0).all()


def test_param_shapes_inventory():
    shapes = init_ssm_params(TINY, None)
    assert shapes["ssm.in_proj"] == (6, TINY.d_in_proj)
    assert shapes["ssm.conv.weight"] == (TINY.conv_channels, 3)
    assert shapes["ssm.A_log"] == (2,)
    assert shapes["ssm.D"] == (2,)
    assert "ssm.norm.weight" in shapes  # gated_norm defaults on
    assert shapes["ssm.out_proj"] == (8, 6)


def test_gated_norm_toggle_changes_params_and_output():
    rng = named_rng(0, "gn-toggle")
    plain = SsmConfig(d_model=6, d_ssm=8, d_head=4, d_state=4, n_conv=3, gated_norm=False)
    assert "ssm.norm.weight" not in init_ssm_params(plain, None)
    w_full = init_ssm_params(TINY, named_rng(0, "w"))
    w_plain = {k: v for k, v in w_full.items() if k != "ssm.norm.weight"}
    x = Tensor(rng.normal(size=(1, 4, 6)))
    with no_grad():
        a = ssm_forward(x, w_full, TINY).data
        b = ssm_forward(x, w_plain, plain).data
    assert not np.allclose(a, b)


def test_group_count_contract():
    with pytest.raises(ContractError):
        SsmConfig(d_model=6, d_ssm=12, d_head=4, d_state=4, n_conv=3, n_groups=2)
    cfg = SsmConfig(d_model=6, d_ssm=16, d_head=4, d_state=4, n_conv=3, n_groups=2)
    assert cfg.n_heads == 4


def test_multi_group_scan_equals_fold():
    cfg = SsmConfig(d_model=5, d_ssm=12, d_head=3, d_state=3, n_conv=2, n_groups=2)
    rng = named_rng(0, "mg")
    weights = init_ssm_params(cfg, rng)
    x = rng.normal(size=(1, 9, 5))
    with no_grad():
        full = ssm_forward(Tensor(x), weights, cfg, chunk=4).data
        fold, _ = _fold(x, weights, cfg)
    assert np.abs(full - fold).max() < 1e-12


def test_ssm_gradients():
    cfg = SsmConfig(d_model=4, d_ssm=4, d_head=2, d_state=3, n_conv=2)
    rng = named_rng(0, "ssmgrad")
    weights = init_ssm_params(cfg, rng)
    x = rng.normal(size=(1, 5, 4))

    def loss_fn():
        y = ssm_forward(Tensor(x), weights, cfg, chunk=3)
        return (y * y).sum()

    fd_grad_check(loss_fn, weights, named_rng(1, "c"), coords_per_tensor=3, rtol=1e-4)


@pytest.mark.parametrize("n_conv", [1, 4])
def test_conv_history_continues_the_sequence(n_conv):
    # the history is the last n_conv - 1 raw inputs before the cut,
    # zero-padded in front when the cut comes early (j < n_conv - 1)
    rng = named_rng(0, f"conv-history-{n_conv}")
    batch, seq, channels = 2, 7, 5
    weight = Tensor(rng.normal(size=(channels, n_conv)))
    bias = Tensor(rng.normal(size=channels))
    u = rng.normal(size=(batch, seq, channels))
    with no_grad():
        full = causal_conv(Tensor(u), weight, bias).data
        for j in range(seq):
            before = np.concatenate([np.zeros((batch, n_conv - 1, channels)), u[:, :j]], axis=1)
            part = causal_conv(Tensor(u[:, j:]), weight, bias, history=Tensor(before[:, j:]))
            assert np.array_equal(part.data, full[:, j:]), j


def test_conv_applies_silu_byte_equal_to_the_composed_form():
    # a, the pre-activation, summed tap by tap as the op sums it; the op's
    # value equals silu(a), and its bias gradient the sum of silu's gradient
    rng = named_rng(0, "conv-silu")
    batch, seq, channels, k = 2, 7, 5, 4
    u, w, b = rng.normal(size=(batch, seq, channels)), rng.normal(size=(channels, k)), rng.normal(size=channels)
    probe = rng.normal(size=u.shape)
    a = np.zeros(u.shape)
    for tap in range(k):
        lag = k - 1 - tap
        a[:, lag:] += u[:, : seq - lag] * w[:, tap]
    a += b
    pre = Tensor(a, requires_grad=True)
    want = silu(pre)
    backward(tsum(want * probe))
    bias = Tensor(b, requires_grad=True)
    got = causal_conv(Tensor(u), Tensor(w), bias)
    backward(tsum(got * probe))
    reset_tape()
    assert got.data.tobytes() == want.data.tobytes()
    assert bias.grad.tobytes() == pre.grad.sum(axis=(0, 1)).tobytes()


def test_step_returns_a_new_state_and_leaves_its_input_alone():
    rng = named_rng(0, "step-pure")
    weights = init_ssm_params(TINY, rng)
    x = rng.normal(size=(2, 5, 6))
    with no_grad():
        state = init_ssm_state(TINY, batch=2)
        ssm_forward(Tensor(x[:, :4]), weights, TINY, state=state)
        conv_buf, h = state.conv_buf, state.h
        saved = conv_buf.data.copy(), h.data.copy()
        _, new = ssm_step(Tensor(x[:, 4]), weights, TINY, state)
    assert new is not state
    assert state.conv_buf is conv_buf and state.h is h
    assert np.array_equal(conv_buf.data, saved[0]) and np.array_equal(h.data, saved[1])
    assert not np.array_equal(new.h.data, saved[1])


@pytest.mark.parametrize("seq", [1, 9])
def test_prefill_conv_ring_is_its_own_copy(seq):
    # a view would keep the whole (B, L + K - 1, C) prompt block alive
    rng = named_rng(0, f"ring-{seq}")
    weights = init_ssm_params(TINY, rng)
    with no_grad():
        state = init_ssm_state(TINY, batch=2)
        ssm_forward(Tensor(rng.normal(size=(2, seq, 6))), weights, TINY, state=state)
    assert state.conv_buf.shape == (2, TINY.n_conv - 1, TINY.conv_channels)
    assert state.conv_buf.data.base is None


# ---------------------------------------------------------------------------
# the fused scan and conv kernels, against finite differences and the fold
# ---------------------------------------------------------------------------

SCAN_INPUTS = ("xs", "dt", "bm", "cm", "A_log", "D", "h0")


def _scan_inputs(seed, b, l, h, g, p, n):
    rng = named_rng(seed, f"scan-inputs-{b}-{l}-{h}-{g}-{p}-{n}")
    arrays = {
        "xs": rng.normal(size=(b, l, h, p)),
        "dt": rng.uniform(0.05, 0.6, size=(b, l, h)),
        "bm": rng.normal(size=(b, l, g, n)),
        "cm": rng.normal(size=(b, l, g, n)),
        "A_log": np.log(rng.uniform(0.5, 4.0, size=h)),
        "D": rng.normal(size=h),
        "h0": rng.normal(size=(b, h, p, n)),
    }
    weights = {"y": rng.normal(size=(b, l, h, p)), "state": rng.normal(size=(b, h, p, n))}
    return {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}, weights


def _scan_loss(t, weights, chunk, with_state):
    args = (t["xs"], t["dt"], t["bm"], t["cm"], t["A_log"], t["D"])
    if not with_state:
        return tsum(ssm_scan(*args, chunk=chunk) * weights["y"])
    y, state = ssm_scan(*args, h0=t["h0"], chunk=chunk, return_state=True)
    return tsum(y * weights["y"]) + tsum(state * weights["state"])


def _fold_scan(t, state):
    """The scan's inputs folded token by token by `ssm_step_core`: (y, final state)."""
    b, l, h, p = t["xs"].shape
    rows = []
    for i in range(l):
        y_t, state = ssm_step_core(
            t["xs"][:, i], t["dt"][:, i], t["bm"][:, i], t["cm"][:, i], t["A_log"], t["D"], state
        )
        rows.append(y_t.reshape(b, 1, h, p))
    return concat(rows, axis=1), state


def _fold_loss(t, weights, with_state):
    b, _, h, p = t["xs"].shape
    zeros = Tensor(np.zeros((b, h, p, t["bm"].shape[-1])))
    y, state = _fold_scan(t, t["h0"] if with_state else zeros)
    loss = tsum(y * weights["y"])
    return loss + tsum(state * weights["state"]) if with_state else loss


# (batch, seq, heads, groups, d_head, d_state, chunk): chunk 1, chunk >= seq,
# a partial last chunk, two groups, and runs longer than one 64-token slab
SCAN_CASES = [
    (2, 5, 2, 1, 3, 2, 1),
    (1, 7, 2, 1, 2, 3, 16),
    (2, 8, 2, 1, 2, 2, 3),
    (1, 9, 4, 2, 2, 3, 4),
    (1, 70, 2, 1, 2, 2, 8),
    (1, 131, 4, 2, 1, 2, 5),
]


@pytest.mark.parametrize("with_state", [False, True])
@pytest.mark.parametrize("case", SCAN_CASES)
def test_scan_gradients_match_finite_differences(case, with_state):
    b, l, h, g, p, n, chunk = case
    t, weights = _scan_inputs(0, b, l, h, g, p, n)
    params = {k: v for k, v in t.items() if with_state or k != "h0"}
    fd_grad_check(lambda: _scan_loss(t, weights, chunk, with_state), params,
                  named_rng(1, f"scan-fd-{case}"), coords_per_tensor=4)


@pytest.mark.parametrize("with_state", [False, True])
@pytest.mark.parametrize("case", SCAN_CASES)
def test_scan_gradients_equal_the_fold_on_the_tape(case, with_state):
    b, l, h, g, p, n, chunk = case
    t, weights = _scan_inputs(2, b, l, h, g, p, n)
    grads = []
    for loss_fn in (lambda: _scan_loss(t, weights, chunk, with_state),
                    lambda: _fold_loss(t, weights, with_state)):
        reset_tape()
        for v in t.values():
            v.grad = None
        loss = loss_fn()
        backward(loss)
        grads.append({k: v.grad for k, v in t.items() if v.grad is not None})
    scan, fold = grads
    assert set(scan) == set(fold) == set(SCAN_INPUTS) - ({"h0"} if not with_state else set())
    for k in scan:
        assert np.abs(scan[k] - fold[k]).max() <= 1e-10, k


def test_scan_state_carries_an_exact_gradient_under_a_recording_tape():
    # the returned state is part of the scan's node: its gradient reaches every input
    t, weights = _scan_inputs(3, 1, 6, 2, 1, 2, 2)
    y, state = ssm_scan(t["xs"], t["dt"], t["bm"], t["cm"], t["A_log"], t["D"],
                        h0=t["h0"], chunk=4, return_state=True)
    assert y.requires_grad and state.requires_grad
    backward(tsum(state * weights["state"]))
    assert all(t[k].grad is not None and np.abs(t[k].grad).max() > 0
               for k in ("xs", "dt", "bm", "A_log", "h0"))
    fd_grad_check(lambda: _scan_loss(t, {"y": weights["y"] * 0.0, "state": weights["state"]}, 4, True),
                  t, named_rng(4, "state-fd"), coords_per_tensor=4)


def test_scan_masked_lanes_never_overflow():
    # decays this steep put exp(s_i - s_j) far above the float range above the diagonal
    t, _ = _scan_inputs(5, 1, 40, 2, 1, 2, 2)
    dt = Tensor(np.full((1, 40, 2), 30.0))
    a_log = Tensor(np.log(np.array([40.0, 60.0])))
    with no_grad(), np.errstate(over="raise"):
        y = ssm_scan(t["xs"], dt, t["bm"], t["cm"], a_log, t["D"], chunk=40)
    assert np.isfinite(y.data).all()


@pytest.mark.parametrize("trap", ["negative-and-zero-dt", "steep-decay"])
def test_scan_equals_the_fold_where_a_clamped_or_raw_decay_would_not(trap):
    # Negative steps make s rise inside a chunk, so s_i - s_j > 0 below the
    # diagonal and a min(., 0) clamp is wrong there; dt * A = 960 puts a raw
    # exp(s_i - s_j) above the diagonal far past the float range
    b, l, h, g, p, n, chunk = 2, 12, 2, 1, 2, 3, 5
    t, weights = _scan_inputs(7, b, l, h, g, p, n)
    if trap == "negative-and-zero-dt":
        dt = t["dt"].data * 0.1
        dt[:, ::3] = -0.05
        dt[:, 1::4, 0] = 0.0
    else:
        dt = np.full((b, l, h), 60.0)
        t["A_log"] = Tensor(np.full(h, np.log(16.0)), requires_grad=True)
    t["dt"] = Tensor(dt, requires_grad=True)
    args = (t["xs"], t["dt"], t["bm"], t["cm"], t["A_log"], t["D"])
    with no_grad(), np.errstate(over="raise", invalid="raise"):
        y, state = ssm_scan(*args, h0=t["h0"], chunk=chunk, return_state=True)
        fold_y, fold_state = _fold_scan(t, t["h0"])
    assert np.isfinite(y.data).all() and np.isfinite(state.data).all()
    assert np.abs(y.data - fold_y.data).max() < 1e-9
    assert np.abs(state.data - fold_state.data).max() < 1e-9
    fd_grad_check(lambda: _scan_loss(t, weights, chunk, True), t,
                  named_rng(8, f"scan-trap-fd-{trap}"), coords_per_tensor=4)


def test_flip_sign_reaches_the_fused_scan():
    t, _ = _scan_inputs(6, 1, 10, 2, 1, 2, 3)
    args = (t["xs"], t["dt"], t["bm"], t["cm"], t["A_log"], t["D"])
    with no_grad():
        fold = _fold_scan(t, t["h0"])[0].data
        clean, _ = ssm_scan(*args, h0=t["h0"], chunk=4, return_state=True)
        assert np.abs(clean.data - fold).max() < 1e-12
        set_chaos("flip-sign")
        flipped, _ = ssm_scan(*args, h0=t["h0"], chunk=4, return_state=True)
        fold_flipped = _fold_scan(t, t["h0"])[0].data
    # the fault moves the scan off the clean fold, and off the faulted fold too
    assert np.abs(flipped.data - fold).max() > 1e-3
    assert np.abs(flipped.data - fold_flipped).max() > 1e-3


@pytest.mark.parametrize("n_conv, with_history", [(1, False), (3, False), (3, True), (4, True)])
def test_conv_gradients_match_finite_differences(n_conv, with_history):
    rng = named_rng(0, f"conv-fd-{n_conv}-{with_history}")
    batch, seq, channels = 2, 6, 3
    params = {
        "u": Tensor(rng.normal(size=(batch, seq, channels)), requires_grad=True),
        "weight": Tensor(rng.normal(size=(channels, n_conv)), requires_grad=True),
        "bias": Tensor(rng.normal(size=channels), requires_grad=True),
    }
    if with_history:
        params["history"] = Tensor(rng.normal(size=(batch, n_conv - 1, channels)), requires_grad=True)
    r = rng.normal(size=(batch, seq, channels))

    def loss_fn():
        out = causal_conv(params["u"], params["weight"], params["bias"], params.get("history"))
        return tsum(out * out * r)

    fd_grad_check(loss_fn, params, named_rng(1, f"conv-fd-{n_conv}"), coords_per_tensor=5)
