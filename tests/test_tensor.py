import gc
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import fd_grad_check
from hybridlab.config import preset, with_vocab
from hybridlab.harness import masked_next_token_loss
from hybridlab.layout import LayoutSpec
from hybridlab.model import HybridModel
from hybridlab.ssm import causal_conv
from hybridlab.tensor import (
    ContractError,
    DimensionError,
    default_tape,
    NonFiniteError,
    Tensor,
    backward,
    concat,
    cross_entropy_logits,
    embedding_lookup,
    exp,
    matmul,
    named_rng,
    no_grad,
    reset_tape,
    set_chaos,
    siglu_ffn,
    sigmoid,
    silu,
    silu_mul,
    softmax_lastdim,
    softplus,
    tmean,
    tsum,
)


def test_grad_matches_fd_on_composite_expression():
    rng = named_rng(0, "test-grad")
    params = {
        "w": Tensor(rng.normal(size=(4, 5)) * 0.3, requires_grad=True),
        "b": Tensor(rng.normal(size=(5,)) * 0.3, requires_grad=True),
    }
    x = rng.normal(size=(2, 3, 4))

    def loss_fn():
        h = matmul(Tensor(x), params["w"]) + params["b"]
        return tsum(softmax_lastdim(silu(h)) * h)

    fd_grad_check(loss_fn, params, named_rng(1, "coords"), coords_per_tensor=6)


def test_broadcast_gradients_reduce_correctly():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.full((4,), 2.0), requires_grad=True)
    backward(tsum(a * b))
    assert np.allclose(a.grad, 2.0)
    assert np.allclose(b.grad, 3.0)  # summed over the broadcast axis


@pytest.mark.parametrize("shape", [(2, 5), (3, 1, 7)])
def test_softmax_rows_sum_to_one(shape):
    rng = named_rng(0, "softmax")
    p = softmax_lastdim(Tensor(rng.normal(size=shape) * 3)).data
    assert np.allclose(p.sum(axis=-1), 1.0)
    assert (p >= 0).all()


def test_masked_softmax_hidden_lanes_are_exactly_zero():
    rng = named_rng(0, "masked")
    scores = Tensor(rng.normal(size=(4, 6)))
    mask = np.triu(np.ones((4, 6)))
    p = softmax_lastdim(scores, mask).data
    assert (p[mask == 0] == 0.0).all()
    assert np.allclose(p.sum(axis=-1), 1.0)


def test_masked_softmax_rejects_a_row_with_no_visible_entry():
    mask = np.ones((3, 4), dtype=bool)
    mask[1] = False
    with pytest.raises(ContractError, match="no visible entries"):
        softmax_lastdim(Tensor(np.zeros((3, 4))), mask)


def test_masked_softmax_grad_does_not_leak_through_mask():
    rng = named_rng(0, "maskgrad")
    scores = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    mask = np.tril(np.ones((3, 4)))
    p = softmax_lastdim(scores, mask)
    backward(tsum(p * p))
    assert (scores.grad[mask == 0] == 0.0).all()


def test_cross_entropy_matches_manual_log_softmax():
    rng = named_rng(0, "ce")
    logits = rng.normal(size=(2, 3, 7))
    targets = rng.integers(0, 7, size=(2, 3))
    loss = float(cross_entropy_logits(Tensor(logits), targets).data)
    logp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
    want = -np.take_along_axis(logp, targets[..., None], axis=-1).mean()
    assert abs(loss - want) < 1e-12


def test_cross_entropy_position_mask_selects_terms():
    rng = named_rng(0, "cemask")
    logits = rng.normal(size=(1, 4, 5))
    targets = rng.integers(0, 5, size=(1, 4))
    mask = np.array([[0.0, 1.0, 1.0, 0.0]])
    loss = float(cross_entropy_logits(Tensor(logits), targets, position_mask=mask).data)
    logp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
    per = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    assert abs(loss - per[0, 1:3].mean()) < 1e-12


def test_embedding_lookup_grad_scatters_to_rows():
    table = Tensor(np.arange(12, dtype=np.float64).reshape(6, 2), requires_grad=True)
    ids = np.array([[1, 1, 4]])
    out = embedding_lookup(table, ids)
    backward(tsum(out))
    assert table.grad[1].tolist() == [2.0, 2.0]  # row used twice
    assert table.grad[4].tolist() == [1.0, 1.0]
    assert table.grad[0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("op", ["concat"])
def test_structural_op_gradients(op):
    rng = named_rng(0, f"struct-{op}")
    params = {"x": Tensor(rng.normal(size=(2, 4)), requires_grad=True)}

    def loss_fn():
        x = params["x"]
        y = concat([x, x * 2.0], axis=0)
        return tsum(y * y)

    fd_grad_check(loss_fn, params, named_rng(1, op), coords_per_tensor=5)


def test_a_repeated_advanced_index_sums_its_gradient():
    x = Tensor(np.arange(4.0), requires_grad=True)
    backward(tsum(x[np.array([0, 0, 2])]))
    assert x.grad.tolist() == [2.0, 0.0, 1.0, 0.0]


def test_a_permutation_gather_adds_its_gradient_without_add_at(monkeypatch):
    # distinct rows (-1 is row 5) take one fancy add, byte-equal to np.add.at;
    # rows that repeat modulo the axis (1 and -5) are summed before their add
    rng = named_rng(0, "perm-gather")
    data, probe = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    index = np.array([4, 0, -1, 2, 1, 3])
    want = np.zeros((6, 3))
    np.add.at(want, index, probe)
    calls = []
    add_at = np.add.at
    monkeypatch.setattr(np.add, "at", lambda *a: (calls.append(a[1]), add_at(*a)))
    x = Tensor(data, requires_grad=True)
    backward(tsum(x[index] * probe))
    assert not calls
    assert x.grad.tobytes() == want.tobytes()
    x = Tensor(data, requires_grad=True)
    backward(tsum(x[np.array([1, -5])]))
    assert not calls and x.grad[1].tolist() == [2.0] * 3


def test_repeated_ids_sum_their_gradient_without_add_at(monkeypatch):
    # an embedding lookup's 2-D ids repeat rows: one sort and np.add.reduceat
    # sum each row's values, within rounding of np.add.at
    rng = named_rng(0, "repeated-ids")
    ids = rng.integers(0, 32, size=(16, 64))
    probe = rng.normal(size=(16, 64, 8))
    want = np.zeros((32, 8))
    np.add.at(want, ids, probe)
    calls = []
    add_at = np.add.at
    monkeypatch.setattr(np.add, "at", lambda *a: (calls.append(a[1]), add_at(*a)))
    params = {"w": Tensor(rng.normal(size=(32, 8)), requires_grad=True)}
    backward(tsum(embedding_lookup(params["w"], ids) * probe))
    assert not calls
    np.testing.assert_allclose(params["w"].grad, want, rtol=0, atol=1e-12)

    def loss_fn():
        rows = embedding_lookup(params["w"], ids)
        return tsum(rows * rows * probe)

    fd_grad_check(loss_fn, params, named_rng(1, "repeated-ids"), coords_per_tensor=12)


GETITEM_INDEXES = {
    "slice": (slice(1, 4), slice(None)),
    "strided": (slice(None, None, 2), slice(5, 0, -2)),
    "bool mask": np.array([[True, False, True, True, False, False, True]] * 5),
    "repeated": (np.array([0, 2, 2, 4, 0]), slice(1, 6)),
    "permutation": np.array([3, 0, -1, 1, 2]),
}


@pytest.mark.parametrize("kind", sorted(GETITEM_INDEXES))
def test_getitem_gradients_match_fd(kind):
    rng = named_rng(0, f"getitem-{kind}")
    params = {"x": Tensor(rng.normal(size=(5, 7)), requires_grad=True)}
    index = GETITEM_INDEXES[kind]
    probe = rng.normal(size=params["x"].data[index].shape)

    def loss_fn():
        y = params["x"][index]
        return tsum(y * y * probe)

    fd_grad_check(loss_fn, params, named_rng(1, kind), coords_per_tensor=12)


@pytest.mark.parametrize("leaf", [True, False])
def test_several_slices_of_one_source_sum_like_a_dense_reference(leaf):
    # disjoint, overlapping and repeated column selections of one source,
    # which a dense use reaches first in the sweep
    rng = named_rng(0, f"slices-{leaf}")
    data = rng.normal(size=(3, 10))
    indexes = [slice(0, 4), slice(4, 10), slice(2, 7), slice(9, 0, -3), np.array([1, 1, 9])]
    probes = [rng.normal(size=(3, len(np.arange(10)[ix]))) for ix in indexes]
    dense = rng.normal(size=(3, 10))
    want = dense.copy()
    for ix, probe in zip(indexes, probes):
        for j, col in enumerate(np.arange(10)[ix]):
            want[:, col] += probe[:, j]
    x = Tensor(data, requires_grad=True)
    source = (lambda: x) if leaf else (lambda: x * 1.0)
    src = source()
    loss = tsum(src[:, indexes[0]] * probes[0])
    for ix, probe in zip(indexes[1:], probes[1:]):
        loss = loss + tsum(src[:, ix] * probe)
    backward(loss + tsum(src * dense))
    np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-14)
    # a second sweep adds to the first's gradient and leaves its array alone
    first, saved = x.grad, x.grad.copy()
    reset_tape()
    backward(tsum(source()[:, 0:4] * probes[0]))
    assert np.array_equal(first, saved)
    np.testing.assert_allclose(x.grad[:, 0:4], want[:, 0:4] + probes[0], rtol=0, atol=1e-14)
    np.testing.assert_array_equal(x.grad[:, 4:], saved[:, 4:])


def test_a_basic_slice_is_a_view_of_its_source():
    x = Tensor(np.arange(24.0).reshape(4, 6), requires_grad=True)
    assert np.shares_memory(x[1:3, ::2].data, x.data)
    assert np.shares_memory(x[1].data, x.data)
    assert not np.shares_memory(x[np.array([0, 2])].data, x.data)


def test_view_ops_pass_an_inf_on_to_the_first_op_that_computes_values():
    w = Tensor(np.ones((4, 6)), requires_grad=True)
    w.data[2, 3] = np.inf           # planted after the creation check
    view = w[1:3].reshape(4, 3, 1).swapaxes(0, 1)
    with pytest.raises(NonFiniteError, match="'mul'"):
        view * 2.0


def test_an_inf_in_a_conv_weight_names_the_conv():
    cfg, layout = preset("toy-mamba")
    model = HybridModel(with_vocab(cfg, 32), layout, seed=0)
    model.parameters()["blocks.0.ssm.conv.weight"].data[3, 1] = np.inf
    with pytest.raises(NonFiniteError, match="'causal_conv'"), np.errstate(invalid="ignore"):
        masked_next_token_loss(model, named_rng(0, "inf").integers(0, 32, size=(2, 8)), None)
    reset_tape()


def test_dimension_contract_rejects_bad_matmul():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_nonfinite_guard_trips_on_overflow():
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        exp(Tensor(np.array([1e6])))


def test_named_rng_streams_are_distinct_and_reproducible():
    a1 = named_rng(7, "alpha").normal(size=4)
    a2 = named_rng(7, "alpha").normal(size=4)
    b = named_rng(7, "beta").normal(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_chaos_flip_sign_negates_matmul():
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))
    clean = matmul(a, b).data
    set_chaos("flip-sign")
    try:
        faulty = matmul(a, b).data
    finally:
        set_chaos(None)
    assert np.array_equal(faulty, -clean)


def test_no_grad_leaves_no_tape_nodes():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = tmean(x * x)
    assert y.grad is None
    backward(tsum(x * 2.0))  # a fresh graph still works afterwards
    assert np.allclose(x.grad, 2.0)
    reset_tape()


def test_backward_keeps_grads_on_leaves_only():
    a = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    b = Tensor(np.array([0.3, 0.7, -1.5]), requires_grad=True)
    prod = a * b
    hidden = exp(prod)
    loss = tsum(hidden)
    backward(loss)
    assert prod.grad is None and hidden.grad is None and loss.grad is None
    e = np.exp(a.data * b.data)
    np.testing.assert_array_equal(a.grad, e * b.data)
    np.testing.assert_array_equal(b.grad, e * a.data)
    reset_tape()


def test_backward_leaves_an_independent_graph_on_the_tape_alone():
    a = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    b = Tensor(np.array([0.3, 0.7, -1.5]), requires_grad=True)
    c = Tensor(np.array([2.0, 0.1, -0.4]), requires_grad=True)
    d = Tensor(np.array([-1.0, 0.6, 1.2]), requires_grad=True)
    # the two graphs interleave on the tape, and loss2's ops come last
    prod1 = a * b
    prod2 = c * d
    loss1 = tsum(exp(prod1))
    loss2 = tsum(exp(prod2) * c)
    backward(loss1)
    e = np.exp(a.data * b.data)
    np.testing.assert_array_equal(a.grad, e * b.data)
    np.testing.assert_array_equal(b.grad, e * a.data)
    assert c.grad is None and d.grad is None and loss2.grad is None
    # loss1's nodes left the tape as the sweep applied them; loss2's stay
    assert [n.op for n in default_tape().nodes] == ["mul", "exp", "mul", "sum"]
    assert default_tape().nodes[-1].out is loss2
    backward(loss2)
    np.testing.assert_array_equal(d.grad, np.exp(c.data * d.data) * c.data * c.data)
    assert not default_tape().nodes


def test_a_consumed_graph_raises_when_a_sweep_reaches_it():
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    hidden = exp(x * 0.5)
    loss = tsum(hidden)
    backward(loss)
    with pytest.raises(ContractError, match="already consumed"):
        backward(loss)
    # a tensor kept from the consumed graph feeds a new one: its gradient
    # has no node left to flow through, so the sweep refuses it
    y = Tensor(np.array([0.3, 0.7, -1.5]), requires_grad=True)
    with pytest.raises(ContractError, match="'exp'.*already consumed"):
        backward(tsum(hidden * y))
    reset_tape()


@pytest.mark.parametrize("name", ["toy-inter", "toy-intra"])
def test_reset_tape_leaves_no_cyclic_garbage(name):
    cfg, layout = preset(name)
    if name == "toy-inter":
        layout = LayoutSpec(tuple(replace(b, moe=True) for b in layout.blocks))
    model = HybridModel(with_vocab(cfg, 32), layout, seed=0)
    tokens = named_rng(0, "gc-tokens").integers(0, 32, size=(2, 12))
    gc.collect()
    gc.disable()
    try:
        loss = masked_next_token_loss(model, tokens, None)
        backward(loss)
        reset_tape()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_activations_match_one_over_one_plus_exp_bytewise():
    edges = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 800.0, -800.0]
    x = np.concatenate([edges, named_rng(0, "sigmoid").normal(size=64) * 3.0])
    # exp(-800) underflowing to 0 is exact, and so is 1 / (1 + exp(800)) = 0
    # after exp overflows to inf; any other overflow, division by zero or
    # invalid value still raises
    with np.errstate(all="raise", under="ignore"):
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-x))
        want = {
            sigmoid: (s, s * (1.0 - s)),
            silu: (x * s, s * (1.0 + x * (1.0 - s))),
            softplus: (np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0), s),
        }
        for op, (value, grad) in want.items():
            t = Tensor(x, requires_grad=True)
            out = op(t)
            backward(tsum(out))
            assert out.data.tobytes() == value.tobytes(), op.__name__
            assert t.grad.tobytes() == grad.tobytes(), op.__name__
            reset_tape()
        # the fused gate: its value and both grads equal the composed form's
        b = named_rng(1, "sigmoid").normal(size=x.shape)
        c = named_rng(2, "sigmoid").normal(size=x.shape)
        runs = []
        for gate in (lambda u, v: silu(u) * v, silu_mul):
            ta, tb = Tensor(x, requires_grad=True), Tensor(b, requires_grad=True)
            out = gate(ta, tb)
            backward(tsum(out * c))
            runs.append((out.data.tobytes(), ta.grad.tobytes(), tb.grad.tobytes()))
            reset_tape()
        assert runs[0] == runs[1]


@pytest.mark.parametrize("op", [sigmoid, silu, softplus])
def test_activations_on_a_0d_tensor_equal_their_1d_results(op):
    results = []
    for x in (Tensor(0.5, requires_grad=True), Tensor([0.5], requires_grad=True)):
        out = op(x)
        backward(tsum(out))
        results.append((np.reshape(out.data, 1).tobytes(), np.reshape(x.grad, 1).tobytes()))
        assert np.shape(x.grad) == x.shape
        reset_tape()
    assert results[0] == results[1]


def test_overflow_is_ignored_only_inside_the_sigmoid():
    # every op that takes a sigmoid, forward and backward, on pre-activations
    # of +-800: exp(800) overflows inside `_sigmoid` alone
    pre = np.array([800.0, -800.0, 0.5, -0.5])
    eye = np.eye(4)[None]                                   # x @ w_gate = diag(pre)
    w = named_rng(3, "sigmoid-ops").normal(size=(4, 4, 4))
    ops = [
        (sigmoid, [pre]),
        (silu, [pre]),
        (softplus, [pre]),
        (silu_mul, [pre, w[0, 0]]),
        (siglu_ffn, [eye, np.diag(pre), w[1], w[2]]),
        (causal_conv, [np.zeros((1, 3, 4)), w[3], pre]),   # zero input: the bias is a
    ]
    with np.errstate(all="raise", under="ignore"):
        for op, arrays in ops:
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            backward(tsum(op(*inputs)))
            assert all(np.isfinite(t.grad).all() for t in inputs), op.__name__
            reset_tape()


def _out_of_place_backward(loss):
    # the sweep before in-place accumulation: every sum a fresh array
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(default_tape().nodes):
        g_out = grads.pop(id(node.out), None)
        if g_out is None:
            continue
        for t, g in zip(node.inputs, node.backward(g_out)):
            if g is None or not t.requires_grad:
                continue
            if t.node is None:
                t.grad = g if t.grad is None else t.grad + g
            else:
                grads[id(t)] = g if id(t) not in grads else grads[id(t)] + g


def test_backward_accumulates_in_place_only_into_its_own_sums():
    # add hands one array to both inputs a and b; each then gets two more
    # contributions, b's through a reshape view. The leaves x and w share
    # one array the same way, and x then gets four more contributions.
    rng = named_rng(0, "accumulate")
    params = {
        "x": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
    }
    probe = np.arange(12.0) - 5.0

    def loss_fn():
        x = params["x"]
        a = x * params["w"]
        b = exp(x * 0.5)
        t1, t2, t3 = a * 3.0, a * b, b.reshape(12)
        s = a + b
        loss = tsum(s * s) + tsum(t1) + tsum(t2 * t2) + tsum(t3 * probe) + tsum(x * x)
        return loss + tsum((x + params["w"]) * probe.reshape(3, 4))

    fd_grad_check(loss_fn, params, named_rng(1, "accumulate"), coords_per_tensor=12)
    grads = []
    for sweep in (backward, _out_of_place_backward):
        for p in params.values():
            p.grad = None
        sweep(loss_fn())
        grads.append([p.grad.tobytes() for p in params.values()])
        reset_tape()
    assert grads[0] == grads[1]
