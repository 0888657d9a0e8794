import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest

from hybridlab.config import preset, with_vocab
from hybridlab.harness import (
    AdamW,
    NeedleTask,
    TrainConfig,
    TrainingDiverged,
    clip_global_norm,
    copy_batch_fn,
    extract_needle_value,
    gen_copy_batch,
    gen_needle_batch,
    gen_needle_train_batch,
    load_token_file,
    masked_accuracy,
    masked_next_token_loss,
    positionwise_nll,
    train_model,
    trapezoid_lr,
)
from hybridlab.layout import LayoutSpec
from hybridlab.model import HybridModel
from hybridlab.tensor import ContractError, NonFiniteError, Tensor, backward, default_tape, named_rng, reset_tape


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_trapezoid_shape():
    cfg = TrainConfig(steps=100, lr=1.0)
    lrs = [trapezoid_lr(s, cfg) for s in range(100)]
    assert lrs[0] == pytest.approx(0.04)          # first warmup step is lr/warmup
    assert lrs[24] == pytest.approx(1.0)          # warmup tops out at lr
    assert lrs[25] == 1.0 and lrs[79] == 1.0      # plateau is exactly flat
    assert lrs[80] == pytest.approx(1.0)          # cooldown starts from the top
    assert lrs[99] == pytest.approx(0.05)         # last step is lr/cooldown
    assert min(lrs) > 0.0 and max(lrs) == 1.0


def test_trapezoid_slack_extends_plateau():
    cfg = TrainConfig(steps=100, lr=1.0, warmup_frac=0.1, cooldown_frac=0.1)
    lrs = [trapezoid_lr(s, cfg) for s in range(100)]
    # fractions sum to 0.2; everything between warmup and cooldown is flat
    assert all(v == 1.0 for v in lrs[10:90])


def test_a_long_warmup_leaves_the_rest_to_the_plateau():
    # 5 warmup steps, 3 flat, 2 cooldown: warmup 0.5 and cooldown 0.2 fit
    cfg = TrainConfig(steps=10, lr=1.0, warmup_frac=0.5)
    lrs = [trapezoid_lr(s, cfg) for s in range(10)]
    assert lrs == pytest.approx([(s + 1) / 5 for s in range(5)] + [1.0] * 3 + [(10 - s) / 2 for s in (8, 9)])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(warmup_frac=-0.1),
        dict(warmup_frac=0.9, cooldown_frac=0.2),
        dict(steps=0),
        dict(batch=0),
        dict(lr=-1e-3),
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ContractError):
        TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# copy task
# ---------------------------------------------------------------------------


def test_copy_batch_layout():
    rng = named_rng(0, "copy-test")
    tokens, mask = gen_copy_batch(rng, 4, vocab=16, seq_len=12)
    assert tokens.shape == (4, 12) and mask.shape == (4, 12)
    assert (tokens[:, 0] == 0).all()              # BOS
    assert (tokens[:, 6] == 1).all()              # SEP after the 5-token payload
    np.testing.assert_array_equal(tokens[:, 1:6], tokens[:, 7:])
    assert tokens[:, 1:6].min() >= 2 and tokens.max() < 16
    np.testing.assert_array_equal(mask[:, :7], 0.0)
    np.testing.assert_array_equal(mask[:, 7:], 1.0)


def test_copy_batch_determinism():
    a = gen_copy_batch(named_rng(3, "copy-test"), 8)
    b = gen_copy_batch(named_rng(3, "copy-test"), 8)
    np.testing.assert_array_equal(a[0], b[0])


def test_copy_batch_rejects_odd_length():
    with pytest.raises(ContractError):
        gen_copy_batch(named_rng(0, "x"), 2, seq_len=9)


# ---------------------------------------------------------------------------
# needle task
# ---------------------------------------------------------------------------


def test_needle_alphabets_are_disjoint():
    task = NeedleTask()
    assert task.filler_lo < task.key_lo < task.value_lo < task.vocab
    # ~11:1:1 split of the non-reserved range at the default vocab
    assert task.key_lo == 54 and task.value_lo == 59


def test_needle_extractor_oracle():
    task = NeedleTask(context_len=48)
    rng = named_rng(1, "needle-oracle")
    tokens, mask = gen_needle_train_batch(task, rng, 100)
    assert tokens.shape == (100, 48 + task.value_len)
    for row in range(100):
        prompt = tokens[row, : task.context_len]
        planted = tokens[row, task.context_len :]
        np.testing.assert_array_equal(extract_needle_value(task, prompt), planted)
    np.testing.assert_array_equal(mask[:, : task.context_len], 0.0)
    np.testing.assert_array_equal(mask[:, task.context_len :], 1.0)


def test_needle_eval_batch_is_deterministic():
    task = NeedleTask(context_len=32, depth_fraction=0.25)
    p1, v1, d1 = gen_needle_batch(task, 6)
    p2, v2, d2 = gen_needle_batch(task, 6)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(v1, v2)
    assert (d1 == 0.25).all()


@pytest.mark.parametrize("depth", [0.0, 0.5, 1.0])
def test_needle_depth_places_the_mark(depth):
    task = NeedleTask(context_len=40, depth_fraction=depth)
    prompts, values, _ = gen_needle_batch(task, 3)
    for row in range(3):
        np.testing.assert_array_equal(extract_needle_value(task, prompts[row]), values[row])
        assert prompts[row, task.needle_start()] == task.MARK


def test_needle_rejects_short_context():
    with pytest.raises(ContractError):
        NeedleTask(context_len=4)


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------


def _tiny_model():
    cfg, layout = preset("toy-inter")
    return HybridModel(cfg, layout, seed=0)


def test_train_lr_zero_leaves_params_unchanged():
    model = _tiny_model()
    before = {k: t.data.copy() for k, t in model.parameters().items()}
    result = train_model(model, copy_batch_fn(vocab=model.cfg.vocab, seq_len=16),
                         TrainConfig(steps=3, batch=2, lr=0.0))
    assert len(result.history) == 3
    for k, t in model.parameters().items():
        np.testing.assert_array_equal(t.data, before[k])


def test_train_records_schedule_and_finite_losses():
    model = _tiny_model()
    cfg = TrainConfig(steps=4, batch=2, lr=1e-3, seed=7)
    result = train_model(model, copy_batch_fn(vocab=model.cfg.vocab, seq_len=16), cfg)
    assert [s.step for s in result.history] == [0, 1, 2, 3]
    assert np.isfinite(result.losses).all()
    assert result.final_loss == result.history[-1].loss
    for s in result.history:
        assert s.lr == trapezoid_lr(s.step, cfg)
        assert s.grad_norm >= 0.0


def test_train_raises_on_planted_non_finite():
    model = _tiny_model()
    name = next(iter(model.parameters()))
    model.parameters()[name].data[0] = np.nan
    with pytest.raises(TrainingDiverged, match="step 0"):
        train_model(model, copy_batch_fn(vocab=model.cfg.vocab, seq_len=16),
                    TrainConfig(steps=2, batch=2, lr=1e-3))


# ---------------------------------------------------------------------------
# optimizer / clipping
# ---------------------------------------------------------------------------


def test_adamw_decays_matrices_only():
    mat = Tensor(np.ones((3, 3)), requires_grad=True)
    vec = Tensor(np.ones(3), requires_grad=True)
    mat.grad = np.zeros((3, 3))
    vec.grad = np.zeros(3)
    opt = AdamW({"w": mat, "b": vec}, weight_decay=0.1)
    opt.step(lr=0.5)
    np.testing.assert_array_equal(vec.data, np.ones(3))
    np.testing.assert_allclose(mat.data, np.full((3, 3), 1.0 - 0.5 * 0.1))


def test_clip_global_norm_scales_jointly():
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([0.0, 4.0])
    norm = clip_global_norm({"a": a, "b": b}, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    joint = np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
    assert joint == pytest.approx(1.0)
    np.testing.assert_allclose(a.grad, [0.6, 0.0])


def test_clip_global_norm_below_threshold_is_identity():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([0.3, 0.4])
    norm = clip_global_norm({"a": a}, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(a.grad, [0.3, 0.4])


# ---------------------------------------------------------------------------
# position-wise NLL / token files
# ---------------------------------------------------------------------------


def test_positionwise_nll_buckets_and_flags():
    model = _tiny_model()
    stream = named_rng(0, "nll-stream").integers(0, model.cfg.vocab, size=33)
    rows = positionwise_nll(model, stream, bucket=8, train_len=16)
    assert [r[0] for r in rows] == [0, 8, 16, 24]
    assert [r[2] for r in rows] == [False, False, True, True]
    # an untrained model sits near the uniform baseline ln(vocab)
    for _, nll, _ in rows:
        assert nll == pytest.approx(np.log(model.cfg.vocab), rel=0.35)


def test_positionwise_nll_rejects_bad_bucket():
    model = _tiny_model()
    with pytest.raises(ContractError):
        positionwise_nll(model, np.arange(10), bucket=0)


def test_accuracy_over_no_target_position_raises_as_the_loss_does():
    # only position 0 is marked, and it is never a target
    model = _tiny_model()
    tokens = named_rng(0, "no-target").integers(0, model.cfg.vocab, size=(2, 8))
    mask = np.zeros(tokens.shape, dtype=bool)
    mask[:, 0] = True
    with pytest.raises(ContractError, match="zero positions"):
        masked_next_token_loss(model, tokens, mask)
    reset_tape()
    with pytest.raises(ContractError, match="zero positions"):
        masked_accuracy(model, tokens, mask)


def test_eval_helpers_record_no_tape_and_match_a_recorded_forward():
    cfg, layout = preset("toy-mamba")
    model = HybridModel(with_vocab(cfg, 32), layout, seed=0)
    tokens, mask = gen_copy_batch(named_rng(0, "eval-tape"), 8, 32, 64)
    stream = tokens.reshape(-1)[:130]
    reset_tape()
    acc = masked_accuracy(model, tokens, mask)
    rows = positionwise_nll(model, stream, bucket=32)
    assert not default_tape().nodes
    # the same forwards with the tape recording give the same values
    logits = model.forward(tokens).data
    stream_logits = model.forward(stream.reshape(1, -1)).data[0][:-1]
    assert default_tape().nodes
    reset_tape()
    hit = (np.argmax(logits[:, :-1], axis=-1) == tokens[:, 1:]) * mask[:, 1:]
    assert acc == float(hit.sum() / mask[:, 1:].sum())
    shifted = stream_logits - stream_logits.max(axis=-1, keepdims=True)
    nll = np.log(np.exp(shifted).sum(axis=-1)) - shifted[np.arange(stream.size - 1), stream[1:]]
    assert [r[1] for r in rows] == [float(nll[s : s + 32].mean()) for s in range(0, nll.size, 32)]


def test_load_token_file_ids_and_bytes(tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_text("5\n7\n\n11\n")
    np.testing.assert_array_equal(load_token_file(str(ids), "ids"), [5, 7, 11])
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes([0, 255, 42]))
    np.testing.assert_array_equal(load_token_file(str(raw), "bytes"), [0, 255, 42])


def test_load_token_file_rejects_junk(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("5\nnot-a-token\n")
    with pytest.raises(ValueError):
        load_token_file(str(bad), "ids")
    with pytest.raises(ContractError):
        load_token_file(str(bad), "words")


# ---------------------------------------------------------------------------
# tape memory
# ---------------------------------------------------------------------------


def _reached_arrays(objs) -> dict[int, np.ndarray]:
    """The distinct base arrays that `objs` reach, by id.

    An array counts itself; a Tensor its data; a list or tuple its items;
    a function the cells of its closure, nested functions included. A
    view counts its base.
    """
    seen, bases = set(), {}

    def collect(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            collect(obj.data)
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                collect(item)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                collect(cell.cell_contents)

    for obj in objs:
        collect(obj)
    return bases


def tape_kept_bytes(nodes) -> int:
    """Bytes of the distinct buffers the tape keeps alive.

    Each node's output plus every array its backward closure reaches
    (directly, through a Tensor, a list or tuple, or a nested function's
    closure); a view counts its base once.
    """
    kept = _reached_arrays([obj for node in nodes for obj in (node.out, node.backward)])
    return sum(a.nbytes for a in kept.values())


def _training_forward_tape(name, moe=False, batch=16, length=64):
    """(model, tape nodes) of one copy-task training forward, 16 x 64 by default."""
    cfg, layout = preset(name)
    if moe:
        layout = LayoutSpec(tuple(replace(b, moe=True) for b in layout.blocks))
    model = HybridModel(with_vocab(cfg, 32), layout, seed=0)
    tokens, mask = gen_copy_batch(named_rng(0, "tape"), batch, 32, length)
    reset_tape()
    masked_next_token_loss(model, tokens, mask)
    return model, list(default_tape().nodes)


def test_a_toy_mamba_training_forward_records_few_tape_nodes():
    # one in_proj matmul and one conv, its SiLU inside, and B and C as plain
    # slices of it, and one node for the whole FFN, per block: 93 nodes
    _, nodes = _training_forward_tape("toy-mamba")
    reset_tape()
    assert len(nodes) <= 94, len(nodes)


def test_an_inf_in_an_ffn_weight_names_the_fused_ffn():
    cfg, layout = preset("toy-llama")
    model = HybridModel(with_vocab(cfg, 32), layout, seed=0)
    model.blocks[1].weights["ffn.up"].data[3, 5] = np.inf
    tokens, mask = gen_copy_batch(named_rng(0, "inf-ffn"), 2, 32, 16)
    try:
        with pytest.raises(NonFiniteError, match="'siglu_ffn'"):
            masked_next_token_loss(model, tokens, mask)
    finally:
        reset_tape()


def test_every_moe_expert_is_one_fused_ffn_node():
    # one node for the shared expert and for each routed expert with
    # traffic, per block; the only silu_mul left is each SSM block's gate
    model, nodes = _training_forward_tape("toy-inter", moe=True)
    ops = [n.op for n in nodes]
    reset_tape()
    experts = sum(1 + int(np.count_nonzero(b.last_moe_load)) for b in model.blocks)
    assert ops.count("siglu_ffn") == experts, (ops.count("siglu_ffn"), experts)
    assert ops.count("silu_mul") == sum(b.kind == "mamba" for b in model.blocks)


@pytest.mark.parametrize("name,moe", [
    ("toy-llama", False), ("toy-mamba", False), ("toy-swa", False), ("toy-inter", False),
    ("toy-intra", False), ("toy-intra-2l", False), ("toy-inter", True),
])
def test_no_training_forward_slices_a_weight(name, moe):
    # weights enter whole; only activations are sliced
    model, nodes = _training_forward_tape(name, moe)
    weights = {id(p): k for k, p in model.parameters().items()}
    getitems = [n for n in nodes if n.op == "getitem"]
    sliced = [weights[id(t)] for n in getitems for t in n.inputs if id(t) in weights]
    reset_tape()
    assert getitems and not sliced, sliced


# tape_kept_bytes of one copy-task training forward at 16 x 64, with each
# bound 5% above it. The fused ops keep only what their backward cannot
# rebuild in one pass; keeping any of silu_mul's activation, a norm's
# normalized input, the conv's padded copy or its sigmoid, the scan's
# chunked x, w and v, or the FFN's gated product again crosses a bound (the
# figures with all but the last: 72,211,832 / 132,503,416 / 128,411,960 /
# 134,846,968 bytes; with only the conv's SiLU as a node of its own:
# 95,106,936 / 93,653,304 / 104,047,096 for toy-mamba, toy-intra and
# toy-inter-moe; with the FFN as four ops that keep its gated product:
# 61,201,784 / 89,864,056 / 88,934,712 / 100,114,936). So does keeping
# s = sigmoid(a) beside the SSM gate and the FFN's gate, as `silu_mul` and
# `siglu_ffn` did: 54,910,328 / 83,572,600 / 82,643,256 / 93,823,480; and
# keeping the FFN's g and u, and each attention tile's exp tile instead of
# its row max: 48,618,872 / 73,086,840 / 72,681,784 / 84,386,296
@pytest.mark.parametrize("name,moe,bound", [
    ("toy-llama", False, 27_100_000),         # 25,812,344 bytes
    ("toy-mamba", False, 63_520_000),         # 60,503,928
    ("toy-intra", False, 61_760_000),         # 58,820,920
    ("toy-inter", True, 72_700_000),          # 69,247,480, MoE on every block
], ids=["toy-llama", "toy-mamba", "toy-intra", "toy-inter-moe"])
def test_training_forward_tape_bytes_stay_bounded(name, moe, bound):
    _, nodes = _training_forward_tape(name, moe)
    kept = tape_kept_bytes(nodes)
    reset_tape()
    assert kept <= bound, kept


def _tape_mib(name, length):
    _, nodes = _training_forward_tape(name, batch=4, length=length)
    kept = tape_kept_bytes(nodes)
    reset_tape()
    return kept / 2**20


def test_attention_tapes_grow_linearly_in_length():
    # 4 x 256 -> 4 x 1024. Attention keeps two floats per row and head, and a
    # swa tile scores only its sink and band, so toy-llama and toy-swa grow
    # about as the other ops do (25.5 -> 98.9 MiB, 3.9x; with each tile's exp
    # tile kept, 9.35x), and toy-swa's long tape stays below toy-mamba's
    # (97.5 against 224.6 MiB)
    long = {name: _tape_mib(name, 1024) for name in ("toy-llama", "toy-swa", "toy-mamba")}
    for name in ("toy-llama", "toy-swa"):
        assert long[name] <= 4.5 * _tape_mib(name, 256), (name, long)
    assert long["toy-swa"] < long["toy-mamba"], long


def _attention_kept_shapes(node):
    """Per 16-row causal tile, its row max m and inv, each (B, H_kv, G * 16, 1),
    then each tile's boolean hidden lanes (16, keys up to its last row)."""
    (b, l, h, _), h_kv = node.inputs[0].shape, node.inputs[1].shape[2]
    tiles = range(16, l + 1, 16)
    return [(b, h_kv, h // h_kv * 16, 1)] * 2 * len(tiles) + [(16, stop) for stop in tiles]


def test_fused_op_backwards_keep_only_their_inputs_output_and_row_scale():
    # beyond inputs and output, silu_mul and the FFN keep nothing (g, u,
    # their sigmoid and the gated product are rebuilt), a norm its row
    # scale r, the conv its pre-activation a, of the output's shape, and
    # attention its row max and row inverse per tile, not the tile's
    # scores, and each masked tile's boolean hidden lanes. toy-intra has
    # every one
    _, nodes = _training_forward_tape("toy-intra")
    extra_shapes = {
        "silu_mul": lambda node: [],
        "rms_norm": lambda node: [node.inputs[0].shape[:-1] + (1,)],
        "group_norm": lambda node: [node.inputs[0].shape[:-1] + (1,)],
        "causal_conv": lambda node: [node.out.shape],
        "siglu_ffn": lambda node: [],
        "attention": _attention_kept_shapes,
    }
    checked = set()
    for node in nodes:
        if node.op not in extra_shapes:
            continue
        own = _reached_arrays([node.out, *node.inputs])
        extra = [a for k, a in _reached_arrays([node.backward]).items() if k not in own]
        assert [a.shape for a in extra] == extra_shapes[node.op](node), node.op
        checked.add(node.op)
    reset_tape()
    assert checked == set(extra_shapes), checked


@pytest.mark.parametrize("name,moe", [("toy-intra", False), ("toy-inter", True)],
                         ids=["toy-intra", "toy-inter-moe"])
def test_a_training_backward_releases_every_node_it_applies(name, moe):
    _, nodes = _training_forward_tape(name, moe)
    backward(nodes[-1].out)                 # the loss is the forward's last op
    assert not default_tape().nodes and tape_kept_bytes(default_tape().nodes) == 0
    assert all(n.out is None and n.inputs == () and n.backward is None for n in nodes)


# tracemalloc peak of one copy-task training forward + backward at 16 x 64,
# above the step's start, with each bound 5% above it. The sweep frees each
# node it has applied, so the step peaks at about its forward tape; with
# the whole tape held through the sweep (and the conv's SiLU a node of its
# own) it read 111,398,003 / 109,961,297 / 120,480,787 bytes, with the
# FFN as four ops 92,943,672 / 92,057,504 / 96,145,861, with s =
# sigmoid kept beside each SiLU gate 87,150,472 / 86,258,992 / 90,952,709,
# and with the FFN's g and u and each attention tile's exp tile kept
# 79,076,544 / 78,710,776 / 84,132,085 (toy-llama 54,251,500). toy-llama
# bounds the temporaries of attention's rebuilt tiles
@pytest.mark.parametrize("name,moe,bound", [
    ("toy-llama", False, 36_320_000),         # 34,590,940 bytes
    ("toy-mamba", False, 73_120_000),         # 69,638,256
    ("toy-intra", False, 71_390_000),         # 67,995,476
    ("toy-inter", True, 75_740_000),          # 72,135,525, MoE on every block
], ids=["toy-llama", "toy-mamba", "toy-intra", "toy-inter-moe"])
def test_training_step_peak_stays_at_its_forward_tape(name, moe, bound):
    model, _ = _training_forward_tape(name, moe)        # a warm forward first
    reset_tape()
    tokens, mask = gen_copy_batch(named_rng(0, "tape"), 16, 32, 64)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        backward(masked_next_token_loss(model, tokens, mask))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
        reset_tape()
    assert peak <= bound, peak
