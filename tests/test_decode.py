import resource
import tracemalloc

import numpy as np
import pytest

import hybridlab as hl
from hybridlab.config import preset, with_vocab
from hybridlab.hybrid import legal_fusion_specs
from hybridlab.layout import BlockSpec, LayoutSpec
from hybridlab.decode import (
    DecodeState,
    FullKV,
    RollingKV,
    decode_step,
    generate,
    measure_decode,
    prefill,
    sample_token,
)
from hybridlab.model import HybridModel
from hybridlab import decode, tensor
from hybridlab.tensor import ContractError, named_rng, no_grad

PRESETS = ("toy-llama", "toy-mamba", "toy-swa", "toy-inter", "toy-intra", "toy-intra-2l")


def cached_vs_full(name, total=24, prompt=5, batch=2, seed=1):
    cfg, layout = preset(name)
    model = HybridModel(cfg, layout, seed=seed)
    worst, state = cached_vs_full_model(model, f"dec-{name}", total, prompt, batch, seed)
    return worst, state, cfg, layout


def cached_vs_full_model(model, stream, total, prompt, batch, seed):
    tokens = named_rng(seed, stream).integers(0, model.cfg.vocab, size=(batch, total))
    state, logits = prefill(model, tokens[:, :prompt])
    rows = [logits.data[:, -1]]
    for t in range(prompt, total):
        rows.append(decode_step(model, state, tokens[:, t]).data)
    with no_grad():
        full = model.forward(tokens).data
    worst = max(
        float(np.abs(rows[i] - full[:, prompt - 1 + i]).max()) for i in range(len(rows))
    )
    return worst, state


@pytest.mark.parametrize("name", PRESETS)
def test_cached_decoding_equals_full_forward(name):
    worst, _, _, _ = cached_vs_full(name)
    assert worst < 1e-8, worst


@pytest.mark.parametrize("name", PRESETS)
def test_measured_cache_bytes_match_the_cost_model(name):
    _, state, cfg, layout = cached_vs_full(name, total=16)
    assert state.cache_bytes() == hl.cache_bytes(layout, cfg, state.position)


def test_state_bytes_match_at_every_step():
    cfg, layout = preset("toy-swa")
    model = HybridModel(cfg, layout, seed=0)
    state, _ = prefill(model, np.zeros((1, 1), dtype=np.int64))
    for _ in range(cfg.window + cfg.sink + 6):
        decode_step(model, state, 3)
        assert state.cache_bytes() == hl.cache_bytes(layout, cfg, state.position)


def test_a_per_block_window_reaches_the_rolling_cache():
    cfg, _ = preset("toy-swa")
    layout = LayoutSpec((BlockSpec("attn"), BlockSpec("swa", window=5, sink=1)))
    model = HybridModel(cfg, layout, seed=0)
    state, _ = prefill(model, np.zeros((1, 3), dtype=np.int64))
    full, rolling = state.caches
    assert isinstance(full, FullKV) and isinstance(rolling, RollingKV)
    assert (rolling.window, rolling.sink) == (5, 1)
    for t in range(20):
        decode_step(model, state, t % cfg.vocab)
        assert state.cache_bytes() == hl.cache_bytes(layout, cfg, state.position)


def test_prefill_rejects_empty_prompt():
    cfg, layout = preset("toy-llama")
    model = HybridModel(cfg, layout, seed=0)
    with pytest.raises(ContractError):
        prefill(model, np.zeros((1, 0), dtype=np.int64))


def test_decode_step_advances_position():
    cfg, layout = preset("toy-llama")
    model = HybridModel(cfg, layout, seed=0)
    state, _ = prefill(model, np.array([[1, 2, 3]]))
    assert state.position == 3
    decode_step(model, state, 4)
    assert state.position == 4


def _store_positions(kv, total, block, start=0):
    """Extend `kv` with key = position, value = -position, `block` tokens at a time."""
    for lo in range(start, total, block):
        pos = np.arange(lo, min(lo + block, total))
        k = np.broadcast_to(pos[None, :, None, None], (1, pos.size, 1, 2)).astype(np.float64)
        kv.extend(k, -k, pos)


def _held(kv):
    ks, vs = kv.read()
    assert np.array_equal(vs.data, -ks.data)
    return ks.data[0, :, 0, 0].astype(int).tolist()


def test_full_kv_stores_positions_in_order():
    kv = FullKV(n_kv=1, d_qk=2, d_v=2)
    _store_positions(kv, 3, block=3)
    _store_positions(kv, 9, block=1, start=3)
    assert kv.entries == 9
    assert _held(kv) == list(range(9))
    assert kv.read()[0].shape == (1, 9, 1, 2)


def test_full_kv_keeps_earlier_entries_across_a_doubling():
    kv = FullKV(n_kv=2, d_qk=3, d_v=4)
    rng = named_rng(0, "kv-double")
    kv.extend(rng.normal(size=(2, 5, 2, 3)), rng.normal(size=(2, 5, 2, 4)), np.arange(5))
    slots = [kv.k_buf.shape[1]]
    for p in range(5, 12):
        before = [t.data.tobytes() for t in kv.read()]
        kv.extend(rng.normal(size=(2, 1, 2, 3)), rng.normal(size=(2, 1, 2, 4)), np.array([p]))
        ks, vs = kv.read()
        assert ks.data[:, :p].tobytes() == before[0]
        assert vs.data[:, :p].tobytes() == before[1]
        slots.append(kv.k_buf.shape[1])
    assert slots == [5] + [10] * 5 + [20] * 2


@pytest.mark.parametrize("kind", ["full", "rolling"])
def test_read_returns_views_of_the_cache_buffer(kind):
    kv = FullKV(1, 2, 2) if kind == "full" else RollingKV(window=4, sink=2, n_kv=1, d_qk=2, d_v=2)
    _store_positions(kv, 5, block=5)
    _store_positions(kv, 9, block=1, start=5)
    ks, vs = kv.read()
    assert np.shares_memory(ks.data, kv.k_buf) and np.shares_memory(vs.data, kv.v_buf)


@pytest.mark.parametrize("block", [1, 3, 11])
def test_rolling_kv_keeps_sinks_and_recycles_the_ring(block):
    window, sink = 4, 2
    kv = RollingKV(window=window, sink=sink, n_kv=1, d_qk=2, d_v=2)
    total = 11
    _store_positions(kv, total, block)
    assert kv.entries == kv.capacity == window + sink
    # sinks stay forever; the ring holds the trailing window
    assert sorted(_held(kv)) == [0, 1] + list(range(total - window, total))


@pytest.mark.parametrize("kind", ["full", "rolling"])
@pytest.mark.parametrize("block", [1, 3, 11])
def test_each_kv_slot_reports_the_position_it_holds(kind, block):
    # key = position in every slot, so the keys read back are the positions
    for total in (1, 2, 5, 6, 7, 13, 22):
        kv = FullKV(1, 2, 2) if kind == "full" else RollingKV(window=4, sink=2, n_kv=1, d_qk=2, d_v=2)
        _store_positions(kv, total, block)
        assert kv.positions().tolist() == _held(kv), (total, kv.positions())


def test_rolling_kv_matches_visible_set_of_the_training_mask():
    cfg, _ = preset("toy-swa")
    window, sink = cfg.window, cfg.sink
    kv = RollingKV(window=window, sink=sink, n_kv=1, d_qk=2, d_v=2)
    L = 30
    _store_positions(kv, 7, block=7)
    _store_positions(kv, L, block=1, start=7)
    # decode writes the query's own key before reading, so the cached
    # set is exactly the last training-mask row
    mask_row = hl.swa_mask(L, window, sink)[L - 1]
    assert set(_held(kv)) == set(np.nonzero(mask_row)[0].tolist())


def test_greedy_generation_is_deterministic():
    cfg, layout = preset("toy-llama")
    model = HybridModel(cfg, layout, seed=0)
    prompt = named_rng(0, "gen").integers(0, cfg.vocab, size=(1, 6))
    a, _ = generate(model, prompt, n_new=6)
    b, _ = generate(model, prompt, n_new=6)
    assert np.array_equal(a, b)
    assert a.shape == (1, 6)


def test_generate_with_no_new_tokens_returns_the_prefilled_state():
    cfg, layout = preset("toy-inter")
    model = HybridModel(cfg, layout, seed=0)
    prompt = named_rng(0, "gen").integers(0, cfg.vocab, size=(2, 6))
    out, state = generate(model, prompt, n_new=0)
    assert out.shape == (2, 0) and out.dtype.kind == "i"
    fresh, logits = prefill(model, prompt)
    assert state.position == fresh.position == 6
    # the returned state decodes on exactly as a fresh prefill does
    nxt = sample_token(logits.data[:, -1])
    assert np.array_equal(decode_step(model, state, nxt).data, decode_step(model, fresh, nxt).data)
    with pytest.raises(ContractError, match="n_new"):
        generate(model, prompt, n_new=-1)


@pytest.mark.parametrize("name", ["toy-llama", "toy-intra"])
def test_generate_reserves_the_prompt_and_its_new_tokens(name, monkeypatch):
    # every FullKV buffer has prompt + n_new slots, and is the very array
    # its prefill made: no decode step regrew it
    def full_kvs(state):
        caches = [getattr(c, "kv", c) for c in state.caches]
        return [c for c in caches if isinstance(c, FullKV)]

    made = []
    real = decode._prefill

    def spy(*args):
        state, logits = real(*args)
        made.extend((kv.k_buf, kv.v_buf) for kv in full_kvs(state))
        return state, logits

    monkeypatch.setattr(decode, "_prefill", spy)
    cfg, layout = preset(name)
    model = HybridModel(cfg, layout, seed=0)
    prompt = named_rng(0, "gen").integers(0, cfg.vocab, size=(2, 6))
    _, state = generate(model, prompt, n_new=9)
    held = [(kv.k_buf, kv.v_buf) for kv in full_kvs(state)]
    assert held and len(held) == len(made)
    for (k_buf, v_buf), (k_made, v_made) in zip(held, made):
        assert k_buf is k_made and v_buf is v_made
        assert k_buf.shape[1] == v_buf.shape[1] == 6 + 9


def test_tempered_sampling_uses_the_rng():
    cfg, layout = preset("toy-llama")
    model = HybridModel(cfg, layout, seed=0)
    prompt = named_rng(0, "gen").integers(0, cfg.vocab, size=(1, 6))
    a, _ = generate(model, prompt, n_new=8, temperature=1.0, rng=named_rng(5, "s"))
    b, _ = generate(model, prompt, n_new=8, temperature=1.0, rng=named_rng(5, "s"))
    c, _ = generate(model, prompt, n_new=8, temperature=1.0, rng=named_rng(6, "s"))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_token_greedy_is_argmax():
    logits = np.array([[0.1, 2.0, -1.0]])
    assert sample_token(logits).tolist() == [1]


def test_measure_decode_trace_shape_and_accounting():
    cfg, layout = preset("toy-inter")
    model = HybridModel(cfg, layout, seed=0)
    trace = measure_decode(model, prompt_len=6, gen_len=5)
    assert len(trace) == 5
    assert [t.position for t in trace] == list(range(6, 11))
    for t in trace:
        assert t.cache_bytes_measured == t.cache_bytes_accounted
        assert t.flops == hl.model_decode_step_flops(layout, cfg, t.position)


def test_measure_decode_interleaved_trace_is_the_blockwise_sum():
    # a 1:5 stack's per-step ops must equal the mix of its parts
    cfg, layout = preset("toy-inter")
    model = HybridModel(cfg, layout, seed=0)
    trace = measure_decode(model, prompt_len=4, gen_len=3)
    for row in trace:
        want = sum(hl.decode_step_flops(b, cfg, row.position) for b in layout.blocks)
        want += 2 * cfg.d_model * cfg.vocab
        assert row.flops == want


def test_mamba_state_bytes_do_not_grow():
    cfg, layout = preset("toy-mamba")
    model = HybridModel(cfg, layout, seed=0)
    s1, _ = prefill(model, np.zeros((1, 3), dtype=np.int64))
    s2, _ = prefill(model, np.zeros((1, 40), dtype=np.int64))
    assert s1.cache_bytes() == s2.cache_bytes()


def test_full_attention_state_bytes_grow_linearly():
    cfg, layout = preset("toy-llama")
    model = HybridModel(cfg, layout, seed=0)
    s1, _ = prefill(model, np.zeros((1, 10), dtype=np.int64))
    s2, _ = prefill(model, np.zeros((1, 20), dtype=np.int64))
    assert s2.cache_bytes() == 2 * s1.cache_bytes()


@pytest.mark.parametrize("name", ("toy-llama", "toy-swa", "toy-intra"))
def test_cached_decoding_equals_full_forward_across_the_attention_tile(name):
    # a 70-token prompt spans five query tiles of the fused attention kernel
    worst, state, cfg, layout = cached_vs_full(name, total=80, prompt=70)
    assert worst < 1e-8, worst
    assert state.cache_bytes() == hl.cache_bytes(layout, cfg, state.position)


def _intra_2l(spec, ratio):
    cfg, _ = preset("toy-intra-2l")
    block = BlockSpec(kind="intra", fusion=spec, dim_ratio=ratio)
    return cfg, LayoutSpec((block, block))


def _legal(spec, ratio):
    cfg, layout = _intra_2l(spec, ratio)
    try:
        cfg.intra_cfg(layout.blocks[0]).validate_fusion(spec)
    except ContractError:
        return False
    return True


FUSION_GRID = [
    pytest.param(
        spec, ratio,
        id=f"{spec.norm}-{spec.scalar}-{spec.fusion}-{spec.out_projs}-{ratio[0]:g}to{ratio[1]:g}",
    )
    for ratio in ((1.0, 1.0), (2.0, 1.0))
    for spec in legal_fusion_specs()
    if _legal(spec, ratio)
]


def test_fusion_grid_has_64_legal_cells():
    # all 40 cells at 1:1; at 2:1 the single-projection add/diff cells drop out
    assert len(FUSION_GRID) == 64


@pytest.mark.parametrize("spec,ratio", FUSION_GRID)
def test_cached_decoding_equals_full_forward_on_every_fusion_cell(spec, ratio):
    cfg, layout = _intra_2l(spec, ratio)
    model = HybridModel(cfg, layout, seed=2)
    worst, state = cached_vs_full_model(model, "dec-fusion-grid", total=9, prompt=4, batch=2, seed=2)
    assert worst < 1e-8, worst
    assert state.cache_bytes() == hl.cache_bytes(layout, cfg, state.position)


@pytest.mark.parametrize("name", ("toy-mamba", "toy-intra"))
def test_cached_decoding_from_a_one_token_prompt(name):
    # the conv ring starts shorter than the kernel and fills from the steps
    worst, state, cfg, layout = cached_vs_full(name, total=10, prompt=1)
    assert worst < 1e-8, worst
    assert state.cache_bytes() == hl.cache_bytes(layout, cfg, state.position)


def split_vs_full(model, stream, sizes, batch=2, seed=0):
    """Prefill sizes[0] tokens, then feed each later chunk through `forward`
    with the caches. Returns the worst |chunked - full| logit and the
    states' cache bytes against the cost model at every chunk boundary."""
    total = sum(sizes)
    tokens = named_rng(seed, stream).integers(0, model.cfg.vocab, size=(batch, total))
    state, logits = prefill(model, tokens[:, : sizes[0]])
    rows = [logits.data]
    accounted = [(state.cache_bytes(), hl.cache_bytes(model.layout, model.cfg, state.position))]
    with no_grad():
        for size in sizes[1:]:
            start = state.position
            rows.append(model.forward(tokens[:, start : start + size], state.caches, start=start).data)
            state.position += size
            accounted.append((state.cache_bytes(), hl.cache_bytes(model.layout, model.cfg, state.position)))
        full = model.forward(tokens).data
    return float(np.abs(np.concatenate(rows, axis=1) - full).max()), accounted


def random_split(rng, total, most):
    """Chunk sizes of 1..most tokens that sum to `total`."""
    sizes = []
    while sum(sizes) < total:
        sizes.append(min(int(rng.integers(1, most + 1)), total - sum(sizes)))
    return sizes


# 20 is longer than toy-swa's window + sink (10), so a rolling chunk that
# wrote first would evict keys its own earlier queries see; the chunk of 20
# at position 18 spans two 16-row attention tiles
SPLITS = [[5, 1, 12, 20, 3, 1, 7], random_split(named_rng(0, "split"), 64, 24)]


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("split", range(len(SPLITS)))
def test_any_split_of_a_sequence_equals_the_full_forward(name, split):
    cfg, layout = preset(name)
    model = HybridModel(cfg, layout, seed=3)
    worst, accounted = split_vs_full(model, f"split-{name}", SPLITS[split])
    assert worst < 1e-8, worst
    assert all(measured == want for measured, want in accounted), accounted


@pytest.mark.parametrize("spec,ratio", FUSION_GRID)
def test_any_split_equals_the_full_forward_on_every_fusion_cell(spec, ratio):
    cfg, layout = _intra_2l(spec, ratio)
    model = HybridModel(cfg, layout, seed=4)
    sizes = random_split(named_rng(4, f"split-{spec}-{ratio}"), 20, 8)
    worst, accounted = split_vs_full(model, "split-fusion-grid", sizes)
    assert worst < 1e-8, (sizes, worst)
    assert all(measured == want for measured, want in accounted), accounted


@pytest.mark.parametrize("name", ("toy-llama", "toy-swa", "toy-intra"))
def test_a_kv_cache_takes_a_chunk_only_at_its_own_position(name):
    # the key would be rotated at position 7 but written after position 2;
    # SSM state carries no position, so toy-mamba has nothing to check
    cfg, layout = preset(name)
    model = HybridModel(cfg, layout, seed=0)
    state, _ = prefill(model, np.array([[1, 2, 3]]))
    with pytest.raises(ContractError), no_grad():
        model.forward(np.array([[4]]), state.caches, start=7)
    state, _ = prefill(model, np.array([[1, 2, 3]]))
    with no_grad():
        logits = model.forward(np.array([[4]]), state.caches, start=3)
    assert np.isfinite(logits.data).all()


@pytest.mark.parametrize("name", ("toy-llama", "toy-swa", "toy-mamba", "toy-intra"))
@pytest.mark.parametrize("held, given", [(1, 2), (2, 1)])
def test_a_decode_step_of_the_wrong_batch_is_refused_before_any_write(name, held, given):
    cfg, layout = preset(name)
    model = HybridModel(cfg, layout, seed=0)
    prompt = named_rng(0, "wrong-batch").integers(0, cfg.vocab, size=(held, 12))
    state, _ = prefill(model, prompt)
    untouched, _ = prefill(model, prompt)
    before = state.position, state.cache_bytes()
    with pytest.raises(ContractError, match=f"holds batch {held}, got {given}"):
        decode_step(model, state, np.arange(given))
    assert (state.position, state.cache_bytes()) == before
    # nothing was written: the next step of the right batch is unchanged
    step = np.arange(held)
    np.testing.assert_array_equal(decode_step(model, state, step).data, decode_step(model, untouched, step).data)


@pytest.mark.parametrize("name", ("toy-llama", "toy-swa", "toy-mamba", "toy-intra"))
@pytest.mark.parametrize("held, given", [(1, 2), (2, 1)])
def test_a_chunk_of_the_wrong_batch_is_refused_before_any_read_or_write(name, held, given):
    cfg, layout = preset(name)
    model = HybridModel(cfg, layout, seed=0)
    prompt = named_rng(0, "wrong-batch").integers(0, cfg.vocab, size=(held, 12))
    state, _ = prefill(model, prompt)
    untouched, _ = prefill(model, prompt)

    def filled():
        kvs = [getattr(c, "kv", c) for c in state.caches]
        return [(getattr(c, "count", None), getattr(c, "entries", None)) for c in kvs], state.cache_bytes()

    before = filled()
    # a rolling cache reads its held keys before it writes the chunk's
    with pytest.raises(ContractError, match=f"holds batch {held}, got {given}"), no_grad():
        model.forward(np.ones((given, 3), dtype=np.int64), state.caches, start=12)
    assert filled() == before
    chunk = np.ones((held, 3), dtype=np.int64)
    with no_grad():
        got = model.forward(chunk, state.caches, start=12).data
        want = model.forward(chunk, untouched.caches, start=12).data
    np.testing.assert_array_equal(got, want)


def _transient_prefill_mib(name, length, batch=4):
    """tracemalloc peak of a prefill minus what it keeps (caches and logits)."""
    cfg, layout = preset(name)
    model = HybridModel(cfg, layout, seed=0)
    tokens = named_rng(0, "prefill-memory").integers(0, cfg.vocab, size=(batch, length))
    prefill(model, tokens[:, :16])
    tracemalloc.start()
    try:
        state, logits = prefill(model, tokens)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - kept) / 2**20


def test_prefill_memory_of_a_mamba_stack_does_not_grow_with_the_prompt():
    # whole-prompt prefill read 9.1 MiB at 320 tokens and 36.3 at 1,280;
    # 64-token chunks read 3.9 at both
    short, long = (_transient_prefill_mib("toy-mamba", n) for n in (320, 1280))
    assert long <= short + 0.5, (short, long)


@pytest.mark.parametrize("name,most", [("toy-llama", 11.8), ("toy-intra", 6.2)])
def test_prefill_memory_at_1280_tokens_stays_near_the_chunk(name, most):
    # whole-prompt prefill read 36.0 (toy-llama) and 36.3 MiB (toy-intra) at
    # 4 x 1,280; 64-token chunks read 10.7 and 5.7, and these bounds are 10%
    # above. toy-llama still grows: one 16-row tile scores every earlier key
    transient = _transient_prefill_mib(name, 1280)
    assert transient <= most, transient


@pytest.mark.skipif(not tensor._HEAP_KEPT, reason="no glibc mallopt to keep freed heap pages")
def test_warm_prefill_faults_in_no_fresh_pages():
    # the heap policy keeps each op's freed temporaries, so a warm prefill
    # reuses their pages; with glibc's defaults these 5 take ~55K faults
    cfg, layout = preset("toy-llama")
    model = HybridModel(with_vocab(cfg, 64), layout, seed=0)
    tokens = named_rng(0, "faults").integers(0, 64, size=(4, 320))
    for _ in range(3):
        prefill(model, tokens)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        prefill(model, tokens)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 5000, f"{faults} minor faults in 5 warm prefills"


def _decode_step_ops(monkeypatch, name):
    """The op names one decode step makes, batch 2 after a 9-token prefill."""
    cfg, layout = preset(name)
    model = HybridModel(cfg, layout, seed=0)
    state, _ = prefill(model, named_rng(0, "ops").integers(0, cfg.vocab, size=(2, 9)))
    ops = []
    make = tensor._make

    def counted(op, *args):
        ops.append(op)
        return make(op, *args)

    monkeypatch.setattr(tensor, "_make", counted)
    decode_step(model, state, np.array([1, 2]))
    return ops


def test_a_toy_llama_decode_step_makes_at_most_80_ops(monkeypatch):
    # matmul 29, reshape 17, rms_norm 9, rope 8, add 8, attention 4,
    # silu_mul 4, embedding 1; head transposes around attention_core
    # would add 4 per attention block
    ops = _decode_step_ops(monkeypatch, "toy-llama")
    assert len(ops) <= 80, sorted(ops)


@pytest.mark.parametrize("name,most", [("toy-mamba", 108), ("toy-intra", 121)])
def test_an_ssm_decode_step_runs_the_scan_in_few_ops(monkeypatch, name, most):
    # one in_proj matmul, one conv with its SiLU, B and C as plain slices of
    # it, and one scan per SSM block: toy-mamba makes 104 ops and toy-intra 117
    ops = _decode_step_ops(monkeypatch, name)
    assert len(ops) <= most, sorted(ops)
    assert "ssm_scan" in ops


@pytest.mark.parametrize("name", ("toy-llama", "toy-swa", "toy-intra"))
def test_cache_reads_make_no_finiteness_scan(monkeypatch, name):
    # every slot was written from a checked op output, so a read wraps its
    # views without re-scanning the filled cache; decoding stays exact
    scans, reads, inside = [], [], []
    isfinite = np.isfinite

    def counted_isfinite(*args, **kwargs):
        if inside:
            scans.append(name)
        return isfinite(*args, **kwargs)

    def watched(read):
        def wrapper(cache):
            inside.append(True)
            try:
                reads.append(name)
                return read(cache)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(np, "isfinite", counted_isfinite)
    for cls in (FullKV, RollingKV):
        monkeypatch.setattr(cls, "read", watched(cls.read))
    worst, _, _, _ = cached_vs_full(name, total=12)
    assert reads and not scans, (len(reads), len(scans))
    assert worst < 1e-8, worst
