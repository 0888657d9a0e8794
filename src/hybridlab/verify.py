"""Executable property suites: the `verify` command's substance.

Each property registers itself with `_prop(suite, name)` where it is
defined; `SUITES` maps each suite to its (name, check) pairs, and the
suites and their properties run in definition order. A check returns
(passed, detail) and `run_suites` never raises on one: an exception
inside a property is a failure with the error as detail. The suites
intentionally re-derive expectations from scratch (oracles, mutations,
closed forms) rather than comparing a function to itself, so a planted
fault in a primitive makes at least one property go red;
`--chaos flip-sign` is the standing self-test of that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import (
    AttnConfig,
    attention_context,
    attention_forward,
    causal_mask,
    init_attn_params,
    repeat_kv_heads,
    swa_mask,
)
from .config import preset
from .costs import (
    closed_form_mixer_params,
    golden_rows,
    mixer_params,
    model_param_shapes,
    params_embedding,
    params_non_embedding,
)
from .decode import RollingKV, decode_step, prefill
from .hybrid import (
    FusionSpec,
    IntraHybridConfig,
    diff_lambda_value,
    init_intra_params,
    intra_hybrid_forward,
    legal_fusion_specs,
)
from .layout import BlockSpec, format_layout, lint_layout, parse_layout, plan_layout
from .model import HybridModel
from .moe import RouterState, route, update_balance
from .nn import NORM_EPS, RopeConfig, apply_rope, group_norm_per_head, rms_norm, rope_angles
from .ssm import SsmConfig, init_ssm_params, init_ssm_state, ssm_forward, ssm_step
from .tensor import (
    ContractError,
    Tensor,
    backward,
    concat,
    exp,
    matmul,
    named_rng,
    no_grad,
    reset_tape,
    siglu_ffn,
    silu,
    silu_mul,
    softmax_lastdim,
    sqrt,
    square,
    tmean,
    tsum,
)


@dataclass(frozen=True)
class PropertyResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


SUITES: dict[str, list[tuple[str, Callable[[], tuple[bool, str]]]]] = {}


def _prop(suite: str, name: str):
    """Register the decorated check as property `name` of `suite`."""
    def register(fn):
        SUITES.setdefault(suite, []).append((name, fn))
        return fn
    return register


def _run(suite: str, name: str, fn) -> PropertyResult:
    try:
        ok, detail = fn()
        return PropertyResult(suite, name, bool(ok), detail)
    except Exception as err:                                    # noqa: BLE001
        return PropertyResult(suite, name, False, f"{type(err).__name__}: {err}")
    finally:
        reset_tape()


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


@_prop("tensor", "grad matches finite differences")
def _grad_matches_fd():
    rng = named_rng(7, "verify-tensor")
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    loss = tsum(exp(matmul(a, b) * 0.1))
    backward(loss)
    got = a.grad[1, 2]
    h = 1e-6
    a_hi = a.data.copy(); a_hi[1, 2] += h
    a_lo = a.data.copy(); a_lo[1, 2] -= h
    with no_grad():
        f_hi = float(tsum(exp(matmul(Tensor(a_hi), Tensor(b.data)) * 0.1)).data)
        f_lo = float(tsum(exp(matmul(Tensor(a_lo), Tensor(b.data)) * 0.1)).data)
    fd = (f_hi - f_lo) / (2 * h)
    rel = abs(got - fd) / max(abs(fd), 1e-12)
    return rel < 1e-5, f"rel err {rel:.2e}"


@_prop("tensor", "softmax rows sum to one")
def _softmax_normalized():
    rng = named_rng(7, "verify-softmax")
    x = Tensor(rng.normal(size=(3, 6)) * 5)
    s = softmax_lastdim(x).data.sum(axis=-1)
    err = float(np.abs(s - 1.0).max())
    return err < 1e-12, f"max row-sum err {err:.2e}"


@_prop("tensor", "masked lanes are exactly zero")
def _masked_lanes_exact_zero():
    rng = named_rng(7, "verify-mask")
    x = Tensor(rng.normal(size=(4, 4)) * 50)
    mask = np.tril(np.ones((4, 4), dtype=bool))
    p = softmax_lastdim(x, mask).data
    hidden = p[~mask]
    return bool(np.all(hidden == 0.0)), f"max hidden weight {hidden.max():.1e}"


@_prop("tensor", "dimension contract enforced")
def _shape_errors_raise():
    try:
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    except Exception:
        return True, "inner-dim mismatch rejected"
    return False, "mismatched matmul was accepted"


@_prop("tensor", "named rng: distinct + reproducible")
def _rng_streams_differ():
    a = named_rng(0, "alpha").normal(size=8)
    b = named_rng(0, "beta").normal(size=8)
    a2 = named_rng(0, "alpha").normal(size=8)
    return (not np.allclose(a, b)) and np.array_equal(a, a2), "keyed streams"


@_prop("tensor", "fused norm, rope, gate and FFN equal their composed reference")
def _fused_ops_equal_composed():
    rope, pos = RopeConfig(head_dim=8, base=10000.0), np.arange(5) + 29

    def norm(x, w, center):
        c = x - tmean(x, axis=-1, keepdims=True) if center else x
        return c / sqrt(tmean(square(c), axis=-1, keepdims=True) + NORM_EPS) * w

    def rotate(x):
        cos, sin = rope_angles(rope, pos)
        cos, sin = cos[:, None, :], sin[:, None, :]
        even, odd = x[..., 0::2], x[..., 1::2]
        pairs = (even * cos - odd * sin, even * sin + odd * cos)
        return concat([p.reshape(*p.shape, 1) for p in pairs], axis=-1).reshape(*x.shape)

    cases = [
        ("rms_norm", rms_norm, lambda x, w: norm(x, w, False), [(2, 5, 8), (8,)]),
        ("group_norm", group_norm_per_head, lambda x, w: norm(x, w, True), [(2, 5, 4, 8), (4, 8)]),
        ("rope", lambda x: apply_rope(x, rope, pos), rotate, [(2, 5, 4, 8)]),
        ("silu_mul", silu_mul, lambda a, b: silu(a) * b, [(2, 5, 8), (2, 5, 8)]),
        (
            "siglu_ffn", siglu_ffn, lambda x, g, u, d: matmul(silu_mul(matmul(x, g), matmul(x, u)), d),
            [(2, 5, 8), (8, 12), (8, 12), (12, 8)],
        ),
    ]
    rng = named_rng(7, "verify-fused")
    worst = {}
    for name, fused, composed, shapes in cases:
        data = [rng.normal(size=shape) for shape in shapes]
        probe = rng.normal(size=shapes[0])
        runs = []
        for fn in (fused, composed):
            inputs = [Tensor(d, requires_grad=True) for d in data]
            out = fn(*inputs)
            backward(tsum(out * probe))
            runs.append([out.data] + [t.grad for t in inputs])
            reset_tape()
        worst[name] = max(float(np.abs(a - b).max()) for a, b in zip(*runs))
    name = max(worst, key=worst.get)
    return worst[name] < 1e-12, f"max |fused - composed| {worst[name]:.1e} ({name}), values and grads"


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def _toy_attn():
    cfg = AttnConfig(d_model=16, n_heads=4, n_kv_heads=2, d_qk=4, d_v=4)
    rope = RopeConfig(head_dim=4, base=10000.0)
    weights = init_attn_params(cfg, named_rng(11, "verify-attn"))
    return cfg, rope, weights


@_prop("attention", "causality under mutation (exact)")
def _attn_causal_mutation_exact():
    cfg, rope, weights = _toy_attn()
    rng = named_rng(11, "verify-attn-x")
    x = rng.normal(size=(1, 10, 16))
    pos = np.arange(10)
    with no_grad():
        y0 = attention_forward(Tensor(x), weights, cfg, rope, pos).data.copy()
        x2 = x.copy()
        x2[0, 7] += 3.0
        y1 = attention_forward(Tensor(x2), weights, cfg, rope, pos).data
    same = np.array_equal(y0[0, :7], y1[0, :7])
    changed = not np.array_equal(y0[0, 7:], y1[0, 7:])
    return same and changed, "prefix bitwise equal, suffix changed"


@_prop("attention", "fused kernel equals composed reference")
def _fused_kernel_equals_composed():
    cfg, rope, weights = _toy_attn()
    seq = 131                              # nine query tiles, the last one partial
    x = Tensor(named_rng(11, "verify-attn-core").normal(size=(2, seq, 16)))
    pos = np.arange(seq)
    worst = 0.0
    with no_grad():
        # the reference copies each KV head into its group, then composes
        # matmul, scale, masked softmax and matmul on the full score matrix
        def heads(name, n, d):
            t = matmul(x, weights[f"attn.{name}"]).reshape(2, seq, n, d)
            return t if name == "wv" else apply_rope(t, rope, pos)

        q = heads("wq", cfg.n_heads, cfg.d_qk).swapaxes(1, 2)
        k = repeat_kv_heads(heads("wk", cfg.n_kv_heads, cfg.d_qk), cfg.group_size)
        v = repeat_kv_heads(heads("wv", cfg.n_kv_heads, cfg.d_v), cfg.group_size)
        scores = matmul(q, k.swapaxes(1, 2).swapaxes(-1, -2)) * (cfg.d_qk ** -0.5)
        for window, mask in ((None, causal_mask(seq)), ((8, 3), swa_mask(seq, window=8, sink=3))):
            probs = softmax_lastdim(scores, mask)
            want = matmul(probs, v.swapaxes(1, 2)).swapaxes(1, 2).data
            got = attention_context(x, weights, cfg, rope, pos, window=window).data
            worst = max(worst, float(np.abs(got - want).max()))
    return worst < 1e-12, f"max |fused - composed| {worst:.1e} (causal, windowed)"


@_prop("attention", "windowed visible set matches mask")
def _swa_visible_set():
    m = swa_mask(50, window=8, sink=3)
    i, j = np.meshgrid(np.arange(50), np.arange(50), indexing="ij")
    expect = (j <= i) & ((i - j < 8) | (j < 3))
    widths = m.sum(axis=1)
    return bool(np.array_equal(m, expect) and widths.max() <= 11), (
        f"max visible {int(widths.max())} <= window+sink 11"
    )


@_prop("attention", "rotary embedding preserves norms")
def _rope_preserves_norms():
    rope = RopeConfig(head_dim=8, base=10000.0)
    rng = named_rng(11, "verify-rope")
    x = rng.normal(size=(1, 6, 2, 8))
    with no_grad():
        y = apply_rope(Tensor(x), rope, np.arange(6) + 13).data
    err = float(np.abs(np.linalg.norm(y, axis=-1) - np.linalg.norm(x, axis=-1)).max())
    return err < 1e-12, f"norm drift {err:.1e}"


@_prop("attention", "rotary scores depend on distance only")
def _rope_relative_property():
    rope = RopeConfig(head_dim=8, base=10000.0)
    rng = named_rng(11, "verify-rope-rel")
    q = rng.normal(size=(1, 1, 1, 8))
    k = rng.normal(size=(1, 1, 1, 8))
    with no_grad():
        dots = []
        for offset in (0, 17):
            qr = apply_rope(Tensor(q), rope, np.array([5 + offset])).data
            kr = apply_rope(Tensor(k), rope, np.array([2 + offset])).data
            dots.append(float((qr * kr).sum()))
    err = abs(dots[0] - dots[1])
    return err < 1e-10, f"shift invariance err {err:.1e}"


# ---------------------------------------------------------------------------
# ssm
# ---------------------------------------------------------------------------


def _toy_ssm():
    cfg = SsmConfig(d_model=12, d_ssm=16, d_head=4, d_state=6, n_conv=3)
    return cfg, init_ssm_params(cfg, named_rng(13, "verify-ssm"))


@_prop("ssm", "chunked scan equals sequential fold")
def _scan_equals_fold():
    cfg, weights = _toy_ssm()
    rng = named_rng(13, "verify-ssm-x")
    x = rng.normal(size=(2, 21, 12))
    with no_grad():
        full = ssm_forward(Tensor(x), weights, cfg, chunk=5).data
        state = init_ssm_state(cfg, batch=2)
        rows = []
        for t in range(21):
            y, state = ssm_step(Tensor(x[:, t]), weights, cfg, state)
            rows.append(y.data)
        folded = np.stack(rows, axis=1)
    err = float(np.abs(full - folded).max())
    return err < 1e-9, f"max abs err {err:.1e}"


@_prop("ssm", "output independent of chunk size")
def _chunk_size_invariance():
    cfg, weights = _toy_ssm()
    rng = named_rng(13, "verify-ssm-chunk")
    x = rng.normal(size=(1, 17, 12))
    with no_grad():
        a = ssm_forward(Tensor(x), weights, cfg, chunk=1).data
        b = ssm_forward(Tensor(x), weights, cfg, chunk=17).data
    err = float(np.abs(a - b).max())
    return err < 1e-9, f"chunk 1 vs 17 err {err:.1e}"


@_prop("ssm", "causality under mutation (exact)")
def _ssm_causal_mutation_exact():
    cfg, weights = _toy_ssm()
    rng = named_rng(13, "verify-ssm-mut")
    x = rng.normal(size=(1, 15, 12))
    with no_grad():
        y0 = ssm_forward(Tensor(x), weights, cfg, chunk=4).data.copy()
        x2 = x.copy()
        x2[0, 9] -= 2.5
        y1 = ssm_forward(Tensor(x2), weights, cfg, chunk=4).data
    return np.array_equal(y0[0, :9], y1[0, :9]), "prefix bitwise equal"


@_prop("ssm", "decay factors lie in (0, 1]")
def _decay_in_unit_interval():
    _, weights = _toy_ssm()
    rng = named_rng(13, "verify-ssm-decay")
    dt = np.abs(rng.normal(size=(4, 8))) + 1e-3
    a_log = weights["ssm.A_log"].data
    decay = np.exp(-dt[:, : a_log.size] * np.exp(a_log[: dt.shape[1]]))
    ok = np.all(decay > 0) and np.all(decay <= 1)
    return bool(ok), f"range [{decay.min():.3f}, {decay.max():.3f}]"


# ---------------------------------------------------------------------------
# hybrid
# ---------------------------------------------------------------------------


_TOY_INTRA = IntraHybridConfig(d_model=16, n_heads=4, n_kv_heads=2, d_ssm=32, d_state=4, n_conv=3)


@_prop("hybrid", "every legal fusion cell runs finite")
def _all_cells_run():
    rng_x = named_rng(17, "verify-intra-x")
    x = rng_x.normal(size=(1, 9, 16))
    pos = np.arange(9)
    bad = []
    with no_grad():
        for spec in legal_fusion_specs():
            w = init_intra_params(_TOY_INTRA, spec, named_rng(17, "verify-intra-w"))
            y = intra_hybrid_forward(Tensor(x), w, _TOY_INTRA, spec, pos)
            if y.shape != (1, 9, 16) or not np.all(np.isfinite(y.data)):
                bad.append(spec)
    n = len(legal_fusion_specs())
    return not bad, f"{n - len(bad)}/{n} fusion cells produce finite (B,L,d) output"


@_prop("hybrid", "legal fusion matrix has 40 cells")
def _cell_count_is_forty():
    n = len(legal_fusion_specs())
    return n == 40, f"{n} legal cells (2 norm x 4 scalar x (2 fusion x 2 proj + concat))"


@_prop("hybrid", "causality under mutation (exact)")
def _intra_causal_mutation_exact():
    spec = FusionSpec("group", "none", "diff", 2)
    w = init_intra_params(_TOY_INTRA, spec, named_rng(17, "verify-intra-mut"))
    rng = named_rng(17, "verify-intra-mx")
    x = rng.normal(size=(1, 12, 16))
    pos = np.arange(12)
    with no_grad():
        y0 = intra_hybrid_forward(Tensor(x), w, _TOY_INTRA, spec, pos).data.copy()
        x2 = x.copy()
        x2[0, 8] *= -1.0
        y1 = intra_hybrid_forward(Tensor(x2), w, _TOY_INTRA, spec, pos).data
    return np.array_equal(y0[0, :8], y1[0, :8]), "prefix bitwise equal"


@_prop("hybrid", "reparameterized lambda matches formula")
def _lambda_formula():
    spec = FusionSpec("none", "diff_lambda", "diff", 1)
    w = init_intra_params(_TOY_INTRA, spec, named_rng(17, "verify-intra-lam"))
    with no_grad():
        got = float(diff_lambda_value(w, 0.7).data)
    q1, k1 = w["intra.lambda_q1"].data, w["intra.lambda_k1"].data
    q2, k2 = w["intra.lambda_q2"].data, w["intra.lambda_k2"].data
    want = float(np.exp((q1 * k1).sum()) - np.exp((q2 * k2).sum()) + 0.7)
    return abs(got - want) < 1e-12, f"lambda {got:.4f}"


# ---------------------------------------------------------------------------
# moe
# ---------------------------------------------------------------------------


@_prop("moe", "router equals per-token argmax")
def _routing_matches_argmax():
    rng = named_rng(19, "verify-moe")
    scores = rng.uniform(size=(64, 8))
    bias = rng.normal(size=8) * 0.1
    sel = route(scores, bias)
    want = np.argmax(scores + bias, axis=1)
    return bool(np.array_equal(sel, want)), "64 tokens routed"


@_prop("moe", "balance bias counteracts load")
def _bias_moves_against_load():
    state = RouterState.fresh(4)
    loads = np.array([10, 0, 0, 2])
    update_balance(state, loads, rate=0.01)
    b = state.expert_bias
    ok = b[0] < 0 and b[1] > 0 and b[2] > 0
    return bool(ok), f"bias after one update {np.round(b, 3)}"


@_prop("moe", "balance simulation tames skew")
def _balance_simulation_converges():
    rng = named_rng(19, "verify-moe-sim")
    n_experts, tokens = 8, 256
    # fixed skewed token population: expert 0 wins most raw scores
    logits = rng.normal(size=(tokens, n_experts))
    logits[:, 0] += 1.5
    state = RouterState.fresh(n_experts)
    frac = 1.0
    for _ in range(600):
        sel = route(1 / (1 + np.exp(-logits)), state.expert_bias)
        loads = np.bincount(sel, minlength=n_experts)
        update_balance(state, loads, rate=1e-2)
        frac = loads.max() / tokens
    return 0.05 <= frac <= 0.25, f"final max load {frac:.3f}"


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


@_prop("layout", "single special lands mid-stack")
def _middle_of_thirteen():
    layout = plan_layout(depth=13, ratio=(1, 12), special="attn", positioning="middle")
    idx = layout.indices_of("attn")
    return idx == (6,), f"special at {idx}"


@_prop("layout", "scatter picks indices 3 and 8")
def _scatter_two_of_thirteen():
    layout = plan_layout(depth=13, counts=(2, 11), special="attn")
    idx = layout.indices_of("attn")
    return idx == (3, 8), f"specials at {idx}"


@_prop("layout", "front placement lints")
def _front_warns():
    layout = plan_layout(depth=8, counts=(1, 7), special="attn", positioning="front")
    warnings = lint_layout(layout)
    return any("front" in w.lower() for w in warnings), "; ".join(warnings)


@_prop("layout", "format/parse round-trip")
def _roundtrip():
    layout = plan_layout(depth=6, counts=(2, 4), special="intra", base="mamba")
    again = parse_layout(format_layout(layout))
    return again == layout, layout.describe()


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------


@_prop("costs", "published cost table reproduced")
def _golden_table_reproduced():
    rows = golden_rows()
    bad = [r["layout_id"] for r in rows if not (r["flops_ok"] and r["cache_ok"])]
    return not bad, f"all {len(rows)} layouts in tolerance" if not bad else f"off: {bad}"


@_prop("costs", "attention closed form is exact")
def _attention_closed_form_exact():
    cfg, _ = preset("llama-1b")
    inst = mixer_params(BlockSpec(kind="attn"), cfg)
    closed = closed_form_mixer_params("attn", cfg)
    return inst == closed, f"instantiated {inst:,} == closed {closed:,}"


@_prop("costs", "inventory = blocks + embed + head")
def _shape_inventory_consistent():
    cfg, layout = preset("inter-1b")
    shapes = model_param_shapes(layout, cfg)
    total = sum(int(np.prod(s)) for s in shapes.values())
    split = params_non_embedding(layout, cfg) + params_embedding(cfg) + cfg.d_model * cfg.vocab
    return total == split, f"{total:,} parameters, zero unexplained remainder"


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


@_prop("decode", "cached decoding equals full forward")
def _cached_equals_full():
    worst = 0.0
    for name in ("toy-llama", "toy-mamba", "toy-swa", "toy-inter", "toy-intra"):
        cfg, layout = preset(name)
        model = HybridModel(cfg, layout, seed=3)
        rng = named_rng(3, f"verify-decode-{name}")
        tokens = rng.integers(0, cfg.vocab, size=(1, 20))
        state, logits = prefill(model, tokens[:, :4])
        rows = [logits.data[:, -1]]
        for t in range(4, 20):
            rows.append(decode_step(model, state, tokens[:, t]).data)
        with no_grad():
            full = model.forward(tokens).data
        for i in range(len(rows)):
            worst = max(worst, float(np.abs(rows[i] - full[:, 3 + i]).max()))
    return worst < 1e-8, f"max |cached - full| {worst:.1e}"


@_prop("decode", "rolling cache occupancy is capped")
def _rolling_cache_bounded():
    cfg, layout = preset("toy-swa")
    model = HybridModel(cfg, layout, seed=3)
    rng = named_rng(3, "verify-decode-swa")
    tokens = rng.integers(0, cfg.vocab, size=(1, 1))
    state, _ = prefill(model, tokens)
    for _ in range(cfg.window + cfg.sink + 5):
        decode_step(model, state, 1)
    ring = [c for c in state.caches if isinstance(c, RollingKV)]
    occ = {c.entries for c in ring}
    return occ == {cfg.window + cfg.sink}, f"ring occupancy {occ}"


@_prop("decode", "recurrent state size is length-free")
def _ssm_state_constant():
    cfg, layout = preset("toy-mamba")
    model = HybridModel(cfg, layout, seed=3)
    rng = named_rng(3, "verify-decode-ssm")
    s1, _ = prefill(model, rng.integers(0, cfg.vocab, size=(1, 4)))
    s2, _ = prefill(model, rng.integers(0, cfg.vocab, size=(1, 64)))
    return s1.cache_bytes() == s2.cache_bytes(), f"{s1.cache_bytes()} bytes at 4 and 64"


def run_suites(names: list[str] | None = None) -> list[PropertyResult]:
    picked = list(SUITES) if not names else names
    results: list[PropertyResult] = []
    for suite in picked:
        if suite not in SUITES:
            raise ContractError(f"unknown suite {suite!r}; have {sorted(SUITES)}")
        results.extend(_run(suite, name, fn) for name, fn in SUITES[suite])
    return results
