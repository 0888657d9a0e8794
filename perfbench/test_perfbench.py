"""The benchmark's own tests: its arithmetic, and that its checks can fail.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hybridlab as hl  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from stats import Tally, percentile, quartile_spread, self_times  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def _clean_slate():
    hl.reset_tape()
    hl.set_chaos(None)
    yield
    hl.set_chaos(None)
    hl.reset_tape()


# -- arithmetic ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(values, 0.5) == 1
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)


def test_every_workload_reports_every_manifest_metric():
    import json

    with open(HERE.parent / "BENCHMARK.json") as f:
        manifest = json.load(f)
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    for cls in workloads.WORKLOADS.values():
        wl = cls(1, None)
        wl.clear_counters()
        wl.op_done("a", 0.5)
        wl.tokens, wl.busy_s = 10, 2.0
        got = {"setup_s": "s", "peak_rss_mib": "MiB", **{k: u for k, (_, u) in wl.e2e().items()}}
        assert got == e2e
    # a traced run of any workload: layers it never drives read 0
    got = workloads.layer_metrics(Tracer("run-1"), {})
    assert {k: u for k, (_, u) in got.items()} == layer
    assert all(v == 0.0 for v, _ in got.values())


def test_e2e_takes_the_median_case_and_the_slowest_case_mean():
    wl = workloads.TrainMix(1, None)
    wl.clear_counters()
    for case, ms in [("a", 1), ("a", 2), ("a", 3), ("b", 10), ("b", 2), ("b", 3), ("c", 7), ("c", 9), ("c", 8)]:
        wl.op_done(case, ms / 1e3)
    wl.tokens, wl.busy_s = 300, 1.5
    got = {k: v for k, (v, _) in wl.e2e().items()}
    assert got["tokens_per_s"] == pytest.approx(200.0)
    assert got["latency_ms_p50"] == pytest.approx(3.0)          # case medians 2, 3, 8
    assert got["slowest_case_ms"] == pytest.approx(8.0)         # mean of c
    info = wl.info()
    assert (info["latency_samples"], info["latency_cases"]) == (9, 3)
    assert info["latency_case_ms"] == pytest.approx({"a": 2.0, "b": 5.0, "c": 8.0})


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0.0, 10.0, -1),   # parent
        (1.0, 3.0, 0),     # child
        (2.0, 5.0, 0),     # overlapping child: union with the first is [1, 5]
        (8.0, 12.0, 0),    # child running past the parent is clipped to [8, 10]
        (1.5, 2.5, 1),     # grandchild counts against its own parent only
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tally_counts_attempted_and_failed():
    t = Tally()
    t.op("ok")
    t.op("raised", RuntimeError("boom"))
    t.check("passes", [])
    assert (t.attempted, t.failed, t.correct) == (3, 1, True)
    t.check("fails", ["wrong"])
    assert (t.attempted, t.failed, t.correct) == (4, 2, False)
    assert len(t.failures) == 2


def test_tracer_records_nesting_and_restores():
    import types

    mod = types.SimpleNamespace()
    tr = Tracer("run-1")

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    tr.replace(mod, "inner", tr.spanned("inner", inner))
    tr.replace(mod, "outer", tr.spanned("outer", outer))
    assert mod.outer() == 2
    tr.restore()
    assert mod.inner is inner and mod.outer is outer
    (o,), (i,) = tr.select("outer"), tr.select("inner", parent="outer")
    assert o[3] == -1 and tr.spans[i[3]] is o and i[8] == "run-1"
    assert o[1] <= i[1] <= i[2] <= o[2]


# -- the checks fail on perturbed outputs --------------------------------------


def test_perturbed_logit_row_fails():
    full = np.random.default_rng(0).normal(size=(6, 64))
    assert checks.logits_mismatch(full.copy(), full) == []
    bad = full.copy()
    bad[3] += 1e-7
    assert checks.logits_mismatch(bad, full)
    tokens = np.argmax(full, axis=-1)
    assert checks.greedy_mismatch(tokens, full) == []
    tokens[2] = (tokens[2] + 1) % 64
    assert checks.greedy_mismatch(tokens, full)


def test_decode_check_reports_perturbed_logits_and_bytes(monkeypatch):
    monkeypatch.setattr(workloads, "FAR", workloads.PROMPT_LEN + 24)
    wl = workloads.DecodeLong(3, None)
    wl.setup()
    wl.round(Tally(), first=True)
    clean = Tally()
    wl.check(clean)
    assert clean.failed == 0 and clean.attempted > 0

    wl.record["toy-mamba"]["logits"][5] = wl.record["toy-mamba"]["logits"][5] + 1e-6
    wl.record["toy-llama"]["bytes"][7] += 1
    wl.record["toy-swa"]["swa_entries"][9] = 10**6
    bad = Tally()
    wl.check(bad)
    assert bad.failed == 3
    joined = " | ".join(bad.failures)
    assert "toy-mamba step logits" in joined
    assert "toy-llama cache bytes" in joined
    assert "toy-swa swa occupancy" in joined


def test_prefill_check_reports_perturbed_logits_and_needles(monkeypatch):
    monkeypatch.setattr(workloads, "NEEDLE_LENGTHS", (32,))
    wl = workloads.PrefillBatch(4, None)
    wl.setup()
    wl.round(Tally(), first=True)
    clean = Tally()
    wl.check(clean)
    assert clean.failed == 0 and clean.attempted > 0

    wl.kept[0][5]["prefill"][1, 10] += 1e-6
    task, prompts, values = wl.batches[0]
    wl.batches[0] = (task, prompts, values + 1)
    bad = Tally()
    wl.check(bad)
    assert bad.failed == 2


def test_cache_byte_count_off_by_one_fails():
    assert checks.cache_bytes_mismatch([10, 20], [10, 20], [1, 2]) == []
    assert checks.cache_bytes_mismatch([10, 21], [10, 20], [1, 2])
    assert checks.occupancy_overflow([3, 10], 10, [1, 2]) == []
    assert checks.occupancy_overflow([3, 11], 10, [1, 2])


def _tiny_copy(name: str):
    model = workloads.build_model(name, workloads.TRAIN_VOCAB, 5)
    tokens, mask = hl.gen_copy_batch(np.random.default_rng(5), 2, workloads.TRAIN_VOCAB, 16)
    return model, tokens, mask


def test_scaled_gradient_coordinate_fails():
    model, tokens, mask = _tiny_copy("toy-mamba")
    coords = checks.sample_coords(model, np.random.default_rng(6), 6)
    analytic = checks.analytic_grads(model, tokens, mask, coords)
    numeric = checks.numeric_grads(model, tokens, mask, coords)
    assert checks.grad_mismatch(coords, analytic, numeric) == []
    worst = int(np.argmax(np.abs(analytic)))
    assert abs(analytic[worst]) > 1e-5
    scaled = list(analytic)
    scaled[worst] *= 1.01
    assert checks.grad_mismatch(coords, scaled, numeric)


@pytest.mark.parametrize("name", workloads.TRAIN_LAYOUTS)
def test_gradient_check_fails_under_flip_sign(name):
    model, tokens, mask = _tiny_copy(name)
    assert checks.gradcheck(model, tokens, mask, np.random.default_rng(7), workloads.GRAD_COORDS) == []
    hl.set_chaos("flip-sign")
    try:
        assert checks.gradcheck(model, tokens, mask, np.random.default_rng(7), workloads.GRAD_COORDS)
    finally:
        hl.set_chaos(None)


def test_first_loss_band_and_finite_losses():
    assert checks.loss_band(3.48, np.log(32), workloads.FIRST_LOSS_BAND) == []
    assert checks.loss_band(3.60, np.log(32), workloads.FIRST_LOSS_BAND)
    assert checks.nonfinite([3.4, 3.3]) == []
    assert checks.nonfinite([3.4, float("nan")])
