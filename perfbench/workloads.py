"""The three workloads: inputs from the seed, a closed timed loop, checks.

One caller drives the library and waits for each call (closed loop). A
run sets up again and again for SETUP_SECONDS (at least SETUP_REPEATS
times) and reports the median set-up time, then repeats whole rounds of
the same operations until the run length is spent, then checks the
outputs of the first round.
"""

from __future__ import annotations

import gc
import itertools
import math
import resource
import statistics
from dataclasses import replace
from time import perf_counter

import numpy as np

import hybridlab as hl
from hybridlab import decode, harness

import checks
from layers import instrument
from stats import Tally, percentile
from tracer import LABEL, NAME, OPS_END, OPS_START, PARENT, TAG, Tracer, duration, mean_duration

SETUP_REPEATS = 5             # set-ups per run, at least ...
SETUP_SECONDS = 4.0           # ... and until this long has passed

TRAIN_LAYOUTS = ("toy-llama", "toy-swa", "toy-mamba", "toy-intra", "toy-inter-moe")
TRAIN_VOCAB, TRAIN_BATCH, TRAIN_LEN = 32, 16, 64
TRAIN_STEPS = 2               # train_model steps per layout per round
TRAIN_POOL = 8                # distinct copy batches the rounds cycle through
FIRST_LOSS_BAND = 0.1         # a fresh model's first loss sits within this of ln(vocab)
GRAD_COORDS = 8

DECODE_LAYOUTS = ("toy-llama", "toy-swa", "toy-mamba", "toy-intra")
DECODE_VOCAB = 64
PROMPT_LEN = 16
FAR = 1280                    # last decoded position + 1
WINDOW_HALF = 16             # decode.step_growth compares steps this close to each end
CASE_POSITIONS = 64           # decode latency cases: one per layout and 64 positions
SPREAD_TAIL = ("toy-llama", 64)   # the layout whose last tokens are spread over the round

NEEDLE_LAYOUTS = ("toy-llama", "toy-mamba", "toy-intra")
NEEDLE_LENGTHS = (192, 256, 320)
NEEDLE_BATCH = 4
NEEDLE_KEY_LEN, NEEDLE_VALUE_LEN = 2, 4


def build_model(name: str, vocab: int, seed: int) -> hl.HybridModel:
    """A toy preset; toy-inter-moe is toy-inter with the MoE FFN on every block."""
    if name == "toy-inter-moe":
        cfg, layout = hl.preset("toy-inter")
        layout = hl.LayoutSpec(tuple(replace(b, moe=True) for b in layout.blocks))
    else:
        cfg, layout = hl.preset(name)
    return hl.HybridModel(hl.with_vocab(cfg, vocab), layout, seed=seed)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""

    def __init__(self, seed: int, tracer: Tracer | None):
        self.seed = seed
        self.tracer = tracer

    def driving(self, layout: str) -> None:
        if self.tracer is not None:
            self.tracer.label = layout

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def clear_counters(self) -> None:
        """Zero what e2e() reads, so that a fresh set of rounds is measured."""
        self.latency: dict[object, list[float]] = {}   # seconds per operation, by case
        self.tokens = 0
        self.busy_s = 0.0

    def op_done(self, case, seconds: float) -> None:
        self.latency.setdefault(case, []).append(seconds)

    def round(self, tally: Tally, first: bool) -> None:
        raise NotImplementedError

    def check(self, tally: Tally) -> None:
        raise NotImplementedError

    def e2e(self) -> dict[str, tuple[float, str]]:
        """The figures every workload reports, each over its own operation:
        a training step, a decoded token, or a prompt batch's first token.

        The median is the median case's median: one per case first, so a
        sample's jitter cannot move it from one case to the next."""
        medians = [percentile(case, 50) for case in self.latency.values()]
        slowest = max(statistics.fmean(case) for case in self.latency.values())
        return {
            "tokens_per_s": (self.tokens / self.busy_s, "tokens/s"),
            "latency_ms_p50": (1e3 * percentile(medians, 50), "ms"),
            "slowest_case_ms": (1e3 * slowest, "ms"),
        }

    def info(self) -> dict:
        return {"latency_samples": sum(len(case) for case in self.latency.values()),
                "latency_cases": len(self.latency),
                "latency_case_ms": {str(case): 1e3 * statistics.fmean(v) for case, v in self.latency.items()}}


# ---------------------------------------------------------------------------
# train-mix
# ---------------------------------------------------------------------------


class TrainMix(Workload):
    """Copy-task training on five layouts; nearly all work is on the tape."""

    name = "train-mix"

    def setup(self) -> None:
        rng = self.rng(1)
        self.models = {name: build_model(name, TRAIN_VOCAB, self.seed) for name in TRAIN_LAYOUTS}
        self.pool = [hl.gen_copy_batch(rng, TRAIN_BATCH, TRAIN_VOCAB, TRAIN_LEN) for _ in range(TRAIN_POOL)]
        self.feed = itertools.cycle(self.pool)
        self.tiny = hl.gen_copy_batch(rng, 2, TRAIN_VOCAB, 16)
        # one small forward + backward, no optimizer step: the models stay fresh
        for model in self.models.values():
            hl.reset_tape()
            model.zero_grad()
            hl.backward(harness.masked_next_token_loss(model, *self.tiny))
            model.zero_grad()
            hl.reset_tape()
            gc.collect()
        self.losses = {name: [] for name in TRAIN_LAYOUTS}
        self.clear_counters()

    def batch(self, _rng, _batch: int):
        return next(self.feed)

    def round(self, tally: Tally, first: bool) -> None:
        cfg = hl.TrainConfig(steps=TRAIN_STEPS, batch=TRAIN_BATCH, seed=self.seed)
        for name in TRAIN_LAYOUTS:
            self.driving(name)
            t0 = perf_counter()
            try:
                result = hl.train_model(self.models[name], self.batch, cfg)
            except (hl.TrainingDiverged, hl.NonFiniteError) as err:
                tally.op(f"train {name}", err)
                continue
            # reset_tape leaves each step's graph to the cyclic GC (FOUND in
            # CHANGES.md); collecting keeps memory bounded, and its cost is
            # part of training, so it is timed
            gc.collect()
            took = perf_counter() - t0
            self.busy_s += took
            self.op_done(name, took / TRAIN_STEPS)
            tally.op(f"train {name}")
            self.tokens += TRAIN_STEPS * TRAIN_BATCH * TRAIN_LEN
            self.losses[name].extend(result.losses.tolist())

    def check(self, tally: Tally) -> None:
        coord_rng = self.rng(4)
        centre = math.log(TRAIN_VOCAB)
        for name in TRAIN_LAYOUTS:
            losses = self.losses[name]
            tally.check(f"{name} first loss near ln {TRAIN_VOCAB}",
                        checks.loss_band(losses[0], centre, FIRST_LOSS_BAND) if losses else ["no losses"])
            tally.check(f"{name} losses finite", checks.nonfinite(losses))
            tally.check(f"{name} gradients", checks.gradcheck(
                self.models[name], *self.tiny, coord_rng, GRAD_COORDS))


# ---------------------------------------------------------------------------
# decode-long
# ---------------------------------------------------------------------------


def decode_order() -> list[str]:
    """One layout name per decoded token, in the order the caller serves them.

    The sequences advance in lockstep, one token each in turn, so each
    layout's steps sample the whole round: the reference machine's speed
    shifts by up to 1.8x over seconds (see README). toy-llama's step cost
    grows ~7x by the far end, and its last tokens are the slowest gaps of
    all, which set slowest_case_ms. It therefore runs ahead alone, and its last
    tokens are spread evenly over the other sequences' turns instead of
    filling the round's final seconds.
    """
    steps = FAR - PROMPT_LEN
    lead, tail = SPREAD_TAIL
    others = [name for name in DECODE_LAYOUTS if name != lead]
    order = [lead] * (steps - tail)
    for i in range(steps):
        order += others
        if (i + 1) * tail // steps > i * tail // steps:
            order.append(lead)
    return order


class DecodeLong(Workload):
    """Batch-1 greedy decode from a short prompt out to position FAR."""

    name = "decode-long"

    def setup(self) -> None:
        rng = self.rng(2)
        self.models = {name: build_model(name, DECODE_VOCAB, self.seed) for name in DECODE_LAYOUTS}
        self.prompts = {name: rng.integers(0, DECODE_VOCAB, size=(1, PROMPT_LEN)) for name in DECODE_LAYOUTS}
        for name, model in self.models.items():
            hl.generate(model, self.prompts[name], 8)
        self.record: dict[str, dict] = {}
        self.clear_counters()

    def round(self, tally: Tally, first: bool) -> None:
        live = {}
        for name in DECODE_LAYOUTS:
            self.driving(name)
            try:
                state, logits = hl.prefill(self.models[name], self.prompts[name])
                tok = decode.sample_token(hl.Tensor(logits.data[:, -1]))
            except hl.NonFiniteError as err:
                tally.op(f"prefill {name}", err)
                continue
            tally.op(f"prefill {name}")
            rec = {"prefill": logits.data.copy(), "fed": [], "logits": [], "bytes": [],
                   "accounted": [], "positions": [], "swa_entries": []}
            rolling = [c for c in state.caches if isinstance(c, decode.RollingKV)]
            live[name] = [state, tok, rec, rolling]
        for name in decode_order():
            if name not in live:
                continue
            state, fed, rec, rolling = live[name]
            model = self.models[name]
            self.driving(name)
            position = state.position
            t0 = perf_counter()
            try:
                logits = hl.decode_step(model, state, fed)
                tok = decode.sample_token(logits)
            except hl.NonFiniteError as err:
                tally.op(f"decode {name} at {state.position}", err)
                del live[name]
                continue
            gap = perf_counter() - t0
            self.busy_s += gap
            self.tokens += 1
            self.op_done((name, position // CASE_POSITIONS), gap)
            tally.op(f"decode {name}")
            live[name][1] = tok
            if first:
                rec["fed"].append(int(fed[0]))
                rec["logits"].append(logits.data[0])
                rec["positions"].append(state.position)
                rec["bytes"].append(state.cache_bytes())
                rec["accounted"].append(hl.cache_bytes(model.layout, model.cfg, state.position))
                rec["swa_entries"].append(max((c.entries for c in rolling), default=0))
        if first:
            for name, (_state, tok, rec, _rolling) in live.items():
                rec["last"] = int(tok[0])
                self.record[name] = rec

    def check(self, tally: Tally) -> None:
        for name in DECODE_LAYOUTS:
            rec = self.record.get(name)
            if rec is None or len(rec["fed"]) != FAR - PROMPT_LEN:
                tally.check(f"{name} decoded to {FAR}", ["the first round did not finish"])
                continue
            model = self.models[name]
            tokens = np.concatenate([self.prompts[name][0], rec["fed"]])[None, :]
            with hl.no_grad():
                full = model.forward(tokens).data[0]
            steps = np.stack(rec["logits"])
            tally.check(f"{name} prefill logits == full forward",
                        checks.logits_mismatch(rec["prefill"][0], full[:PROMPT_LEN]))
            tally.check(f"{name} step logits == full forward",
                        checks.logits_mismatch(steps, full[PROMPT_LEN:]))
            greedy_from = np.concatenate([rec["prefill"][0, -1:], steps])
            greedy_tokens = np.array(rec["fed"] + [rec["last"]])
            tally.check(f"{name} greedy tokens", checks.greedy_mismatch(greedy_tokens, greedy_from))
            tally.check(f"{name} cache bytes == cost model",
                        checks.cache_bytes_mismatch(rec["bytes"], rec["accounted"], rec["positions"]))
            if any(b.kind == "swa" for b in model.layout.blocks):
                window, sink = model.cfg.block_window(next(b for b in model.layout.blocks if b.kind == "swa"))
                tally.check(f"{name} swa occupancy",
                            checks.occupancy_overflow(rec["swa_entries"], window + sink, rec["positions"]))


# ---------------------------------------------------------------------------
# prefill-batch
# ---------------------------------------------------------------------------


class HandoffClock:
    """Times harness.retrieve_values' prefill and its first sampled token.

    Rebinds the harness's names for prefill, sample_token and decode_step
    while active; each costs one clock read or list append per call.
    """

    def __init__(self, keep: dict | None):
        self.ttft_s = self.prefill_s = None
        self.keep = keep                  # logits kept for the checks, if given

    def __enter__(self):
        self._saved = prefill, sample_token, decode_step = (
            harness.prefill, harness.sample_token, harness.decode_step)
        handed = []

        def timed_prefill(model, tokens):
            handed.append(perf_counter())
            out = prefill(model, tokens)
            self.prefill_s = perf_counter() - handed[-1]
            if self.keep is not None:
                self.keep["prefill"] = out[1].data.copy()
            return out

        def timed_sample(logits, *args, **kwargs):
            tok = sample_token(logits, *args, **kwargs)
            if handed:
                self.ttft_s = perf_counter() - handed.pop()
            return tok

        def kept_step(model, state, tokens):
            logits = decode_step(model, state, tokens)
            if self.keep is not None:
                self.keep["steps"].append(logits.data.copy())
            return logits

        harness.prefill, harness.sample_token, harness.decode_step = timed_prefill, timed_sample, kept_step
        return self

    def __exit__(self, *exc):
        harness.prefill, harness.sample_token, harness.decode_step = self._saved
        return False


class PrefillBatch(Workload):
    """Batched needle prompts prefilled and answered via retrieve_values."""

    name = "prefill-batch"

    def setup(self) -> None:
        rng = self.rng(3)
        self.models = {name: build_model(name, DECODE_VOCAB, self.seed) for name in NEEDLE_LAYOUTS}
        self.batches = []
        for length in NEEDLE_LENGTHS:
            task = hl.NeedleTask(vocab=DECODE_VOCAB, context_len=length,
                                 key_len=NEEDLE_KEY_LEN, value_len=NEEDLE_VALUE_LEN)
            # needles at random depths; the planted value follows each prompt
            tokens, _mask = harness.gen_needle_train_batch(task, rng, NEEDLE_BATCH)
            self.batches.append((task, tokens[:, :length], tokens[:, length:]))
        warm = self.batches[0]
        for model in self.models.values():
            harness.retrieve_values(model, warm[0], warm[1])
        self.kept: list[tuple] = []
        self.clear_counters()

    def round(self, tally: Tally, first: bool) -> None:
        for name in NEEDLE_LAYOUTS:
            self.driving(name)
            for task, prompts, values in self.batches:
                clock = HandoffClock({"steps": []} if first else None)
                try:
                    with clock:
                        answers = harness.retrieve_values(self.models[name], task, prompts)
                except hl.NonFiniteError as err:
                    tally.op(f"retrieve {name} L={task.context_len}", err)
                    continue
                tally.op(f"retrieve {name}")
                self.op_done((name, task.context_len), clock.ttft_s)
                self.busy_s += clock.prefill_s
                self.tokens += prompts.size
                if first:
                    self.kept.append((name, task, prompts, values, answers, clock.keep))

    def check(self, tally: Tally) -> None:
        for task, prompts, values in self.batches:
            tally.check(f"needle values L={task.context_len}", checks.needle_mismatch(task, prompts, values))
        for name, task, prompts, _values, answers, keep in self.kept:
            where = f"{name} L={task.context_len}"
            with hl.no_grad():
                full = self.models[name].forward(np.concatenate([prompts, answers], axis=1)).data
            length = task.context_len
            steps = np.stack(keep["steps"], axis=1)          # (B, value_len, V)
            tally.check(f"{where} prefill logits == full forward",
                        checks.logits_mismatch(keep["prefill"], full[:, :length]))
            tally.check(f"{where} answer logits == full forward",
                        checks.logits_mismatch(steps, full[:, length:]))
            greedy_from = np.concatenate([keep["prefill"][:, -1:], steps[:, :-1]], axis=1)
            tally.check(f"{where} greedy answers", checks.greedy_mismatch(answers, greedy_from))


# ---------------------------------------------------------------------------
# per-layer figures of a traced run
# ---------------------------------------------------------------------------


def layer_metrics(tr: Tracer, models: dict[str, hl.HybridModel]) -> dict[str, tuple[float, str]]:
    """Every per-layer figure, from the spans and counts of any workload.

    Each is read from the calls the workload made; a layer, layout or
    position the workload never drives reads 0 (train-mix makes no decode
    steps, decode-long and prefill-batch train nothing and run no MoE).
    """

    def ms(recs) -> float:
        return 1e3 * mean_duration(recs) if recs else 0.0

    def mean(values) -> float:
        return statistics.fmean(values) if values else 0.0

    out = {}
    # probes run inside train_model; their time is not the step's
    probe_s: dict[int, float] = {}
    for rec in tr.spans:
        if rec[NAME].startswith("probe.") and rec[PARENT] >= 0:
            probe_s[rec[PARENT]] = probe_s.get(rec[PARENT], 0.0) + duration(rec)
    for name in TRAIN_LAYOUTS:
        calls = [i for i, r in enumerate(tr.spans) if r[NAME] == "harness.train_model" and r[LABEL] == name]
        steps = TRAIN_STEPS * len(calls)
        step_s = sum(duration(tr.spans[i]) - probe_s.get(i, 0.0) for i in calls) / steps if steps else 0.0
        out[f"harness.step_ms.{name}"] = (1e3 * step_s, "ms")
        out[f"harness.fwd_ms.{name}"] = (ms(tr.select("harness.fwd", name)), "ms")
        out[f"harness.bwd_ms.{name}"] = (ms(tr.select("harness.bwd", name)), "ms")
        opt_s = sum(duration(r) for r in tr.select("harness.opt", name))
        out[f"harness.opt_ms.{name}"] = (1e3 * opt_s / steps if steps else 0.0, "ms")
        probes = {key: v for (key, label), v in tr.samples.items() if label == name}
        out[f"tensor.tape_nodes.{name}"] = (mean(probes.get("tape_nodes")), "count")
        out[f"tensor.tape_mib.{name}"] = (mean(probes.get("tape_mib")), "MiB")
        out[f"tensor.nonleaf_grad_mib.{name}"] = (mean(probes.get("nonleaf_grad_mib")), "MiB")
        garbage = sum(probes.get("cyclic_garbage", ()))
        out[f"tensor.cyclic_garbage.{name}"] = (garbage / steps if steps else 0.0, "objects")
        gflops = 0.0
        if steps:
            model = models[name]
            flops = hl.flops_per_sample(model.layout, model.cfg, TRAIN_LEN) * TRAIN_BATCH
            gflops = flops / step_s / 1e9
        out[f"costs.train_gflops_per_s.{name}"] = (gflops, "GFLOP/s")
    for kind in ("attn", "swa", "mamba", "intra"):
        out[f"model.mixer_ms.{kind}"] = (ms([r for r in tr.select("model.mixer") if r[TAG] == kind]), "ms")
    for kind in ("dense", "moe"):
        out[f"model.ffn_ms.{kind}"] = (ms([r for r in tr.select("model.ffn") if r[TAG] == kind]), "ms")
    out["attention.context_ms"] = (ms(tr.select("attention.context")), "ms")
    out["ssm.scan_ms"] = (ms(tr.select("ssm.scan")), "ms")
    out["ssm.step_us"] = (1e3 * ms(tr.select("ssm.step")), "us")
    moe_calls = tr.select("moe.forward")
    out["moe.forward_ms"] = (ms(moe_calls), "ms")
    rows = sum(sum(v) for (key, _), v in tr.samples.items() if key == "moe_rows")
    moe_tokens = sum(r[TAG] for r in moe_calls)
    out["moe.expert_rows_per_token"] = (rows / moe_tokens if moe_tokens else 0.0, "rows/token")
    for name in NEEDLE_LAYOUTS:
        steps = tr.select("decode.step", name)          # tag: (position, batch)
        out[f"decode.step_us.{name}"] = (1e3 * ms(steps), "us")
        growth = 0.0
        if steps:
            near, far = min(r[TAG][0] for r in steps), max(r[TAG][0] for r in steps)
            first = ms([r for r in steps if r[TAG][0] - near < WINDOW_HALF])
            last = ms([r for r in steps if far - r[TAG][0] < WINDOW_HALF])
            growth = last / first if far - near >= 2 * WINDOW_HALF else 0.0
        out[f"decode.step_growth.{name}"] = (growth, "ratio")
        out[f"tensor.ops_per_token.{name}"] = (mean([r[OPS_END] - r[OPS_START] for r in steps]), "ops/token")
        per_mflop = []
        for r in steps:
            model = models[name]
            mflops = hl.model_decode_step_flops(model.layout, model.cfg, r[TAG][0]) * r[TAG][1] / 1e6
            per_mflop.append(1e6 * duration(r) / mflops)
        out[f"costs.decode_us_per_mflop.{name}"] = (mean(per_mflop), "us/MFLOP")
    out["decode.cache_read_us"] = (1e3 * ms(tr.select("decode.cache_read")), "us")
    out["decode.rope_us"] = (1e3 * ms(tr.select("nn.rope", parent="decode.step")), "us")
    for name in NEEDLE_LAYOUTS:
        out[f"decode.prefill_ms.{name}"] = (ms(tr.select("decode.prefill", name)), "ms")
    out["decode.cache_write_ms"] = (ms(tr.select("decode.cache_write")), "ms")
    return out


WORKLOADS = {w.name: w for w in (TrainMix, DecodeLong, PrefillBatch)}


def timed_rounds(wl: Workload, tally: Tally, seconds: float, keep_first: bool) -> tuple[int, float]:
    """Whole rounds until `seconds` have passed (at least one); (rounds, wall s)."""
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        wl.round(tally, first=keep_first and rounds == 0)
        rounds += 1
    return rounds, perf_counter() - start


def measure(wl: Workload, seconds: float) -> dict:
    """Set up, run whole rounds for `seconds`, then check; returns the figures.

    A traced run first runs the same rounds untraced, in the same process,
    and returns their figures as `untraced`: the baseline its tracing
    overhead is read against. The checks then cover the traced rounds.
    """
    tally = Tally()
    setup_s = []
    setup_start = perf_counter()
    while len(setup_s) < SETUP_REPEATS or perf_counter() - setup_start < SETUP_SECONDS:
        gc.collect()
        t0 = perf_counter()
        wl.setup()
        setup_s.append(perf_counter() - t0)
    setup_metric = {"setup_s": (statistics.median(setup_s), "s")}
    untraced = None
    if wl.tracer is not None:
        timed_rounds(wl, tally, seconds, keep_first=False)
        untraced = {**setup_metric, "peak_rss_mib": (peak_rss_mib(), "MiB"), **wl.e2e()}
        wl.clear_counters()
        instrument(wl.tracer)
    try:
        rounds, wall_s = timed_rounds(wl, tally, seconds, keep_first=True)
    finally:
        if wl.tracer is not None:
            wl.tracer.restore()
    peak = peak_rss_mib()        # before the checks, which run full forwards
    wl.check(tally)
    metrics = {**setup_metric, "peak_rss_mib": (peak, "MiB"), **wl.e2e()}
    return {
        "tally": tally,
        "e2e": metrics,
        "untraced": untraced,
        "info": {"setup_s": setup_s, "rounds": rounds, "wall_s": wall_s, **wl.info()},
    }
