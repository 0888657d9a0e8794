"""Command-line front end: plan / cost / verify / train / eval.

Every command is deterministic given its flags plus --seed, and every
file it writes embeds the resolved configuration, so a run can be
reproduced from its own output. An optional INI config file supplies
defaults (sections [model], [train]); explicit flags always win.

Exit codes: 0 success (lint warnings still print), 1 hard error or
failed verification, 2 golden-number drift.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import asdict

from .config import PRESET_NAMES, preset, with_vocab
from .layout import POSITIONINGS, LayoutError, lint_layout, load_layout, parse_ratio, plan_layout, save_layout
from .tensor import ContractError, set_chaos


def _fmt3(x: float) -> str:
    """3-significant-figure display for tables (CSV stays full precision)."""
    if x == 0:
        return "0"
    if abs(x) >= 1e5 or abs(x) < 1e-2:
        return f"{x:.3g}"
    return f"{x:,.3g}"


def _echo(pairs: dict) -> dict:
    return {k: v for k, v in pairs.items() if v is not None}


def _parse_counts(text: str, depth: int) -> tuple[int, int]:
    """'2,11' -> (2, 11); a bare '2' means 2 special blocks, rest base."""
    try:
        if "," in text:
            a, _, b = text.partition(",")
            return int(a), int(b)
        n = int(text)
        return n, depth - n
    except ValueError as err:
        raise ContractError(f"counts must look like 2,11 or 2, got {text!r}") from err


def _load_ini(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path:
        read = parser.read(path)
        if not read:
            raise ContractError(f"config file {path!r} not found")
    return parser


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    layout = plan_layout(
        depth=args.depth,
        ratio=None if args.ratio is None else parse_ratio(args.ratio),
        counts=None if args.count is None else _parse_counts(args.count, args.depth),
        special=args.kind,
        base=args.base,
        positioning=args.pos,
    )
    print(f"layout ({layout.depth} blocks): {layout.describe()}")
    for i, spec in enumerate(layout.blocks):
        print(f"  {i:3d}  {spec.kind}")
    warnings = lint_layout(layout)
    for w in warnings:
        print(w)
    if args.out:
        save_layout(args.out, layout)
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def _cost_rows(args) -> tuple[list[str], list[list]]:
    from .costs import cost_report

    columns = [
        "layout_id", "context_len", "depth", "params_non_embedding",
        "activated_non_embedding", "flops_per_sample", "train_flops",
        "cache_bytes", "cache_mib",
    ]
    rows = []

    def add(name, cfg, layout):
        rep = cost_report(layout, cfg, args.ctx, tokens=args.tokens, layout_id=name)
        rows.append([
            rep.layout_id, rep.context_len, rep.depth, rep.params_non_embedding,
            rep.activated_non_embedding, rep.flops_per_sample,
            rep.train_flops if rep.train_flops is not None else "",
            rep.cache_bytes, rep.cache_mib,
        ])

    if args.sweep:
        from .config import base_config

        cfg = base_config(args.scale)
        for ratio in ((1, 0), (1, 1), (1, 3), (1, 5), (1, 12), (0, 1)):
            layout = plan_layout(
                depth=args.depth, ratio=ratio, special=args.kind, base="mamba"
            )
            add(f"{ratio[0]}:{ratio[1]}", cfg, layout)
    elif args.layout:
        from .config import base_config

        cfg = base_config(args.scale)
        add(args.layout, cfg, load_layout(args.layout))
    else:
        cfg, layout = preset(args.preset)
        add(args.preset, cfg, layout)
    return columns, rows


def cmd_cost(args: argparse.Namespace) -> int:
    if args.golden:
        return _cmd_cost_golden(args)
    columns, rows = _cost_rows(args)
    echo = _echo({
        "command": "cost", "preset": args.preset, "layout": args.layout,
        "scale": args.scale, "ctx": args.ctx, "tokens": args.tokens,
        "sweep": args.sweep or None,
    })
    if args.csv:
        from .serialize import write_csv

        write_csv(args.csv, columns, rows, echo)
        print(f"wrote {args.csv}")
    header = f"{'layout':>10} {'ctx':>7} {'params(ne)':>12} {'flops/sample':>13} {'train flops':>12} {'cache MiB':>10}"
    print(header)
    for r in rows:
        train = _fmt3(r[6]) if r[6] != "" else "-"
        print(
            f"{r[0]:>10} {r[1]:>7} {_fmt3(r[3]):>12} {_fmt3(r[5]):>13} "
            f"{train:>12} {_fmt3(r[8]):>10}"
        )
    return 0


def _cmd_cost_golden(args: argparse.Namespace) -> int:
    from .costs import GOLDEN_TOKENS, golden_rows

    if args.golden != "table2":
        raise ContractError(f"unknown golden set {args.golden!r}; have: table2")
    tokens = args.tokens if args.tokens is not None else GOLDEN_TOKENS
    rows = golden_rows(context_len=args.ctx, tokens=tokens)
    drifted = False
    print(f"{'layout':>10} {'train flops':>12} {'expected':>10} {'cache MiB':>10} {'band':>16} {'status':>8}")
    for r in rows:
        ok = r["flops_ok"] and r["cache_ok"]
        drifted = drifted or not ok
        lo, hi = r["expected_cache"]
        print(
            f"{r['layout_id']:>10} {_fmt3(r['train_flops']):>12} {_fmt3(r['expected_flops']):>10} "
            f"{_fmt3(r['cache_mib']):>10} {f'[{_fmt3(lo)}, {_fmt3(hi)}]':>16} "
            f"{'ok' if ok else 'DRIFT':>8}"
        )
    if args.csv:
        from .serialize import write_csv

        write_csv(
            args.csv,
            ["layout_id", "train_flops", "expected_flops", "flops_ok",
             "cache_mib", "cache_lo", "cache_hi", "cache_ok"],
            (
                [r["layout_id"], r["train_flops"], r["expected_flops"], r["flops_ok"],
                 r["cache_mib"], r["expected_cache"][0], r["expected_cache"][1], r["cache_ok"]]
                for r in rows
            ),
            _echo({"command": "cost", "golden": "table2"}),
        )
        print(f"wrote {args.csv}")
    return 2 if drifted else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    if args.chaos:
        set_chaos(args.chaos)
    try:
        results = run_suites(args.suite or None)
    finally:
        set_chaos(None)
    failed = [r for r in results if not r.passed]
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"[{mark}] {r.suite}: {r.name}{detail}")
    print(f"{len(results) - len(failed)}/{len(results)} properties passed")
    if args.chaos:
        # self-test of the tester: the planted fault must be caught
        if failed:
            print(f"chaos mode '{args.chaos}': fault detected as expected")
            return 0
        print(f"chaos mode '{args.chaos}': NO suite failed; the tester is blind")
        return 1
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def _resolved_train_config(args, ini) -> "TrainConfig":
    """A flag wins over its [train] key and TrainConfig fills in the rest."""
    from .harness import TrainConfig

    given = {}
    for name, default in asdict(TrainConfig()).items():
        value = getattr(args, name)
        if value is None and ini.has_option("train", name):
            value = type(default)(ini.get("train", name))
        if value is not None:
            given[name] = value
    return TrainConfig(**given)


def _task_vocab(task: str) -> int:
    from .harness import COPY_VOCAB, NeedleTask

    return COPY_VOCAB if task == "copy" else NeedleTask().vocab


def cmd_train(args: argparse.Namespace) -> int:
    from .harness import (
        NeedleTask,
        copy_batch_fn,
        needle_batch_fn,
        train_model,
    )
    from .model import HybridModel
    from .serialize import save_model, write_trace_csv

    ini = _load_ini(args.config)
    preset_name = args.preset or ini.get("model", "preset", fallback="toy-intra-2l")
    tcfg = _resolved_train_config(args, ini)
    cfg, layout = preset(preset_name)
    cfg = with_vocab(cfg, _task_vocab(args.task))
    model = HybridModel(cfg, layout, seed=tcfg.seed)

    if args.task == "copy":
        batch_fn = copy_batch_fn()
    else:
        batch_fn = needle_batch_fn(NeedleTask(seed=tcfg.seed))

    echo = {"command": "train", "preset": preset_name, "task": args.task, **asdict(tcfg)}
    result = train_model(model, batch_fn, tcfg)
    print(f"trained {preset_name} on {args.task}: "
          f"loss {result.history[0].loss:.4f} -> {result.final_loss:.4f} "
          f"({tcfg.steps} steps)")
    if args.trace:
        write_trace_csv(args.trace, result.history, echo)
        print(f"wrote {args.trace}")
    if args.out:
        save_model(args.out, model, {str(k): str(v) for k, v in echo.items()})
        print(f"wrote {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .harness import NeedleTask, niah_eval, positionwise_nll
    from .model import HybridModel
    from .serialize import load_model, write_csv, write_niah_csv

    cfg, layout = preset(args.preset)
    cfg = with_vocab(cfg, _task_vocab("needle" if args.task == "niah" else args.task))
    model = HybridModel(cfg, layout, seed=args.seed)
    meta = {}
    if args.ckpt:
        meta = load_model(args.ckpt, model)

    echo = _echo({
        "command": "eval", "task": args.task, "preset": args.preset,
        "ckpt": args.ckpt, "seed": args.seed,
        "trained_on": meta.get("task") if meta else None,
    })

    if args.task == "niah":
        depths = tuple(float(d) for d in args.depths.split(","))
        lengths = tuple(int(x) for x in args.lengths.split(","))
        grid = niah_eval(
            model, depths, lengths, trials=args.trials,
            task=NeedleTask(seed=args.seed),
        )
        print("accuracy grid (rows: length, cols: depth)")
        print("  length | " + "  ".join(f"{d:>5.2f}" for d in grid.depths))
        for i, length in enumerate(grid.lengths):
            cells = "  ".join(f"{grid.accuracy[i, j]:>5.2f}" for j in range(len(grid.depths)))
            print(f"  {length:>6} | {cells}")
        if args.out:
            write_niah_csv(args.out, grid, echo)
            print(f"wrote {args.out}")
        return 0

    if args.task == "nll":
        from .harness import load_token_file
        from .tensor import named_rng

        if args.stream:
            stream = load_token_file(args.stream, args.stream_mode)
        else:
            stream = named_rng(args.seed, "eval-stream").integers(
                0, cfg.vocab, size=args.stream_len
            )
        rows = positionwise_nll(model, stream, args.bucket, train_len=args.train_len)
        print(f"{'bucket':>8} {'mean NLL':>10} {'extrapolation':>14}")
        for start, nll, flag in rows:
            print(f"{start:>8} {nll:>10.4f} {('yes' if flag else ''):>14}")
        if args.out:
            write_csv(
                args.out,
                ["bucket_start", "mean_nll", "extrapolation"],
                ([s, n, f] for s, n, f in rows),
                echo,
            )
            print(f"wrote {args.out}")
        return 0

    raise ContractError(f"unknown eval task {args.task!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from .harness import TrainConfig

    p = argparse.ArgumentParser(
        prog="hybridlab",
        description="plan, cost, verify, train, and evaluate hybrid block-stack models",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plan", help="build a layout from depth + ratio/counts and lint it")
    sp.add_argument("--depth", type=int, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", help="special:base count ratio, e.g. 1:5")
    group.add_argument("--count", help="explicit counts, e.g. 2,11 (special,base) or a bare special count")
    sp.add_argument("--kind", default="attn", choices=("attn", "swa", "intra"))
    sp.add_argument("--base", default="mamba", choices=("mamba", "attn", "swa"))
    sp.add_argument("--pos", default="scatter", choices=POSITIONINGS)
    sp.add_argument("--out", help="write the layout file here")
    sp.set_defaults(func=cmd_plan)

    sc = sub.add_parser("cost", help="parameter/FLOPs/cache report for a preset or layout")
    sc.add_argument("--preset", default="llama-1b", choices=PRESET_NAMES)
    sc.add_argument("--layout", help="layout file (overrides --preset; dims from --scale)")
    sc.add_argument("--scale", default="1b", choices=("100m", "350m", "1b", "3b"))
    sc.add_argument("--ctx", type=int, default=8192)
    sc.add_argument("--tokens", type=float, default=None, help="training token budget")
    sc.add_argument("--golden", help="reproduce a published table (table2); exit 2 on drift")
    sc.add_argument("--sweep", action="store_true",
                    help="sweep ratios 1:0,1:1,1:3,1:5,1:12,0:1 at --depth/--scale")
    sc.add_argument("--depth", type=int, default=13)
    sc.add_argument("--kind", default="attn", choices=("attn", "swa", "intra"))
    sc.add_argument("--csv", help="write rows to this CSV")
    sc.set_defaults(func=cmd_cost)

    sv = sub.add_parser("verify", help="run executable property suites")
    sv.add_argument("--suite", action="append",
                    help="restrict to a suite (repeatable); default all")
    sv.add_argument("--chaos", choices=("flip-sign",),
                    help="inject a fault and demand that verification catches it")
    sv.set_defaults(func=cmd_verify)

    st = sub.add_parser("train", help="train a toy preset on a synthetic task")
    st.add_argument("--preset", choices=PRESET_NAMES)
    st.add_argument("--task", default="copy", choices=("copy", "needle"))
    st.add_argument("--config", help="INI file with [model]/[train] defaults")
    # one flag per TrainConfig field, unset unless given (see _resolved_train_config)
    for name, default in asdict(TrainConfig()).items():
        st.add_argument(f"--{name.replace('_', '-')}", dest=name, type=type(default))
    st.add_argument("--out", help="checkpoint path")
    st.add_argument("--trace", help="loss trace CSV path")
    st.set_defaults(func=cmd_train)

    se = sub.add_parser("eval", help="evaluate a (possibly trained) model")
    se.add_argument("--task", default="niah", choices=("niah", "nll"))
    se.add_argument("--preset", default="toy-intra-2l", choices=PRESET_NAMES)
    se.add_argument("--ckpt", help="checkpoint from `train --out`")
    se.add_argument("--depths", default="0.0,0.25,0.5,0.75,1.0")
    se.add_argument("--lengths", default="48,64")
    se.add_argument("--trials", type=int, default=20)
    se.add_argument("--bucket", type=int, default=16)
    se.add_argument("--train-len", dest="train_len", type=int)
    se.add_argument("--stream", help="token file for nll (ids or bytes)")
    se.add_argument("--stream-mode", dest="stream_mode", default="ids", choices=("ids", "bytes"))
    se.add_argument("--stream-len", dest="stream_len", type=int, default=256)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--out", help="output CSV path")
    se.set_defaults(func=cmd_eval)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, LayoutError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
