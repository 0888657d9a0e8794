import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from hybridlab.cli import main
from hybridlab.config import PRESET_NAMES, preset
from hybridlab.harness import TrainConfig
from hybridlab.layout import load_layout
from hybridlab.model import HybridModel
from hybridlab.serialize import read_csv, read_niah_csv, save_model
from hybridlab.verify import SUITES, run_suites


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags, placed", [
    (["--depth", "13", "--ratio", "1:12", "--pos", "middle"], "MMMMMMAMMMMMM"),
    (["--depth", "8", "--ratio", "3:5", "--kind", "intra", "--pos", "cluster"], "MMHHHMMM"),
])
def test_plan_ratio_writes_the_placed_layout(tmp_path, capsys, flags, placed):
    out = str(tmp_path / "layout.txt")
    assert main(["plan", *flags, "--out", out]) == 0
    text = capsys.readouterr().out
    assert f"layout ({len(placed)} blocks): {placed}" in text
    assert load_layout(out).describe() == placed


def test_plan_count_pair(capsys):
    assert main(["plan", "--depth", "13", "--count", "2,11"]) == 0
    kinds = capsys.readouterr().out
    assert kinds.count("attn") == 2 and kinds.count("mamba") == 11


def test_plan_bare_count_fills_base(capsys):
    assert main(["plan", "--depth", "13", "--count", "2"]) == 0
    kinds = capsys.readouterr().out
    assert kinds.count("attn") == 2 and kinds.count("mamba") == 11


def test_plan_front_prints_lint_warning(capsys):
    assert main(["plan", "--depth", "6", "--count", "1", "--pos", "front"]) == 0
    assert "front placement degrades quality" in capsys.readouterr().out


@pytest.mark.parametrize("flag, text", [("--count", "2,11,3"), ("--ratio", "1:x")])
def test_plan_bad_count_or_ratio_is_an_error(capsys, flag, text):
    assert main(["plan", "--depth", "13", flag, text]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and repr(text) in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def test_cost_golden_reproduces(capsys):
    assert main(["cost", "--golden", "table2"]) == 0
    out = capsys.readouterr().out
    assert "llama-1b" in out and "intra-1b" in out


def test_cost_golden_flags_drift_off_reference_point(capsys):
    assert main(["cost", "--golden", "table2", "--ctx", "512"]) == 2
    assert "drift" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("flags, n_rows, echoed", [
    (["--preset", "inter-1b"], 1, ("preset", "inter-1b")),
    (["--sweep"], 6, ("sweep", "True")),
    (["--golden", "table2"], 5, ("golden", "table2")),
])
def test_cost_csv(tmp_path, capsys, flags, n_rows, echoed):
    out = str(tmp_path / "cost.csv")
    assert main(["cost", *flags, "--csv", out]) == 0
    columns, rows, echo = read_csv(out)
    assert echo[echoed[0]] == echoed[1]
    assert len(rows) == n_rows and len(columns) >= 3


def test_cost_layout_file_missing_is_an_error(tmp_path, capsys):
    assert main(["cost", "--layout", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_each_property_and_preset_is_listed_once():
    for suite, props in SUITES.items():
        names = [name for name, _ in props]
        assert len(set(names)) == len(names), suite
        assert len(run_suites([suite])) == len(props)
    # the CLI's choices and the tests iterate this tuple; a key repeated in
    # the preset table would overwrite its first entry without a word
    assert PRESET_NAMES == (
        "llama-100m", "llama-350m", "llama-1b", "llama-3b",
        "mamba-100m", "mamba-350m", "mamba-1b", "mamba-3b",
        "swa-1b", "inter-1b", "intra-1b",
        "toy-llama", "toy-mamba", "toy-swa", "toy-inter", "toy-intra", "toy-intra-2l",
    )


def test_verify_all_suites_pass(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "properties passed" in out and "[FAIL]" not in out


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "ssm"]) == 0
    out = capsys.readouterr().out
    assert "ssm:" in out and "[FAIL]" not in out


def test_verify_chaos_self_test(capsys):
    # a planted sign flip must make at least one property fail
    assert main(["verify", "--chaos", "flip-sign"]) == 0
    assert "fault detected" in capsys.readouterr().out


def test_verify_unknown_suite_is_an_error(capsys):
    assert main(["verify", "--suite", "nope"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_readme_states_the_verify_check_count():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = re.search(r"hybridlab verify +#.*\((\d+) checks\)", readme)
    assert stated is not None
    assert int(stated.group(1)) == len(run_suites())


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def _train_args(tmp_path, trace_name, extra=(), task="copy", steps=3):
    return ["train", "--preset", "toy-intra-2l", "--task", task,
            "--steps", str(steps), "--batch", "2", "--seed", "5",
            "--trace", str(tmp_path / trace_name), *extra]


@pytest.mark.parametrize("task, steps", [("copy", 3), ("needle", 2)])
def test_train_writes_trace_and_checkpoint(tmp_path, capsys, task, steps):
    ckpt = str(tmp_path / "model.bin")
    assert main(_train_args(tmp_path, "trace.csv", ["--out", ckpt], task, steps)) == 0
    out = capsys.readouterr().out
    assert f"trained toy-intra-2l on {task}" in out
    columns, rows, echo = read_csv(str(tmp_path / "trace.csv"))
    assert columns == ["step", "loss", "lr", "grad_norm"]
    assert [r[0] for r in rows] == [str(i) for i in range(steps)]
    assert echo["task"] == task and echo["seed"] == "5"
    assert (tmp_path / "model.bin").exists()


def test_train_same_seed_traces_are_byte_identical(tmp_path):
    assert main(_train_args(tmp_path, "a.csv")) == 0
    assert main(_train_args(tmp_path, "b.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_train_ini_defaults_and_flag_override(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\npreset = toy-llama\n\n[train]\nsteps = 2\nbatch = 2\nlr = 1e-3\n")
    assert main(["train", "--config", str(ini), "--task", "copy"]) == 0
    out = capsys.readouterr().out
    assert "trained toy-llama on copy: " in out and "(2 steps)" in out


def test_train_takes_a_warmup_that_fits_beside_the_cooldown(tmp_path):
    assert main(_train_args(tmp_path, "t.csv", ["--warmup-frac", "0.5"])) == 0


# a value unlike its default for every TrainConfig field
SETTINGS = {"steps": 3, "batch": 3, "lr": 2e-3, "warmup_frac": 0.3, "cooldown_frac": 0.1,
            "weight_decay": 0.02, "clip_norm": 0.5, "seed": 3}


@pytest.mark.parametrize("source", ("flag", "ini"))
def test_every_train_setting_has_a_flag_and_an_ini_key(tmp_path, source):
    assert set(SETTINGS) == {f.name for f in fields(TrainConfig)}
    if source == "flag":
        extra = [arg for k, v in SETTINGS.items() for arg in (f"--{k.replace('_', '-')}", str(v))]
    else:
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\n" + "".join(f"{k} = {v}\n" for k, v in SETTINGS.items()))
        extra = ["--config", str(ini)]
    trace = str(tmp_path / "t.csv")
    assert main(["train", "--preset", "toy-llama", "--trace", trace, *extra]) == 0
    _, rows, echo = read_csv(trace)
    assert {k: type(v)(echo[k]) for k, v in SETTINGS.items()} == SETTINGS
    assert len(rows) == 3


def test_a_train_flag_wins_over_its_ini_key_and_the_config_fills_the_rest(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nsteps = 4\nbatch = 2\n")
    trace = str(tmp_path / "t.csv")
    assert main(["train", "--config", str(ini), "--preset", "toy-llama", "--steps", "2",
                 "--trace", trace]) == 0
    _, rows, echo = read_csv(trace)
    assert len(rows) == 2 and echo["steps"] == "2" and echo["batch"] == "2"
    assert float(echo["lr"]) == TrainConfig().lr


def test_an_ini_seed_trains_as_the_seed_flag_does(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nseed = 3\n")
    runs = {"ini": ["--config", str(ini)], "flag": ["--seed", "3"], "default": []}
    for name, extra in runs.items():
        assert main(["train", "--preset", "toy-llama", "--steps", "2", "--batch", "2",
                     "--trace", str(tmp_path / f"{name}.csv"), *extra]) == 0
    trace = {name: (tmp_path / f"{name}.csv").read_bytes() for name in runs}
    assert trace["ini"] == trace["flag"]
    losses = {name: [r[1] for r in read_csv(str(tmp_path / f"{name}.csv"))[1]] for name in runs}
    assert losses["ini"] != losses["default"]


def test_train_missing_config_is_an_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.ini")]) == 1
    assert "not found" in capsys.readouterr().err


def test_eval_niah_grid_csv(tmp_path, capsys):
    out = str(tmp_path / "grid.csv")
    assert main(["eval", "--task", "niah", "--preset", "toy-intra-2l",
                 "--depths", "0.0,1.0", "--lengths", "16,24",
                 "--trials", "2", "--out", out]) == 0
    assert "accuracy grid" in capsys.readouterr().out
    grid = read_niah_csv(out)
    assert grid.depths == (0.0, 1.0) and grid.lengths == (16, 24)
    assert grid.accuracy.shape == (2, 2)


@pytest.mark.parametrize("source", ("file", "seeded"))
def test_eval_nll_csv_from_a_stream_file_or_a_seeded_stream(tmp_path, capsys, source):
    stream = tmp_path / "stream.txt"
    stream.write_text("\n".join(str(i % 7) for i in range(40)) + "\n")
    given = ["--stream", str(stream)] if source == "file" else ["--stream-len", "40"]
    out = str(tmp_path / "nll.csv")
    assert main(["eval", "--task", "nll", "--preset", "toy-llama", *given,
                 "--bucket", "16", "--train-len", "16", "--out", out]) == 0
    columns, rows, _ = read_csv(out)
    assert columns == ["bucket_start", "mean_nll", "extrapolation"]
    assert [r[0] for r in rows] == ["0", "16", "32"]
    # bools serialize as 0/1; buckets at or past train_len are flagged
    assert [r[2] for r in rows] == ["0", "1", "1"]


def test_eval_on_a_truncated_checkpoint_is_an_error(tmp_path, capsys):
    ckpt = tmp_path / "model.bin"
    save_model(str(ckpt), HybridModel(*preset("toy-llama"), seed=0))
    ckpt.write_bytes(ckpt.read_bytes()[:30])
    assert main(["eval", "--task", "nll", "--preset", "toy-llama",
                 "--ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model.bin: truncated checkpoint" in err


def test_eval_on_a_checkpoint_with_a_nan_weight_is_an_error(tmp_path, capsys):
    model = HybridModel(*preset("toy-llama"), seed=0)
    model.parameters()["blocks.0.attn.wq"].data[0, 0] = float("nan")
    ckpt = tmp_path / "nan.bin"
    save_model(str(ckpt), model)
    assert main(["eval", "--task", "nll", "--preset", "toy-llama",
                 "--ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite values in blocks.0.attn.wq" in err


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hybridlab", "plan", "--depth", "13", "--ratio", "1:12"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "layout (13 blocks)" in proc.stdout
