import re

import numpy as np
import pytest

from hybridlab.config import preset
from hybridlab.harness import NiahGrid, StepStats
from hybridlab.layout import BlockSpec, uniform_layout
from hybridlab.model import HybridModel
from hybridlab.serialize import (
    CSV_VERSION_LINE,
    load_checkpoint,
    load_model,
    read_csv,
    read_niah_csv,
    save_checkpoint,
    save_model,
    write_csv,
    write_niah_csv,
    write_trace_csv,
)
from hybridlab.tensor import ContractError


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bits_and_meta(tmp_path):
    path = str(tmp_path / "ck.bin")
    tensors = {
        "w": np.linspace(-1, 1, 12).reshape(3, 4),
        "idx": np.arange(5, dtype=np.int64),
        "scalar": np.array(3.5),
        "f32": np.ones((2, 2), dtype=np.float32),
    }
    save_checkpoint(path, tensors, {"seed": 7, "note": "x"})
    back, meta = load_checkpoint(path)
    assert meta == {"seed": 7, "note": "x"}
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        np.testing.assert_array_equal(back[name], arr)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ContractError, match="magic"):
        load_checkpoint(str(path))


def _small_checkpoint(tmp_path) -> bytes:
    path = tmp_path / "small.bin"
    save_checkpoint(str(path), {"w": np.arange(6.0).reshape(2, 3)}, {"seed": 7})
    return path.read_bytes()


# byte offsets in that file: magic 4 and version 4, meta length 8, meta 11,
# count 4, then for "w": name length 4, name 1, dtype 1, ndim 4, dims 16, data 48
@pytest.mark.parametrize("cut,part", [
    (6, "version"), (20, "meta"), (35, "name"), (45, "shape"), (80, "data"),
])
def test_truncated_checkpoint_is_a_contract_error(tmp_path, cut, part):
    blob = _small_checkpoint(tmp_path)
    assert len(blob) == 105
    path = tmp_path / "cut.bin"
    path.write_bytes(blob[:cut])
    with pytest.raises(ContractError, match=rf"cut\.bin: truncated checkpoint \(short {part}"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_an_unknown_dtype_code(tmp_path):
    blob = bytearray(_small_checkpoint(tmp_path))
    blob[36] = 9
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ContractError, match=r"bad\.bin: unknown dtype code 9 for 'w'"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.bin"
    path.write_bytes(_small_checkpoint(tmp_path) + b"\0")
    with pytest.raises(ContractError, match=r"long\.bin: 1 trailing bytes after 1 tensors"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("offset,byte,what", [
    (16, ord("x"), r"meta is not JSON"),     # the meta's opening brace
    (17, 0xFF, r"meta is not UTF-8"),
    (35, 0xFF, r"name is not UTF-8"),        # the one-byte name "w"
])
def test_a_corrupt_meta_or_name_is_a_contract_error_naming_the_file(tmp_path, offset, byte, what):
    blob = bytearray(_small_checkpoint(tmp_path))
    blob[offset] = byte
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ContractError, match=rf"bad\.bin: corrupt checkpoint \({what}"):
        load_checkpoint(str(path))


def _arrays(model) -> dict:
    return {**{k: t.data for k, t in model.parameters().items()}, **model.buffers()}


@pytest.mark.parametrize("name", ["head.weight", "blocks.1.moe.expert_bias"])
def test_a_non_finite_weight_or_router_bias_is_a_contract_error_and_loads_nothing(tmp_path, name):
    # a NaN expert bias would route every token to its expert
    cfg, _ = preset("toy-llama")
    layout = uniform_layout(2, BlockSpec(kind="attn", moe=True))
    src = HybridModel(cfg, layout, seed=0)
    _arrays(src)[name].reshape(-1)[1] = np.nan
    path = str(tmp_path / "nan.bin")
    save_model(path, src)
    dst = HybridModel(cfg, layout, seed=1)
    before = _arrays(dst)
    with pytest.raises(ContractError, match=rf"non-finite values in {re.escape(name)}"):
        load_model(path, dst)
    assert all(arr is before[k] for k, arr in _arrays(dst).items())


def test_model_round_trip_includes_buffers(tmp_path):
    cfg, _ = preset("toy-llama")
    layout = uniform_layout(2, BlockSpec(kind="attn", moe=True))
    src = HybridModel(cfg, layout, seed=1)
    for name in src.buffers():
        src.buffers()[name][...] = np.arange(src.buffers()[name].size).reshape(
            src.buffers()[name].shape
        )
    path = str(tmp_path / "model.bin")
    save_model(path, src, meta={"tag": "test"})

    dst = HybridModel(cfg, layout, seed=2)
    meta = load_model(path, dst)
    assert meta["tag"] == "test"
    assert sorted(src.buffers()) == meta["buffers"]
    for name, t in src.parameters().items():
        np.testing.assert_array_equal(dst.parameters()[name].data, t.data)
    for name, buf in src.buffers().items():
        np.testing.assert_array_equal(dst.buffers()[name], buf)


def test_model_load_rejects_shape_mismatch(tmp_path):
    cfg, layout = preset("toy-llama")
    src = HybridModel(cfg, layout, seed=0)
    path = str(tmp_path / "model.bin")
    save_model(path, src)
    other_cfg, other_layout = preset("toy-mamba")
    with pytest.raises(ContractError):
        load_model(path, HybridModel(other_cfg, other_layout, seed=0))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_round_trip_with_echo(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b"], [[1, 2.5], [np.int64(3), np.float64(0.125)]],
              echo={"seed": 7, "preset": "toy-llama"})
    columns, rows, echo = read_csv(path)
    assert columns == ["a", "b"]
    assert rows == [["1", "2.5"], ["3", "0.125"]]
    assert echo == {"seed": "7", "preset": "toy-llama"}


def test_csv_cells_never_carry_numpy_reprs(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["v"], [[np.float64(0.0)], [np.float32(1.5)], [np.int32(4)]])
    text = open(path).read()
    assert "np." not in text and "float64" not in text
    _, rows, _ = read_csv(path)
    assert rows == [["0.0"], ["1.5"], ["4"]]


def test_csv_version_line_is_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ContractError, match="header"):
        read_csv(str(path))
    good = tmp_path / "good.csv"
    good.write_text(CSV_VERSION_LINE + "\na,b\n1,2\n")
    columns, rows, _ = read_csv(str(good))
    assert columns == ["a", "b"] and rows == [["1", "2"]]


def test_trace_csv_columns(tmp_path):
    path = str(tmp_path / "trace.csv")
    history = [StepStats(0, 2.5, 1e-3, 0.7), StepStats(1, 2.25, 2e-3, 0.6)]
    write_trace_csv(path, history, echo={"seed": 0})
    columns, rows, echo = read_csv(path)
    assert columns == ["step", "loss", "lr", "grad_norm"]
    assert rows[0] == ["0", "2.5", "0.001", "0.7"]
    assert rows[1][1] == "2.25"
    assert echo["seed"] == "0"


def test_niah_grid_round_trip(tmp_path):
    grid = NiahGrid(
        depths=(0.0, 0.5, 1.0),
        lengths=(32, 64),
        accuracy=np.array([[1.0, 0.95, 0.9], [0.85, 0.8, 0.75]]),
    )
    path = str(tmp_path / "grid.csv")
    write_niah_csv(path, grid, echo={"preset": "toy-intra-2l"})
    back = read_niah_csv(path)
    assert back.depths == grid.depths
    assert back.lengths == grid.lengths
    np.testing.assert_array_equal(back.accuracy, grid.accuracy)
    assert back.cell(64, 0.5) == 0.8


def test_niah_reader_rejects_other_csv(tmp_path):
    path = str(tmp_path / "nope.csv")
    write_csv(path, ["step", "loss"], [[0, 1.0]])
    with pytest.raises(ContractError, match="length"):
        read_niah_csv(path)
