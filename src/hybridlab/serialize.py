"""File formats: flat binary checkpoints and versioned CSV emitters.

Checkpoint layout (little-endian throughout):

  magic   4 bytes  b"HYBL"
  version u32      currently 1
  meta    u64 length + UTF-8 JSON (config echo, seed, buffer names)
  count   u32      number of tensors
  per tensor:
    name  u32 length + UTF-8 bytes
    dtype u8   0 = float64, 1 = float32, 2 = int64
    ndim  u32, then ndim x u64 dims
    data  raw C-order bytes

Every CSV starts with the version line `#hybridlab-csv-v1` followed by
`# key=value` echo lines (resolved config, seed), so any emitted file
is self-describing and reproducible. Numeric cells are written with
repr-level precision; readers get strings and convert as needed.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Iterable

import numpy as np

from .tensor import ContractError

CHECKPOINT_MAGIC = b"HYBL"
CHECKPOINT_VERSION = 1
CSV_VERSION_LINE = "#hybridlab-csv-v1"

_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1, np.dtype(np.int64): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            # not ascontiguousarray: that would promote 0-d arrays to 1-d
            arr = np.asarray(arr)
            if arr.dtype not in _DTYPE_CODES:
                arr = arr.astype(np.float64)
            blob = name.encode()
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<B", _DTYPE_CODES[arr.dtype]))
            f.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<Q", dim))
            f.write(arr.tobytes())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Tensors and meta; a short, corrupt or overlong file is a ContractError
    that names the file."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            # checked before reading, so a corrupt length allocates nothing
            if f.tell() + n > size:
                raise ContractError(f"{path}: truncated checkpoint (short {what})")
            return f.read(n)

        def unpack(fmt: str, what: str) -> int:
            return struct.unpack(fmt, read(struct.calcsize(fmt), what))[0]

        def text(n: int, what: str) -> str:
            try:
                return read(n, what).decode()
            except UnicodeDecodeError as err:
                raise ContractError(f"{path}: corrupt checkpoint ({what} is not UTF-8)") from err

        if f.read(4) != CHECKPOINT_MAGIC:
            raise ContractError(f"{path}: not a checkpoint (bad magic)")
        version = unpack("<I", "version")
        if version != CHECKPOINT_VERSION:
            raise ContractError(f"{path}: unsupported checkpoint version {version}")
        meta_len = unpack("<Q", "meta length")
        try:
            meta = json.loads(text(meta_len, "meta")) if meta_len else {}
        except json.JSONDecodeError as err:
            raise ContractError(f"{path}: corrupt checkpoint (meta is not JSON: {err})") from err
        count = unpack("<I", "tensor count")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name = text(unpack("<I", "name length"), "name")
            code = unpack("<B", f"dtype of {name!r}")
            if code not in _CODE_DTYPES:
                raise ContractError(f"{path}: unknown dtype code {code} for {name!r}")
            dtype = _CODE_DTYPES[code]
            ndim = unpack("<I", f"ndim of {name!r}")
            shape = tuple(unpack("<Q", f"shape of {name!r}") for _ in range(ndim))
            data = read(math.prod(shape) * dtype.itemsize, f"data of {name!r}")
            tensors[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        if f.tell() != size:
            raise ContractError(f"{path}: {size - f.tell()} trailing bytes after {count} tensors")
    return tensors, meta


def save_model(path: str, model, meta: dict | None = None) -> None:
    """Model weights + router buffers in one file; buffers listed in meta."""
    tensors = {name: t.data for name, t in model.parameters().items()}
    buffers = model.buffers()
    tensors.update(buffers)
    full_meta = dict(meta or {})
    full_meta["buffers"] = sorted(buffers)
    save_checkpoint(path, tensors, full_meta)


def load_model(path: str, model) -> dict:
    """Restore weights (and buffers) saved by `save_model`; returns meta."""
    tensors, meta = load_checkpoint(path)
    buffer_names = set(meta.get("buffers", ()))
    arrays = {k: v for k, v in tensors.items() if k not in buffer_names}
    buffers = {k: v for k, v in tensors.items() if k in buffer_names}
    model.load_state(arrays, buffers)
    return meta


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    # np.float64 subclasses float, so coerce before repr to keep plain digits
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str, columns: list[str], rows: Iterable[Iterable], echo: dict | None = None) -> None:
    lines = [CSV_VERSION_LINE]
    for key in sorted(echo or {}):
        lines.append(f"# {key}={echo[key]}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[list[str], list[list[str]], dict]:
    """Returns (columns, rows-of-strings, echo dict); validates version."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or lines[0] != CSV_VERSION_LINE:
        raise ContractError(f"{path}: missing {CSV_VERSION_LINE} header")
    echo: dict[str, str] = {}
    body: list[str] = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            stripped = ln.lstrip("#").strip()
            if "=" in stripped:
                key, _, val = stripped.partition("=")
                echo[key.strip()] = val.strip()
            continue
        if ln.strip():
            body.append(ln)
    if not body:
        raise ContractError(f"{path}: no header row")
    columns = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return columns, rows, echo


def write_trace_csv(path: str, history, echo: dict | None = None) -> None:
    """Loss trace from a TrainResult history."""
    write_csv(
        path,
        ["step", "loss", "lr", "grad_norm"],
        ([s.step, s.loss, s.lr, s.grad_norm] for s in history),
        echo,
    )


def write_niah_csv(path: str, grid, echo: dict | None = None) -> None:
    """Grid CSV: header row is the depths, first column the lengths."""
    columns = ["length"] + [repr(float(d)) for d in grid.depths]
    rows = [
        [length] + [grid.accuracy[i, j] for j in range(len(grid.depths))]
        for i, length in enumerate(grid.lengths)
    ]
    write_csv(path, columns, rows, echo)


def read_niah_csv(path: str):
    from .harness import NiahGrid

    columns, rows, _ = read_csv(path)
    if not columns or columns[0] != "length":
        raise ContractError(f"{path}: not a retrieval grid (first column must be length)")
    depths = tuple(float(c) for c in columns[1:])
    lengths = tuple(int(r[0]) for r in rows)
    acc = np.array([[float(v) for v in r[1:]] for r in rows])
    return NiahGrid(depths, lengths, acc)
