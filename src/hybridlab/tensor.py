"""Dense float tensors with reverse-mode autodiff on a flat gradient tape.

Everything downstream (attention, selective state spaces, fused hybrid
blocks, the training harness) runs on this module. The design goals are
desk-scale clarity and exact reproducibility, not throughput:

* arrays are plain float64 numpy, in a single process;
* every operation that touches a gradient-tracking tensor appends one
  node to a flat tape in execution order, which is already a valid
  topological order, so ``backward`` is a single reverse sweep that
  touches each reachable node exactly once;
* ``backward`` keeps ``.grad`` on leaves only (tensors no op produced,
  such as parameters), and releases each node once it has applied it,
  so a training step peaks at its forward tape, not at the tape plus
  the sweep; a sweep that reaches a released node raises
  ``ContractError``. ``reset_tape`` cuts the links of the nodes no sweep
  reached, so reference counting frees them at once;
* any op that computes values, and ``Tensor(...)`` on outside data, raises
  ``NonFiniteError`` at once on a non-finite value instead of letting NaNs
  propagate; the views ``reshape``, ``swapaxes`` and ``getitem`` skip the
  check, as they only pick entries that passed it. ``getitem`` returns
  numpy's result (a view for a basic index), and its gradient is an
  (index, values) pair that ``backward`` adds into one zero buffer per
  source; an integer-array index that repeats a row sums that row's
  values first with ``np.add.reduceat``. ``checked_view`` wraps data
  that ops already checked (a KV cache's filled slots) with neither a
  scan nor a tape node;
* randomness comes only from counter-based generators keyed by an
  explicit 64-bit seed plus a stream name, so identical seeds give
  bit-identical results across runs and platforms.

The op set is deliberately small: broadcasting arithmetic, batched
matmul, reductions, shape surgery, the handful of activations
the models need, and fused (optionally masked) softmax and cross-entropy
kernels with analytic backward rules. The fused attention kernel
(`attention_core`) takes q, k, v in the model's (B, L, heads, d) layout,
with grouped KV heads and an optional mask, and records one node: it
walks the queries in 16-row tiles, scores each tile only against keys up
to its last visible column, normalizes after the PV product, and never
holds the full (B, H, L, L) score matrix. Its tape keeps one exp tile
and its row inverses per query tile. Gradients for broadcast operands are
reduced back to the operand shape. The other fused kernels each record
one node with an analytic backward: `normalize_lastdim` (the RMS norm,
and with ``center`` the per-head group norm), `rope_rotate` (the rotary
embedding against full-width cos and sin tables; its backward rotates by
-theta), `silu_mul` (the SiLU gate silu(a) * b, byte-equal to the
composed form) and `siglu_ffn` (the gated FFN: the gate and up products,
the SiLU gate and the down product, byte-equal to those four ops).
Kernels outside this module (the SSM's chunked scan and causal conv with
its SiLU) record their one node through `_make` too. The scan, like
`matmul`, `siglu_ffn` and `attention_core`, runs its products through
`_mm`, the one place `set_chaos` acts.

What the tape keeps, until the sweep applies the node: every node's
output, and beside it only what the node's backward cannot rebuild from
its inputs and output in one pass. A value one product or one copy away
is recomputed in the backward, with the forward's own expression, so
gradients stay byte-equal. Per fused op, beyond inputs and output:

* `silu_mul`: s = sigmoid(a); silu(a) = a * s is rebuilt;
* `siglu_ffn`: g = x @ w_gate, u = x @ w_up and s = sigmoid(g); the
  gated product h = (g * s) * u, the down product's input, is rebuilt;
* `normalize_lastdim`: the row scale r; the normalized input is rebuilt;
* `rope_rotate`: nothing (its tables are arguments);
* `attention_core`: one exp tile and its row inverses per query tile;
* `ssm.causal_conv`: the pre-activation a; s = sigmoid(a) and the
  contiguous window of history and input are rebuilt, not kept;
* `ssm.ssm_scan`, per 64-token slab: the chunked dt, B and C, the decay
  matrix exp(s_i - s_j), the masked scores C B^T, exp(s) and the decays
  to and at each chunk's end, the end weights exp(s_end - s) * dt and
  the state entering each chunk; the chunked x, the intra-chunk map w
  and the end inputs v = end weights * B are rebuilt.

Heap policy: every op allocates fresh arrays, many of them MB-sized, and
with glibc's defaults each freed one goes back to the kernel, so the next
op faults its pages in again: a warm toy-llama prefill of 4 x 320 tokens
took ~11K minor faults, at ~3.5 us per 4 KiB page on a 2-vCPU VM (timed
by touching a fresh mmap). At import, one ``mallopt(M_TOP_PAD, 64 MiB)``
makes glibc keep up to that much freed memory at the top of its heap,
and carve large arrays from it instead of mapping each afresh; the same
prefill then faults nothing. The pad is measured, not guessed: setting
any malloc parameter switches off glibc's sliding mmap threshold, and 5
warm prefills (before the norms, rope and gate were fused) took 54.9K
faults with the defaults, 157K / 114K with a 1 / 4 MiB pad, 135K with
only ``M_TRIM_THRESHOLD`` at 64 MiB, 113K with only ``M_MMAP_THRESHOLD``
at 32 MiB, 62 with a 16 MiB pad and 2 with 32 or 64 MiB. The trim
threshold is left at glibc's: a process that trains one preset at
16 x 64 can still fault tens of thousands of pages per step when the
freed heap top outgrows the pad, depending on its allocation pattern,
while raising the threshold tripled the faults of a mixed training run.
Where there is no glibc ``mallopt`` the call is skipped.
"""

from __future__ import annotations

import ctypes
import hashlib
from contextlib import contextmanager

import numpy as np

# glibc's mallopt parameter number for M_TOP_PAD, and the pad kept (bytes)
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 64 << 20


def _keep_freed_heap() -> bool:
    """Ask glibc to keep freed heap pages; False where there is no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt(_M_TOP_PAD, _HEAP_TOP_PAD) == 1


_HEAP_KEPT = _keep_freed_heap()


class DimensionError(ValueError):
    """Shapes or axes that cannot be reconciled."""


class ContractError(ValueError):
    """A caller broke an API precondition (not a shape mismatch)."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or infinity."""


# Fault-injection hook for the self-test of the verification harness.
# "flip-sign" negates every matmul output, which must make the property
# suites fail loudly; None is normal operation.
_chaos_mode: str | None = None


def set_chaos(mode: str | None) -> None:
    global _chaos_mode
    if mode not in (None, "flip-sign"):
        raise ContractError(f"unknown chaos mode {mode!r}")
    _chaos_mode = mode


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Counter-based generator for stream `name` under a 64-bit seed.

    Philox is keyed by a digest of (seed, name), so streams are stable
    across runs and independent of each other and of call order.
    """
    digest = hashlib.blake2b(
        name.encode("utf-8"), digest_size=16, key=int(seed).to_bytes(8, "little", signed=False)
    ).digest()
    key = int.from_bytes(digest, "little")
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------


class TapeNode:
    __slots__ = ("op", "inputs", "out", "backward")

    def __init__(self, op, inputs, out, backward):
        self.op = op                # str, for diagnostics
        self.inputs = inputs        # tuple[Tensor, ...]
        self.out = out              # Tensor
        self.backward = backward    # grad_out -> per input a grad, None or getitem's (index, values)


class GradTape:
    """Flat record of executed ops, in execution (= topological) order."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.enabled = True

    def record(self, node: TapeNode) -> None:
        self.nodes.append(node)

    def reset(self) -> None:
        """Forget the recorded ops and free their graph.

        `backward` already released every node it applied, so what is
        left is what no sweep reached: a forward with no backward (an
        eval under the tape, a step that diverged) or a branch off the
        loss. Cutting each node's links breaks the out <-> node cycle, so
        reference counting frees every op output now, even while a caller
        still holds the last loss, instead of leaving it to the cyclic GC.
        """
        for node in self.nodes:
            node.out = None
            node.inputs = ()
            node.backward = None
        self.nodes.clear()


_tape = GradTape()


def default_tape() -> GradTape:
    return _tape


def reset_tape() -> None:
    _tape.reset()


@contextmanager
def no_grad():
    """Disable tape recording (inference / decode paths)."""
    old = _tape.enabled
    _tape.enabled = False
    try:
        yield
    finally:
        _tape.enabled = old


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor created with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: TapeNode | None = None

    # -- introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operator sugar (definitions below) ----------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return getitem(self, index)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 or isinstance(shape[0], int) else shape[0])

    def swapaxes(self, a: int, b: int):
        return swapaxes(self, a, b)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def backward(self) -> None:
        backward(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"op {op!r} produced non-finite values")


def _make(op: str, out_data: np.ndarray, inputs: tuple, backward_fn, check: bool = True) -> Tensor:
    """Wrap an op result: finiteness guard (off for views), grad flag, tape node."""
    if check:
        _finite_or_raise(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.node = None
    out.requires_grad = _tape.enabled and any(t.requires_grad for t in inputs)
    if out.requires_grad:
        node = TapeNode(op, inputs, out, backward_fn)
        out.node = node
        _tape.record(node)
    return out


def checked_view(data: np.ndarray) -> Tensor:
    """Wrap float64 data whose every entry some op already checked; no scan, no tape node.

    For views of op outputs kept off the tape, such as a KV cache's
    filled slots: a view of finite data is finite.
    """
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad, out.grad, out.node = data, False, None, None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# broadcasting arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        "add", a.data + b.data, (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        "sub", a.data - b.data, (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        "mul", a.data * b.data, (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return _make(
        "div", out, (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * out / b.data, b.shape),
        ),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make("neg", -a.data, (a,), lambda g: (-g,))


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make("exp", out, (a,), lambda g: (g * out,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _make("sqrt", out, (a,), lambda g: (g * 0.5 / out,))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _make("square", a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; x >= 0 gives 1 / (1 + e^-x) and x < 0 gives
    # e^x / (1 + e^x). One buffer plus the denominator; the numerator is
    # e * 0 + 1 or e * 1 + 0, exact, and faster than a masked write
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = 1.0 + e
    e *= x < 0
    e += x >= 0
    e /= den
    return e


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)
    return _make("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def silu(a) -> Tensor:
    a = as_tensor(a)
    s = _sigmoid(a.data)
    return _make("silu", a.data * s, (a,), lambda g: (g * s * (1.0 + a.data * (1.0 - s)),))


def silu_mul(a, b) -> Tensor:
    """The SiLU gate silu(a) * b as one op.

    Values and both gradients are byte-equal to ``silu(a) * b``: the
    same products are taken in the same order. The tape keeps
    s = sigmoid(a); the backward rebuilds silu(a) = a * s.
    """
    a, b = as_tensor(a), as_tensor(b)
    s = _sigmoid(a.data)
    return _make("silu_mul", (a.data * s) * b.data, (a, b), lambda g: _silu_mul_grads(a.data, b.data, s, g))


def _silu_mul_grads(a: np.ndarray, b: np.ndarray, s: np.ndarray, g: np.ndarray) -> tuple:
    """The gradients of silu(a) * b reaching g, given s = sigmoid(a)."""
    ga = _unbroadcast(g * b, a.shape)
    ga *= s
    d_act = 1.0 - s
    d_act *= a
    d_act += 1.0
    ga *= d_act
    return ga, _unbroadcast(g * (a * s), b.shape)     # silu(a) rebuilt


def softplus(a) -> Tensor:
    a = as_tensor(a)
    # log1p(exp(-|x|)) + max(x, 0) is exact and never overflows
    out = np.log1p(np.exp(-np.abs(a.data))) + np.maximum(a.data, 0.0)
    return _make("softplus", out, (a,), lambda g: (g * _sigmoid(a.data),))


# ---------------------------------------------------------------------------
# matmul, reductions
# ---------------------------------------------------------------------------


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The kernels' product: np.matmul, negated under "flip-sign" chaos."""
    out = np.matmul(a, b)
    if _chaos_mode == "flip-sign":
        np.negative(out, out=out)
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    return _make("matmul", _mm(a.data, b.data), (a, b), lambda g: _matmul_grads(a.data, b.data, g))


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> tuple:
    """The gradients of a @ b reaching g, each reduced to its operand's shape."""
    ga = np.matmul(g, b.swapaxes(-1, -2))
    gb = np.matmul(a.swapaxes(-1, -2), g)
    return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)


def siglu_ffn(x, w_gate, w_up, w_down) -> Tensor:
    """The gated FFN (silu(x @ w_gate) * (x @ w_up)) @ w_down as one op.

    x is (..., d_in), w_gate and w_up (d_in, d_ffn), w_down (d_ffn,
    d_out). The three products run through `_mm`, as `matmul`'s do, and
    only the output is checked for non-finite values: a NaN or infinity
    in g = x @ w_gate, u = x @ w_up or the gated product h = silu(g) * u
    reaches it. The tape keeps g, u and s = sigmoid(g); the backward
    rebuilds h with the forward's two products, then applies the backward
    rules of the down `matmul`, `silu_mul` and the up and gate `matmul`s
    in the order a tape of those four ops applies them, so values and
    gradients are byte-equal to
    ``matmul(silu_mul(matmul(x, w_gate), matmul(x, w_up)), w_down)``.
    """
    x, w_gate, w_up, w_down = (as_tensor(t) for t in (x, w_gate, w_up, w_down))
    if (x.ndim < 2 or w_gate.ndim != 2 or w_up.shape != w_gate.shape or w_down.ndim != 2
            or x.shape[-1] != w_gate.shape[0] or w_down.shape[0] != w_gate.shape[1]):
        raise DimensionError(
            f"siglu_ffn shapes disagree: x {x.shape}, gate {w_gate.shape}, up {w_up.shape}, down {w_down.shape}"
        )
    g = _mm(x.data, w_gate.data)
    u = _mm(x.data, w_up.data)
    s = _sigmoid(g)

    def gated():
        h = g * s
        h *= u
        return h

    def bwd(grad):
        gh, gw_down = _matmul_grads(gated(), w_down.data, grad)
        gg, gu = _silu_mul_grads(g, u, s, gh)
        del gh                          # each gradient goes once applied, as on the four-op tape
        gx, gw_up = _matmul_grads(x.data, w_up.data, gu)
        del gu
        gx_gate, gw_gate = _matmul_grads(x.data, w_gate.data, gg)
        gx += gx_gate
        return gx, gw_gate, gw_up, gw_down

    return _make("siglu_ffn", _mm(gated(), w_down.data), (x, w_gate, w_up, w_down), bwd)


def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    ax = _norm_axis(axis, a.ndim)
    out = a.data.sum(axis=ax, keepdims=keepdims)

    def bwd(g):
        if ax is not None and not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make("sum", np.asarray(out), (a,), bwd)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    ax = _norm_axis(axis, a.ndim)
    out = a.data.mean(axis=ax, keepdims=keepdims)
    count = a.size if ax is None else int(np.prod([a.shape[i] for i in ax]))

    def bwd(g):
        if ax is not None and not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape) / count,)

    return _make("mean", np.asarray(out), (a,), bwd)


# ---------------------------------------------------------------------------
# shape surgery
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)
    src = a.shape
    return _make("reshape", out, (a,), lambda g: (g.reshape(src),), False)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out = a.data.swapaxes(ax1, ax2)
    return _make("swapaxes", out, (a,), lambda g: (g.swapaxes(ax1, ax2),), False)


def getitem(a, index) -> Tensor:
    """a[index], a view for basic indexing; the gradient is an (index, values) pair."""
    a = as_tensor(a)
    return _make("getitem", a.data[index], (a,), lambda g: ((index, g),), False)


def _scatter_add(acc: np.ndarray, index, values: np.ndarray) -> None:
    """acc[index] += values, where an advanced index may repeat an entry.

    An integer array indexes axis 0 (a gather, an embedding lookup). One
    stable sort groups the values of each row; distinct rows take one
    fancy add, byte-equal to `np.add.at`, and a repeated row's values are
    first summed by `np.add.reduceat`, which associates the sum
    differently from `np.add.at`'s one-by-one adds (within rounding) at
    a fraction of its cost. Any other advanced index goes through
    `np.add.at`.
    """
    items = index if isinstance(index, tuple) else (index,)
    if all(i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice)) for i in items):
        acc[index] += values
    elif isinstance(index, np.ndarray) and index.dtype.kind in "iu":
        rows = index.reshape(-1) % acc.shape[0]
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        repeat = rows[1:] == rows[:-1]
        if not repeat.any():
            acc[index] += values
        else:
            first = np.flatnonzero(np.r_[True, ~repeat])
            runs = values.reshape((rows.size,) + acc.shape[1:])[order]
            acc[rows[first]] += np.add.reduceat(runs, first, axis=0)
    else:
        np.add.at(acc, index, values)


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    ax = axis % tensors[0].ndim
    out = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=ax))

    return _make("concat", out, tensors, bwd)


# ---------------------------------------------------------------------------
# fused softmax / cross-entropy kernels
# ---------------------------------------------------------------------------


def softmax_lastdim(a, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last dim, or over its visible entries.

    With `mask`, a boolean numpy array broadcastable to `a`, False lanes
    get exactly-zero weight (they receive an additive -inf on the
    internal scratch buffer, never on a tensor value), and every row
    must keep at least one visible entry.
    """
    a = as_tensor(a)
    if a.ndim == 0 or a.shape[-1] == 0:
        raise DimensionError("softmax needs a non-empty last dimension")
    scores = a.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
        if not mask.any(axis=-1).all():
            raise ContractError("masked softmax row with no visible entries")
        scores = np.where(mask, scores, -np.inf)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)            # exp(-inf) underflows to exactly 0
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make("softmax", out, (a,), bwd)


def normalize_lastdim(x, weight, eps: float, center: bool = False) -> Tensor:
    """The RMS norm x * rsqrt(mean(x^2) + eps) * weight over the last dim.

    With `center`, x is first centred on its last-dim mean: the group
    norm (x - mu) * rsqrt(var + eps) * weight. `weight` broadcasts
    against the trailing dims of x, e.g. (d,) or (heads, d). One op
    with an analytic backward: for c the (centred) input, r =
    sqrt(mean(c^2) + eps), n = c / r and gn the gradient reaching n,
    dx = (gn - mean(gn) - n * mean(gn * n)) / r, where mean(gn) enters
    only with `center`. The tape keeps r; the backward rebuilds n from x.
    """
    x, weight = as_tensor(x), as_tensor(weight)

    def centred():
        return x.data - x.data.mean(axis=-1, keepdims=True) if center else x.data

    c = centred()
    r = np.square(c).mean(axis=-1, keepdims=True)
    r += eps
    np.sqrt(r, out=r)

    def bwd(g):
        n = centred() / r                   # rebuilt with the forward's expression
        gn = g * weight.data
        prod = gn * n
        dot = prod.mean(axis=-1, keepdims=True)
        if center:
            gn -= gn.mean(axis=-1, keepdims=True)
        np.multiply(n, dot, out=prod)
        gn -= prod
        gn /= r
        gw = None
        if weight.requires_grad:
            np.multiply(g, n, out=prod)
            gw = _unbroadcast(prod, weight.shape)
        return gn, gw

    return _make("group_norm" if center else "rms_norm", (c / r) * weight.data, (x, weight), bwd)


def rope_rotate(x, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate channel pairs (2i, 2i+1) of x (..., d) by angles theta.

    cos and sin are full-width tables that broadcast against x: cos(theta)
    for both entries of a pair, and sin(theta) signed as (-sin, sin)
    (`nn.rope_tables` builds them). A table that spans the whole
    (heads, d) row keeps every pass on contiguous memory. One op:
    out = x * cos + swap(x) * sin, where swap exchanges each pair's
    entries; the backward is the same rotation by -theta. The values are
    byte-equal to the pairwise form on the (..., d/2, 2) view.
    """
    x = as_tensor(x)
    if np.shape(cos)[-1] != x.shape[-1] or np.shape(sin)[-1] != x.shape[-1]:
        raise DimensionError(f"rope tables {np.shape(cos)} vs input {x.shape}")

    def rotate(v, back):
        out = v * cos
        swapped = np.empty_like(out)
        swapped[..., 0::2] = v[..., 1::2]
        swapped[..., 1::2] = v[..., 0::2]
        swapped *= sin
        if back:
            out -= swapped
        else:
            out += swapped
        return out

    return _make("rope", rotate(x.data, False), (x,), lambda g: (rotate(g, True),))


# Query rows per attention tile. A tile holds whole score rows, so the
# softmax needs no online rescaling; the size sets how many scores exist
# at once. Swept on a 2-vCPU VM with a 2 MiB L2: attention_core alone,
# 8 query heads on 4 KV heads, d 8, causal, median of 15 rounds of 3 calls:
#
#   tile                              64     32     16      8
#   (4, 320), no grad, ms           18.6   15.4   13.1   13.3
#   (16, 64), fwd + bwd, ms         13.8   11.0    9.9   10.2
#
# At 64 rows and 320 keys one tile's scores are 5.2 MB, past the L2;
# at 8 rows the per-tile call overhead eats the gain.
_ATTN_TILE = 16


def _attention_tiles(mask: np.ndarray | None, lq: int, lk: int) -> list[tuple]:
    """(start, stop, key end, hidden lanes or None) per query tile.

    The mask is read once: each row's last visible key comes from one
    argmax over the reversed mask, and a tile needs no masking when every
    row sees all keys up to the tile's key end.
    """
    starts = np.arange(0, lq, _ATTN_TILE)
    stops = np.minimum(starts + _ATTN_TILE, lq)
    if mask is None:
        return [(start, stop, lk, None) for start, stop in zip(starts.tolist(), stops.tolist())]
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (lq, lk):
        raise DimensionError(f"attention mask {mask.shape}, want {(lq, lk)}")
    count = np.count_nonzero(mask, axis=1)
    if not count.all():
        raise ContractError("attention mask row with no visible key")
    last = lk - np.argmax(mask[:, ::-1], axis=1)        # one past each row's last visible key
    kends = np.maximum.reduceat(last, starts)
    dense = np.minimum.reduceat(count, starts) == kends
    return [
        (start, stop, kend, None if full else ~mask[start:stop, :kend])
        for start, stop, kend, full in zip(starts.tolist(), stops.tolist(), kends.tolist(), dense.tolist())
    ]


def attention_core(q, k, v, mask: np.ndarray | None = None) -> Tensor:
    """Softmax attention softmax(q k^T / sqrt(d_qk)) v as one fused op.

    Works in the model's layout: q (B, Lq, H, d_qk), k (B, Lk, H_kv,
    d_qk), v (B, Lk, H_kv, d_v) -> (B, Lq, H, d_v). Query head h reads
    KV head h // (H / H_kv), so grouped heads share K/V without copying
    them; K and V are read through transposed views, which BLAS takes as
    strided operands, so a KV cache's views go in as they are. `mask` is
    a boolean (Lq, Lk) array, True where a key is visible; None shows
    every key. Every row must keep at least one visible key.

    Queries are processed in tiles of `_ATTN_TILE` whole rows, a tile's
    group rows sharing one matmul per KV head. Each tile scores only the
    keys up to its last visible mask column, so a causal mask skips the
    upper triangle, and never more than one tile's scores exist at a
    time; masked lanes get exactly-zero weight. The normalization comes
    after the PV product: a tile keeps e = exp(s - rowmax) and
    inv = 1 / rowsum(e), and its output is (e @ V) * inv. The tape keeps
    e and inv per tile; the backward rebuilds the gathered q tile and
    reads o from the output. With do' = do * inv:
    dV = e^T do', dS = (do' V^T - rowsum(do' * o)) * e.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 4 or k.ndim != 4 or v.ndim != 4:
        raise DimensionError(f"attention wants 4-d q, k, v, got {q.shape}, {k.shape}, {v.shape}")
    b, lq, h, d_qk = q.shape
    lk, h_kv, d_v = k.shape[1], k.shape[2], v.shape[3]
    if k.shape[0] != b or v.shape[:3] != k.shape[:3] or k.shape[3] != d_qk:
        raise DimensionError(f"attention q {q.shape}, k {k.shape}, v {v.shape} disagree")
    if h_kv == 0 or h % h_kv != 0:
        raise DimensionError(f"{h} query heads cannot share {h_kv} KV heads")
    if lk == 0:
        raise DimensionError("attention needs at least one key")
    tiles = _attention_tiles(mask, lq, lk)
    g = h // h_kv
    scale = d_qk ** -0.5
    keep = _tape.enabled and (q.requires_grad or k.requires_grad or v.requires_grad)

    # (B, L, H_kv, G, d) splits of the row layouts, and (B, H_kv, Lk, d) views
    q5 = q.data.reshape(b, lq, h_kv, g, d_qk)
    kh, vh = k.data.transpose(0, 2, 1, 3), v.data.transpose(0, 2, 1, 3)
    out = np.empty((b, lq, h, d_v))
    out5 = out.reshape(b, lq, h_kv, g, d_v)

    def heads_first(a5, start, stop):
        """Tile rows of a (B, L, H_kv, G, d) array as a (B, H_kv, G, rows, d) view."""
        return a5[:, start:stop].transpose(0, 2, 3, 1, 4)

    def q_tile(start, stop):
        """The scaled q rows of a tile, gathered to (B, H_kv, G * rows, d_qk)."""
        t = np.empty((b, h_kv, g, stop - start, d_qk))
        np.multiply(heads_first(q5, start, stop), scale, out=t)
        return t.reshape(b, h_kv, -1, d_qk)

    saved = []                  # (e, inv) per tile, kept for the backward
    for start, stop, kend, hidden in tiles:
        rows = stop - start
        e = _mm(q_tile(start, stop), kh[:, :, :kend].swapaxes(-1, -2))
        if hidden is not None:
            np.copyto(e.reshape(b, h_kv, g, rows, kend), -np.inf, where=hidden)
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)        # exp(-inf) underflows to exactly 0
        inv = e.sum(axis=-1, keepdims=True)
        np.reciprocal(inv, out=inv)
        o = _mm(e, vh[:, :, :kend])
        np.multiply(
            o.reshape(b, h_kv, g, rows, d_v), inv.reshape(b, h_kv, g, rows, 1),
            out=heads_first(out5, start, stop),
        )
        if keep:
            saved.append((e, inv))

    def bwd(grad):
        g5 = grad.reshape(b, lq, h_kv, g, d_v)
        # rowsum(do * o) per query row and head, in (B, H_kv, G, Lq) order
        dots = (grad * out).sum(axis=-1).reshape(b, lq, h_kv, g).transpose(0, 2, 3, 1)
        dq = np.empty(q.shape)
        dk = np.zeros(k.shape)
        dv = np.zeros(v.shape)
        dq5 = dq.reshape(b, lq, h_kv, g, d_qk)
        dkh, dvh = dk.transpose(0, 2, 1, 3), dv.transpose(0, 2, 1, 3)
        for (start, stop, kend, _hidden), (e, inv) in zip(tiles, saved):
            rows = stop - start
            do = np.empty((b, h_kv, g, rows, d_v))
            np.multiply(heads_first(g5, start, stop), inv.reshape(b, h_kv, g, rows, 1), out=do)
            do = do.reshape(b, h_kv, g * rows, d_v)
            # e^T and dS^T contract over the group's rows, summing dK, dV over G
            dvh[:, :, :kend] += np.matmul(e.swapaxes(-1, -2), do)
            ds = np.matmul(do, vh[:, :, :kend].swapaxes(-1, -2))
            ds -= dots[..., start:stop].reshape(b, h_kv, g * rows, 1) * inv
            ds *= e
            np.multiply(
                np.matmul(ds, kh[:, :, :kend]).reshape(b, h_kv, g, rows, d_qk), scale,
                out=heads_first(dq5, start, stop),
            )
            dkh[:, :, :kend] += np.matmul(ds.swapaxes(-1, -2), q_tile(start, stop))
        return dq, dk, dv

    return _make("attention", out, (q, k, v), bwd)


def cross_entropy_logits(logits, targets: np.ndarray, position_mask: np.ndarray | None = None) -> Tensor:
    """Mean token NLL of integer `targets` under `logits` (..., vocab).

    `position_mask` (broadcastable to targets, boolean) restricts which
    positions count; the mean is over counted positions.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise DimensionError(f"targets {targets.shape} vs logits {logits.shape}")
    if not np.issubdtype(targets.dtype, np.integer):
        raise ContractError("targets must be integer token ids")
    vocab = logits.shape[-1]
    if targets.min() < 0 or targets.max() >= vocab:
        raise ContractError("target id outside vocab")
    if position_mask is None:
        mask = np.ones(targets.shape, dtype=bool)
    else:
        mask = np.broadcast_to(np.asarray(position_mask, dtype=bool), targets.shape)
    count = int(mask.sum())
    if count == 0:
        raise ContractError("cross entropy over zero positions")

    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(x - m).sum(axis=-1))
    picked = np.take_along_axis(x, targets[..., None], axis=-1)[..., 0]
    nll = (lse - picked) * mask
    out = np.asarray(nll.sum() / count)

    def bwd(g):
        p = np.exp(x - lse[..., None])
        np.subtract.at(p, (*np.indices(targets.shape), targets), 1.0)
        return (p * (mask[..., None] * (float(g) / count)),)

    return _make("cross_entropy", out, (logits,), bwd)


def embedding_lookup(weight, ids: np.ndarray) -> Tensor:
    """Row gather: weight (vocab, dim), ids integer array (...); the gradient scatters as getitem's."""
    weight = as_tensor(weight)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError("token ids must be integers")
    if weight.ndim != 2:
        raise DimensionError("embedding weight must be 2-d")
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise ContractError("token id outside vocab")
    return _make("embedding", weight.data[ids], (weight,), lambda g: ((ids, g),))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def _consumed(t: Tensor) -> ContractError:
    return ContractError(
        f"backward reached the output of a {t.node.op!r} node whose graph was already consumed "
        "by an earlier backward or reset_tape; run the forward again"
    )


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dT into `.grad` of every reachable leaf tensor.

    `loss` must be scalar. One reverse sweep over the tape; each node
    reachable from the loss is applied exactly once, and every other
    node is skipped, since its output never receives a gradient. Only
    leaves (tensors with no tape node, such as parameters) keep a
    `.grad`; an intermediate gradient is dropped as soon as the sweep
    has passed its node. So is the node itself: once applied, it leaves
    the tape and drops its output, inputs and backward closure, so each
    buffer it kept is freed as the sweep passes, and a training step
    peaks at its forward tape. A node the sweep never reaches stays on
    the tape until `reset_tape`. The sweep consumes the graph: reaching
    a released node again, by a second `backward` of the same loss or
    through a tensor of a consumed graph that a new graph used, raises
    `ContractError`.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            loss.grad = np.ones_like(loss.data)
        return
    if loss.node.out is None:
        raise _consumed(loss)

    nodes = _tape.nodes
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    # Keys whose sum this sweep allocated. Only those are added into in
    # place: a first contribution may be shared (add hands one array to
    # both inputs) or a view (reshape, swapaxes).
    owned: set[int] = set()
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        key = id(node.out)
        g_out = grads.pop(key, None)
        if g_out is None:
            continue
        owned.discard(key)          # the output may be freed below: its id must not name a later object
        input_grads = node.backward(g_out)
        for t, g in zip(node.inputs, input_grads):
            if g is None or not t.requires_grad:
                continue
            if t.node is not None and t.node.out is None:
                raise _consumed(t)
            key = id(t)
            acc = t.grad if t.node is None else grads.get(key)
            if isinstance(g, tuple):                    # getitem's (index, values)
                if key not in owned:
                    acc = np.zeros(t.shape) if acc is None else acc.copy()
                _scatter_add(acc, *g)
                owned.add(key)
            elif acc is None:
                acc = g
            elif key in owned:
                acc += g
            else:
                acc = acc + g
                owned.add(key)
            if t.node is None:
                t.grad = acc
            else:
                grads[key] = acc
        # the nodes after i that are still listed were never reached, so this shifts only those
        del nodes[i]
        node.out, node.inputs, node.backward = None, (), None
