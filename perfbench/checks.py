"""Correctness checks run after the timed region.

Each check compares the library's output with an independent computation
or a required property and returns the problems it found (empty when it
passes). None of them compares with a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np

import hybridlab as hl
from hybridlab import harness

LOGIT_TOL = 1e-8        # cached decode == full forward (ROADMAP oracle)
FD_STEP = 1e-6          # central-difference step, as in tests/gradcheck.py
FD_RTOL = 1e-4
FD_ATOL = 1e-7


def logits_mismatch(cached: np.ndarray, full: np.ndarray, tol: float = LOGIT_TOL) -> list[str]:
    """Cached logits against a full forward over the same tokens; the last
    axis is the vocabulary, every other index is one position or row."""
    cached, full = np.asarray(cached), np.asarray(full)
    if cached.shape != full.shape:
        return [f"shape {cached.shape} vs full forward {full.shape}"]
    diff = np.abs(cached - full).max(axis=-1)
    worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
    if not np.isfinite(diff).all() or diff[worst] >= tol:
        return [f"max |cached - full| = {diff[worst]:.3g} at {tuple(int(i) for i in worst)}"]
    return []


def greedy_mismatch(tokens: np.ndarray, logits: np.ndarray) -> list[str]:
    """Each greedy token must be the argmax of the logits it was sampled from."""
    want = np.argmax(np.asarray(logits), axis=-1)
    bad = np.flatnonzero(np.asarray(tokens).reshape(-1) != want.reshape(-1))
    return [f"token at {int(i)} is not the argmax" for i in bad[:3]]


def cache_bytes_mismatch(measured, accounted, positions) -> list[str]:
    """DecodeState.cache_bytes() must equal costs.cache_bytes byte for byte."""
    return [
        f"position {p}: state holds {m} B, cost model says {a} B"
        for m, a, p in zip(measured, accounted, positions)
        if m != a
    ][:3]


def occupancy_overflow(entries, capacity: int, positions) -> list[str]:
    """A sink/window cache may never hold more than window + sink entries."""
    return [
        f"position {p}: {e} entries > window + sink = {capacity}"
        for e, p in zip(entries, positions)
        if e > capacity
    ][:3]


def needle_mismatch(task: hl.NeedleTask, prompts: np.ndarray, values: np.ndarray) -> list[str]:
    """harness.extract_needle_value must read back every planted value."""
    problems = []
    for i, (prompt, value) in enumerate(zip(prompts, values)):
        got = harness.extract_needle_value(task, prompt)
        if not np.array_equal(got, value):
            problems.append(f"row {i}: extracted {got.tolist()}, planted {value.tolist()}")
    return problems[:3]


def loss_band(loss: float, centre: float, half_width: float) -> list[str]:
    if not abs(loss - centre) <= half_width:
        return [f"loss {loss:.4f} outside {centre:.4f} +- {half_width}"]
    return []


def nonfinite(losses) -> list[str]:
    bad = [i for i, v in enumerate(losses) if not np.isfinite(v)]
    return [f"loss {i} is {losses[i]}" for i in bad[:3]]


def _loss(model: hl.HybridModel, tokens: np.ndarray, mask: np.ndarray) -> hl.Tensor:
    return harness.masked_next_token_loss(model, tokens, mask)


def analytic_grads(model, tokens, mask, coords) -> list[float]:
    """backward's gradient at each (parameter name, flat index)."""
    params = model.parameters()
    hl.reset_tape()
    model.zero_grad()
    hl.backward(_loss(model, tokens, mask))
    out = []
    for name, idx in coords:
        grad = params[name].grad
        out.append(0.0 if grad is None else float(grad.reshape(-1)[idx]))
    model.zero_grad()
    hl.reset_tape()
    return out


def numeric_grads(model, tokens, mask, coords, h: float = FD_STEP) -> list[float]:
    """Central differences of the same loss at each coordinate."""
    params = model.parameters()
    out = []
    with hl.no_grad():
        for name, idx in coords:
            data = params[name].data
            at = np.unravel_index(idx, data.shape)
            keep = data[at]
            data[at] = keep + h
            up = float(_loss(model, tokens, mask).data)
            data[at] = keep - h
            down = float(_loss(model, tokens, mask).data)
            data[at] = keep
            out.append((up - down) / (2.0 * h))
    return out


def grad_mismatch(coords, analytic, numeric, rtol: float = FD_RTOL, atol: float = FD_ATOL) -> list[str]:
    """|analytic - numeric| <= atol + rtol * max(|analytic|, |numeric|)."""
    return [
        f"{name}[{idx}]: backward {a:.6g}, central difference {n:.6g}"
        for (name, idx), a, n in zip(coords, analytic, numeric)
        if not abs(a - n) <= atol + rtol * max(abs(a), abs(n))
    ][:3]


def sample_coords(model, rng: np.random.Generator, n: int) -> list[tuple[str, int]]:
    params = model.parameters()
    names = sorted(params)
    picks = rng.choice(len(names), size=n)
    return [(names[i], int(rng.integers(params[names[i]].size))) for i in picks]


def gradcheck(model, tokens, mask, rng: np.random.Generator, n: int) -> list[str]:
    """Central finite differences against backward on n sampled coordinates."""
    coords = sample_coords(model, rng, n)
    return grad_mismatch(
        coords,
        analytic_grads(model, tokens, mask, coords),
        numeric_grads(model, tokens, mask, coords),
    )
