#!/usr/bin/env python3
"""
Needle retrieval: plant a key/value pair in filler, query it at the end.

Trains a small hybrid on randomly placed needles, then scores exact
retrieval across planting depths and writes the grid to CSV. Takes a
minute or two on one CPU core.

Usage:
    python3 demos/06_needle.py
"""

import numpy as np

from hybridlab.config import preset, with_vocab
from hybridlab.harness import NeedleTask, TrainConfig, needle_batch_fn, niah_eval, train_model
from hybridlab.model import HybridModel
from hybridlab.serialize import read_niah_csv, write_niah_csv

# ---------------------------------------------------------------------------
# 1. the task
# ---------------------------------------------------------------------------
# Filler, key, and value tokens come from disjoint alphabets, so the
# needle is unambiguous and scoring is exact-match on the value.

task = NeedleTask(seed=0)
print(f"context {task.context_len}, vocab {task.vocab}; "
      f"key ids [{task.key_lo},{task.value_lo}), value ids [{task.value_lo},{task.vocab})")

# ---------------------------------------------------------------------------
# 2. train on random depths
# ---------------------------------------------------------------------------

cfg, layout = preset("toy-intra-2l")
model = HybridModel(with_vocab(cfg, task.vocab), layout, seed=0)
for phase_seed in (0, 1):
    result = train_model(
        model, needle_batch_fn(task),
        TrainConfig(steps=150, batch=16, lr=3e-3, warmup_frac=0.2,
                    cooldown_frac=0.0, seed=phase_seed))
    print(f"phase {phase_seed}: loss {result.history[0].loss:.3f} -> {result.final_loss:.3f}")

# ---------------------------------------------------------------------------
# 3. score retrieval by depth and round-trip the grid
# ---------------------------------------------------------------------------

depths = (0.0, 0.25, 0.5, 0.75, 1.0)
grid = niah_eval(model, depths, lengths=(task.context_len,), trials=20, task=task)
print("\ndepth:    " + "  ".join(f"{d:>5.2f}" for d in grid.depths))
print("accuracy: " + "  ".join(f"{a:>5.2f}" for a in grid.accuracy[0]))

write_niah_csv("needle_grid.csv", grid, echo={"preset": "toy-intra-2l", "trials": 20})
back = read_niah_csv("needle_grid.csv")
print("\nwrote needle_grid.csv; round-trip equal:",
      bool(np.array_equal(back.accuracy, grid.accuracy)))
