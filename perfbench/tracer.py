"""Spans and counts for the traced run, recorded from outside the library.

The tracer swaps the library's public functions and methods for wrappers
that record a span (name, start, end, parent, run id) and restores them
afterwards. Spans stay in memory until the run writes them out. Every
tensor op the library creates bumps one counter, and each span keeps that
counter's value at its two ends, so op counts are read at the same
boundaries as the times.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

NAME, START, END, PARENT, LABEL, TAG, OPS_START, OPS_END, RUN = range(9)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.ops = 0
        self.label = ""            # the layout the workload is driving
        self.samples: dict[tuple[str, str], list[float]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, func, value) -> None:
        """Rebind every hybridlab module name that refers to func."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hybridlab" or mod_name.startswith("hybridlab.")):
                continue
            for attr, current in list(vars(mod).items()):
                if current is func:
                    self.replace(mod, attr, value)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------

    def spanned(self, name: str, fn, tag=None, after=None):
        """fn wrapped to record a span; tag(*args) labels it, after(out, *args)
        runs once the span has closed."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.label,
                   tag(*args) if tag else None, self.ops, 0, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                rec[OPS_END] = self.ops
                stack.pop()
            if after is not None:
                self.probe(name, after, out, *args)
            return out

        return traced

    def probe(self, name: str, fn, *args) -> None:
        """Run a measurement as its own span, so it can be left out of times."""
        self.spanned("probe." + name, fn)(*args)

    def sample(self, key: str, value: float) -> None:
        """A count taken at a span boundary, filed under the current layout."""
        self.samples.setdefault((key, self.label), []).append(value)

    def counted(self, fn):
        @functools.wraps(fn)
        def op(*args, **kwargs):
            self.ops += 1
            return fn(*args, **kwargs)

        return op

    # -- reading --------------------------------------------------------

    def select(self, name: str, label: str | None = None, parent: str | None = None) -> list[list]:
        """Spans called name, optionally for one layout or under one parent name."""
        out = []
        for rec in self.spans:
            if rec[NAME] != name or (label is not None and rec[LABEL] != label):
                continue
            if parent is not None and (rec[PARENT] < 0 or self.spans[rec[PARENT]][NAME] != parent):
                continue
            out.append(rec)
        return out


def duration(rec) -> float:
    return rec[END] - rec[START]


def mean_duration(recs) -> float:
    return statistics.fmean(duration(r) for r in recs)
