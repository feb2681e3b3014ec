"""In-memory spans and counters for the benchmark's traced runs.

A traced run wraps public entry points of agglab from the outside (the
program itself is not edited): each wrapped call opens a span with its
name, its parent span, start and end, and the phase it ran in, or bumps a
counter when the call is too frequent for a span. Spans stay in memory
and are written out once, when the run ends.
"""

import functools
import json
import time
from collections import Counter, defaultdict

# Calls that set the phase their nested spans and counts are attributed to.
PHASE_OF = {"train.train": "train", "train.evaluate": "eval"}


class Tracer:
    """Spans as [name, parent, start, end, phase] rows, plus call counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.phase = "setup"
        self._stack = []

    def begin(self, name, phase=None):
        parent = self._stack[-1] if self._stack else -1
        entered = self.phase
        if phase is not None:
            self.phase = phase
        idx = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None, self.phase])
        self._stack.append(idx)
        return idx, entered

    def end(self, token):
        idx, entered = token
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()
        self.phase = entered

    def span(self, name, phase=None):
        return _Span(self, name, phase)

    def summary(self):
        """{(name, phase): [total seconds, self seconds, calls]}.

        Self time is a span's duration minus the durations of its direct
        children; spans come from one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, _, start, end, phase) in enumerate(self.spans):
            row = out[(name, phase)]
            row[0] += end - start
            row[1] += end - start - child[i]
            row[2] += 1
        return out

    def calls(self, name, phase=None):
        return sum(c for (n, ph), c in self.counts.items()
                   if n == name and phase in (None, ph))

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "parent", "start", "end", "phase"],
            "spans": self.spans,
            "counts": [[n, ph, c] for (n, ph), c in sorted(self.counts.items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "phase", "token")

    def __init__(self, tracer, name, phase):
        self.tracer, self.name, self.phase = tracer, name, phase

    def __enter__(self):
        self.token = self.tracer.begin(self.name, self.phase)

    def __exit__(self, *exc):
        self.tracer.end(self.token)


def spanned(tracer, name, fn):
    phase = PHASE_OF.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.begin(name, phase)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(token)
    return wrapper


def counted(tracer, name, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[(name, tracer.phase)] += 1
        return fn(*args, **kwargs)
    return wrapper


def suite_spanned(tracer, fn):
    """verify.run_suite: one span per suite, named and phased verify.<suite>."""
    @functools.wraps(fn)
    def wrapper(name, *args, **kwargs):
        token = tracer.begin(f"verify.{name}", f"verify.{name}")
        try:
            return fn(name, *args, **kwargs)
        finally:
            tracer.end(token)
    return wrapper


class Installed:
    """Context manager that wraps agglab's entry points and restores them."""

    def __init__(self, tracer):
        from agglab import analysis, graphs, layers, tensor, train, verify
        self.targets = [
            (layers, "layer_forward", spanned, "layers.layer_forward"),
            (tensor.Tape, "backward", spanned, "tensor.Tape.backward"),
            (tensor.Tape, "record", counted, "tensor.Tape.record"),
            (train, "train", spanned, "train.train"),
            (train, "adam_step", spanned, "train.adam_step"),
            (train, "evaluate", spanned, "train.evaluate"),
            (graphs, "gen_er_triangle_dataset", spanned, "graphs.gen_er_triangle_dataset"),
            (analysis, "separation_set", spanned, "analysis.separation_set"),
            (analysis, "collision_oracle", spanned, "analysis.collision_oracle"),
            (analysis, "compare_strength", spanned, "analysis.compare_strength"),
            (analysis, "numerical_rank", counted, "analysis.numerical_rank"),
            (analysis.BasicAggregator, "__call__", counted, "analysis.aggregator_call"),
            (analysis.MatrixAggregator, "__call__", counted, "analysis.aggregator_call"),
            (analysis.FunctionAggregator, "__call__", counted, "analysis.aggregator_call"),
            (verify, "run_suite", None, None),
        ]
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        for owner, attr, wrap, name in self.targets:
            orig = getattr(owner, attr)
            self.saved.append((owner, attr, orig))
            if wrap is None:
                setattr(owner, attr, suite_spanned(self.tracer, orig))
            else:
                setattr(owner, attr, wrap(self.tracer, name, orig))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()
