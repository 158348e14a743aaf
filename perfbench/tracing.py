"""Spans and counters around the package's public functions, installed from outside.

A `Tracer` wraps module attributes (``kernels.push_letters_until`` and so on)
with a function that records one span per call: name, start, end, parent span
and command id.  The package calls these functions through their modules, so
internal calls are captured too.  Counters are taken at the same boundaries
from the arguments and results.  Nothing in the package is edited; `installed`
puts every original attribute back when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    command: int


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_letters(counters, args, kwargs, result):
    counters["kernels.letters_used"] += int(result[0])
    counters["kernels.letters_drawn"] += int(_arg(args, kwargs, 0, "bits").size)


def _count_fwht_bytes(counters, args, kwargs, result):
    # every butterfly stage reads and writes the whole vector once
    amps = _arg(args, kwargs, 0, "amps")
    stages = int(math.log2(amps.size)) if amps.size > 1 else 0
    counters["kernels.fwht_inplace.bytes_computed"] += 2 * amps.nbytes * stages


def _count_plays(counters, args, kwargs, result):
    counters["grover.plays"] += int(_arg(args, kwargs, 1, "trials"))


def _count_rounds(counters, args, kwargs, result):
    counters["grover.realize_word.rounds"] += int(_arg(args, kwargs, 0, "length")) // 2


def _count_state_bytes(counters, args, kwargs, result):
    counters["statevec.bytes_allocated_computed"] += int(result.nbytes)


def _count_chain_states(counters, args, kwargs, result):
    counters["ring.chain_states"] += int(result.size)


def _count_steps(counters, args, kwargs, result):
    counters["ring.simulate_ring.steps"] += int(_arg(args, kwargs, 1, "steps"))


# (module, attribute, counter hook or None); span names are "module.attribute"
WRAPPED = (
    ("kernels", "push_letters_until", _count_letters),
    ("kernels", "fwht_inplace", _count_fwht_bytes),
    ("kernels", "ring_walk_wins", None),
    ("statevec", "diffusion", _count_state_bytes),
    ("statevec", "flip_sign_at", _count_state_bytes),
    ("statevec", "hadamard_all", _count_state_bytes),
    ("grover", "waiting_time_stats", _count_plays),
    ("grover", "expected_stopping_index", None),
    ("grover", "realize_word", _count_rounds),
    ("bv", "draw_realization", None),
    ("bv", "noisy_oracle", None),
    ("bv", "flip_candidates", None),
    ("ring", "transition_matrix", _count_chain_states),
    ("ring", "stationary_distribution", None),
    ("ring", "combined_rate", None),
    ("ring", "simulate_ring", _count_steps),
    ("reproduce", "run_all", None),
    ("cli", "main", None),
    ("cli", "cmd_ring", None),
    ("cli", "cmd_bv", None),
    ("cli", "cmd_grover", None),
    ("cli", "cmd_reproduce", None),
)

COUNTERS = (
    "kernels.letters_used",
    "kernels.letters_drawn",
    "kernels.fwht_inplace.bytes_computed",
    "grover.plays",
    "grover.realize_word.rounds",
    "statevec.bytes_allocated_computed",
    "ring.chain_states",
    "ring.simulate_ring.steps",
)


class Tracer:
    """Collects spans and counters in memory for one command."""

    def __init__(self, command: int = 0, clock=time.perf_counter):
        self.command = command
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.command)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every attribute in WRAPPED; restore the originals on exit."""
        originals = []
        try:
            for module_name, attr, hook in WRAPPED:
                module = importlib.import_module(f"parrondo.{module_name}")
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{module_name}.{attr}", original, hook))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count and self time.

    A span's self time is its duration minus the durations of its direct
    children.  Spans of one thread nest, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    table: dict[str, dict[str, float]] = {}
    for span, inner in zip(spans, child_time):
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (span.end - span.start) - inner
    return table


def _wrapped_names() -> list[str]:
    return [f"{module}.{attr}" for module, attr, _ in WRAPPED]


def metric_names() -> list[str]:
    """X.calls and X.self_s for every wrapped X, then the counters."""
    return [f"{name}.{kind}" for name in _wrapped_names() for kind in ("calls", "self_s")] + list(COUNTERS)


def layer_metrics(spans, counters) -> dict[str, float]:
    """Flat per-layer metrics of one command: X.calls, X.self_s and the counters."""
    metrics: dict[str, float] = {}
    table = self_times(spans)
    for name in _wrapped_names():
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    return metrics
