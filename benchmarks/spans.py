"""Span recording for the traced run, from outside the olivenet package.

While ``Tracer.installed()`` is active, the public functions that the
package's modules call each other through are replaced, at the names their
callers look up, by wrappers that record a span (name, start, end, parent)
around each call.  ``evaluation`` imports ``train``/``forward``/``normalize``
by name, so those are wrapped on ``evaluation``; ``cli`` calls through module
attributes (``synth.generate_dataset``, ``dmod.save_spectra``, ...), so those
are wrapped on the modules themselves.  ``nn.train`` looks up ``Adam`` in its
module at call time, so a subclass with a timed ``step`` stands in for it.
Epoch spans come from the public ``train(callbacks=)`` hook.  Nothing under
``src/`` changes, and every original is restored on exit.

Spans live in memory; ``self_times`` turns them into per-module self times.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

from olivenet import data, evaluation, nn, quality, stats, synth

#: Modules whose self time the traced run reports; ``bench`` is the harness.
MODULES = ("synth", "data", "nn", "evaluation", "quality", "stats", "cli", "bench")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.epochs: list[tuple[float, int]] = []  # (seconds, samples) per epoch
        self.wall_s = 0.0  # duration of the traced pass, set by its caller
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_train(self, fn):
        """``nn.train`` with an extra callback that times every epoch."""
        @functools.wraps(fn)
        def traced(net, spectra, *args, callbacks=(), **kwargs):
            last = [time.perf_counter()]
            n = len(spectra)

            def on_epoch(epoch, train_mse, val_mse, live):
                now = time.perf_counter()
                self.epochs.append((now - last[0], n))
                last[0] = now

            with self.span("nn.train"):
                return fn(net, spectra, *args, callbacks=[*callbacks, on_epoch], **kwargs)
        return traced

    def adam_class(self, base):
        tracer = self

        class TracedAdam(base):
            def step(self, grads):
                with tracer.span("nn.adam_step"):
                    super().step(grads)
        return TracedAdam

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        train = self.wrap_train(nn.train)
        forward = self.wrap(nn.forward, "nn.forward")
        normalize = self.wrap(data.normalize, "data.normalize")
        patches = [
            (synth, "generate_dataset", self.wrap(synth.generate_dataset, "synth.generate_dataset")),
            (data, "normalize", normalize),
            (data, "save_spectra", self.wrap(data.save_spectra, "data.save_spectra")),
            (data, "load_spectra", self.wrap(data.load_spectra, "data.load_spectra")),
            (data, "load_labels", self.wrap(data.load_labels, "data.load_labels")),
            (data, "save_labels", self.wrap(data.save_labels, "data.save_labels")),
            (data, "load_grid", self.wrap(data.load_grid, "data.load_grid")),
            (data, "save_grid", self.wrap(data.save_grid, "data.save_grid")),
            (data, "filter_for_parameter",
             self.wrap(data.filter_for_parameter, "data.filter_for_parameter")),
            (nn, "train", train),
            (nn, "forward", forward),
            (nn, "Adam", self.adam_class(nn.Adam)),
            (evaluation, "train", train),
            (evaluation, "forward", forward),
            (evaluation, "normalize", normalize),
            (evaluation, "build_network", self.wrap(nn.build_network, "nn.build_network")),
            (evaluation, "loocv", self.wrap(evaluation.loocv, "evaluation.loocv")),
            (quality, "classify", self.wrap(quality.classify, "quality.classify")),
            (stats, "compare_configs", self.wrap(stats.compare_configs, "stats.compare_configs")),
            (stats, "report_text", self.wrap(stats.report_text, "stats.report_text")),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        for mod, attr, new in patches:
            setattr(mod, attr, new)
        try:
            yield self
        finally:
            for mod, attr, old in saved:
                setattr(mod, attr, old)

    # -- summaries ---------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def count_under(self, name: str, parent_name: str) -> int:
        return sum(1 for s in self.spans
                   if s.name == name and s.parent >= 0
                   and self.spans[s.parent].name == parent_name)

    def self_times(self) -> dict[str, float]:
        """Per-module self time: each span minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {m: 0.0 for m in MODULES}
        for s, c in zip(self.spans, child):
            module = s.name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (s.end - s.start) - c
        return out
