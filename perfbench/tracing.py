"""Spans and counts recorded around calls into physden, for the traced run.

Nothing here touches physden's source: the tracer replaces names that
``physden.training`` and ``physden.model`` imported (``forward``, ``conv1d``,
``physics_loss_tensor``, ``mse``, ``backward``, ``adam_step``,
``inject_noise``, ``Tape``) with timed wrappers for the duration of a
``with patched(tracer):`` block, and puts the originals back on exit.

Spans nest through a stack, so each span knows its parent. The tracer keeps
per-name totals in memory: calls, wall time, and self time (wall time minus
the time covered by direct child spans).
"""
from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import physden.model as model_mod
import physden.training as training_mod
from physden.autodiff import Tape

STEP = "training.step"


class Tracer:
    """Per-name call counts, wall and self time of spans, and event counts."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, start, seconds covered by children]
        self.tape: Tape | None = None

    def open(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def close(self) -> None:
        name, start, child = self._stack.pop()
        seconds = perf_counter() - start
        self.calls[name] += 1
        self.total[name] += seconds
        self.self_time[name] += seconds - child
        if self._stack:
            self._stack[-1][2] += seconds

    def reset_stack(self) -> None:
        """Drop spans left open by an operation that raised."""
        self._stack.clear()
        self.tape = None

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def ms_per(self, name: str, per: float) -> float:
        return 1e3 * self.total[name] / per if per else 0.0


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Trace the training step and the model forward while the block runs.

    A training step opens when ``train`` enters its ``Tape`` and closes when
    ``adam_step`` returns; at the close the step's tape nodes are counted by
    op name. Physics nodes are the nodes ``physics_loss_tensor`` appends.
    """
    forward = model_mod.forward
    conv1d = model_mod.conv1d
    saved_training = {
        name: getattr(training_mod, name)
        for name in ("forward", "physics_loss_tensor", "mse", "backward", "adam_step",
                     "inject_noise", "Tape")
    }
    physics_loss_tensor = saved_training["physics_loss_tensor"]
    adam_step = tracer.wrap("autodiff.adam_step", saved_training["adam_step"])

    class TracedTape(Tape):
        def __enter__(self):
            tracer.open(STEP)
            tracer.tape = self
            return super().__enter__()

    def traced_physics(values, spec):
        before = len(tracer.tape.nodes)
        tracer.open("physics.loss")
        try:
            return physics_loss_tensor(values, spec)
        finally:
            tracer.close()
            tracer.counts["physics.tape_nodes"] += len(tracer.tape.nodes) - before

    def traced_adam(*args, **kwargs):
        try:
            return adam_step(*args, **kwargs)
        finally:
            tracer.close()  # the step opened by TracedTape.__enter__
            for node in tracer.tape.nodes:
                tracer.counts["tape_nodes." + node.op] += 1
            tracer.tape = None

    model_mod.forward = tracer.wrap("model.forward", forward)
    model_mod.conv1d = tracer.wrap("autodiff.conv1d", conv1d)
    training_mod.forward = tracer.wrap("model.forward", forward)
    training_mod.mse = tracer.wrap("autodiff.mse", saved_training["mse"])
    training_mod.backward = tracer.wrap("autodiff.backward", saved_training["backward"])
    training_mod.inject_noise = tracer.wrap("data.inject_noise", saved_training["inject_noise"])
    training_mod.physics_loss_tensor = traced_physics
    training_mod.adam_step = traced_adam
    training_mod.Tape = TracedTape
    try:
        yield tracer
    finally:
        model_mod.forward = forward
        model_mod.conv1d = conv1d
        for name, fn in saved_training.items():
            setattr(training_mod, name, fn)
        tracer.reset_stack()
