"""Span tracer that wraps the calls the experiment harness makes into each module.

Spans attach by name: each layer lists the attribute names the harness may
call it by. A name is looked up first in the ``vvlab.harness`` namespace (what
the harness calls) and then on the layer's own module (for calls made through
a module attribute). A layer none of whose names exists any more is reported as
missing, never raised, so the tracer survives refactors of the program.

Spans are kept in memory as ``(name, start, end, parent)`` records and reduced
to per-layer self times at the end: a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


def _solver_steps(args, kwargs, result):
    """Solver steps taken by one trajectory call (t_end / dt of its config)."""
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, "t_end") and hasattr(value, "dt"):
            return int(round(value.t_end / value.dt))
    return 0


def _particles(args, kwargs, result):
    """Particles advanced by one coupling step (the ensemble's length)."""
    ens = args[0] if args else kwargs.get("ens")
    return len(ens) if ens is not None else 0


def _atoms(args, kwargs, result):
    """Atoms in the measure a field was turned into."""
    return len(result)


@dataclass(frozen=True)
class Layer:
    span: str                   # reported name, "<module>.<function>"
    names: tuple                # attribute names the harness may call it by
    counter: str | None = None  # optional count recorded at the boundary
    count: object = None        # (args, kwargs, result) -> int

    @property
    def module(self) -> str:
        return "vvlab." + self.span.split(".")[0]


LAYERS = (
    Layer("evolve.run_split", ("run_split",), "evolve.steps", _solver_steps),
    Layer("fields.biot_savart", ("biot_savart",)),
    Layer("fields.hm1_norm", ("hm1_norm",)),
    Layer("initial_data.make_initial_data", ("make_initial_data",)),
    Layer("transport.field_to_measure", ("field_to_measure",), "transport.atoms", _atoms),
    # the per-pair transport call: a private helper today, one public entry later
    Layer("transport.distance", ("_distance", "distance")),
    Layer("transport.wasserstein_exact", ("wasserstein_exact",)),
    Layer("coupling.init_coupling", ("init_coupling",)),
    Layer("coupling.advance_coupling", ("advance_coupling",), "coupling.particle_steps",
          _particles),
    Layer("coupling.estimate_q", ("estimate_q",)),
    Layer("coupling.check_lemma1", ("check_lemma1",)),
    Layer("ratefit.fit_rate", ("fit_rate",)),
)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)     # [name, start, end, parent index]
    counters: dict = field(default_factory=dict)  # counter name -> [total, samples]
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def wrap(self, name, fn, counter=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            record = [name, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                total = self.counters.setdefault(counter, [0, 0])
                total[0] += count(args, kwargs, result)
                total[1] += 1
            return result

        return traced

    def install(self, layers=LAYERS) -> None:
        """Wrap every layer the harness can reach; record the ones that are gone."""
        harness = importlib.import_module("vvlab.harness")
        for layer in layers:
            target = self._resolve(harness, layer)
            if target is None:
                self.missing.append(layer.span)
                print(f"trace: no call target left for span {layer.span} "
                      f"(looked for {', '.join(layer.names)})", file=sys.stderr)
                continue
            owner, attr = target
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer.span, original, layer.counter, layer.count))

    @staticmethod
    def _resolve(harness, layer):
        owners = [harness]
        try:
            owners.append(importlib.import_module(layer.module))
        except ImportError:
            pass
        for owner in owners:
            for attr in layer.names:
                if callable(getattr(owner, attr, None)):
                    return owner, attr
        return None

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self, wall_start: float, wall_end: float) -> dict:
        """Per-span calls and self time, glue time and the accounting check."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict = {}
        roots = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            if parent < 0:
                roots += end - start
        wall = wall_end - wall_start
        glue = wall - roots
        self_total = sum(v["self_s"] for v in layers.values())
        inside = all(wall_start <= s and e <= wall_end for _, s, e, p in self.spans if p < 0)
        return {
            "layers": layers,
            "counters": {k: {"total": v[0], "samples": v[1]} for k, v in self.counters.items()},
            "missing": list(self.missing),
            "wall_s": wall,
            "glue_s": glue,
            "accounting_ok": bool(
                inside
                and glue >= 0.0
                and all(v["self_s"] >= -1e-9 for v in layers.values())
                and abs(self_total + glue - wall) <= 1e-9 * max(wall, 1.0)
            ),
        }
