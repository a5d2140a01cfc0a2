"""Span tracing from outside the program, and the per-layer metrics built from it.

The solver modules bind their collaborators at import (``from .transfer
import cic_gather``), so a call is caught only by replacing the name where the
caller looks it up.  ``TARGETS`` lists those (module, attribute) pairs.  Each
replacement records one span per call: name, start, end, parent and the work
the call did (points, pairs, particles).  Names that no longer exist are
skipped, so their layer metrics go absent instead of the run crashing.

``StepClock`` is the only wrapper an untraced run installs: it timestamps
each entry into ``scenarios.ns_step``, which delimits the steps.  Spans stay
in memory; ``layer_metrics`` turns them into per-step figures.
"""

from __future__ import annotations

import bisect
import importlib
import time
from dataclasses import dataclass, field

# (module, attribute, span name); the span name keys LAYERS below.
TARGETS = [
    ("thinspray.scenarios", "ns_step", "ns_step"),
    ("thinspray.scenarios", "advance_particles", "advance_particles"),
    ("thinspray.scenarios", "absorb_to_density", "absorb"),
    ("thinspray.scenarios", "absorb_and_fragment", "absorb"),
    ("thinspray.scenarios", "deposit_moments", "deposit_moments"),
    ("thinspray.scenarios", "merge_particles", "merge_particles"),
    ("thinspray.scenarios", "density_step", "density_step"),
    ("thinspray.scenarios", "collect_record", "collect_record"),
    ("thinspray.scenarios", "regularization_remainders", "regularization_remainders"),
    ("thinspray.scenarios", "radial_histogram", "lemma"),
    ("thinspray.scenarios", "check_moment_bound", "lemma"),
    ("thinspray.scenarios", "liquid_volume", "liquid_volume"),
    ("thinspray.scenarios", "mollify", "mollify"),
    ("thinspray.scenarios", "sample_gaussian_spray", "sample"),
    ("thinspray.kinetic", "cic_gather", "cic_gather"),
    ("thinspray.density", "cic_gather", "cic_gather"),
    ("thinspray.diagnostics", "cic_gather", "cic_gather"),
    ("thinspray.kinetic", "cic_scatter", "cic_scatter"),
    ("thinspray.density", "cic_scatter", "cic_scatter"),
    ("thinspray.diagnostics", "cic_scatter", "cic_scatter"),
    ("numpy.fft", "rfftn", "fft"),
    ("numpy.fft", "irfftn", "fft"),
]

STEP_ANCHOR = ("thinspray.scenarios", "ns_step")
WARMUP = 2  # leading steps of a run left out of every statistic


def _points(args, kwargs, result):
    return len(args[1])


def _particles(args, kwargs, result):
    return args[0].count


def _merge_pairs(args, kwargs, result):
    return args[0].count - result[0].count


def _merge_m2(args, kwargs, result):
    return result[1]


# span name -> (self-time metric, call-count metric, {work metric: probe})
LAYERS = {
    "cic_gather": ("transfer.gather_ms", "transfer.gather_calls",
                   {"transfer.gather_points": _points}),
    "cic_scatter": ("transfer.scatter_ms", "transfer.scatter_calls",
                    {"transfer.scatter_points": _points}),
    "advance_particles": ("kinetic.advance_ms", None, {"kinetic.particles": _particles}),
    "deposit_moments": ("kinetic.deposit_ms", None, {}),
    "absorb": ("kinetic.absorb_ms", None, {}),
    "merge_particles": ("kinetic.merge_ms", "kinetic.merge_calls",
                        {"kinetic.merge_pairs": _merge_pairs,
                         "kinetic.merge_m2_rel_max": _merge_m2}),
    "ns_step": ("fluid.ns_step_ms", "fluid.ns_step_calls", {}),
    "fft": ("grid.fft_ms", "grid.fft_calls", {}),
    "mollify": ("grid.mollify_ms", None, {}),
    "density_step": ("density.step_ms", None, {}),
    "collect_record": ("diagnostics.record_ms", None, {}),
    "regularization_remainders": ("diagnostics.remainders_ms", None, {}),
    "lemma": ("diagnostics.lemma_ms", None, {}),
    "liquid_volume": ("diagnostics.volume_ms", None, {}),
}
# Work metrics reported as the largest value in a step rather than the sum.
MAX_METRICS = {"kinetic.merge_m2_rel_max"}
SETUP_SPANS = {"sample": "kinetic.sample_ms"}  # per set-up, not per step
SELF_METRIC = "scenarios.self_ms"


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    work: dict = field(default_factory=dict)


class Tracer:
    """Records spans of the calls made through the names it replaces.

    While ``enabled`` is false the wrappers call straight through and record
    nothing, so one process can alternate traced and untraced steps.
    """

    def __init__(self):
        self.enabled = True
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        probes = LAYERS.get(name, (None, None, {}))[2]

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(),
                        parent=self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.work = {m: probe(args, kwargs, result) for m, probe in probes.items()}
            return result

        traced.__wrapped__ = fn
        return traced


class StepClock:
    """Timestamps every entry into the step anchor, ``scenarios.ns_step``.

    On each entry ``ends`` gets a stamp, then ``on_step(count)`` runs, then
    ``starts`` gets a stamp, so what ``on_step`` does lies in no step.  Step
    k runs from starts[k] to ends[k+1].  ``on_step`` may raise to end the run.
    """

    def __init__(self, on_step=None):
        self.on_step = on_step
        self.starts: list[float] = []
        self.ends: list[float] = []

    def install(self, patches: "Patches"):
        def make(fn):
            def clocked(*args, **kwargs):
                self.ends.append(time.perf_counter())
                if self.on_step is not None:
                    self.on_step(len(self.ends))
                self.starts.append(time.perf_counter())
                return fn(*args, **kwargs)
            clocked.__wrapped__ = fn
            return clocked

        if not patches.replace(*STEP_ANCHOR, make):
            raise LookupError("step anchor %s.%s not found" % STEP_ANCHOR)

    def steps_ms(self) -> list[float]:
        return [1e3 * (b - a) for a, b in zip(self.starts, self.ends[1:])]


class SetupDone(Exception):
    """Raised at the first step of a run that only measures set-up."""


class Patches:
    """Replaces module attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, module: str, attr: str, make) -> bool:
        try:
            mod = importlib.import_module(module)
        except ModuleNotFoundError:
            mod = None
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return False
        self.saved.append((mod, attr, original))
        setattr(mod, attr, make(original))
        return True

    def restore(self):
        while self.saved:
            mod, attr, original = self.saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def install_tracer(patches: Patches, tracer: Tracer, targets=TARGETS) -> set[str]:
    """Wrap every target that exists; return the span names that got a wrapper."""
    return {name for module, attr, name in targets
            if patches.replace(module, attr, lambda fn, name=name: tracer.wrap(name, fn))}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, children)]


def layer_metrics(spans: list[Span], steps: list[tuple[float, float]],
                  wrapped: set[str]) -> dict[str, float]:
    """Per-step layer figures over the given (start, end) step intervals.

    Spans are attributed by start time; those outside every interval are
    left out, except set-up spans, which are summed on their own.  Times are
    self times in ms averaged per step, counts and work are summed per step,
    and ``scenarios.self_ms`` is the part of the intervals that no top-level
    span covers.  Metrics of span names without a wrapper are absent.
    """
    if not steps:
        raise ValueError("no step to attribute spans to")
    n = len(steps)
    starts = [lo for lo, _ in steps]
    out: dict[str, float] = {SETUP_SPANS[s]: 0.0 for s in wrapped if s in SETUP_SPANS}
    for name in wrapped & LAYERS.keys():
        time_m, calls_m, probes = LAYERS[name]
        out.update(dict.fromkeys([time_m, *probes] + ([calls_m] if calls_m else []), 0.0))
    covered = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span.name in SETUP_SPANS:
            out[SETUP_SPANS[span.name]] += 1e3 * own
            continue
        k = bisect.bisect_right(starts, span.start) - 1
        if k < 0 or span.start >= steps[k][1] or span.name not in LAYERS:
            continue
        time_m, calls_m, _ = LAYERS[span.name]
        out[time_m] += 1e3 * own / n
        if calls_m:
            out[calls_m] += 1.0 / n
        for m, value in span.work.items():
            out[m] = max(out[m], value) if m in MAX_METRICS else out[m] + value / n
        if span.parent is None:
            covered += span.end - span.start
    out[SELF_METRIC] = 1e3 * (sum(hi - lo for lo, hi in steps) - covered) / n
    return out
