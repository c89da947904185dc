"""Outside-in tracing of layoutsynth's layers.

The tracer replaces module attributes with timing wrappers for the
duration of a ``with`` block and puts the originals back on exit. The
program under test is not modified; it only has to look its layer
functions up through module attributes, which it does.

Time is partitioned, never double-counted. A span's self time is its
duration minus the durations of the spans it caused (spans nest by call
stack). Two layers are *sinks*: everything under ``evaluate_energy`` is
charged to energy and everything under ``_settle_hard_constraints`` to
settle, so inside a sink the other wrappers only count work. Counters
count every call wherever it happens, so they describe work done.

The per-contact projections run ~10^5 times per pass; they are kept as
aggregate call counts and time, never as span records.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from layoutsynth import annealer, constraints, render, sceneio, scenes, solver, spatial

# layers whose whole subtree is charged to themselves
SINKS = ("solver.energy", "solver.settle")


class Tracer:
    """Span stack, per-layer charged seconds and work counters."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (span id, layer, start, end, parent id, solve id)
        self.solve_id = -1
        self._stack: list[list] = []  # [span id, layer, child seconds]
        self._sink: str | None = None  # the sink on the stack, if any
        self._saved: list[tuple] = []

    # -- span accounting ---------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [len(self.spans), layer, 0.0]
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append(frame)
        if layer in SINKS:
            self._sink = layer
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        span_id, layer, child = frame
        duration = end - start
        self.seconds[layer] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if layer == self._sink:
            self._sink = None
        self.spans[span_id] = (
            span_id, layer, start, end, parent[0] if parent else -1, self.solve_id
        )

    @contextlib.contextmanager
    def solve(self, solve_id: int):
        """Root span around one solve; its self time is time that no
        listed layer accounts for."""
        self.solve_id = solve_id
        frame = self._enter("solve.other")
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, time.perf_counter())

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, on_result=None):
        tracer = self
        clock = time.perf_counter
        counts = self.counts
        calls = layer + ".calls"

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if tracer._sink is not None:
                counts[f"{calls}_in.{tracer._sink}"] += 1
                result = fn(*args, **kwargs)
            else:
                frame = tracer._enter(layer)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame, start, clock())
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _aggregate_wrapper(self, fn, layer: str):
        tracer = self
        clock = time.perf_counter
        counts = self.counts
        calls = layer + ".calls"
        calls_in_sink = layer + ".calls_in_sink"

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if tracer._sink is not None:
                counts[calls_in_sink] += 1
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            tracer.seconds[layer] += elapsed
            if tracer._stack:
                tracer._stack[-1][2] += elapsed
            return result

        return wrapper

    def _count_wrapper(self, fn, layer: str):
        counts = self.counts

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[layer + ".calls"] += 1
            if result:
                counts[layer + ".true"] += 1
            return result

        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        counts = self.counts

        def count_pairs(pairs):
            counts["spatial.candidate_pairs"] += len(pairs)

        def count_contacts(result):
            collisions, activations, ghosts = result
            counts["solver.collisions"] += len(collisions)
            counts["solver.activations"] += len(activations)
            counts["solver.ghosts"] += len(ghosts)

        def count_settle(ok):
            if ok:
                counts["solver.settle.ok"] += 1

        def count_trace(result):
            _, trace = result
            counts["solver.restarts"] += trace.restarts
            counts["solver.degenerate_events"] += trace.degenerate_events

        span = self._span_wrapper
        aggregate = self._aggregate_wrapper
        # annealer binds these names at import, so both bindings are wrapped
        bound = {
            "SolveContext": span(solver.SolveContext, "solver.setup"),
            "initialize": span(solver.initialize, "solver.setup"),
            "evaluate_energy": span(solver.evaluate_energy, "solver.energy"),
        }
        for name, wrapper in bound.items():
            self._set(solver, name, wrapper)
            self._set(annealer, name, wrapper)
        self._set(solver, "synthesize", span(solver.synthesize, "solver.top", count_trace))
        self._set(solver, "step", span(solver.step, "solver.step"))
        self._set(solver, "project_constraint",
                  aggregate(solver.project_constraint, "solver.authored"))
        self._set(solver, "build_hash", span(solver.build_hash, "spatial.build"))
        self._set(spatial.SpatialHash, "candidate_pairs",
                  span(spatial.SpatialHash.candidate_pairs, "spatial.pairs", count_pairs))
        self._set(solver, "generate_contacts",
                  span(solver.generate_contacts, "solver.narrow", count_contacts))
        self._set(solver, "_settle_hard_constraints",
                  span(solver._settle_hard_constraints, "solver.settle", count_settle))
        for name in ("project_collision", "project_accessibility", "project_wall_ghost_collision"):
            self._set(constraints, name,
                      aggregate(getattr(constraints, name), "constraints.contact"))
        self._set(constraints, "project_boundary",
                  aggregate(constraints.project_boundary, "constraints.boundary"))
        self._set(annealer, "run_sa_mcmc", span(annealer.run_sa_mcmc, "annealer.top"))
        self._set(annealer, "accept", self._count_wrapper(annealer.accept, "annealer.accept"))
        self._set(render, "render_svg", span(render.render_svg, "render.svg"))
        self._set(scenes, "build", span(scenes.build, "scenes.build"))
        self._set(scenes, "scaling_series", span(scenes.scaling_series, "scenes.build"))
        self._set(sceneio, "parse_scene", span(sceneio.parse_scene, "sceneio.parse"))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


PER_LAYER_SECONDS = {
    "solver.setup_s": "solver.setup",
    "solver.step_self_s": "solver.step",
    "solver.authored_s": "solver.authored",
    "spatial.build_s": "spatial.build",
    "spatial.pairs_s": "spatial.pairs",
    "solver.narrow_s": "solver.narrow",
    "constraints.contact_s": "constraints.contact",
    "constraints.boundary_s": "constraints.boundary",
    "solver.energy_s": "solver.energy",
    "solver.settle_s": "solver.settle",
    "annealer.self_s": "annealer.top",
    "render.svg_s": "render.svg",
}


def solve_layers(tracer: Tracer, solve_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the solves traced so far, as name -> (value,
    unit). ``solve_seconds`` is their traced wall time; what no listed
    layer accounts for is reported as ``solver.other_s``."""
    s, c = tracer.seconds, tracer.counts
    out = {name: (s[layer], "s") for name, layer in PER_LAYER_SECONDS.items()}
    out["solver.other_s"] = (solve_seconds - sum(v for v, _ in out.values()), "s")
    pairs = c["spatial.candidate_pairs"]
    settles = c["solver.settle.calls"]
    proposals = c["annealer.accept.calls"]
    counts = {
        "solver.steps": c["solver.step.calls"],
        # authored projections outside the sinks are the ones under step
        "solver.authored_calls": c["solver.authored.calls"] - c["solver.authored.calls_in_sink"],
        "spatial.builds": c["spatial.build.calls"],
        "spatial.candidate_pairs": pairs,
        "solver.collisions": c["solver.collisions"],
        "solver.activations": c["solver.activations"],
        "solver.ghosts": c["solver.ghosts"],
        "constraints.contact_calls": c["constraints.contact.calls"],
        "constraints.boundary_calls": c["constraints.boundary.calls"],
        "solver.energy_calls": c["solver.energy.calls"],
        "solver.settle_calls": settles,
        "solver.settle_sweeps": c["spatial.build.calls_in.solver.settle"],
        "solver.restarts": c["solver.restarts"],
        "solver.degenerate_events": c["solver.degenerate_events"],
        "annealer.proposals": proposals,
    }
    out.update({name: (value, "count") for name, value in counts.items()})
    # a ratio whose base is 0 (the layer did no work) reads 0
    out["solver.narrow_hit_ratio"] = (
        (c["solver.collisions"] + c["solver.activations"]) / pairs if pairs else 0.0, "ratio")
    out["solver.settle_ok_ratio"] = (c["solver.settle.ok"] / settles if settles else 0.0, "ratio")
    out["annealer.accept_ratio"] = (
        c["annealer.accept.true"] / proposals if proposals else 0.0, "ratio")
    return out
