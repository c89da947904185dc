"""Workloads, solves, output checks and metrics of the benchmark.

A *job* is one (scene, solver seed) pair; a workload seed fixes the job
list (BENCHMARK.json says why each workload is there). A *solve* is one
``synthesize`` or ``run_sa_mcmc`` call plus ``render_svg`` of its result,
the ``layoutsynth synth`` user path, with the configuration ``synth``
would use (the anneal workload fixes its budget, see WORKLOADS). A run
makes whole passes over the job list, starting another pass only while
a whole one still fits in ``--seconds``; a run of a single pass adds one
repeat of the first job, so every run checks that repeats give
identical layouts.

Every solve's layout is re-priced with the all-pairs energy oracle
(``check_layout``). The end-to-end metrics are printed and recorded for
every run; BENCHMARK.json gates only the ones that stay steady from seed
to seed on a shared host (see ``solve_gmean`` and "machine speed").

Every layer is reached through a module attribute (``solver.synthesize``,
``render.render_svg``, ...) so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layoutsynth import annealer, cli, render, sceneio, scenes, solver
from tracer import Tracer, solve_layers

SETUP_REPEATS = 5
SMALL_TEMPLATES = ("living_room", "desk", "tp_bedroom", "tp_picnic")
# theater2 variants spanning its object counts: 181, 246 and 169 objects
TIER_SCENES = {
    "theater2_arc2": ("theater2", {"style": "arc", "pathways": 2}),
    "theater2_seg2": ("theater2", {"style": "seg", "pathways": 2}),
    "theater2_seg1": ("theater2", {"style": "seg", "pathways": 1}),
    "picnic": ("picnic", {}),
}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "pbd" (projection solver) or "sa" (annealing baseline)
    groups: int  # solver seeds per scene; a group is one seed over every scene


# Group counts trade repeats for seeds within BENCHMARK.json's 30 s run.
# A solve's time, even in reference units, moves by about 10% from run to
# run on a shared host, so the figures steady only over enough solves:
# one pass of 20-27 s for tiers and anneal, two or three of 8-12 s for
# small_rooms.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tiers", "pbd", 8),
        Workload("small_rooms", "pbd", 26),
        Workload("anneal", "sa", 6),
    )
}

# the ``synth --mode mcmc --iters`` budget of the anneal workload: with
# the default 20k budget and its stall stop, a seed decides whether a
# solve makes 3k or 17k proposals, a spread no run of tens of seconds
# averages out
ANNEAL_ITERATIONS = 3000


# ---------------------------------------------------------------------------
# plan and set-up


@dataclass
class Plan:
    """The scenes a workload needs and its job list, from the seed alone."""

    workload: Workload
    jobs: list[tuple[str, int]]  # (scene key, solver seed)
    tp_picnic_seeds: list[int]


def make_plan(workload: Workload, seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    solver_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=workload.groups)]
    picnic_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=workload.groups)]
    jobs = []
    for solver_seed, picnic_seed in zip(solver_seeds, picnic_seeds):
        for key in scene_keys(workload, picnic_seed):
            jobs.append((key, solver_seed))
    uses_tp_picnic = workload.name in ("small_rooms", "anneal")
    return Plan(workload, jobs, picnic_seeds if uses_tp_picnic else [])


def scene_keys(workload: Workload, picnic_seed: int) -> list[str]:
    if workload.name == "tiers":
        return list(TIER_SCENES)
    return [f"tp_picnic_{picnic_seed}" if t == "tp_picnic" else t for t in SMALL_TEMPLATES]


def build_scenes(plan: Plan) -> dict:
    """Every scene the job list names, built (and for small_rooms
    exported to JSON and parsed back) through the package's own API."""
    name = plan.workload.name
    if name == "tiers":
        return {key: scenes.build(t, params) for key, (t, params) in TIER_SCENES.items()}
    out = {t: scenes.build(t) for t in SMALL_TEMPLATES if t != "tp_picnic"}
    for picnic_seed in plan.tp_picnic_seeds:
        out[f"tp_picnic_{picnic_seed}"] = scenes.build("tp_picnic", seed=picnic_seed)
    if name == "small_rooms":
        out = {key: sceneio.parse_scene(sceneio.serialize_scene(s)) for key, s in out.items()}
    return out


def import_seconds(src: Path) -> list[float]:
    """Seconds to import the package in each of several fresh
    interpreters, which is what every user of the CLI pays."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import layoutsynth; print(time.perf_counter() - t)")
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True,
                              text=True, check=True, timeout=60)
        out.append(float(done.stdout))
    return out


def timed_setup(plan: Plan) -> tuple[dict, list[float]]:
    """Build the scenes several times; returns the last set and the
    seconds each build took."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = build_scenes(plan)
        seconds.append(time.perf_counter() - start)
    return built, seconds


# ---------------------------------------------------------------------------
# solves


def solver_config(scene, seed: int):
    """The configuration ``layoutsynth synth`` uses for this scene."""
    return cli._solver_config(scene, argparse.Namespace(seed=seed))


def job_config(workload: Workload, scene, seed: int):
    if workload.mode == "sa":
        return annealer.AnnealConfig(seed=seed, total_iterations=ANNEAL_ITERATIONS)
    return solver_config(scene, seed)


@dataclass
class Solve:
    key: str
    seed: int
    seconds: float
    digest: str = ""
    best_energy: float = math.nan
    iterations: int = 0  # energy trace length: solver iterations or annealer proposals
    error: str = ""
    reference_s: float = math.nan  # seconds of reference work around the solve


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared 2-core host (Xeon, 2.1 GHz) the same solve, repeated, takes
# anywhere from 0.49 to 0.71 s, and CPU time moves with wall time (no steal shows),
# so the host runs the process slower or faster for seconds to minutes at
# a time. Every solve is therefore bracketed by a fixed piece of reference
# work that does not touch layoutsynth, and the gated timings are
# expressed in multiples of it ("ref"). A change to the package moves the
# solves but not the reference; a slower host moves both.

REFERENCE_POINTS = 300
REFERENCE_SWEEPS = 45


def reference_work() -> int:
    """Fixed pure-Python work shaped like the solver's inner loops: bucket
    circles into a grid, collect same-cell pairs, and push overlapping
    circles apart. Seeded, so every call does identical work."""
    rng = random.Random(0)
    circles = [[rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0), rng.uniform(0.3, 0.8)]
               for _ in range(REFERENCE_POINTS)]
    contacts = 0
    for _ in range(REFERENCE_SWEEPS):
        cells: dict[tuple[int, int], list[int]] = {}
        for i, (x, y, _) in enumerate(circles):
            cells.setdefault((int(x // 2.0), int(y // 2.0)), []).append(i)
        pairs = set()
        for bucket in cells.values():
            for a in range(len(bucket)):
                for b in range(a + 1, len(bucket)):
                    pairs.add((bucket[a], bucket[b]))
        for i, j in sorted(pairs):
            p, q = circles[i], circles[j]
            dx, dy = p[0] - q[0], p[1] - q[1]
            d = math.hypot(dx, dy)
            if 1e-9 < d < p[2] + q[2]:
                contacts += 1
                push = 0.5 * (p[2] + q[2] - d) / d
                p[0] += dx * push
                p[1] += dy * push
                q[0] -= dx * push
                q[1] -= dy * push
    return contacts


# the reference work's seconds on an idle core of the 2.1 GHz Xeon this
# benchmark was tuned on; set-up time is reported at that speed
REFERENCE_NOMINAL_S = 0.015


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def layout_digest(layout) -> str:
    return hashlib.sha256(repr([tuple(p) for p in layout]).encode()).hexdigest()[:16]


def solve_once(workload: Workload, scene, key: str, seed: int) -> tuple[Solve, list | None]:
    config = job_config(workload, scene, seed)
    start = time.perf_counter()
    try:
        if workload.mode == "sa":
            layout, trace = annealer.run_sa_mcmc(scene, config)
        else:
            layout, trace = solver.synthesize(scene, config)
        render.render_svg(scene, layout)
    except Exception:  # a failed solve is counted and reported; the run goes on
        elapsed = time.perf_counter() - start
        return Solve(key, seed, elapsed, error=traceback.format_exc()), None
    elapsed = time.perf_counter() - start
    record = Solve(key, seed, elapsed, layout_digest(layout), trace.best_energy,
                   len(trace.energies))
    return record, layout


def run_pass(workload: Workload, built: dict, jobs,
             tracer: Tracer | None = None) -> tuple[list[Solve], dict]:
    """One solve per job, each bracketed by reference work; returns the
    solves and the first layout of each job."""
    solves, layouts = [], {}
    references = [time_reference()]
    for solve_id, (key, seed) in enumerate(jobs):
        # start every solve from a collected heap, so no solve pays for
        # the garbage of the one before
        gc.collect()
        if tracer is None:
            record, layout = solve_once(workload, built[key], key, seed)
        else:
            with tracer.solve(solve_id):
                record, layout = solve_once(workload, built[key], key, seed)
        references.append(time_reference())
        solves.append(record)
        if layout is not None:
            layouts.setdefault((key, seed), layout)
    # a solve's reference is the median of the six timed around it, which
    # follows the host's drift but not one slow reference
    for i, record in enumerate(solves):
        record.reference_s = statistics.median(references[max(0, i - 2):i + 4])
    return solves, layouts


def passes_fit(elapsed: float, pass_seconds: float, seconds: float) -> bool:
    """Start another pass only while a whole one fits."""
    return elapsed + pass_seconds <= seconds


# ---------------------------------------------------------------------------
# output check


def check_layout(scene, layout, tolerance: float, ctx=None) -> dict:
    """Re-price a returned layout with the all-pairs (naive) broad phase,
    independent of the spatial hash, and judge it against the hard
    constraints: no circle overlap and no boundary violation beyond
    ``tolerance``."""
    ctx = ctx or solver.SolveContext(scene)
    state = solver.LayoutState(*(list(column) for column in zip(*layout)))
    energy, _, overlap, boundary = solver.evaluate_energy(state, ctx, broad_phase="naive")
    return {
        "energy": energy,
        "max_overlap": overlap,
        "max_boundary": boundary,
        "infeasible": overlap > tolerance or boundary > tolerance,
    }


def check_solves(workload: Workload, built: dict, solves: list[Solve], layouts: dict) -> dict:
    """Per-job output check and the determinism check over repeats."""
    contexts = {}
    jobs = {}
    mismatches = []
    for s in solves:
        if s.error:
            continue
        job = jobs.get((s.key, s.seed))
        if job is None:
            scene = built[s.key]
            if s.key not in contexts:
                contexts[s.key] = solver.SolveContext(scene)
            # the annealer has no tolerance of its own; it is held to the solver's
            tolerance = solver_config(scene, s.seed).feasibility_tolerance
            job = check_layout(scene, layouts[(s.key, s.seed)], tolerance, contexts[s.key])
            job.update(scene=s.key, seed=s.seed, digest=s.digest, best_energy=s.best_energy,
                       iterations=s.iterations, seconds=[], refs=[])
            jobs[(s.key, s.seed)] = job
        elif s.digest != job["digest"]:
            mismatches.append(f"{s.key} seed {s.seed}: {job['digest']} != {s.digest}")
        job["seconds"].append(s.seconds)
        job["refs"].append(s.seconds / s.reference_s)
    return {"jobs": list(jobs.values()), "mismatches": mismatches}


# ---------------------------------------------------------------------------
# metrics


TAIL_LEVELS_PER_MILLE = (999, 990, 900, 500)


def tail_percentile(values) -> tuple[float, float, int]:
    """The highest of p99.9, p99, p90 and p50 (nearest rank) that has at
    least ten samples above it, as (value, percentile, samples above).
    With fewer than 21 samples not even p50 has ten above; p50 is then
    reported and the count above says so."""
    ordered = sorted(values)
    n = len(ordered)
    for level in TAIL_LEVELS_PER_MILLE:
        rank = -(-level * n // 1000)  # ceil(level/1000 * n), 1-based
        if n - rank >= 10 or level == TAIL_LEVELS_PER_MILLE[-1]:
            return ordered[rank - 1], level / 10, n - rank
    raise AssertionError("unreachable")


def solve_gmean(jobs: list[dict]) -> float:
    """Geometric mean over the job list of each job's median time, in
    reference units.

    The plain timings move with the seed: a seed decides when the solver
    stalls and how long the settle runs, so one job can cost several
    ordinary ones. A job's median over its repeats damps host noise, and
    the geometric mean lets a slow job shift the figure by its share of
    the jobs, not by its seconds. Every scene has one job per solver seed,
    so every scene weighs alike."""
    if not jobs:
        return math.nan
    return math.exp(statistics.fmean(math.log(statistics.median(job["refs"])) for job in jobs))


def end_to_end(workload: Workload, solves: list[Solve], check: dict, setup_s: float) -> dict:
    """Every end-to-end metric as name -> (value, unit), plus details."""
    attempted = len(solves)
    ok = [s for s in solves if not s.error]
    times = [s.seconds for s in ok]
    infeasible_jobs = {(j["scene"], j["seed"]) for j in check["jobs"] if j["infeasible"]}
    infeasible = sum(1 for s in ok if (s.key, s.seed) in infeasible_jobs)
    energies = [j["best_energy"] for j in check["jobs"]]
    tail, pct, above = tail_percentile(times) if times else (math.nan, math.nan, 0)
    metrics = {
        "layouts_per_s": (len(ok) / sum(s.seconds for s in solves), "1/s"),
        "solve_gmean_ref": (solve_gmean(check["jobs"]), "ref"),
        "solve_s_p50": (statistics.median(times) if times else math.nan, "s"),
        "solve_s_tail": (tail, "s"),
        "best_energy_p50": (statistics.median(energies) if energies else math.nan, "energy"),
        "best_energy_max": (max(energies) if energies else math.nan, "energy"),
        "infeasible_frac": (infeasible / attempted, "ratio"),
        "error_frac": ((attempted - len(ok)) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"tail_percentile": pct, "tail_samples_above": above, "solves": len(times)}
    return {"metrics": metrics, "details": details}


def failed_count(workload: Workload, solves: list[Solve], check: dict) -> int:
    """Solves that raised, plus projection-solver solves whose layout
    fails the output check: ``synthesize`` promises a hard-feasible
    layout, while the annealing baseline makes no such promise and its
    infeasible layouts are only reported in ``infeasible_frac``."""
    failed = sum(1 for s in solves if s.error)
    if workload.mode == "pbd":
        bad = {(j["scene"], j["seed"]) for j in check["jobs"] if j["infeasible"]}
        failed += sum(1 for s in solves if not s.error and (s.key, s.seed) in bad)
    return failed


# ---------------------------------------------------------------------------
# records


def environment(load_before) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(Path(__file__).resolve().parent.parent),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")
                       or k == "VECLIB_MAXIMUM_THREADS"},
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit; None outside a git checkout (the benchmark may run
    from an exported tree, which must not pick up an enclosing repo)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def configs(plan: Plan, built: dict) -> dict:
    """The solver or annealer configuration of every scene, seed aside."""
    out = {}
    for key, seed in plan.jobs:
        if key not in out:
            config = dataclasses.asdict(job_config(plan.workload, built[key], seed))
            config.pop("seed")
            out[key] = config
    return out


def write_json(path: Path, doc, indent: int | None = 1) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=indent, sort_keys=True, default=str)
        handle.write("\n")


# ---------------------------------------------------------------------------
# runs


def timed_run(plan: Plan, built: dict, seconds: float) -> tuple[list[Solve], dict, int]:
    """Whole passes over the job list within ``seconds``; see the module
    docstring for the stopping rule."""
    workload = plan.workload
    solves, layouts = [], {}
    passes = 0
    start = time.perf_counter()
    while True:
        batch, first = run_pass(workload, built, plan.jobs)
        solves += batch
        for job, layout in first.items():
            layouts.setdefault(job, layout)
        passes += 1
        elapsed = time.perf_counter() - start
        if not passes_fit(elapsed, elapsed / passes, seconds):
            break
    if passes == 1:
        batch, _ = run_pass(workload, built, plan.jobs[:1])
        solves += batch
    return solves, layouts, passes


def traced_run(plan: Plan, built: dict, seconds: float):
    """Rounds of one untraced and one traced pass over the job list.
    Counts come from the first traced pass (every round must repeat
    them exactly); times are medians over rounds."""
    workload = plan.workload
    solves, layouts = [], {}
    rounds = []
    start = time.perf_counter()
    while True:
        plain, first = run_pass(workload, built, plan.jobs)
        tracer = Tracer()
        with tracer:
            traced, _ = run_pass(workload, built, plan.jobs, tracer)
        solves += plain + traced
        for job, layout in first.items():
            layouts.setdefault(job, layout)
        plain_s = sum(s.seconds for s in plain)
        traced_s = sum(s.seconds for s in traced)
        rounds.append((tracer, plain_s, traced_s, solve_layers(tracer, traced_s)))
        elapsed = time.perf_counter() - start
        if not passes_fit(elapsed, elapsed / len(rounds), seconds):
            break
    return solves, layouts, rounds


def traced_setup(plan: Plan) -> dict:
    """Median seconds per set-up in the scenes and sceneio layers."""
    per_rep = []
    for _ in range(SETUP_REPEATS):
        tracer = Tracer()
        with tracer:
            build_scenes(plan)
        per_rep.append(tracer.seconds)
    return {
        "scenes.build_s": (statistics.median(r["scenes.build"] for r in per_rep), "s"),
        "sceneio.parse_s": (statistics.median(r["sceneio.parse"] for r in per_rep), "s"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, src: Path,
                 results_dir: Path) -> dict:
    """One run; prints its metrics and returns the result line's fields
    plus the full record."""
    load_before = os.getloadavg()
    workload = WORKLOADS[name]
    plan = make_plan(workload, seed)
    references = [time_reference() for _ in range(SETUP_REPEATS)]
    built, setup_seconds = timed_setup(plan)
    import_runs = import_seconds(src)
    references += [time_reference() for _ in range(SETUP_REPEATS)]
    setup_raw_s = statistics.median(import_runs) + statistics.median(setup_seconds)
    # the host's speed drifts by tens of percent over minutes, so set-up
    # time is scaled to the nominal speed of the reference work around it
    setup_s = setup_raw_s * REFERENCE_NOMINAL_S / statistics.median(references)
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "mode": workload.mode, "jobs": plan.jobs,
        "configs": configs(plan, built), "import_runs_s": import_runs, "setup_runs_s": setup_seconds,
        "setup_raw_s": setup_raw_s, "setup_references_s": references,
    }
    if trace:
        solves, layouts, rounds = traced_run(plan, built, seconds)
        check = check_solves(workload, built, solves, layouts)
        metrics = dict(rounds[0][3])
        for metric, (_, unit) in rounds[0][3].items():
            if unit == "s":
                metrics[metric] = (statistics.median(r[3][metric][0] for r in rounds), unit)
        metrics.update(traced_setup(plan))
        metrics["trace.overhead_ratio"] = (
            statistics.median(r[2] / r[1] for r in rounds), "ratio")
        counts_repeat = all(
            {k: v for k, v in r[3].items() if v[1] == "count"}
            == {k: v for k, v in rounds[0][3].items() if v[1] == "count"}
            for r in rounds
        )
        record["rounds"] = len(rounds)
        record["counts_repeat"] = counts_repeat
        correct = not check["mismatches"] and counts_repeat
        spans = rounds[0][0].spans
        base = spans[0][2] if spans else 0.0
        write_json(results_dir / f"{name}-seed{seed}.spans.json", {
            "columns": ["id", "layer", "start_us", "end_us", "parent", "solve"],
            "spans": [[i, layer, round((a - base) * 1e6), round((b - base) * 1e6), p, s]
                      for i, layer, a, b, p, s in spans],
        }, indent=None)
    else:
        solves, layouts, passes = timed_run(plan, built, seconds)
        check = check_solves(workload, built, solves, layouts)
        result = end_to_end(workload, solves, check, setup_s)
        metrics = result["metrics"]
        record["passes"] = passes
        record.update(result["details"])
        correct = not check["mismatches"]
    failed = failed_count(workload, solves, check)
    record.update({
        "correct": correct, "attempted": len(solves), "failed": failed,
        "errors": sorted({s.error for s in solves if s.error}),
        "mismatches": check["mismatches"], "checked_jobs": check["jobs"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": environment(load_before),
    })
    write_json(results_dir / f"{name}-seed{seed}-trace{int(trace)}.json", record)
    for metric, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:<15} {metric:<28} {shown} {unit}")
    if not trace:
        print(f"{name:<15} solve_s_tail is p{record['tail_percentile']:g} of "
              f"{record['solves']} solves ({record['tail_samples_above']} above)")
    for line in check["mismatches"] + record["errors"]:
        print(f"{name:<15} {line}", file=sys.stderr)
    return record
