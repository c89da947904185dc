"""Command-line interface: synthesize, suggest, compare, validate,
export.

Every artifact a command writes is byte-reproducible for a given scene,
configuration, and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

from . import annealer
from . import constraints as cn
from . import solver
from .annealer import AnnealConfig, run_sa_mcmc
from .model import Scene
from .render import RenderOptions, render_svg
from .sceneio import SceneFormatError, load_scene, save_scene
from .scenes import TEMPLATE_NAMES, build
from .solver import EnergyTrace, SolverConfig, synthesize


class CliError(RuntimeError):
    pass


def _resolve_scene(ref: str, seed: int) -> Scene:
    """A scene file path, or a template name built with defaults."""
    path = Path(ref)
    if path.exists():
        return load_scene(path)
    if ref in TEMPLATE_NAMES:
        return build(ref, seed=seed)
    raise CliError(
        f"scene {ref!r} is neither a file nor a template (templates: {', '.join(TEMPLATE_NAMES)})"
    )


def _positive_int(text: str) -> int:
    """argparse type of a run count: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _non_negative_int(text: str) -> int:
    """argparse type of a seed or an iteration budget (0 keeps the
    default budget): an integer of at least 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _solver_config(scene: Scene, args) -> SolverConfig:
    # a scene file's solver block is checked at parse time to hold only
    # SolverConfig fields
    config = SolverConfig(seed=getattr(args, "seed", 0), **scene.solver_defaults)
    if getattr(args, "iters", None):
        config.max_iterations = args.iters
    if getattr(args, "broad_phase", None):
        config.broad_phase = args.broad_phase
    config.validate()
    return config


def _anneal_config(args) -> AnnealConfig:
    config = AnnealConfig(seed=args.seed)
    if args.iters:
        config.total_iterations = args.iters
    return config


def _write_trace_csv(path: Path, traces: dict[str, EnergyTrace]) -> None:
    """One CSV with a shared iteration index; several traces become
    side-by-side column groups."""
    kinds = list(cn.KINDS)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header = ["iteration"]
        for name in traces:
            header += [f"{name}_energy", f"{name}_best_energy"]
            header += [f"{name}_{kind}" for kind in kinds]
        writer.writerow(header)
        length = max(len(t.energies) for t in traces.values())
        best = {name: math.inf for name in traces}
        for row_index in range(length):
            row: list = [row_index]
            for name, trace in traces.items():
                if row_index < len(trace.energies):
                    energy = trace.energies[row_index]
                    best[name] = min(best[name], energy)
                    sums = trace.violation_sums[row_index]
                    row += [repr(energy), repr(best[name])]
                    row += [repr(sums.get(kind, 0.0)) for kind in kinds]
                else:
                    row += [""] * (2 + len(kinds))
            writer.writerow(row)


def _layout_doc(scene: Scene, layout, trace: EnergyTrace) -> dict:
    objects = {}
    for obj in scene.objects:
        x, y, z, theta = layout[obj.particle_index]
        objects[obj.id] = {"x": x, "y": y, "z": z, "theta_deg": math.degrees(theta)}
    groups = {}
    for group in scene.groups:
        x, y, z, theta = layout[group.particle_index]
        groups[group.id] = {"x": x, "y": y, "z": z, "theta_deg": math.degrees(theta)}
    return {
        "objects": objects,
        "groups": groups,
        "energy": trace.best_energy,
        "best_iteration": trace.best_iteration,
        "iterations_recorded": len(trace.energies),
    }


def _run_meta(scene_ref: str, mode: str, seed: int, solver_config: SolverConfig | None,
              anneal_config: AnnealConfig | None, trace: EnergyTrace) -> dict:
    meta = {
        "scene": scene_ref,
        "mode": mode,
        "seed": seed,
        "energy_weights": {
            kind: spec.weight for kind, spec in cn.SPECS.items() if spec.weight != 1.0
        },
        "default_weight": 1.0,
        "stiffness_schedules": {
            kind: {"schedule": spec.schedule, "initial": spec.stiffness_initial, "rate": spec.rate}
            for kind, spec in cn.SPECS.items()
        },
        "increasing_floor": cn.INCREASING_FLOOR,
        "degenerate_separations": trace.degenerate_events,
    }
    if solver_config is not None:
        meta["solver"] = {
            "max_iterations": solver_config.max_iterations,
            "termination_window": solver_config.termination_window,
            "broad_phase": solver_config.broad_phase,
            "feasibility_tolerance": solver.FEASIBILITY_TOLERANCE,
        }
    if anneal_config is not None:
        # null: the initial temperature and the position sigma are
        # derived per run, from the initial energy and the room
        meta["annealer"] = {
            "total_iterations": anneal_config.total_iterations,
            "t_initial": None,
            "t_final": annealer.T_FINAL,
            "stall_window": annealer.STALL_WINDOW,
            "stall_threshold": annealer.STALL_THRESHOLD,
            "sigma_pos": None,
            "sigma_theta": annealer.SIGMA_THETA,
        }
    return meta


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _render_options(args) -> RenderOptions:
    return RenderOptions(
        show_accessibility=args.show_access,
        show_bounding_circles=args.show_circles,
        show_traffic_lanes=args.show_lanes,
    )


def cmd_synth(args) -> int:
    scene = _resolve_scene(args.scene, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    anneal_config = None
    solver_config = None
    if args.mode == "pbd":
        solver_config = _solver_config(scene, args)
        layout, trace = synthesize(scene, solver_config)
    else:
        anneal_config = _anneal_config(args)
        layout, trace = run_sa_mcmc(scene, anneal_config)
    _write_json(out / "layout.json", _layout_doc(scene, layout, trace))
    with open(out / "layout.svg", "w", encoding="utf-8") as handle:
        handle.write(render_svg(scene, layout, _render_options(args)))
    _write_trace_csv(out / "trace.csv", {args.mode: trace})
    _write_json(
        out / "run_meta.json",
        _run_meta(args.scene, args.mode, args.seed, solver_config, anneal_config, trace),
    )
    print(f"{args.scene}: E={trace.best_energy:.6g} at iteration {trace.best_iteration} -> {out}")
    return 0


def cmd_suggest(args) -> int:
    scene = _resolve_scene(args.scene, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the solves are pure Python, so worker threads would only queue on
    # the interpreter lock
    for seed in range(args.seed, args.seed + args.seeds):
        config = _solver_config(scene, args)
        config.seed = seed
        layout, trace = synthesize(scene, config)
        with open(out / f"layout_seed{seed}.svg", "w", encoding="utf-8") as handle:
            handle.write(render_svg(scene, layout, _render_options(args)))
        print(f"seed {seed}: E={trace.best_energy:.6g}")
    return 0


def cmd_compare(args) -> int:
    scene = _resolve_scene(args.scene, args.seed)
    solver_config = _solver_config(scene, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    pbd_layout, pbd_trace = synthesize(scene, solver_config)
    pbd_time = time.perf_counter() - start
    start = time.perf_counter()
    mcmc_layout, mcmc_trace = run_sa_mcmc(scene, _anneal_config(args))
    mcmc_time = time.perf_counter() - start
    _write_trace_csv(out / "compare.csv", {"pbd": pbd_trace, "mcmc": mcmc_trace})
    _write_json(out / "compare_meta.json", {
        "scene": args.scene,
        "seed": args.seed,
        "pbd_best_energy": pbd_trace.best_energy,
        "mcmc_best_energy": mcmc_trace.best_energy,
        "pbd_iterations": len(pbd_trace.energies) - 1,
        "mcmc_iterations": len(mcmc_trace.energies) - 1,
    })
    with open(out / "pbd.svg", "w", encoding="utf-8") as handle:
        handle.write(render_svg(scene, pbd_layout, _render_options(args)))
    with open(out / "mcmc.svg", "w", encoding="utf-8") as handle:
        handle.write(render_svg(scene, mcmc_layout, _render_options(args)))
    print(f"pbd:  E={pbd_trace.best_energy:.6g} in {pbd_time:.2f} s")
    print(f"mcmc: E={mcmc_trace.best_energy:.6g} in {mcmc_time:.2f} s")
    return 0


def cmd_validate(args) -> int:
    try:
        scene = _resolve_scene(args.scene, seed=0)
    except (CliError, ValueError) as exc:
        print(f"invalid scene: {exc}", file=sys.stderr)
        return 2
    print(f"{args.scene}: valid ({len(scene.objects)} objects, "
          f"{len(scene.constraints)} constraints)")
    return 0


def cmd_export(args) -> int:
    scene = build(args.scene, seed=args.seed)
    save_scene(scene, args.out)
    print(f"wrote {args.out}")
    return 0


def _add_render_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--show-access", action="store_true", help="overlay accessibility zones")
    parser.add_argument("--show-circles", action="store_true", help="overlay bounding circles")
    parser.add_argument("--show-lanes", action="store_true", help="overlay traffic lanes")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layoutsynth",
        description="Constraint-projection layout synthesis with an annealing baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize one layout")
    p.add_argument("scene", help="scene file or template name")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--mode", choices=("pbd", "mcmc"), default="pbd")
    p.add_argument("--iters", type=_non_negative_int, default=0,
                   help="override the iteration budget")
    p.add_argument("--out", default="out")
    p.add_argument("--broad-phase", choices=("hash", "naive"), default=None)
    _add_render_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("suggest", help="independent runs from different seeds")
    p.add_argument("scene")
    p.add_argument("--seeds", type=_positive_int, default=4, help="number of runs")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="first seed")
    p.add_argument("--iters", type=_non_negative_int, default=0)
    p.add_argument("--out", default="suggestions")
    _add_render_flags(p)
    p.set_defaults(func=cmd_suggest)

    p = sub.add_parser("compare", help="run both optimizers from identical starts")
    p.add_argument("scene")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--iters", type=_non_negative_int, default=0,
                   help="override both iteration budgets")
    p.add_argument("--out", default="compare")
    _add_render_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="check a scene file or template")
    p.add_argument("scene")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("export", help="write a template to a scene file")
    p.add_argument("scene", choices=TEMPLATE_NAMES)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SceneFormatError,) as exc:
        print(f"invalid scene: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
