"""Self-tests of the benchmark: the tail-percentile rule, the output
checker, and that tracing leaves the program as it found it.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import harness  # noqa: E402
from layoutsynth import annealer, constraints, render, sceneio, scenes, solver, spatial  # noqa: E402
from tracer import Tracer, solve_layers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "n, percentile, value, above",
    [
        (100, 90.0, 90, 10),   # p90 has exactly ten above
        (99, 50.0, 50, 49),    # one fewer and p90 has nine: fall to p50
        (1000, 99.0, 990, 10),
        (999, 90.0, 900, 99),
        (10_000, 99.9, 9990, 10),
        (20, 50.0, 10, 10),
        (5, 50.0, 3, 2),       # too few for any tail: p50, and the count says so
    ],
)
def test_tail_percentile_needs_ten_above(n, percentile, value, above):
    values = list(range(n, 0, -1))  # order must not matter
    assert harness.tail_percentile(values) == (value, percentile, above)


def _solved_bedroom():
    scene = scenes.build("tp_bedroom")
    layout, _ = solver.synthesize(scene, harness.solver_config(scene, 0))
    return scene, [list(pose) for pose in layout]


def test_checker_passes_solver_output_and_flags_planted_faults():
    scene, layout = _solved_bedroom()
    tolerance = solver.SolverConfig().feasibility_tolerance
    assert not harness.check_layout(scene, layout, tolerance)["infeasible"]

    chair_0 = scene.object_by_id("chair_0").particle_index
    chair_1 = scene.object_by_id("chair_1").particle_index
    overlapping = [list(pose) for pose in layout]
    overlapping[chair_1] = list(overlapping[chair_0])
    result = harness.check_layout(scene, overlapping, tolerance)
    assert result["infeasible"] and result["max_overlap"] > 0.1

    outside = [list(pose) for pose in layout]
    min_x, min_y, max_x, max_y = scene.room.bounds()
    outside[chair_0][:2] = [max_x + 1.0, 0.5 * (min_y + max_y)]
    result = harness.check_layout(scene, outside, tolerance)
    assert result["infeasible"] and result["max_boundary"] > 1.0


def test_config_follows_scene_defaults():
    picnic = scenes.build("tp_picnic", seed=3)
    assert harness.solver_config(picnic, 7).max_iterations == 270
    assert harness.solver_config(picnic, 7).seed == 7


def _attributes():
    owners = (annealer, constraints, render, sceneio, scenes, solver, spatial, spatial.SpatialHash)
    return {(owner.__name__, name): value
            for owner in owners for name, value in list(vars(owner).items())}


@pytest.mark.parametrize("workload, jobs", [
    ("small_rooms", None),
    ("anneal", [("living_room", 5)]),
])
def test_traced_pass_restores_attributes_and_matches_untraced(workload, jobs):
    plan = harness.make_plan(harness.WORKLOADS[workload], seed=1)
    if jobs is not None:
        plan.jobs = jobs
    else:
        plan.jobs = plan.jobs[:4]  # one solver seed over every scene
    built = harness.build_scenes(plan)
    before = _attributes()

    plain, _ = harness.run_pass(plan.workload, built, plan.jobs)
    tracer = Tracer()
    with tracer:
        wrapped = list(tracer._saved)
        assert all(getattr(owner, name) is not original for owner, name, original in wrapped)
        traced, _ = harness.run_pass(plan.workload, built, plan.jobs, tracer)

    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert {(owner.__name__, name) for owner, name, _ in wrapped} >= {
        ("layoutsynth.solver", "evaluate_energy"), ("layoutsynth.annealer", "evaluate_energy"),
        ("layoutsynth.solver", "SolveContext"), ("layoutsynth.annealer", "SolveContext"),
    }
    assert not any(s.error for s in plain + traced)
    assert [s.digest for s in traced] == [s.digest for s in plain]

    layers = solve_layers(tracer, sum(s.seconds for s in traced))
    assert set(layers) | {"scenes.build_s", "sceneio.parse_s", "trace.overhead_ratio"} == {
        m["name"] for m in SPEC["per_layer"]}
    assert layers["solver.energy_calls"][0] > 0
    if plan.workload.mode == "sa":
        assert layers["annealer.proposals"][0] > 0 and layers["solver.steps"][0] == 0
    else:
        assert layers["solver.steps"][0] > 0 and layers["annealer.proposals"][0] == 0


def test_solve_gmean_takes_each_jobs_median():
    jobs = [
        {"scene": "desk", "refs": [1.0, 9.0, 2.0]},  # a job's repeats: median 2
        {"scene": "tp_picnic_7", "refs": [8.0]},
    ]
    assert harness.solve_gmean(jobs) == pytest.approx(4.0)  # sqrt(2 * 8)


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    plan = harness.make_plan(harness.WORKLOADS["small_rooms"], seed=0)
    assert plan.jobs == harness.make_plan(harness.WORKLOADS["small_rooms"], seed=0).jobs
    assert plan.jobs != harness.make_plan(harness.WORKLOADS["small_rooms"], seed=1).jobs
    solves = [harness.Solve("a", 0, 1.0, "d", 1.0, reference_s=0.1),
              harness.Solve("a", 0, 2.0, "d", 1.0, reference_s=0.1)]
    check = {"jobs": [{"scene": "a", "seed": 0, "infeasible": False, "best_energy": 1.0,
                       "seconds": [1.0, 2.0], "refs": [10.0, 20.0]}], "mismatches": []}
    result = harness.end_to_end(harness.WORKLOADS["tiers"], solves, check, setup_s=0.5)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(result["metrics"])
    assert result["metrics"]["solve_gmean_ref"] == (15.0, "ref")
