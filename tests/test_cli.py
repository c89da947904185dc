import argparse
import csv
import dataclasses
import json
from types import SimpleNamespace

import pytest

from layoutsynth import cli, sceneio
from layoutsynth.cli import main
from layoutsynth.sceneio import save_scene
from layoutsynth.scenes import build
from layoutsynth.solver import SolverConfig


def run(argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert run(["synth", "living_room", "--seed", "3", "--iters", "40", "--out", out]) == 0
        for name in ("layout.json", "layout.svg", "trace.csv", "run_meta.json"):
            assert (out / name).exists()

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "desk", "--seed", "5", "--iters", "60", "--out", a])
        run(["synth", "desk", "--seed", "5", "--iters", "60", "--out", b])
        for name in ("layout.json", "layout.svg", "trace.csv", "run_meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_layout_json_contents(self, tmp_path):
        out = tmp_path / "run"
        run(["synth", "living_room", "--seed", "1", "--iters", "40", "--out", out])
        doc = json.loads((out / "layout.json").read_text())
        assert set(doc["objects"]) == {o.id for o in build("living_room").objects}
        for pose in doc["objects"].values():
            assert set(pose) == {"x", "y", "z", "theta_deg"}

    def test_scene_file_before_template(self, tmp_path, monkeypatch):
        # a file named like a template is read as the file
        monkeypatch.chdir(tmp_path)
        save_scene(build("living_room"), "desk")
        assert run(["synth", "desk", "--iters", "5", "--out", "out"]) == 0
        doc = json.loads((tmp_path / "out" / "layout.json").read_text())
        assert set(doc["objects"]) == {o.id for o in build("living_room").objects}
        assert set(doc["objects"]) != {o.id for o in build("desk").objects}

    def test_trace_csv_best_energy_monotone(self, tmp_path):
        out = tmp_path / "run"
        run(["synth", "living_room", "--seed", "2", "--iters", "50", "--out", out])
        with open(out / "trace.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        best = [float(r["pbd_best_energy"]) for r in rows]
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))
        energies = [float(r["pbd_energy"]) for r in rows]
        assert best[-1] == min(energies)

    def test_run_meta_records_configuration(self, tmp_path):
        out = tmp_path / "run"
        run(["synth", "living_room", "--seed", "7", "--iters", "40", "--out", out])
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["energy_weights"] == {
            "accessibility": 150.0, "boundary": 150.0, "collision": 150.0,
            "wall_distance": 20.0, "wall_orientation": 20.0,
        }
        assert meta["default_weight"] == 1.0
        relax = {"schedule": "decreasing", "initial": 0.9, "rate": 10.0}
        stiffen = {"schedule": "increasing", "initial": 0.9, "rate": 10.0}
        hard = {"schedule": "constant", "initial": 1.0, "rate": 1.0}
        assert meta["stiffness_schedules"] == {
            "pairwise_distance": relax, "focal_point": relax, "traffic_lane": stiffen,
            "heat_point": relax, "focal_symmetry": relax, "visual_balance": relax,
            "wall_distance": hard, "accessibility": stiffen, "collision": stiffen,
            "wall_ghost_collision": stiffen, "pairwise_orientation": relax,
            "wall_orientation": hard, "stacking": hard, "boundary": hard, "group_curve": relax,
        }
        assert meta["solver"] == {
            "max_iterations": 40, "termination_window": 50, "broad_phase": "hash",
            "feasibility_tolerance": 1e-6,
        }
        assert "annealer" not in meta
        assert "degenerate_separations" in meta
        with open(out / "trace.csv") as handle:
            header = next(csv.reader(handle))
        assert header == ["iteration", "pbd_energy", "pbd_best_energy"] + [
            f"pbd_{kind}" for kind in (
                "pairwise_distance", "focal_point", "traffic_lane", "heat_point",
                "focal_symmetry", "visual_balance", "wall_distance", "accessibility",
                "collision", "wall_ghost_collision", "pairwise_orientation",
                "wall_orientation", "stacking", "boundary", "group_curve",
            )
        ]

    def test_mcmc_run_meta_records_configuration(self, tmp_path):
        out = tmp_path / "run"
        run(["synth", "living_room", "--seed", "7", "--mode", "mcmc", "--iters", "40",
             "--out", out])
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["mode"] == "mcmc"
        # null: derived per run from the initial energy and the room
        assert meta["annealer"] == {
            "total_iterations": 40, "t_initial": None, "t_final": 0.001,
            "stall_window": 1500, "stall_threshold": 0.001, "sigma_pos": None,
            "sigma_theta": 0.2617993877991494,
        }
        assert "solver" not in meta

    def test_mcmc_mode(self, tmp_path):
        out = tmp_path / "mcmc"
        assert run(["synth", "living_room", "--seed", "1", "--mode", "mcmc",
                    "--iters", "800", "--out", out]) == 0
        with open(out / "trace.csv") as handle:
            header = handle.readline()
        assert "mcmc_energy" in header

    def test_scene_file_argument(self, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(build("desk"), path)
        out = tmp_path / "run"
        assert run(["synth", path, "--seed", "1", "--iters", "30", "--out", out]) == 0


class TestCompare:
    def test_shared_iteration_index_columns(self, tmp_path):
        out = tmp_path / "cmp"
        assert run(["compare", "living_room", "--seed", "2", "--iters", "40", "--out", out]) == 0
        with open(out / "compare.csv") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = list(reader)
        assert header[0] == "iteration"
        assert "pbd_energy" in header and "mcmc_energy" in header
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        meta = json.loads((out / "compare_meta.json").read_text())
        assert {"pbd_best_energy", "mcmc_best_energy"} <= set(meta)
        assert meta["mcmc_iterations"] <= 40


class TestValidate:
    def test_valid_template(self, capsys):
        assert run(["validate", "picnic"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"room": {"boundary": [[0,0],[1,0]]}}')
        assert run(["validate", bad]) == 2
        assert "invalid" in capsys.readouterr().err

    def test_unknown_scene_exit_2(self):
        assert run(["validate", "atlantis"]) == 2

    def test_syntax_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["validate", bad]) == 2

    def test_fixed_member_of_rigid_group_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bedroom.json"
        save_scene(build("tp_bedroom"), path)
        doc = json.loads(path.read_text())
        next(o for o in doc["objects"] if o["id"] == "bed_0")["fixed"] = True
        path.write_text(json.dumps(doc))
        assert run(["validate", path]) == 2
        assert "groups[0]: rigid group 'bunk_0' would move fixed object 'bed_0'" in capsys.readouterr().err

    def test_bad_solver_block_exit_2(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        save_scene(build("living_room"), path)
        doc = json.loads(path.read_text())
        doc["solver"] = {"max_iterations": "many"}
        path.write_text(json.dumps(doc))
        assert run(["validate", path]) == 2
        assert "solver.max_iterations" in capsys.readouterr().err
        assert run(["synth", path, "--out", tmp_path / "run"]) == 2


class TestSuggest:
    def test_one_svg_per_seed(self, tmp_path):
        out = tmp_path / "sugg"
        assert run(["suggest", "living_room", "--seeds", "3", "--iters", "30", "--out", out]) == 0
        files = sorted(p.name for p in out.glob("*.svg"))
        assert files == ["layout_seed0.svg", "layout_seed1.svg", "layout_seed2.svg"]

    def test_follows_scene_solver_defaults_like_synth(self, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(build("living_room"), path)
        doc = json.loads(path.read_text())
        doc["solver"] = {"max_iterations": 5}
        path.write_text(json.dumps(doc))
        assert run(["synth", path, "--seed", "1", "--out", tmp_path / "synth"]) == 0
        assert run(["suggest", path, "--seed", "1", "--seeds", "1", "--out", tmp_path / "sugg"]) == 0
        synth_svg = (tmp_path / "synth" / "layout.svg").read_bytes()
        assert (tmp_path / "sugg" / "layout_seed1.svg").read_bytes() == synth_svg

    def test_suggestions_differ_between_seeds(self, tmp_path):
        out = tmp_path / "sugg"
        run(["suggest", "living_room", "--seeds", "2", "--iters", "30", "--out", out])
        a = (out / "layout_seed0.svg").read_bytes()
        b = (out / "layout_seed1.svg").read_bytes()
        assert a != b


@pytest.mark.parametrize("argv, rule", [
    (["suggest", "living_room", "--seeds", "-2"], "--seeds: '-2' is not a positive integer"),
    (["suggest", "living_room", "--seeds", "0"], "--seeds: '0' is not a positive integer"),
    (["suggest", "living_room", "--seeds", "2.0"], "--seeds: '2.0' is not a positive integer"),
    (["synth", "living_room", "--seed", "-1"], "--seed: '-1' is not a non-negative integer"),
    (["synth", "living_room", "--iters", "-3"], "--iters: '-3' is not a non-negative integer"),
    (["suggest", "picnic", "--seed", "1.5"], "--seed: '1.5' is not a non-negative integer"),
    (["suggest", "picnic", "--iters", "x"], "--iters: 'x' is not a non-negative integer"),
    (["compare", "desk", "--seed", "-2"], "--seed: '-2' is not a non-negative integer"),
    (["compare", "desk", "--iters", "2.0"], "--iters: '2.0' is not a non-negative integer"),
    (["export", "desk", "--seed", "-1"], "--seed: '-1' is not a non-negative integer"),
])
def test_run_counts_must_be_positive(argv, rule, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert f"argument {rule}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["suggest", "compare"])
def test_only_synth_takes_broad_phase(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "desk", "--broad-phase", "naive", "--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --broad-phase naive" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_parser_lists_the_five_commands():
    parser = cli.make_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == ["synth", "suggest", "compare", "validate", "export"]


def test_bench_is_a_usage_error(capsys):
    # timing lives in the scaling criterion and perfbench/
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--scene", "theater1"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["suggest", "compare", "validate"])
def test_scene_file_before_template(command, tmp_path, monkeypatch):
    # every command reads a file named like a template as the file
    monkeypatch.chdir(tmp_path)
    save_scene(build("living_room"), "desk")
    resolve, scenes = cli._resolve_scene, []
    monkeypatch.setattr(cli, "_resolve_scene",
                        lambda ref, seed: scenes.append(resolve(ref, seed)) or scenes[-1])
    argv = [command, "desk"]
    if command != "validate":
        argv += ["--iters", "2", "--out", "out"] + (["--seeds", "1"] if command == "suggest" else [])
    assert run(argv) == 0
    assert [{o.id for o in s.objects} for s in scenes] == [{o.id for o in build("living_room").objects}]


@pytest.mark.parametrize("command", ["synth", "suggest", "compare", "validate"])
def test_directory_named_like_a_template_is_no_scene_file(command, tmp_path, monkeypatch):
    # a run's --out named like a template does not hide the template
    monkeypatch.chdir(tmp_path)
    (tmp_path / "desk").mkdir()
    resolve, scenes = cli._resolve_scene, []
    monkeypatch.setattr(cli, "_resolve_scene",
                        lambda ref, seed: scenes.append(resolve(ref, seed)) or scenes[-1])
    argv = [command, "desk"]
    if command != "validate":
        argv += ["--iters", "2", "--out", "out"] + (["--seeds", "1"] if command == "suggest" else [])
    assert run(argv) == 0
    assert [{o.id for o in s.objects} for s in scenes] == [{o.id for o in build("desk").objects}]


def test_synth_into_a_template_named_directory_twice(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert run(["synth", "desk", "--iters", "5", "--out", "desk"]) == 0
    assert run(["validate", "desk"]) == 0


def test_mcmc_takes_no_broad_phase(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "desk", "--mode", "mcmc", "--broad-phase", "naive", "--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert "--broad-phase applies only to --mode pbd" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_every_scene_solver_key_reaches_the_config():
    # a key the parser accepts but SolverConfig lacks would reach users
    # as a TypeError traceback, which main does not catch
    block = {"max_iterations": 5, "termination_window": 3}
    assert set(block) == set(sceneio._SOLVER_FIELDS)
    assert set(block) <= {f.name for f in dataclasses.fields(SolverConfig)}
    doc = json.loads(sceneio.serialize_scene(build("desk")))
    doc["solver"] = block
    config = cli._solver_config(sceneio.parse_scene(json.dumps(doc)), SimpleNamespace())
    assert {key: getattr(config, key) for key in block} == block


class TestExport:
    def test_export_then_validate(self, tmp_path):
        path = tmp_path / "lr.json"
        assert run(["export", "living_room", "--out", path]) == 0
        assert run(["validate", path]) == 0


@pytest.mark.parametrize("argv", [
    ["synth", "nowhere.json"],
    ["suggest", "nowhere.json"],
    ["compare", "nowhere.json"],
], ids=lambda argv: argv[0])
def test_unknown_scene_is_runtime_error(argv, tmp_path, capsys):
    # the scene is resolved before --out is made
    assert run(argv + ["--out", tmp_path / "x"]) == 1
    assert "'nowhere.json' is neither a file nor a template" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
