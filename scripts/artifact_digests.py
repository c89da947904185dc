"""Print a sha256 digest for every artifact of a fixed list of CLI runs.

A refactor that claims byte-identical behaviour must print the same
lines as its parent commit. The tables below declare the runs, in the
order of the output; a new edit of living_room's export is one
``LIVING_ROOM_FILES`` row. The runs execute in a temporary directory
with relative scene references, so no artifact records where it was
written.

The output starts with a header naming the Python and numpy versions,
since float results may differ under others. ``artifact_digests.txt``
beside this script holds the output of the committed code; a change
that alters output regenerates it in the same commit, and the file's
diff lists what changed:

    python scripts/artifact_digests.py > scripts/artifact_digests.txt
    python scripts/artifact_digests.py --check scripts/artifact_digests.txt

``--check FILE`` exits 1 when this interpreter's versions differ from
the file's header, naming both, and otherwise when the output differs
from the file, printing a unified diff.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from layoutsynth import cli, sceneio, scenes  # noqa: E402

TEMPLATE_SEEDS = {
    "theater1": (0, 1),
    "theater2": (0, 1),
    "picnic": (0, 1, 2),
    "living_room": (0, 1, 2),
    "desk": (0, 1, 2),
    # 1202413557: the first attempt ends infeasible and one restart
    # rescues the solve
    "tp_bedroom": (0, 1, 2, 1202413557),
    "tp_picnic": (0, 1),
}
MCMC_TEMPLATES = ("living_room", "desk", "tp_bedroom", "tp_picnic")
# (scene, seed, iterations or None) drawn with every overlay: theater2's
# curve tiers, zones and lanes, and living_room's variants for a lane
# whose focal is not pinned
OVERLAY_RUNS = (("theater2", 0, 20), ("living_room_variants.json", 0, None))
OVERLAY_FLAGS = ("--show-access", "--show-circles", "--show-lanes")
# (template, seed) solved again with ``--broad-phase naive``: piles,
# rigid groups and collisions off. Each run's layout, svg and trace must
# equal its hash twin's above; only run_meta.json names the broad phase
NAIVE_RUNS = (("desk", 0), ("tp_bedroom", 1), ("theater2", 0))
# (template, seed) exported to a scene file and solved from it: rigid
# groups whose member offsets and a solver block pass the parser. Each
# run's layout, svg and trace must equal its template twin's above
FILE_TWINS = (("tp_bedroom", 1), ("tp_picnic", 0))
TWIN_ARTIFACTS = ("layout.json", "layout.svg", "trace.csv")
# theater2's tiers read back from scene files, as file stem -> template
# parameters: the segment tiers, which no template name reaches, and
# the template's own arc tiers, so both curve kinds pass the parser
TIER_FILES = {
    "theater2_seg1": {"style": "seg", "pathways": 1},
    "theater2_arc2": {"style": "arc", "pathways": 2},
}
# theater1 at the largest size of acceptance criterion 7's scaling
# series, at that criterion's iteration budget
THEATER1_CHAIRS = 400
THEATER1_ITERS = 60

# constraint variants no template uses, added to living_room's own:
# focal symmetry, inequality distances, an unpinned focal point and
# traffic lane, a fixed orientation and a heat point at a given point
VARIANT_CONSTRAINTS = [
    {"kind": "focal_symmetry", "objects": ["tv", "armchair_0", "armchair_1"], "vector": [0, 1]},
    {"kind": "pairwise_distance", "objects": ["armchair_0", "armchair_1"], "distance": 1.5,
     "relation": "inequality"},
    {"kind": "focal_point", "objects": ["plant_0", "tv"], "distance": 2.0,
     "relation": "inequality", "pin_focal": False},
    {"kind": "wall_distance", "objects": ["coffee_table"], "distance": 1.0,
     "relation": "inequality"},
    {"kind": "traffic_lane", "objects": ["coat_rack", "door"], "distance": 0.8,
     "vector": [1, 0], "pin_focal": False},
    {"kind": "pairwise_orientation", "objects": ["plant_1", "bookcase"],
     "orientation_mode": "fixed", "angle_target_deg": 30},
    {"kind": "heat_point", "objects": ["plant_0", "plant_1"], "point": [1, 1]},
]


def _move(doc: dict, shift: tuple[float, float], degrees: float) -> None:
    """Rotate the room and every object pose about the centre of the
    room's bounds by ``degrees``, then shift them."""
    xs, ys = zip(*doc["room"]["boundary"])
    cx, cy = 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys))
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))

    def move(x: float, y: float) -> list[float]:
        return [cx + c * (x - cx) - s * (y - cy) + shift[0],
                cy + s * (x - cx) + c * (y - cy) + shift[1]]

    doc["room"]["boundary"] = [move(x, y) for x, y in doc["room"]["boundary"]]
    for obj in doc["objects"]:
        pose = obj["pose"]
        pose["x"], pose["y"] = move(pose["x"], pose["y"])
        pose["theta_deg"] += degrees


def _schedule(doc: dict) -> None:
    """Give every other constraint (none of them stacking) a stiffness
    schedule of its own in place of its kind's."""
    overrides = [("increasing", 0.3, 2.0), ("decreasing", 0.5, 4.0), ("constant", 0.7, 1.0)]
    for con_doc, (schedule, k0, rate) in zip(doc["constraints"][::2], overrides * 10):
        con_doc.update(schedule=schedule, stiffness=k0, rate=rate)


def _fix(doc: dict, poses: dict[str, tuple[float, float, float]]) -> None:
    """Fix the objects that ``poses`` names at its (x, y, theta in degrees),
    or every object where the export puts it when ``poses`` is empty."""
    for obj in doc["objects"]:
        if not poses or obj["id"] in poses:
            obj["fixed"] = True
        if obj["id"] in poses:
            x, y, degrees = poses[obj["id"]]
            obj["pose"].update(x=x, y=y, theta_deg=degrees)


# living_room's export after an edit, as file stem -> (edit of the scene
# document, seeds), solved from <stem>.json in this order
LIVING_ROOM_FILES = {
    # per-constraint stiffness schedules, which no template sets
    "living_room_schedules": (_schedule, (0,)),
    "living_room_variants": (lambda doc: doc["constraints"].extend(VARIANT_CONSTRAINTS), (0, 1)),
    # far from the origin, where rounding is coarser and a rectangle's
    # sides decide containment less often
    "living_room_far": (lambda doc: _move(doc, (5000.0, -3000.0), 0.0), (0, 1)),
    # turned off the axes: no rectangle, so only the per-wall measure decides
    "living_room_turned": (lambda doc: _move(doc, (0.0, 0.0), 30.0), (0, 1)),
    # L-shaped: every containment test goes through the per-wall measure
    # and the ray-cast Room.contains
    "living_room_l": (lambda doc: doc["room"].update(
        boundary=[[0, 0], [8, 0], [8, 4], [5.5, 4], [5.5, 6], [0, 6]]), (0, 1)),
    # 6.5 x 5 m with a 2.5 x 3 m notch that holds the centroid (3.25,
    # 2.2), so the boundary projection's centroid fallback runs (and
    # logs its warning on stderr)
    "living_room_notched": (lambda doc: doc["room"].update(boundary=[
        [0, 0], [6.5, 0], [6.5, 5], [4.5, 5], [4.5, 2], [2, 2], [2, 5], [0, 5]]), (0, 1)),
    # the tv and the door fixed apart, so the solver (and the annealer
    # below) move the rest around two fixed objects
    "living_room_fixed2": (
        lambda doc: _fix(doc, {"tv": (0.65, 2.5, 0.0), "door": (3.25, 0.5, 90.0)}), (0,)),
    # every object fixed at the room's centre: no attempt is feasible,
    # and none draws a pose
    "living_room_all_fixed": (lambda doc: _fix(doc, {}), (0,)),
}


def _write_living_room(stem: str, edit) -> None:
    """Write living_room's export, after ``edit`` changed its document in
    place, to ``<stem>.json``."""
    doc = json.loads(sceneio.serialize_scene(scenes.living_room()))
    edit(doc)
    Path(f"{stem}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code:
        raise SystemExit(f"layoutsynth {' '.join(argv)} exited with {code}")


def _synth(scene: str, seed: int, out: str, *flags: str) -> tuple[str, ...]:
    return ("synth", scene, "--seed", str(seed), *flags, "--out", out)


def _runs() -> list[tuple[str, ...]]:
    """The CLI argument lists to run, after writing the scene files that
    they read."""
    runs = [_synth(name, seed, f"{name}_s{seed}")
            for name, seeds in TEMPLATE_SEEDS.items() for seed in seeds]
    runs += [("synth", name, "--mode", "mcmc", "--out", f"{name}_mcmc") for name in MCMC_TEMPLATES]
    runs += [_synth(name, seed, f"{name}_naive_s{seed}", "--broad-phase", "naive")
             for name, seed in NAIVE_RUNS]
    for name, seed in FILE_TWINS:
        sceneio.save_scene(scenes.build(name, seed=seed), f"{name}_s{seed}.json")
        runs.append(_synth(f"{name}_s{seed}.json", seed, f"{name}_file_s{seed}"))
    for name, params in TIER_FILES.items():
        sceneio.save_scene(scenes.build("theater2", params), f"{name}.json")
        runs.append(_synth(f"{name}.json", 0, f"{name}_s0"))
    name = f"theater1_{THEATER1_CHAIRS}"
    sceneio.save_scene(scenes.build("theater1", {"chair_count": THEATER1_CHAIRS}), f"{name}.json")
    runs.append(_synth(f"{name}.json", 0, f"{name}_s0", "--iters", str(THEATER1_ITERS)))
    for stem, (edit, seeds) in LIVING_ROOM_FILES.items():
        _write_living_room(stem, edit)
        runs += [_synth(f"{stem}.json", seed, f"{stem}_s{seed}") for seed in seeds]
        if stem == "living_room_variants":  # the overlay runs read it next
            for scene, seed, iters in OVERLAY_RUNS:
                budget = ("--iters", str(iters)) if iters else ()
                runs.append(_synth(scene, seed, f"{scene.removesuffix('.json')}_overlays_s{seed}",
                                   *budget, *OVERLAY_FLAGS))
    runs.append(("synth", "living_room_fixed2.json", "--mode", "mcmc", "--out",
                 "living_room_fixed2_mcmc"))
    runs.append(("suggest", "picnic", "--seeds", "2", "--out", "picnic_suggest"))
    runs.append(("compare", "living_room", "--seed", "0", "--out", "living_room_compare"))
    return runs


def header() -> str:
    """The first line of the output: the versions the digests hold for."""
    return f"# python {platform.python_version()}, numpy {np.__version__}"


def digest_lines() -> list[str]:
    """One ``<sha256>  <artifact>`` line per artifact of the runs, after
    checking that every twin's artifacts equal its twin's."""
    home = os.getcwd()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in _runs():
                _cli(*argv)
                out = Path(argv[argv.index("--out") + 1])
                for path in sorted(out.iterdir()):
                    digests[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
        finally:
            os.chdir(home)
    twins = [(f"{name}_naive_s{seed}", f"{name}_s{seed}", "hash") for name, seed in NAIVE_RUNS]
    twins += [(f"{name}_file_s{seed}", f"{name}_s{seed}", "template") for name, seed in FILE_TWINS]
    for run, twin, label in twins:
        for artifact in TWIN_ARTIFACTS:
            ours, theirs = f"{run}/{artifact}", f"{twin}/{artifact}"
            if digests[ours] != digests[theirs]:
                raise SystemExit(f"{ours} differs from its {label} twin {theirs}")
    return [f"{digest}  {path}" for path, digest in digests.items()]


def check(path: str) -> int:
    """0 when this tree prints the file's lines under the file's
    versions; otherwise 1, after naming both versions or printing the
    unified diff from the file to this tree's output."""
    expected = Path(path).read_text(encoding="utf-8").splitlines()
    if not expected or expected[0] != header():
        found = expected[0] if expected else "(an empty file)"
        print(f"{path} was generated under {found.removeprefix('# ')}, and this is "
              f"{header().removeprefix('# ')}; regenerate it and say so", file=sys.stderr)
        return 1
    actual = [header(), *digest_lines()]
    diff = list(difflib.unified_diff(expected, actual, path, "this tree", lineterm=""))
    if diff:
        print("\n".join(diff))
        return 1
    print(f"{len(actual) - 1} artifacts byte-identical to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare the output with FILE instead of printing it")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    print("\n".join([header(), *digest_lines()]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
