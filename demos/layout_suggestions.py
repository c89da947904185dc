"""
Many rooms from many seeds
==========================

The solver is deterministic per seed, so layout variety comes from
re-running with different random initializations. This fans a handful of
seeds over the tightly packed bedroom and renders one SVG each.
"""

from pathlib import Path

from layoutsynth import SolverConfig, build, render_svg, synthesize

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

scene = build("tp_bedroom")
print(f"bedroom: {len(scene.objects)} objects, {len(scene.groups)} rigid bunk groups")

for seed in range(4):
    layout, trace = synthesize(scene, SolverConfig(seed=seed))
    path = out_dir / f"bedroom_seed{seed}.svg"
    path.write_text(render_svg(scene, layout))
    print(f"seed {seed}: E={trace.best_energy:7.3f}  -> {path.name}")

print("\nopen the SVGs side by side: same constraints, different rooms")
