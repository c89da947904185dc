"""Layout synthesis by iterative constraint projection, with a
simulated-annealing baseline, benchmark scenes, scene file IO, and
overhead SVG rendering."""

from .annealer import AnnealConfig, accept, run_sa_mcmc
from .constraints import Constraint, update_stiffness
from .geometry import Curve, Vec2
from .model import (
    AccessRegion,
    BoundingBox,
    Group,
    LayoutObject,
    Particle,
    Room,
    Scene,
    mass_from_bbox,
    nearest_wall_point,
)
from .render import RenderOptions, render_svg
from .sceneio import SceneFormatError, load_scene, parse_scene, save_scene, serialize_scene
from .scenes import build, scaling_series
from .solver import (
    EnergyTrace,
    SolverConfig,
    evaluate_energy,
    initialize,
    step,
    synthesize,
)

__all__ = [
    "AccessRegion",
    "AnnealConfig",
    "BoundingBox",
    "Constraint",
    "Curve",
    "EnergyTrace",
    "Group",
    "LayoutObject",
    "Particle",
    "RenderOptions",
    "Room",
    "Scene",
    "SceneFormatError",
    "SolverConfig",
    "Vec2",
    "accept",
    "build",
    "evaluate_energy",
    "initialize",
    "load_scene",
    "mass_from_bbox",
    "nearest_wall_point",
    "parse_scene",
    "render_svg",
    "run_sa_mcmc",
    "save_scene",
    "scaling_series",
    "serialize_scene",
    "step",
    "synthesize",
    "update_stiffness",
]

__version__ = "0.1.0"
