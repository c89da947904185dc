"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them)."""

import math
import time

import numpy as np
import pytest

from layoutsynth import constraints as cn
from layoutsynth.annealer import AnnealConfig, run_sa_mcmc
from layoutsynth.cli import main as cli_main
from layoutsynth.geometry import Vec2, wrap_angle
from layoutsynth.model import (
    INFINITE, AccessRegion, BoundingBox, Group, LayoutObject, Particle, Room, Scene,
    nearest_wall_point,
)
from layoutsynth.sceneio import parse_scene, serialize_scene
from layoutsynth.scenes import TEMPLATE_NAMES, build
from layoutsynth.solver import (
    LayoutState,
    SolveContext,
    SolverConfig,
    evaluate_energy,
    synthesize,
    wall_ghost_corrections,
    zone_center,
)
from layoutsynth.spatial import candidate_pairs, rebuild

ROOM = Room([Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(0, 10)])


def _passed(number, message):
    print(f"\nACCEPTANCE {number} PASS: {message}")


def _state_from(layout):
    return LayoutState(
        [p[0] for p in layout], [p[1] for p in layout],
        [p[2] for p in layout], [p[3] for p in layout],
    )


# ---------------------------------------------------------------------------
# 1. projection oracle suite


def corrections(project, *args):
    """The corrections ``project`` writes to its sink, as plain
    (particle, dx, dy, dz, dtheta) tuples; its return value says whether
    it wrote any."""
    out = []
    wrote = project(lambda *c: out.append(c), *args)
    assert wrote == bool(out)
    return out


def _shift(corrs, i):
    """The summed (dx, dy, dz, dtheta) the corrections write to particle i."""
    return tuple(sum(c[k] for c in corrs if c[0] == i) for k in range(1, 5))


def _moved(st, i, corrs):
    """Pose (x, y, z, theta) of particle i after the corrections."""
    dx, dy, dz, dtheta = _shift(corrs, i)
    return st.px[i] + dx, st.py[i] + dy, st.pz[i] + dz, st.theta[i] + dtheta


def _center(st, members, corrs, weights):
    """Weighted center of the members after the corrections."""
    moved = [_moved(st, i, corrs) for i in members]
    cx, cy, _ = cn.weighted_center(
        range(len(moved)), [p[0] for p in moved], [p[1] for p in moved], weights)
    return cx, cy


class _RoundScene:
    """One round's scene in ROOM: a box object per particle, the
    particles ``pin`` holds joined in one fixed rigid group, and the
    constraints ``bind`` hands to a ``SolveContext``."""

    def __init__(self):
        self.scene = Scene(room=ROOM)
        self.poses = []
        self.pinned = []

    def add(self, x, y, mass=1.0, z=0.0, theta=0.0, half=(0.25, 0.25), zone=None):
        """A box of half extents ``half`` at the pose, with a clearance
        zone of diagonal ``zone`` before its front face when given; its
        particle."""
        i = len(self.poses)
        self.scene.particles.append(Particle(Vec2(x, y), mass=mass))
        regions = [AccessRegion(Vec2(0.0, 0.0))] * 4
        if zone is not None:
            regions[2] = AccessRegion(Vec2(half[0] + 0.5 * zone, 0.0), zone)
        self.scene.objects.append(
            LayoutObject(f"o{i}", "box", i, BoundingBox(Vec2(*half), 0.5), tuple(regions)))
        self.poses.append((float(x), float(y), float(z), float(theta)))
        return i

    def pin_all_but_one(self, rng, members):
        """Hold every member but a random one by the fixed group."""
        free = int(rng.integers(len(members)))
        self.pinned += members[:free] + members[free + 1:]

    def constrain(self, kind, particles, **fields):
        c = cn.Constraint(kind, tuple(particles), **fields)
        self.scene.constraints.append(c)
        return c

    def bind(self):
        """The scene's SolveContext and poses."""
        if self.pinned:
            g = len(self.poses)
            self.scene.particles.append(Particle(Vec2(5.0, 5.0), mass=INFINITE))
            self.poses.append((5.0, 5.0, 0.0, 0.0))
            self.scene.groups.append(Group(
                "pinned", g, tuple(f"o{i}" for i in self.pinned),
                member_offsets=((0.0, 0.0, 0.0),) * len(self.pinned)))
        return SolveContext(self.scene), LayoutState(*zip(*self.poses))


def test_criterion_1_projection_oracles():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    checks = 0

    for _ in range(100):
        # one scene per round: the authored kinds bind and project through
        # their SPECS records, the contact kinds through the solver's calls
        r = _RoundScene()

        # pairwise distance, equality, partner anchored; an inequality
        # already satisfied
        pi = rng.uniform(1, 9, 2)
        pj = rng.uniform(1, 9, 2)
        d = rng.uniform(0.1, 4)
        anchor = r.add(*pj, mass=INFINITE)
        pair = r.constrain(cn.PAIRWISE_DISTANCE, (r.add(*pi), anchor), distance=d)
        far = r.add(pj[0] + d + rng.uniform(0.01, 2), pj[1])
        apart = r.constrain(cn.PAIRWISE_DISTANCE, (far, anchor), distance=d,
                            relation=cn.INEQUALITY)

        # focal point: the focal is free, and the record pins it
        focal = r.constrain(cn.FOCAL_POINT, (r.add(*pi), r.add(*pj)), distance=d)

        # traffic lane: the origin is free, and the record pins it
        origin = rng.uniform(2, 8, 2)
        angle = rng.uniform(0, 2 * math.pi)
        v = Vec2(math.cos(angle), math.sin(angle))
        offset = rng.uniform(-0.9, 0.9)
        along = rng.uniform(0.5, 3)
        clearance = rng.uniform(1.0, 2.0)
        lane_origin = r.add(*origin)
        lane = r.constrain(cn.TRAFFIC_LANE, (r.add(
            origin[0] + along * v.x - offset * v.y,
            origin[1] + along * v.y + offset * v.x,
        ), lane_origin), distance=clearance, vector=v)
        clear = r.constrain(cn.TRAFFIC_LANE, (r.add(
            origin[0] + along * v.x - (clearance + 0.5) * v.y,
            origin[1] + along * v.y + (clearance + 0.5) * v.x,
        ), lane_origin), distance=clearance, vector=v)

        # heat point: one free particle among up to four, the others held
        # by the fixed group but weighed by their own masses
        heat_masses = rng.uniform(0.2, 4, int(rng.integers(1, 5))).tolist()
        heat_members = [r.add(*rng.uniform(0, 10, 2), mass=m) for m in heat_masses]
        r.pin_all_but_one(rng, heat_members)
        target = rng.uniform(0, 10, 2)
        heat = r.constrain(cn.HEAT_POINT, heat_members, point=Vec2(*target))

        # focal symmetry, likewise, about a free focal
        sym_masses = rng.uniform(0.2, 4, int(rng.integers(1, 4))).tolist()
        sym_members = [r.add(*rng.uniform(2, 8, 2), mass=m) for m in sym_masses]
        r.pin_all_but_one(rng, sym_members)
        sym = r.constrain(cn.FOCAL_SYMMETRY, [r.add(0.5, 0.5)] + sym_members,
                          vector=Vec2(1, 0.4))

        # visual balance, likewise, weighed by footprint area, not by mass
        areas = rng.uniform(0.2, 4, int(rng.integers(1, 4))).tolist()
        balance_members = [r.add(*rng.uniform(0, 10, 2), mass=rng.uniform(0.3, 3),
                                 half=(0.25 * area, 1.0)) for area in areas]
        r.pin_all_but_one(rng, balance_members)
        balance = r.constrain(cn.VISUAL_BALANCE, balance_members)

        # wall distance; geometry chosen so the same wall stays nearest
        d_wall = rng.uniform(0.1, 3.5)
        wall = r.constrain(cn.WALL_DISTANCE, (r.add(rng.uniform(0.2, 2.0), rng.uniform(4, 6)),),
                           distance=d_wall)
        wall_far = r.constrain(cn.WALL_DISTANCE, (r.add(3.0, 5.0),), distance=1.0,
                               relation=cn.INEQUALITY)

        # pairwise orientation, in a random target mode
        mode = (cn.ORIENT_FACE, cn.ORIENT_MATCH, cn.ORIENT_FIXED)[int(rng.integers(3))]
        orient = r.constrain(
            cn.PAIRWISE_ORIENTATION,
            (r.add(*rng.uniform(1, 9, 2), theta=rng.uniform(0, 2 * math.pi)),
             r.add(*rng.uniform(1, 9, 2), theta=rng.uniform(0, 2 * math.pi))),
            orientation_mode=mode, angle_offset=rng.uniform(-1, 1),
            angle_target=rng.uniform(0, 2 * math.pi))

        # wall orientation
        p_turn = (rng.uniform(0.2, 4.0), rng.uniform(2, 8))
        wall_offset = (0.0, math.pi / 2)[int(rng.integers(2))]
        wall_turn = r.constrain(
            cn.WALL_ORIENTATION, (r.add(*p_turn, theta=rng.uniform(0, 2 * math.pi)),),
            angle_offset=wall_offset)

        # stacking: the base is free, and the record keeps a pile's base
        # on the ground
        zb = rng.uniform(0, 1)
        gap = rng.uniform(0.1, 1)
        pb = rng.uniform(0, 10, 2)
        top = r.add(*(pb + rng.uniform(-1, 1, 2)), z=zb + rng.uniform(-0.5, 0.5))
        stack = r.constrain(cn.STACKING, (r.add(*pb, z=zb), top), height_gap=gap)

        # contact objects: a fixed zone owner and two intruders, placed
        # from its zone once bound; an overlapping pair, the struck one
        # fixed, and a third placed clear of it once bound; two objects
        # hugging the wall x=0, one fixed; one object anywhere near the room
        owner = r.add(*rng.uniform(3, 7, 2), mass=INFINITE, theta=rng.uniform(0, 6),
                      zone=rng.uniform(0.2, 0.8))
        half = tuple(rng.uniform(0.22, 0.5, 2))
        intruder, outsider = r.add(0, 0, half=half), r.add(0, 0, half=half)
        pc = rng.uniform(2, 8, 2)
        half = tuple(rng.uniform(0.3, 1.05, 2))
        hit, clear_of = r.add(*(pc + rng.uniform(-0.5, 0.5, 2)), half=half), r.add(0, 0, half=half)
        struck = r.add(*pc, mass=INFINITE, half=tuple(rng.uniform(0.3, 1.05, 2)))
        y0 = rng.uniform(2, 5)
        hugger = r.add(rng.uniform(0.05, 1.0), y0, half=(0.3, 0.4))
        hugged = r.add(rng.uniform(0.05, 1.0), y0 + rng.uniform(0.0, 0.5), mass=INFINITE,
                       half=(0.3, 0.4))
        boxed = r.add(*rng.uniform(-1, 11, 2), half=tuple(rng.uniform(0.15, 1.05, 2)))

        ctx, st = r.bind()
        px, py = st.px, st.py

        def project(c):
            spec = cn.SPECS[c.kind]
            return corrections(spec.project, spec.bind(c, ctx), st, 1.0, None)

        x, y, _, _ = _moved(st, pair.particles[0], project(pair))
        assert abs(math.hypot(x - pj[0], y - pj[1]) - d) < 1e-9
        assert project(apart) == []

        x, y, _, _ = _moved(st, focal.particles[0], project(focal))
        assert abs(math.hypot(x - pj[0], y - pj[1]) - d) < 1e-9

        x, y, _, _ = _moved(st, lane.particles[0], project(lane))
        t = ((x - origin[0]) * v.x + (y - origin[1]) * v.y) / (v.x * v.x + v.y * v.y)
        assert abs(math.hypot(x - (origin[0] + t * v.x), y - (origin[1] + t * v.y))
                   - clearance) < 1e-9
        assert project(clear) == []

        cx, cy = _center(st, heat_members, project(heat), heat_masses)
        assert 0.5 * ((cx - target[0]) ** 2 + (cy - target[1]) ** 2) < 1e-9

        cx, cy = _center(st, sym_members, project(sym), sym_masses)
        vx, vy = 1.0, 0.4
        t = max(0.0, ((cx - 0.5) * vx + (cy - 0.5) * vy) / (vx * vx + vy * vy))
        assert 0.5 * ((cx - 0.5 - t * vx) ** 2 + (cy - 0.5 - t * vy) ** 2) < 1e-9

        cx, cy = _center(st, balance_members, project(balance), areas)
        assert 0.5 * ((cx - 5.0) ** 2 + (cy - 5.0) ** 2) < 1e-9

        x, y, _, _ = _moved(st, wall.particles[0], project(wall))
        q, _, _ = nearest_wall_point(ROOM, (x, y))
        assert abs(math.hypot(x - q.x, y - q.y) - d_wall) < 1e-9
        assert project(wall_far) == []

        i, j = orient.particles
        new = _moved(st, i, project(orient))[3]
        target_theta = {
            cn.ORIENT_FACE: math.atan2(py[j] - py[i], px[j] - px[i]) + orient.angle_offset,
            cn.ORIENT_MATCH: st.theta[j] + orient.angle_offset,
            cn.ORIENT_FIXED: orient.angle_target,
        }[mode]
        assert abs(wrap_angle(target_theta - new)) < 1e-9

        new = _moved(st, wall_turn.particles[0], project(wall_turn))[3]
        target_theta = cn.wall_orientation_target(ROOM, p_turn, new, wall_offset)
        assert abs(wrap_angle(target_theta - new)) < 1e-9

        x, y, z, _ = _moved(st, top, project(stack))
        assert math.sqrt((z - zb - gap) ** 2 + (x - pb[0]) ** 2 + (y - pb[1]) ** 2) < 1e-9

        # the contact kernels, called as the step calls them
        root, w, radius = ctx.contact_root, ctx.proj_w, ctx.radius
        (cx, cy), diagonal = zone_center(st, ctx, owner, 0)
        px[intruder], py[intruder] = cx + rng.uniform(-0.2, 0.2), cy + rng.uniform(-0.2, 0.2)
        px[outsider], py[outsider] = cx + ctx.b_diag[outsider] + diagonal + 1.0, cy

        def intrude(i, tiebreak=None):
            return corrections(
                cn.project_accessibility, root[i], root[owner], px[i], py[i], w[i], w[owner],
                cx, cy, st.theta[owner], diagonal, ctx.b_diag[i], radius[i], 1.0, tiebreak)

        x, y, _, _ = _moved(st, intruder, intrude(intruder, lambda: (1.0, 0.0)))
        assert abs(math.hypot(x - cx, y - cy) - (ctx.b_diag[intruder] + diagonal)) < 1e-9
        assert intrude(outsider) == []

        px[clear_of], py[clear_of] = px[struck] + radius[clear_of] + radius[struck] + 0.1, py[struck]

        def collide(i, tiebreak=None):
            return corrections(
                cn.project_collision, root[i], root[struck], px[i], py[i], px[struck],
                py[struck], w[i], w[struck], radius[i], radius[struck], 1.0, tiebreak)

        x, y, _, _ = _moved(st, hit, collide(hit, lambda: (0.0, 1.0)))
        assert abs(math.hypot(x - px[struck], y - py[struck]) - (radius[hit] + radius[struck])) \
            < 1e-9
        assert collide(clear_of) == []

        corrs = corrections(wall_ghost_corrections, hugger, hugged, st, ctx, 1.0,
                            lambda: (0.0, 1.0))
        gi, _, _ = nearest_wall_point(ROOM, (px[hugger], py[hugger]))
        gj, _, _ = nearest_wall_point(ROOM, (px[hugged], py[hugged]))
        dx, dy, _, _ = _shift(corrs, hugger)
        assert abs(math.hypot(gi.x + dx - gj.x, gi.y + dy - gj.y)
                   - (radius[hugger] + radius[hugged])) < 1e-9

        corrs = corrections(cn.project_boundary, root[boxed], px[boxed], py[boxed], w[boxed],
                            radius[boxed], ctx.room)
        x, y, _, _ = _moved(st, boxed, corrs)
        assert cn.boundary_violation(ROOM, (x, y), radius[boxed]) < 1e-9
        checks += 14

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(1, f"{checks} randomized projections exact at k=1, "
               f"inequalities inert when satisfied, in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. conservation


def test_criterion_2_two_body_conservation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        pi = rng.uniform(-10, 10, 2)
        pj = rng.uniform(-10, 10, 2)
        mi, mj = rng.uniform(0.1, 10, 2)
        d = rng.uniform(0, 6)
        k = rng.uniform(0, 1)
        corrs = corrections(cn.project_pairwise_distance, 0, 1, *pi, *pj, 1 / mi, 1 / mj, d, k)
        sx = sy = 0.0
        for particle, dx, dy, _, _ in corrs:
            m = mi if particle == 0 else mj
            sx += m * dx
            sy += m * dy
        worst = max(worst, abs(sx), abs(sy))
    assert worst < 1e-9
    _passed(2, f"mass-weighted center preserved over 10^4 cases (worst drift {worst:.2e})")


# ---------------------------------------------------------------------------
# 3. gradient checks


def _finite_diff(f, px, py, j, h=1e-5):
    px1 = list(px); px1[j] += h
    px2 = list(px); px2[j] -= h
    gx = (f(px1, py) - f(px2, py)) / (2 * h)
    py1 = list(py); py1[j] += h
    py2 = list(py); py2[j] -= h
    gy = (f(px, py1) - f(px, py2)) / (2 * h)
    return gx, gy


def _check_center_gradients(rng, weights_from, target_from, configs=100):
    worst = 0.0
    for _ in range(configs):
        n = int(rng.integers(2, 6))
        px = list(rng.uniform(1, 9, n))
        py = list(rng.uniform(1, 9, n))
        weights = weights_from(rng, n)
        target, C = target_from(rng, px, py, weights)
        total = sum(weights)
        cx, cy, _ = cn.weighted_center(range(n), px, py, weights)
        for j in range(n):
            ax, ay = cn.center_target_gradient(weights[j], total, (cx, cy), target)
            nx, ny = _finite_diff(C, px, py, j)
            scale = max(1e-8, math.hypot(nx, ny))
            worst = max(worst, math.hypot(ax - nx, ay - ny) / scale)
    return worst


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(103)

    def masses(rng, n):
        return list(rng.uniform(0.2, 5, n))

    def heat_target(rng, px, py, weights):
        target = tuple(rng.uniform(0, 10, 2))

        def C(qx, qy):
            cx, cy, _ = cn.weighted_center(range(len(qx)), qx, qy, weights)
            return 0.5 * ((cx - target[0]) ** 2 + (cy - target[1]) ** 2)

        return target, C

    def symmetry_target(rng, px, py, weights):
        focal = (0.0, 0.0)
        ang = rng.uniform(0.1, 1.4)
        v = (math.cos(ang), math.sin(ang))
        cx, cy, _ = cn.weighted_center(range(len(px)), px, py, weights)
        t = max(0.0, (cx - focal[0]) * v[0] + (cy - focal[1]) * v[1])
        target = (focal[0] + t * v[0], focal[1] + t * v[1])

        def C(qx, qy):
            cx, cy, _ = cn.weighted_center(range(len(qx)), qx, qy, weights)
            u = max(0.0, (cx - focal[0]) * v[0] + (cy - focal[1]) * v[1])
            rx = cx - focal[0] - u * v[0]
            ry = cy - focal[1] - u * v[1]
            return 0.5 * (rx * rx + ry * ry)

        return target, C

    def balance_target(rng, px, py, weights):
        target = (5.0, 5.0)

        def C(qx, qy):
            cx, cy, _ = cn.weighted_center(range(len(qx)), qx, qy, weights)
            return 0.5 * ((cx - target[0]) ** 2 + (cy - target[1]) ** 2)

        return target, C

    worst = max(
        _check_center_gradients(rng, masses, heat_target),
        _check_center_gradients(rng, masses, symmetry_target),
        _check_center_gradients(rng, masses, balance_target),
    )
    assert worst < 1e-4
    _passed(3, f"heat/symmetry/balance analytic gradients vs central differences "
               f"(worst relative error {worst:.2e})")


# ---------------------------------------------------------------------------
# 4. collision-free termination on every benchmark scene


@pytest.mark.slow
def test_criterion_4_collision_free_termination():
    started = time.perf_counter()
    seeds = range(20)
    satisfied = 0
    runs = 0
    for name in TEMPLATE_NAMES:
        for seed in seeds:
            scene = build(name, seed=seed)
            config = SolverConfig(seed=seed)
            if "max_iterations" in scene.solver_defaults:
                config.max_iterations = int(scene.solver_defaults["max_iterations"])
            layout, trace = synthesize(scene, config)
            ctx = SolveContext(scene)
            _, _, max_overlap, max_boundary = evaluate_energy(_state_from(layout), ctx)
            assert max_overlap <= 1e-6, f"{name} seed {seed}: overlap {max_overlap}"
            assert max_boundary <= 1e-6, f"{name} seed {seed}: boundary {max_boundary}"
            runs += 1
            if trace.best_energy <= 0.5 * trace.energies[0]:
                satisfied += 1
    elapsed = time.perf_counter() - started
    # most seeds also land a satisfactory (halved-energy) layout
    assert satisfied >= runs * 19 // 20
    _passed(4, f"{runs} runs collision-free and in bounds; {satisfied}/{runs} "
               f"satisfactory; {elapsed:.0f}s total")


# ---------------------------------------------------------------------------
# 5. speed ratio vs the annealing baseline


@pytest.mark.slow
def test_criterion_5_speed_ratio():
    seeds = (0, 1, 2)
    report = []
    for name in ("living_room", "desk", "tp_bedroom", "tp_picnic"):
        scene = build(name)
        pbd_time = sa_time = 0.0
        for seed in seeds:
            config = SolverConfig(seed=seed)
            if "max_iterations" in scene.solver_defaults:
                config.max_iterations = int(scene.solver_defaults["max_iterations"])
            t0 = time.perf_counter()
            synthesize(scene, config)
            pbd_time += time.perf_counter() - t0
            t0 = time.perf_counter()
            run_sa_mcmc(scene, AnnealConfig(seed=seed))
            sa_time += time.perf_counter() - t0
        ratio = sa_time / pbd_time
        report.append(f"{name} {ratio:.1f}x")
        assert ratio >= 10.0, f"{name}: ratio {ratio:.2f} < 10"
    _passed(5, "wall-time ratios over matched seeds: " + ", ".join(report))


# ---------------------------------------------------------------------------
# 6. quality ratio on the tightly packed picnic


@pytest.mark.slow
def test_criterion_6_quality_ratio_tp_picnic():
    wins = 0
    pairs = []
    for seed in range(10):
        scene = build("tp_picnic", seed=seed)
        config = SolverConfig(seed=seed)
        config.max_iterations = int(scene.solver_defaults["max_iterations"])
        _, pbd_trace = synthesize(scene, config)
        _, sa_trace = run_sa_mcmc(scene, AnnealConfig(seed=seed))
        pairs.append((pbd_trace.best_energy, sa_trace.best_energy))
        if pbd_trace.best_energy < sa_trace.best_energy:
            wins += 1
    assert wins >= 8, f"projection solver won only {wins}/10: {pairs}"
    _passed(6, f"projection terminal energy below annealing on {wins}/10 matched seeds")


# ---------------------------------------------------------------------------
# 7. scaling shape


@pytest.mark.slow
def test_criterion_7_scaling_shape():
    counts = [50, 100, 200, 400]
    times = []
    for count in counts:
        scene = build("theater1", {"chair_count": count})
        config = SolverConfig(seed=0, max_iterations=60, termination_window=60)
        t0 = time.perf_counter()
        synthesize(scene, config)
        times.append(time.perf_counter() - t0)
    exponent = float(np.polyfit(np.log(counts), np.log(times), 1)[0])
    assert exponent < 1.5, f"scaling exponent {exponent:.2f}"

    scene = build("theater1", {"chair_count": 400})
    t0 = time.perf_counter()
    synthesize(scene, SolverConfig(seed=0, max_iterations=60, termination_window=60,
                                   broad_phase="naive"))
    naive = time.perf_counter() - t0
    speedup = naive / times[-1]
    assert speedup >= 3.0, f"hash only {speedup:.2f}x faster than naive"
    _passed(7, f"wall times {['%.2f' % t for t in times]}s, log-log exponent "
               f"{exponent:.2f}, hash {speedup:.1f}x faster than all-pairs at 400")


# ---------------------------------------------------------------------------
# 8. spatial hash soundness


def test_criterion_8_hash_soundness():
    rng = np.random.default_rng(108)
    for _ in range(500):
        n = int(rng.integers(2, 501))
        px = rng.uniform(0, 50, n)
        py = rng.uniform(0, 50, n)
        radii = rng.uniform(0.05, 2.0, n)
        grid = rebuild(px, py, radii)
        cands = set(candidate_pairs(grid))
        dx = px[:, None] - px[None, :]
        dy = py[:, None] - py[None, :]
        rsum = radii[:, None] + radii[None, :]
        hit = dx * dx + dy * dy < rsum * rsum
        ii, jj = np.where(np.triu(hit, k=1))
        truth = {(int(i), int(j)) for i, j in zip(ii, jj)}
        missing = truth - cands
        assert not missing, f"broad phase missed {len(missing)} pairs at n={n}"
    _passed(8, "candidate pairs covered every true overlap on 500 random scenes")


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_cli_byte_reproducibility(tmp_path):
    outputs = []
    for label in ("a", "b"):
        out = tmp_path / label
        code = cli_main(["synth", "desk", "--seed", "13", "--iters", "60", "--out", str(out)])
        assert code == 0
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("layout.json", "layout.svg", "trace.csv", "run_meta.json")
        })
    assert outputs[0] == outputs[1]
    _passed(9, "synth artifacts byte-identical across repeated runs of the same seed")


# ---------------------------------------------------------------------------
# 10. stiffness schedule properties


def test_criterion_10_stiffness_schedules():
    rng = np.random.default_rng(110)
    for _ in range(200):
        k0 = rng.uniform(0.05, 0.95)
        rate = rng.uniform(1.0, 30.0)
        dec = cn.Constraint(cn.PAIRWISE_DISTANCE, (0, 1), distance=1.0,
                            schedule=cn.DECREASING, stiffness_initial=k0, rate=rate)
        values = [cn.update_stiffness(dec, l) for l in range(1, 2000)]
        assert all(0.0 <= v <= 1.0 for v in values)
        beyond = values[int(math.ceil(rate)) - 1:]
        assert all(b <= a + 1e-15 for a, b in zip(beyond, beyond[1:]))
        assert cn.update_stiffness(dec, 10**8) < 1e-3

        const = cn.Constraint(cn.BOUNDARY, (0,), schedule=cn.CONSTANT, stiffness_initial=k0)
        assert all(cn.update_stiffness(const, l) == k0 for l in (1, 17, 4321))
    _passed(10, "decreasing schedule monotone to zero beyond l=M, constant invariant, "
                "k within [0,1] on 200 random parameterizations")


# ---------------------------------------------------------------------------
# 11. scene format round trip


def test_criterion_11_scene_round_trip():
    for name in TEMPLATE_NAMES:
        scene = build(name, seed=6)
        text = serialize_scene(scene)
        again = parse_scene(text)
        assert again == scene, f"{name} did not survive the round trip"
    _passed(11, f"all {len(TEMPLATE_NAMES)} templates serialize and parse to equal scenes")
