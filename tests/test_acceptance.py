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
from layoutsynth.model import Room
from layoutsynth.sceneio import parse_scene, serialize_scene
from layoutsynth.scenes import TEMPLATE_NAMES, build
from layoutsynth.solver import (
    LayoutState,
    SolveContext,
    SolverConfig,
    evaluate_energy,
    synthesize,
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


def corrections(project, *args, **kwargs):
    """The corrections ``project`` writes to its sink, as a list; its
    return value says whether it wrote any."""
    out = []
    wrote = project(lambda *c: out.append(cn.Correction(*c)), *args, **kwargs)
    assert wrote == bool(out)
    return out


def _assert_inert(corrs):
    assert corrs == []


def test_criterion_1_projection_oracles():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    checks = 0

    for _ in range(100):
        # pairwise distance, equality, partner anchored
        pi = rng.uniform(1, 9, 2)
        pj = rng.uniform(1, 9, 2)
        d = rng.uniform(0.1, 4)
        corrs = corrections(cn.project_pairwise_distance, 0, 1, *pi, *pj, 1.0, 0.0, d, 1.0)
        p0 = (pi[0] + sum(c.dx for c in corrs), pi[1] + sum(c.dy for c in corrs))
        assert abs(math.hypot(p0[0] - pj[0], p0[1] - pj[1]) - d) < 1e-9
        # inequality inert when satisfied
        far = pj + np.array([d + rng.uniform(0.01, 2), 0.0])
        _assert_inert(corrections(
            cn.project_pairwise_distance, 0, 1, *far, *pj, 1.0, 0.0, d, 1.0, cn.INEQUALITY,
        ))

        # focal point
        corrs = corrections(
            cn.project_focal_point, 0, 1, *pi, *pj, 1.0, 1.0, d, 1.0, pin_focal=True,
        )
        p0 = (pi[0] + sum(c.dx for c in corrs), pi[1] + sum(c.dy for c in corrs))
        assert abs(math.hypot(p0[0] - pj[0], p0[1] - pj[1]) - d) < 1e-9

        # traffic lane
        origin = rng.uniform(2, 8, 2)
        angle = rng.uniform(0, 2 * math.pi)
        v = Vec2(math.cos(angle), math.sin(angle))
        offset = rng.uniform(-0.9, 0.9)
        along = rng.uniform(0.5, 3)
        clearance = rng.uniform(1.0, 2.0)
        p_lane = (
            origin[0] + along * v.x - offset * v.y,
            origin[1] + along * v.y + offset * v.x,
        )
        corrs = corrections(
            cn.project_traffic_lane, 0, 1, *p_lane, *origin, 1.0, 0.0, v, clearance, 1.0,
        )
        moved = (
            p_lane[0] + sum(c.dx for c in corrs),
            p_lane[1] + sum(c.dy for c in corrs),
        )
        qx, qy = cn.lane_projection_point(origin, v, moved)
        assert abs(math.hypot(moved[0] - qx, moved[1] - qy) - clearance) < 1e-9
        clear_point = (
            origin[0] + along * v.x - (clearance + 0.5) * v.y,
            origin[1] + along * v.y + (clearance + 0.5) * v.x,
        )
        _assert_inert(corrections(
            cn.project_traffic_lane, 0, 1, *clear_point, *origin, 1.0, 0.0, v, clearance, 1.0,
        ))

        # heat point: one free particle among up to four
        n = int(rng.integers(1, 5))
        px = list(rng.uniform(0, 10, n))
        py = list(rng.uniform(0, 10, n))
        masses = list(rng.uniform(0.2, 4, n))
        inv = [0.0] * n
        free = int(rng.integers(n))
        inv[free] = 1.0 / masses[free]
        target = rng.uniform(0, 10, 2)
        corrs = corrections(cn.project_heat_point, range(n), px, py, masses, inv, target, 1.0)
        for c in corrs:
            px[c.particle] += c.dx
            py[c.particle] += c.dy
        cx, cy, _ = cn.weighted_center(range(n), px, py, masses)
        C = 0.5 * ((cx - target[0]) ** 2 + (cy - target[1]) ** 2)
        assert C < 1e-9

        # focal symmetry
        n = int(rng.integers(1, 4))
        px = list(rng.uniform(2, 8, n))
        py = list(rng.uniform(2, 8, n))
        masses = list(rng.uniform(0.2, 4, n))
        inv = [0.0] * n
        free = int(rng.integers(n))
        inv[free] = 1.0 / masses[free]
        focal = (0.5, 0.5)
        corrs = corrections(
            cn.project_focal_symmetry, range(n), px, py, masses, inv, focal, Vec2(1, 0.4), 1.0,
        )
        for c in corrs:
            px[c.particle] += c.dx
            py[c.particle] += c.dy
        cx, cy, _ = cn.weighted_center(range(n), px, py, masses)
        vx, vy = 1.0, 0.4
        t = max(0.0, ((cx - focal[0]) * vx + (cy - focal[1]) * vy) / (vx * vx + vy * vy))
        C = 0.5 * ((cx - focal[0] - t * vx) ** 2 + (cy - focal[1] - t * vy) ** 2)
        assert C < 1e-9

        # visual balance
        n = int(rng.integers(1, 4))
        px = list(rng.uniform(0, 10, n))
        py = list(rng.uniform(0, 10, n))
        weights = list(rng.uniform(0.2, 4, n))
        inv = [0.0] * n
        inv[int(rng.integers(n))] = rng.uniform(0.3, 3)
        corrs = corrections(
            cn.project_visual_balance, range(n), px, py, weights, inv, (5.0, 5.0), 1.0,
        )
        for c in corrs:
            px[c.particle] += c.dx
            py[c.particle] += c.dy
        cx, cy, _ = cn.weighted_center(range(n), px, py, weights)
        assert 0.5 * ((cx - 5.0) ** 2 + (cy - 5.0) ** 2) < 1e-9

        # wall distance; geometry chosen so the same wall stays nearest
        p = (rng.uniform(0.2, 2.0), rng.uniform(4, 6))
        d = rng.uniform(0.1, 3.5)
        corrs = corrections(cn.project_wall_distance, 0, *p, 1.0, ROOM, d, 1.0)
        moved = (p[0] + sum(c.dx for c in corrs), p[1] + sum(c.dy for c in corrs))
        from layoutsynth.model import nearest_wall_point

        q, _, _ = nearest_wall_point(ROOM, moved)
        assert abs(math.hypot(moved[0] - q.x, moved[1] - q.y) - d) < 1e-9
        _assert_inert(corrections(
            cn.project_wall_distance, 0, 3.0, 5.0, 1.0, ROOM, 1.0, 1.0, cn.INEQUALITY,
        ))

        # accessibility
        b_i = rng.uniform(0.3, 1.0)
        r_i = 0.5 * b_i
        diag = rng.uniform(0.2, 0.8)
        center = rng.uniform(3, 7, 2)
        p = center + rng.uniform(-0.2, 0.2, 2)
        corrs = corrections(
            cn.project_accessibility, 0, 1, *p, 1.0, 0.0, *center, rng.uniform(0, 6), diag, b_i,
            r_i, 1.0, tiebreak=lambda: (1.0, 0.0),
        )
        moved = (p[0] + sum(c.dx for c in corrs), p[1] + sum(c.dy for c in corrs))
        assert abs(math.hypot(moved[0] - center[0], moved[1] - center[1]) - (b_i + diag)) < 1e-9
        far = center + np.array([b_i + diag + 1.0, 0.0])
        _assert_inert(corrections(
            cn.project_accessibility, 0, 1, *far, 1.0, 0.0, *center, 0.0, diag, b_i, r_i, 1.0,
        ))

        # collision
        r0, r1 = rng.uniform(0.2, 1.5, 2)
        pj = rng.uniform(2, 8, 2)
        pi = pj + rng.uniform(-0.5, 0.5, 2)
        corrs = corrections(
            cn.project_collision, 0, 1, *pi, *pj, 1.0, 0.0, r0, r1, 1.0,
            tiebreak=lambda: (0.0, 1.0),
        )
        moved = (pi[0] + sum(c.dx for c in corrs), pi[1] + sum(c.dy for c in corrs))
        assert abs(math.hypot(moved[0] - pj[0], moved[1] - pj[1]) - (r0 + r1)) < 1e-9
        apart = pj + np.array([r0 + r1 + 0.1, 0.0])
        _assert_inert(corrections(cn.project_collision, 0, 1, *apart, *pj, 1.0, 0.0, r0, r1, 1.0))

        # wall ghost collision (ghosts along one wall)
        g0 = (0.0, rng.uniform(2, 5))
        g1 = (0.0, g0[1] + rng.uniform(0.0, 0.5))
        corrs = corrections(
            cn.project_wall_ghost_collision, 0, 1, *g0, *g1, 1.0, 0.0, 0.5, 0.5, 1.0,
            tiebreak=lambda: (0.0, 1.0),
        )
        m0 = (g0[0] + sum(c.dx for c in corrs if c.particle == 0),
              g0[1] + sum(c.dy for c in corrs if c.particle == 0))
        assert abs(math.hypot(m0[0] - g1[0], m0[1] - g1[1]) - 1.0) < 1e-9

        # pairwise orientation
        theta = rng.uniform(0, 2 * math.pi)
        target_theta = rng.uniform(0, 2 * math.pi)
        corrs = corrections(cn.project_pairwise_orientation, 0, theta, target_theta, 1.0, 1.0)
        new = theta + sum(c.dtheta for c in corrs)
        assert abs(wrap_angle(target_theta - new)) < 1e-9

        # wall orientation
        p = (rng.uniform(0.2, 4.0), rng.uniform(2, 8))
        theta = rng.uniform(0, 2 * math.pi)
        offset = rng.choice([0.0, math.pi / 2])
        corrs = corrections(cn.project_wall_orientation, 0, theta, *p, 1.0, ROOM, offset, 1.0)
        new = theta + sum(c.dtheta for c in corrs)
        target = cn.wall_orientation_target(ROOM, p, new, offset)
        assert abs(wrap_angle(target - new)) < 1e-9

        # stacking, bottom anchored
        zb = rng.uniform(0, 1)
        gap = rng.uniform(0.1, 1)
        pb = rng.uniform(0, 10, 2)
        pt = pb + rng.uniform(-1, 1, 2)
        zt = zb + rng.uniform(-0.5, 0.5)
        corrs = corrections(cn.project_stacking, 0, 1, *pb, *pt, zb, zt, 0.0, 1.0, gap, 1.0)
        mx = pt[0] + sum(c.dx for c in corrs)
        my = pt[1] + sum(c.dy for c in corrs)
        mz = zt + sum(c.dz for c in corrs)
        C = math.sqrt((mz - zb - gap) ** 2 + (mx - pb[0]) ** 2 + (my - pb[1]) ** 2)
        assert C < 1e-9

        # boundary containment
        r = rng.uniform(0.2, 1.5)
        p = rng.uniform(-1, 11, 2)
        corrs = corrections(cn.project_boundary, 0, *p, 1.0, r, ROOM, 1.0)
        moved = (p[0] + sum(c.dx for c in corrs), p[1] + sum(c.dy for c in corrs))
        assert cn.boundary_violation(ROOM, moved, r) < 1e-9
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
        for c in corrs:
            m = mi if c.particle == 0 else mj
            sx += m * c.dx
            sy += m * c.dy
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
