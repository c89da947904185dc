import pytest

from layoutsynth import constraints as cn
from layoutsynth import scenes
from layoutsynth.scenes import TEMPLATE_NAMES, build, scaling_series


def kinds_present(scene):
    return {c.kind for c in scene.constraints}


class TestObjectCounts:
    def test_theater1_default_201(self):
        scene = scenes.theater1()
        assert len(scene.objects) == 201
        labels = [o.label for o in scene.objects]
        assert labels.count("seat") == 200
        assert labels.count("stage") == 1

    def test_picnic_default_77(self):
        scene = scenes.picnic()
        labels = [o.label for o in scene.objects]
        assert len(scene.objects) == 77
        assert labels.count("table_round") == 14
        assert labels.count("chair") == 48
        assert labels.count("trash_can") == 8
        assert labels.count("bbq_grill") == 6
        assert labels.count("carousel") == 1

    def test_living_room_default_10(self):
        assert len(scenes.living_room().objects) == 10

    def test_desk_default_21(self):
        scene = scenes.desk()
        assert len(scene.objects) == 21
        assert sum(1 for o in scene.objects if o.label == "book") == 10

    def test_tp_bedroom_default_12(self):
        assert len(scenes.tp_bedroom().objects) == 12

    def test_theater2_variant_counts(self):
        assert len(scenes.theater2(style="arc", pathways=0).objects) == 181
        assert len(scenes.theater2(style="arc", pathways=2).objects) == 181
        assert len(scenes.theater2(style="seg", pathways=0).objects) == 169
        assert len(scenes.theater2(style="seg", pathways=1).objects) == 169
        assert len(scenes.theater2(style="seg", pathways=2).objects) == 246


class TestConstraintFamilies:
    def test_theater1_families(self):
        kinds = kinds_present(scenes.theater1())
        assert {cn.WALL_DISTANCE, cn.FOCAL_POINT, cn.TRAFFIC_LANE, cn.PAIRWISE_ORIENTATION} <= kinds

    def test_theater2_families_and_no_collisions(self):
        scene = scenes.theater2()
        kinds = kinds_present(scene)
        assert {cn.HEAT_POINT, cn.PAIRWISE_DISTANCE, cn.TRAFFIC_LANE, cn.PAIRWISE_ORIENTATION} <= kinds
        assert scene.collisions_enabled is False
        assert all(g.curve is not None for g in scene.groups)

    def test_theater2_no_pathways_has_no_lanes(self):
        assert cn.TRAFFIC_LANE not in kinds_present(scenes.theater2(pathways=0))

    def test_picnic_families(self):
        kinds = kinds_present(scenes.picnic())
        assert {cn.FOCAL_POINT, cn.PAIRWISE_DISTANCE, cn.HEAT_POINT, cn.PAIRWISE_ORIENTATION} <= kinds

    def test_living_room_families(self):
        kinds = kinds_present(scenes.living_room())
        assert {cn.FOCAL_POINT, cn.WALL_DISTANCE, cn.WALL_ORIENTATION,
                cn.VISUAL_BALANCE, cn.PAIRWISE_ORIENTATION} <= kinds

    def test_desk_families(self):
        kinds = kinds_present(scenes.desk())
        assert {cn.STACKING, cn.HEAT_POINT, cn.PAIRWISE_DISTANCE,
                cn.FOCAL_POINT, cn.WALL_DISTANCE} <= kinds
        stacking = [c for c in scenes.desk().constraints if c.kind == cn.STACKING]
        assert len(stacking) == 8  # two chains of five books

    def test_tp_bedroom_rigid_groups(self):
        scene = scenes.tp_bedroom()
        assert len(scene.groups) == 3
        assert all(g.rigid for g in scene.groups)
        kinds = kinds_present(scene)
        assert {cn.WALL_DISTANCE, cn.WALL_ORIENTATION, cn.FOCAL_POINT,
                cn.PAIRWISE_DISTANCE, cn.PAIRWISE_ORIENTATION} <= kinds

    def test_tp_picnic_families(self):
        scene = scenes.tp_picnic(seed=0)
        kinds = kinds_present(scene)
        assert {cn.PAIRWISE_DISTANCE, cn.HEAT_POINT} <= kinds
        assert all(g.rigid for g in scene.groups)


class TestTpPicnicRandomization:
    def test_counts_vary_with_seed(self):
        sizes = {len(scenes.tp_picnic(seed=s).objects) for s in range(12)}
        assert len(sizes) > 1

    def test_counts_within_configured_ranges(self):
        for seed in range(12):
            scene = scenes.tp_picnic(seed=seed)
            labels = [o.label for o in scene.objects]
            lo, hi = scenes.TP_PICNIC_RANGES["round_tables"]
            assert lo <= labels.count("table_round") <= hi
            assert labels.count("chair") == 4 * labels.count("table_round")
            lo, hi = scenes.TP_PICNIC_RANGES["rect_tables"]
            assert lo <= labels.count("table_rect") <= hi
            lo, hi = scenes.TP_PICNIC_RANGES["trash_can_pairs"]
            assert 2 * lo <= labels.count("trash_can") <= 2 * hi
            lo, hi = scenes.TP_PICNIC_RANGES["grills"]
            assert lo <= labels.count("bbq_grill") <= hi
            assert labels.count("carousel") == 1

    def test_same_seed_same_scene(self):
        assert scenes.tp_picnic(seed=4) == scenes.tp_picnic(seed=4)

    def test_iteration_budget_default(self):
        assert scenes.tp_picnic(seed=0).solver_defaults["max_iterations"] == 270


class TestScalingSeries:
    def test_counts_produce_expected_sizes(self):
        series = scaling_series([50, 100, 200])
        assert [len(s.objects) for s in series] == [51, 101, 201]

    def test_zero_chairs_is_valid_stage_only(self):
        scene = scenes.theater1(chair_count=0)
        assert len(scene.objects) == 1
        scene.validate()
        from layoutsynth.solver import SolverConfig, synthesize

        layout, trace = synthesize(scene, SolverConfig(seed=0))
        assert trace.best_energy < trace.energies[0] + 1e-12

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            scaling_series([-5])


class TestBuildDispatch:
    def test_all_templates_validate(self):
        for name in TEMPLATE_NAMES:
            scene = build(name, seed=3)
            scene.validate()
            assert scene.catalogue

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build("ballroom")

    def test_params_forwarded(self):
        scene = build("theater1", {"chair_count": 10})
        assert len(scene.objects) == 11

    def test_theater2_rejects_bad_style(self):
        with pytest.raises(ValueError):
            scenes.theater2(style="spiral")
        with pytest.raises(ValueError):
            scenes.theater2(pathways=5)
