"""Terrain world construction, queries, providers, and persistence."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terradapt.serialize import ContainerError, save_arrays
from terradapt.world import (
    FeatureProvider,
    TerrainClassSpec,
    WorldSpec,
    build_world,
    cell_index,
    cell_indices,
    features_along,
    features_under_robot,
    linear_margin_stats,
    load_world,
    save_world,
)


def three_class_spec(**kw):
    base = dict(
        rows=60, cols=120, tile_rows=30, tile_cols=40, cell_size=0.25,
        feature_dim=8, feature_scale=4.0, feature_noise=0.15,
        min_separation=3.0, seed=0,
        classes=[
            TerrainClassSpec("nominal", (1.0, 1.0)),
            TerrainClassSpec("grass", (0.78, 0.84)),
            TerrainClassSpec("ice", (0.55, 0.62)),
        ],
    )
    base.update(kw)
    return WorldSpec(**base)


def test_build_is_deterministic():
    w1 = build_world(three_class_spec())
    w2 = build_world(three_class_spec())
    assert w1.class_grid.tobytes() == w2.class_grid.tobytes()
    assert w1.features.tobytes() == w2.features.tobytes()
    assert w1.centers.tobytes() == w2.centers.tobytes()


def test_seed_changes_features_not_layout():
    w1 = build_world(three_class_spec(seed=0))
    w2 = build_world(three_class_spec(seed=1))
    np.testing.assert_array_equal(w1.class_grid, w2.class_grid)
    assert not np.array_equal(w1.features, w2.features)


def test_tile_repeats_exactly():
    w = build_world(three_class_spec())
    # 60x120 map with a 30x40 tile: 2 x 3 repetitions, bit-identical
    np.testing.assert_array_equal(w.class_grid[:30, :40], w.class_grid[30:, :40])
    np.testing.assert_array_equal(w.features[:30, :40], w.features[:30, 40:80])
    np.testing.assert_array_equal(w.features[:30, :40], w.features[30:, 80:])


def test_full_scale_tiling_dimensions():
    # the full-scale configuration tiles a 30x40 feature image 4 x 6 times
    spec = three_class_spec(rows=120, cols=240, feature_dim=4)
    w = build_world(spec)
    assert w.class_grid.shape == (120, 240)
    assert 120 // spec.tile_rows == 4 and 240 // spec.tile_cols == 6
    np.testing.assert_array_equal(w.features[:30, :40], w.features[90:, 200:])


def test_single_class_zero_noise_is_uniform():
    spec = three_class_spec(feature_noise=0.0,
                            classes=[TerrainClassSpec("only", (1.0, 1.0))])
    w = build_world(spec)
    assert np.all(w.class_grid == 0)
    np.testing.assert_array_equal(w.features, np.broadcast_to(w.centers[0], w.features.shape))
    assert np.linalg.norm(w.centers[0]) == pytest.approx(spec.feature_scale)


def test_twin_classes_share_appearance():
    spec = three_class_spec(classes=[
        TerrainClassSpec("nominal", (1.0, 1.0)),
        TerrainClassSpec("ghost-ice", (0.5, 0.6), features_like="nominal"),
    ])
    w = build_world(spec)
    np.testing.assert_array_equal(w.centers[0], w.centers[1])
    # identical appearance, different physics
    np.testing.assert_array_equal(w.eta_table[1], [0.5, 0.6])
    stats = linear_margin_stats(w)
    assert stats["min_margin"] == math.inf  # no separable pair exists


def test_classes_are_linearly_separable():
    stats = linear_margin_stats(build_world(three_class_spec()))
    assert stats["min_margin"] >= 2.0 * stats["max_intra_std"]
    assert stats["max_intra_std"] == pytest.approx(0.15, rel=0.25)


def test_min_separation_unsatisfiable_raises():
    spec = three_class_spec(feature_dim=2, feature_scale=1.0, min_separation=3.0)
    with pytest.raises(ValueError, match="separation"):
        build_world(spec)


def test_bands_layout_orders_classes_along_columns():
    w = build_world(three_class_spec())
    tile = w.class_grid[:30, :40]
    assert np.all(np.diff(tile, axis=1) >= 0)  # nondecreasing across a tile
    assert tile[0, 0] == 0 and tile[0, -1] == 2
    assert np.all(tile == tile[0])  # bands are column-constant


def test_blocks_layout_uses_all_classes():
    w = build_world(three_class_spec(layout="blocks"))
    assert set(np.unique(w.class_grid)) == {0, 1, 2}
    # blocks differ between upper and lower half of the tile
    assert not np.array_equal(w.class_grid[:15, :40], w.class_grid[15:30, :40])


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="multiple"):
        build_world(three_class_spec(rows=50))
    with pytest.raises(ValueError, match="layout"):
        build_world(three_class_spec(layout="stripes"))
    with pytest.raises(ValueError, match="class"):
        build_world(three_class_spec(classes=[]))
    with pytest.raises(ValueError, match="eta"):
        build_world(three_class_spec(classes=[TerrainClassSpec("bad", (0.0, 1.0))]))
    with pytest.raises(ValueError, match="eta"):
        build_world(three_class_spec(classes=[TerrainClassSpec("bad", (1.0, 2.5))]))
    with pytest.raises(ValueError, match="features_like"):
        build_world(three_class_spec(classes=[TerrainClassSpec("a", (1.0, 1.0), features_like="nope")]))
    with pytest.raises(ValueError, match="width"):
        build_world(three_class_spec(classes=[
            TerrainClassSpec("a", (1.0, 1.0)), TerrainClassSpec("b", (1.0,))]))


def test_extent_and_cell_index():
    w = build_world(three_class_spec())
    assert w.extent == (120 * 0.25, 60 * 0.25)
    assert cell_index(w, 0.1, 0.1) == (0, 0, False)
    assert cell_index(w, 0.26, 0.1) == (0, 1, False)
    assert cell_index(w, 29.99, 14.99) == (59, 119, False)
    # out-of-map queries clamp to the border and report it
    assert cell_index(w, -0.5, 0.1) == (0, 0, True)
    assert cell_index(w, 30.1, 20.0) == (59, 119, True)
    with pytest.raises(ValueError):
        cell_index(w, float("nan"), 0.0)


def test_features_under_robot_averages_two_patches():
    w = build_world(three_class_spec())
    x, y, b = 5.0, 7.0, 0.3
    # heading 0: patches sit straight left and right of the center in y
    feat, clamped = features_under_robot(w, x, y, 0.0, half_spacing=b)
    r1, c1, _ = cell_index(w, x, y + b)
    r2, c2, _ = cell_index(w, x, y - b)
    np.testing.assert_allclose(feat, 0.5 * (w.features[r1, c1] + w.features[r2, c2]))
    assert not clamped
    # rotate 90 degrees: the patch offset rotates with the body
    feat2, _ = features_under_robot(w, x, y, math.pi / 2, half_spacing=b)
    r3, c3, _ = cell_index(w, x - b, y)
    r4, c4, _ = cell_index(w, x + b, y)
    np.testing.assert_allclose(feat2, 0.5 * (w.features[r3, c3] + w.features[r4, c4]))


def test_features_clamp_at_border():
    w = build_world(three_class_spec())
    _, clamped = features_under_robot(w, 0.0, 0.1, 0.0)
    assert clamped  # one patch falls below y = 0


def trajectory_poses(w, n=400, seed=3):
    """Poses on, near and well off the map, some exactly on cell borders."""
    rng = np.random.default_rng(seed)
    width, height = w.extent
    x = rng.uniform(-2.0, width + 2.0, n)
    y = rng.uniform(-2.0, height + 2.0, n)
    x[:20] = np.arange(20) * w.cell_size           # exact borders
    y[20:40] = -np.arange(20) * 1e-3                # just below the map
    x[40], y[40] = 1e300, -1e300                    # far off, no int overflow
    psi = rng.uniform(-math.pi, math.pi, n)
    psi[:10] = (0.0, math.pi / 2, -math.pi / 2, math.pi, 1e-17, -0.0, 3.0, -3.0, 0.5, 2.5)
    return x, y, psi


def test_cell_indices_follow_cell_index():
    w = build_world(three_class_spec())
    x, y, _ = trajectory_poses(w)
    rows, cols, clamped = cell_indices(w, x, y)
    assert rows.dtype == cols.dtype == np.int64
    assert [(int(r), int(c), bool(k)) for r, c, k in zip(rows, cols, clamped)] \
        == [cell_index(w, a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert clamped.any() and not clamped.all()
    with pytest.raises(ValueError):
        cell_indices(w, [0.0, float("nan")], [0.0, 0.0])


def test_gathers_equal_per_pose_queries():
    """One array gather gives the values and clamp flags of one query per pose."""
    w = build_world(three_class_spec())
    x, y, psi = trajectory_poses(w)
    feats, clamped = features_along(w, x, y, psi, 0.3)
    per_pose = [features_under_robot(w, a, b, p, 0.3)
                for a, b, p in zip(x.tolist(), y.tolist(), psi.tolist())]
    np.testing.assert_array_equal(feats, np.array([f for f, _ in per_pose]))
    np.testing.assert_array_equal(clamped, [c for _, c in per_pose])


def assert_lookups_follow_cell_index(w, x, y):
    """Both lean lookups give the table row of the class in cell_index's
    cell: the tracked vehicle's eta row, and the car's first entry as a
    float."""
    row, col, _ = cell_index(w, x, y)
    want = tuple(w.eta_table[w.class_grid[row, col]])
    assert w.eta_at(x, y) == want
    first = w.eta_first_at(x, y)
    assert type(first) is float and first == want[0]


def test_eta_at_follows_cell_index():
    """eta_at and eta_first_at give the table row of the class under the
    position, clamped to the border like cell_index, on, off and exactly on
    the edges of the map, on every cell border, and one float step inside
    and outside each edge."""
    w = build_world(three_class_spec())
    x, y, _ = trajectory_poses(w)
    for a, b in zip(x.tolist(), y.tolist()):
        assert_lookups_follow_cell_index(w, a, b)
    width, height = w.extent
    for k in range(-2, w.cols + 3):
        assert_lookups_follow_cell_index(w, k * w.cell_size, 0.5 * height)
    for k in range(-2, w.rows + 3):
        assert_lookups_follow_cell_index(w, 0.5 * width, k * w.cell_size)
    below = (-1e-9, math.nextafter(0.0, -1.0), -0.0, 0.0)
    for edge in (width, height):
        beyond = (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf), edge + 1e-9)
        for a in below + beyond:
            assert_lookups_follow_cell_index(w, a, a)
            assert_lookups_follow_cell_index(w, a, 0.5 * height)
            assert_lookups_follow_cell_index(w, 0.5 * width, a)


SWEEP_WORLD = build_world(three_class_spec())
near_map = st.floats(-2.0, 32.0)
anywhere = st.floats(-1e300, 1e300)       # x / cell_size stays finite


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_map, anywhere), st.one_of(near_map, anywhere))
def test_eta_lookups_follow_cell_index_everywhere(x, y):
    assert_lookups_follow_cell_index(SWEEP_WORLD, x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_eta_lookups_refuse_non_finite_positions(bad):
    """NaN and +-inf are refused with ValueError in either coordinate, by
    both lookups (math.floor of an infinity raises OverflowError, not
    ValueError)."""
    w = build_world(three_class_spec())
    for lookup in (w.eta_at, w.eta_first_at):
        for position in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="non-finite world query"):
                lookup(*position)


@pytest.mark.parametrize("noise_std, brightness", [(0.0, 1.0), (0.07, 0.6)])
def test_provider_trajectory_equals_per_pose_calls(noise_std, brightness):
    """Values, clamp count and the noise stream match one call per pose in
    order: the provider's generator ends in the same state."""
    w = build_world(three_class_spec())
    x, y, psi = trajectory_poses(w)
    batch = FeatureProvider(w, noise_std, brightness, seed=11)
    single = FeatureProvider(w, noise_std, brightness, seed=11)
    got = batch.features_along(x, y, psi, 0.3)
    want = np.array([single.features_under_robot(a, b, p, 0.3)
                     for a, b, p in zip(x.tolist(), y.tolist(), psi.tolist())])
    np.testing.assert_array_equal(got, want)
    assert batch.clamp_count == single.clamp_count > 0
    assert batch.rng.random() == single.rng.random()


def test_eta_table_is_built_once_from_python_floats():
    w = build_world(three_class_spec())
    cells = w.eta_cells
    assert w.eta_cells is cells
    assert len(cells) == w.rows and all(len(line) == w.cols for line in cells)
    for (row, col) in [(0, 0), (17, 93), (w.rows - 1, w.cols - 1)]:
        eta = cells[row][col]
        assert type(eta) is tuple and all(type(v) is float for v in eta)
        assert eta == tuple(w.eta_table[w.class_grid[row, col]])
    assert w.eta_at(-3.0, 100.0) == cells[w.rows - 1][0]   # clamped to the border


def test_provider_determinism_and_noise():
    w = build_world(three_class_spec())
    queries = [(3.0, 2.0, 0.1), (8.0, 9.0, -1.2), (15.0, 5.0, 2.0)]
    p1 = FeatureProvider(w, noise_std=0.05, seed=42)
    p2 = FeatureProvider(w, noise_std=0.05, seed=42)
    for q in queries:
        np.testing.assert_array_equal(p1.features_under_robot(*q), p2.features_under_robot(*q))
    p3 = FeatureProvider(w, noise_std=0.05, seed=43)
    assert not np.array_equal(p3.features_under_robot(*queries[0]),
                              FeatureProvider(w, noise_std=0.05, seed=42).features_under_robot(*queries[0]))


def test_provider_brightness_scales_clean_signal():
    w = build_world(three_class_spec())
    clean = FeatureProvider(w, noise_std=0.0, brightness=1.0)
    dark = FeatureProvider(w, noise_std=0.0, brightness=0.6)
    q = (4.0, 6.0, 0.7)
    np.testing.assert_allclose(dark.features_under_robot(*q),
                               0.6 * clean.features_under_robot(*q), rtol=1e-15)


def test_provider_noise_statistics():
    w = build_world(three_class_spec())
    clean = FeatureProvider(w, noise_std=0.0).features_under_robot(4.0, 6.0, 0.0)
    p = FeatureProvider(w, noise_std=0.1, seed=5)
    draws = np.array([p.features_under_robot(4.0, 6.0, 0.0) for _ in range(600)])
    resid = draws - clean
    assert abs(resid.mean()) < 0.01
    assert resid.std() == pytest.approx(0.1, rel=0.1)


def test_provider_counts_clamps():
    w = build_world(three_class_spec())
    p = FeatureProvider(w, noise_std=0.0)
    p.features_under_robot(5.0, 7.0, 0.0)
    assert p.clamp_count == 0
    p.features_under_robot(-2.0, 7.0, 0.0)
    p.features_under_robot(-2.0, 7.0, 0.0)
    assert p.clamp_count == 2


def test_provider_counts_a_clamp_without_gathering(caplog):
    """count_clamp counts and logs the clamps of features_under_robot at the
    same poses, and draws no noise."""
    w = build_world(three_class_spec())
    poses = list(zip(*(a.tolist() for a in trajectory_poses(w))))
    counted = FeatureProvider(w, 0.05, seed=11)
    gathered = FeatureProvider(w, 0.05, seed=11)
    logs = []
    for call in (counted.count_clamp, gathered.features_under_robot):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="terradapt.world"):
            for pose in poses:
                call(*pose, 0.3)
        logs.append([r.getMessage() for r in caplog.records])
    assert counted.clamp_count == gathered.clamp_count > 0
    assert logs[0] == logs[1]
    assert counted.rng.random() == FeatureProvider(w, 0.05, seed=11).rng.random()


def test_provider_validation():
    w = build_world(three_class_spec())
    with pytest.raises(ValueError):
        FeatureProvider(w, noise_std=-0.1)
    with pytest.raises(ValueError):
        FeatureProvider(w, brightness=0.0)


def test_save_load_roundtrip(tmp_path):
    w = build_world(three_class_spec())
    path = tmp_path / "world.tdc"
    save_world(path, w)
    w2 = load_world(path)
    np.testing.assert_array_equal(w.class_grid, w2.class_grid)
    np.testing.assert_array_equal(w.features, w2.features)
    np.testing.assert_array_equal(w.eta_table, w2.eta_table)
    np.testing.assert_array_equal(w.centers, w2.centers)
    assert w2.cell_size == w.cell_size
    assert w2.class_names == w.class_names
    assert w2.feature_noise == w.feature_noise


def test_load_rejects_foreign_container(tmp_path):
    path = tmp_path / "other.tdc"
    save_arrays(path, {"x": np.ones(3)}, kind="dataset")
    with pytest.raises(ContainerError, match="kind"):
        load_world(path)


def _corrupt_eta(arrays):
    arrays["eta_table"][2] = [2.5, 0.62]


def _corrupt_class_id(arrays):
    arrays["class_grid"][4, 7] = 3          # three classes: ids 0..2


def _corrupt_feature(arrays):
    arrays["features"][1, 2, 3] = np.nan


@pytest.mark.parametrize("corrupt, match", [(_corrupt_eta, "eta_table"),
                                            (_corrupt_class_id, "class ids"),
                                            (_corrupt_feature, "finite")])
def test_invalid_world_refused_on_construction_and_load(tmp_path, corrupt, match):
    w = build_world(three_class_spec())
    arrays = {"class_grid": w.class_grid.copy(), "features": w.features.copy(),
              "eta_table": w.eta_table.copy(), "centers": w.centers}
    corrupt(arrays)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(w, **arrays)
    path = tmp_path / "world.tdc"
    save_arrays(path, arrays, kind="world", meta={
        "cell_size": w.cell_size, "class_names": list(w.class_names),
        "feature_noise": w.feature_noise})
    with pytest.raises(ValueError, match=match):
        load_world(path)
