"""Synthetic terrain worlds with per-cell appearance features.

A world is a regular grid of square cells. Each cell carries a terrain class
id, a frozen appearance feature vector, and each class maps to a control
effectiveness factor eta. Features are built once from per-class cluster
centers plus per-cell jitter on a single tile, and the tile is repeated
across the map exactly (both the class pattern and the jitter repeat), which
mirrors how a fixed overhead feature image would be tiled over a larger
field. Queries outside the map clamp to the border cell and are logged;
features are never extrapolated.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .serialize import load_arrays, save_arrays

log = logging.getLogger(__name__)


@dataclass
class TerrainClassSpec:
    """One terrain type: a name, its eta entries, and optional appearance twin.

    `features_like` names another class whose cluster center this class
    reuses, producing visually identical terrains with different physics.
    """

    name: str
    eta: tuple[float, ...]
    features_like: str | None = None


@dataclass
class WorldSpec:
    """Everything needed to build a world deterministically. Checked when
    made, and again by build_world, since a spec may change in between."""

    rows: int = 60
    cols: int = 120
    cell_size: float = 0.25
    tile_rows: int = 30
    tile_cols: int = 40
    layout: str = "bands"          # bands | blocks
    feature_dim: int = 8
    feature_scale: float = 4.0     # cluster center radius
    feature_noise: float = 0.15    # per-cell jitter std, frozen at build time
    min_separation: float = 3.0    # required distance between distinct centers
    seed: int = 0
    classes: list[TerrainClassSpec] = field(default_factory=lambda: [
        TerrainClassSpec("nominal", (1.0, 1.0)),
        TerrainClassSpec("grass", (0.78, 0.84)),
        TerrainClassSpec("ice", (0.55, 0.62)),
    ])

    def __post_init__(self):
        self.validate()

    def validate(self):
        if min(self.rows, self.cols, self.tile_rows, self.tile_cols) <= 0 or self.cell_size <= 0:
            raise ValueError("world and tile dimensions and cell size must be positive")
        if self.rows % self.tile_rows or self.cols % self.tile_cols:
            raise ValueError(
                f"map {self.rows}x{self.cols} must be an exact multiple of the "
                f"tile {self.tile_rows}x{self.tile_cols}")
        if self.layout not in ("bands", "blocks"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be at least 1")
        if self.feature_noise < 0:
            raise ValueError("feature_noise must be nonnegative")
        if not self.classes:
            raise ValueError("classes must name at least one terrain class")
        widths = {len(c.eta) for c in self.classes}
        if len(widths) != 1:
            raise ValueError("all classes must define eta with the same width")
        for c in self.classes:
            for v in c.eta:
                if not (math.isfinite(v) and 0.0 < v <= 2.0):
                    raise ValueError(f"class {c.name!r}: eta entries must lie in (0, 2]")
            if c.features_like is not None and c.features_like not in [x.name for x in self.classes]:
                raise ValueError(f"class {c.name!r}: features_like target {c.features_like!r} unknown")


@dataclass
class TerrainWorldMap:
    """Immutable terrain grid: class ids, frozen features, per-class eta."""

    class_grid: np.ndarray      # (rows, cols) int
    features: np.ndarray        # (rows, cols, feature_dim) float64
    eta_table: np.ndarray       # (n_classes, eta_dim) float64
    cell_size: float
    class_names: list
    centers: np.ndarray         # (n_classes, feature_dim) cluster centers
    feature_noise: float

    def __post_init__(self):
        # checked once here, for built and recorded worlds alike, so that a
        # bad recorded world fails when it is loaded, not in the middle of a run
        eta, grid, feats = self.eta_table, self.class_grid, self.features
        if eta.ndim != 2 or eta.size == 0:
            raise ValueError(f"eta_table must be a non-empty 2-D table, got shape {eta.shape}")
        if not np.all((eta > 0.0) & (eta <= 2.0)):     # NaN fails both compares
            raise ValueError(f"eta_table entries must be finite and lie in (0, 2], got {eta}")
        if grid.ndim != 2 or grid.size == 0 or not np.issubdtype(grid.dtype, np.integer):
            raise ValueError("class_grid must be a non-empty 2-D integer grid, "
                             f"got shape {grid.shape} of {grid.dtype}")
        if grid.min() < 0 or grid.max() >= eta.shape[0]:
            raise ValueError(f"class ids must lie in [0, {eta.shape[0]}), "
                             f"got {grid.min()}..{grid.max()}")
        if feats.ndim != 3 or feats.shape[:2] != grid.shape:
            raise ValueError(f"features must have shape ({grid.shape[0]}, {grid.shape[1]}, d), "
                             f"got {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")

    @cached_property
    def eta_cells(self) -> list:
        """Each cell's eta row as a tuple of Python floats, indexed
        [row][col] and built on first use: the form the plant reads at every
        substep, unchecked, since __post_init__ checked every row."""
        by_class = [tuple(r) for r in self.eta_table.tolist()]
        return [[by_class[c] for c in line] for line in self.class_grid.tolist()]

    @cached_property
    def eta_at(self):
        """eta_at(x, y): the eta row (a tuple of floats) of the cell under
        (x, y), clamped to the border; the tracked plant's terrain lookup.
        Built on first use, over eta_cells."""
        return _cell_lookup(self, self.eta_cells)

    @cached_property
    def eta_first_at(self):
        """eta_first_at(x, y): the first eta entry of the cell under (x, y),
        clamped to the border, as a float read from its own per-cell table
        built on first use; the car's terrain lookup."""
        return _cell_lookup(self, [[eta[0] for eta in line] for line in self.eta_cells])

    @cached_property
    def rows(self):
        return self.class_grid.shape[0]

    @cached_property
    def cols(self):
        return self.class_grid.shape[1]

    @cached_property
    def extent(self):
        """(width, height) of the map in meters, computed on first use."""
        return self.cols * self.cell_size, self.rows * self.cell_size


def _draw_centers(rng, spec: WorldSpec) -> np.ndarray:
    """Cluster centers on a sphere of radius feature_scale, well separated."""
    own = [i for i, c in enumerate(spec.classes) if c.features_like is None]
    centers = np.zeros((len(spec.classes), spec.feature_dim))
    placed = []
    for i in own:
        for _ in range(1000):
            v = rng.normal(size=spec.feature_dim)
            v *= spec.feature_scale / np.linalg.norm(v)
            if all(np.linalg.norm(v - p) >= spec.min_separation for p in placed):
                break
        else:
            raise ValueError(
                "could not place class centers with the requested separation; "
                "lower min_separation or raise feature_scale")
        centers[i] = v
        placed.append(v)
    name_to_idx = {c.name: i for i, c in enumerate(spec.classes)}
    for i, c in enumerate(spec.classes):
        if c.features_like is not None:
            centers[i] = centers[name_to_idx[c.features_like]]
    return centers


def _tile_class_layout(spec: WorldSpec) -> np.ndarray:
    """Class-id pattern for a single tile."""
    n = len(spec.classes)
    tile = np.zeros((spec.tile_rows, spec.tile_cols), dtype=np.int64)
    if spec.layout == "bands":
        for c in range(spec.tile_cols):
            tile[:, c] = (c * n) // spec.tile_cols
    else:  # blocks: 2 rows x n columns of rectangles, classes cycling
        half = max(1, spec.tile_rows // 2)
        for r in range(spec.tile_rows):
            for c in range(spec.tile_cols):
                block_col = (c * n) // spec.tile_cols
                tile[r, c] = (block_col + (r // half)) % n
    return tile


def build_world(spec: WorldSpec) -> TerrainWorldMap:
    """Construct a world deterministically from its spec.

    The same spec (including seed) always yields byte-identical grids.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    centers = _draw_centers(rng, spec)
    tile_classes = _tile_class_layout(spec)
    jitter = rng.normal(0.0, spec.feature_noise, size=(spec.tile_rows, spec.tile_cols, spec.feature_dim))
    tile_features = centers[tile_classes] + jitter
    reps = (spec.rows // spec.tile_rows, spec.cols // spec.tile_cols)
    class_grid = np.tile(tile_classes, reps)
    features = np.tile(tile_features, (reps[0], reps[1], 1))
    eta_table = np.array([list(c.eta) for c in spec.classes], dtype=float)
    return TerrainWorldMap(
        class_grid=class_grid,
        features=features,
        eta_table=eta_table,
        cell_size=spec.cell_size,
        class_names=[c.name for c in spec.classes],
        centers=centers,
        feature_noise=spec.feature_noise,
    )


def cell_index(world: TerrainWorldMap, x: float, y: float) -> tuple[int, int, bool]:
    """Map a position to (row, col) with border clamping.

    Returns the clamped flag so callers can log out-of-map queries.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite world query ({x}, {y})")
    col = int(math.floor(x / world.cell_size))
    row = int(math.floor(y / world.cell_size))
    clamped = False
    if col < 0 or col >= world.cols:
        col = min(max(col, 0), world.cols - 1)
        clamped = True
    if row < 0 or row >= world.rows:
        row = min(max(row, 0), world.rows - 1)
        clamped = True
    return row, col, clamped


def _cell_lookup(world: TerrainWorldMap, table: list):
    """lookup(x, y): table[row][col] of the cell under (x, y), clamped to the
    border as cell_index clamps, with the floor and the clamp inline and no
    flag on the in-map path. A position whose cell index is not finite (NaN,
    +-inf) is refused with ValueError."""
    size, n_rows, n_cols, floor = world.cell_size, world.rows, world.cols, math.floor

    def lookup(x: float, y: float):
        try:
            col, row = floor(x / size), floor(y / size)
        except (OverflowError, ValueError):       # floor of +-inf, of NaN
            raise ValueError(f"non-finite world query ({x}, {y})") from None
        if 0 <= row < n_rows and 0 <= col < n_cols:
            return table[row][col]
        log.debug("eta query clamped to map border at (%.2f, %.2f)", x, y)
        return table[min(max(row, 0), n_rows - 1)][min(max(col, 0), n_cols - 1)]
    return lookup


def cell_indices(world: TerrainWorldMap, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cell_index over arrays of positions: (rows, cols, clamped flags)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite world query in a batch of positions")
    col, col_out = _clamp_cells(np.floor(x / world.cell_size), world.cols)
    row, row_out = _clamp_cells(np.floor(y / world.cell_size), world.rows)
    return row, col, row_out | col_out


def _clamp_cells(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # clipped while still float, so a far-off position cannot overflow int64
    return np.clip(index, 0, n - 1).astype(np.int64), (index < 0) | (index >= n)


def _patch_offsets(psi: float, half_spacing: float) -> tuple[float, float]:
    """World-frame offset of the left contact patch at heading psi."""
    return -math.sin(psi) * half_spacing, math.cos(psi) * half_spacing


def features_under_robot(world: TerrainWorldMap, x: float, y: float, psi: float,
                         half_spacing: float = 0.3) -> tuple[np.ndarray, bool]:
    """Mean of the features under the two track contact patches.

    The patches sit at +/- half_spacing laterally in the body frame. Returns
    (features, clamped) where clamped reports whether any patch left the map.
    """
    (r1, c1), (r2, c2), clamped = _patch_cells(world, x, y, psi, half_spacing)
    feat = 0.5 * (world.features[r1, c1] + world.features[r2, c2])
    return feat, clamped


def _patch_cells(world: TerrainWorldMap, x: float, y: float, psi: float,
                 half_spacing: float) -> tuple[tuple, tuple, bool]:
    """The (row, col) cells under the two contact patches and whether either
    patch left the map, which is logged."""
    ox, oy = _patch_offsets(psi, half_spacing)
    r1, c1, cl1 = cell_index(world, x + ox, y + oy)
    r2, c2, cl2 = cell_index(world, x - ox, y - oy)
    clamped = cl1 or cl2
    if clamped:
        log.debug("feature query clamped to map border at (%.2f, %.2f)", x, y)
    return (r1, c1), (r2, c2), clamped


def features_along(world: TerrainWorldMap, x, y, psi,
                   half_spacing: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    """features_under_robot over arrays of poses in one gather: ((T, d)
    features, (T,) clamped flags), equal to one call per pose."""
    # math.sin/cos per pose, as the single query takes them
    ox, oy = np.array([_patch_offsets(p, half_spacing) for p in np.asarray(psi).tolist()],
                      dtype=float).reshape(-1, 2).T
    r1, c1, cl1 = cell_indices(world, x + ox, y + oy)
    r2, c2, cl2 = cell_indices(world, x - ox, y - oy)
    clamped = cl1 | cl2
    if clamped.any():
        log.debug("%d feature queries clamped to map border", int(clamped.sum()))
    return 0.5 * (world.features[r1, c1] + world.features[r2, c2]), clamped


class FeatureProvider:
    """Noisy, brightness-scaled view of a world's features.

    With a fixed seed the noise sequence, and therefore every returned
    feature, is deterministic. Brightness multiplies the clean patch mean
    before noise is added, emulating a uniformly darkened appearance.
    """

    def __init__(self, world: TerrainWorldMap, noise_std: float = 0.0,
                 brightness: float = 1.0, seed: int = 0):
        if noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        if brightness <= 0:
            raise ValueError("brightness must be positive")
        self.world = world
        self.noise_std = noise_std
        self.brightness = brightness
        self.rng = np.random.default_rng(seed)
        self.clamp_count = 0

    def features_under_robot(self, x: float, y: float, psi: float,
                             half_spacing: float = 0.3) -> np.ndarray:
        feat, clamped = features_under_robot(self.world, x, y, psi, half_spacing)
        if clamped:
            self.clamp_count += 1
        return self._observe(feat)

    def count_clamp(self, x: float, y: float, psi: float, half_spacing: float = 0.3) -> None:
        """Count and log a clamp as features_under_robot would at this pose,
        gathering no features and drawing no noise: a tick whose controller
        reads no features (the provider's stream is its episode's own)."""
        if _patch_cells(self.world, x, y, psi, half_spacing)[2]:
            self.clamp_count += 1

    def features_along(self, x, y, psi, half_spacing: float = 0.3) -> np.ndarray:
        """(T, d) features of a whole trajectory of poses: the values, clamp
        count and noise stream of one features_under_robot call per pose, in
        order (the noise is one (T, d) draw)."""
        feat, clamped = features_along(self.world, x, y, psi, half_spacing)
        self.clamp_count += int(clamped.sum())
        return self._observe(feat)

    def _observe(self, feat: np.ndarray) -> np.ndarray:
        out = self.brightness * feat
        if self.noise_std > 0:
            out = out + self.rng.normal(0.0, self.noise_std, size=out.shape)
        return out


def linear_margin_stats(world: TerrainWorldMap) -> dict:
    """Worst-case linear separation margin between class feature clouds.

    For each class pair the features are projected on the line between the
    class means; the margin is half the gap between the projected means minus
    nothing (the separating hyperplane sits at the midpoint). Returns the
    minimum margin over pairs and the largest intra-class projected std.
    """
    ids = np.unique(world.class_grid)
    flat = world.features.reshape(-1, world.features.shape[-1])
    labels = world.class_grid.reshape(-1)
    means = {i: flat[labels == i].mean(axis=0) for i in ids}
    min_margin = math.inf
    max_std = 0.0
    for a in ids:
        for b in ids:
            if b <= a:
                continue
            if np.array_equal(world.centers[a], world.centers[b]):
                continue  # twin classes share appearance by design
            d = means[b] - means[a]
            dist = np.linalg.norm(d)
            if dist == 0:
                continue
            d = d / dist
            pa = flat[labels == a] @ d
            pb = flat[labels == b] @ d
            min_margin = min(min_margin, 0.5 * abs(pb.mean() - pa.mean()))
            max_std = max(max_std, pa.std(), pb.std())
    return {"min_margin": min_margin, "max_intra_std": max_std}


def save_world(path, world: TerrainWorldMap) -> None:
    save_arrays(path, {
        "class_grid": world.class_grid,
        "features": world.features,
        "eta_table": world.eta_table,
        "centers": world.centers,
    }, kind="world", meta={
        "cell_size": world.cell_size,
        "class_names": list(world.class_names),
        "feature_noise": world.feature_noise,
    })


def load_world(path) -> TerrainWorldMap:
    arrays, meta = load_arrays(path, expect_kind="world")
    return TerrainWorldMap(
        class_grid=arrays["class_grid"],
        features=arrays["features"],
        eta_table=arrays["eta_table"],
        cell_size=float(meta["cell_size"]),
        class_names=list(meta["class_names"]),
        centers=arrays["centers"],
        feature_noise=float(meta["feature_noise"]),
    )
