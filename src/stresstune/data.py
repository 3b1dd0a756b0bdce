"""Synthetic planar domains, noise models, surface lifts, and geographic data.

Point clouds are jittered grids inside axis-aligned rectangle unions (with
rectangular holes), the standard benchmark domains for patch-stitched
embedding: a convex rectangle, a rectangle with a hole, a C shape, and an
H shape. Surface lifts embed a planar domain isometrically into R^3.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    Configuration,
    DenseSymmetricMatrix,
    StressTuneError,
    _Value,
    _check_dense_fits,
    _freeze,
    affine_rank,
)
from .graph import DissimilarityGraph

EARTH_RADIUS_KM = 6371.0088

DEFAULT_KNN = 15
CITY_KNN = 12
DEFAULT_SIGMA = 0.15

# (xmin, xmax, ymin, ymax)
Rect = tuple[float, float, float, float]

_SPACING_CANDIDATES = 481
_ARCLENGTH_TOL = 1e-10


@dataclass(frozen=True)
class DomainShape(_Value):
    """Union of closed rectangles minus a union of closed rectangular holes."""

    name: str
    includes: tuple[Rect, ...]
    excludes: tuple[Rect, ...] = ()

    def __post_init__(self):
        if not self.includes:
            raise ValueError("a shape needs at least one rectangle")
        for rect in self.includes + self.excludes:
            x0, x1, y0, y1 = rect
            if not (x1 > x0 and y1 > y0):
                raise ValueError(f"degenerate rectangle {rect}")

    @classmethod
    def named(cls, kind: str) -> "DomainShape":
        try:
            return SHAPES[kind]
        except KeyError:
            raise ValueError(f"unknown shape {kind!r}; choose from {sorted(SHAPES)}") from None

    def bbox(self) -> Rect:
        xs0, xs1, ys0, ys1 = zip(*self.includes)
        return (min(xs0), max(xs1), min(ys0), max(ys1))

    def area(self) -> float:
        # Presets have disjoint-interior includes and holes inside them.
        total = sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in self.includes)
        total -= sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in self.excludes)
        return total

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized closed-set membership (hole boundaries count as excluded)."""
        pts = np.asarray(points, dtype=np.float64)
        x, y = pts[:, 0], pts[:, 1]

        def inside(rect):
            x0, x1, y0, y1 = rect
            return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)

        keep = np.zeros(len(pts), dtype=bool)
        for rect in self.includes:
            keep |= inside(rect)
        for rect in self.excludes:
            keep &= ~inside(rect)
        return keep


SHAPES: dict[str, DomainShape] = {
    "rectangle": DomainShape("rectangle", includes=((0.0, 2.0, 0.0, 1.0),)),
    "hollow_rectangle": DomainShape(
        "hollow_rectangle",
        includes=((0.0, 3.0, 0.0, 2.0),),
        excludes=((1.0, 2.0, 0.8, 1.2),),
    ),
    "c_shape": DomainShape(
        "c_shape",
        includes=((0.0, 3.0, 0.0, 3.0),),
        excludes=((1.0, 3.0, 1.0, 2.0),),
    ),
    "h_shape": DomainShape(
        "h_shape",
        includes=(
            (0.0, 1.0, 0.0, 3.0),
            (2.0, 3.0, 0.0, 3.0),
            (1.0, 2.0, 1.25, 1.75),
        ),
    ),
}


def _grid_points_raw(shape: DomainShape, s: float) -> np.ndarray:
    x0, x1, y0, y1 = shape.bbox()
    xs = np.arange(x0 + s / 2.0, x1, s)
    ys = np.arange(y0 + s / 2.0, y1, s)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def generate_shape(
    shape: DomainShape, n_target: int, jitter_frac: float = 0.2, seed: int = 0
) -> Configuration:
    """Jittered grid sample of a planar domain with roughly ``n_target`` points.

    The grid spacing is chosen so the in-domain grid count is the largest not
    exceeding ``1.05 * n_target``; if no spacing reaches ``0.8 * n_target``
    under that cap the target is unattainable and an error is raised.
    Membership is tested before jittering, so pre-jitter points never fall in
    a hole; every jittered point is kept.
    """
    if n_target < 4:
        raise ValueError("n_target must be at least 4")
    if not 0.0 <= jitter_frac < 0.5:
        raise ValueError("jitter_frac must lie in [0, 0.5)")
    s0 = float(np.sqrt(shape.area() / n_target))
    cap = 1.05 * n_target
    best_s, best_count = None, -1
    for s in s0 * np.geomspace(2.0, 0.5, _SPACING_CANDIDATES):
        count = int(shape.contains(_grid_points_raw(shape, s)).sum())
        if best_count < count <= cap:
            best_s, best_count = float(s), count
    if best_s is None or best_count < 0.8 * n_target:
        raise ValueError(
            f"no grid spacing puts between {0.8 * n_target:.0f} and {cap:.0f} "
            f"points inside shape {shape.name!r}"
        )
    pts = _grid_points_raw(shape, best_s)
    pts = pts[shape.contains(pts)]
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-jitter_frac * best_s, jitter_frac * best_s, size=pts.shape)
    return Configuration(pts + jitter)


def apply_multiplicative_noise(g: DissimilarityGraph, sigma: float, seed: int = 0) -> DissimilarityGraph:
    """Scale every edge weight by an independent factor ``1 + U[-sigma, sigma]``.

    ``sigma`` must lie in [0, 1) so perturbed dissimilarities stay positive.
    Draws follow the canonical edge order, so a fixed seed fixes the output.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-sigma, sigma, size=g.edge_count)
    return DissimilarityGraph(g.n, (g.ei.copy(), g.ej.copy(), g.weights * (1.0 + eps)))


def add_gaussian_noise(config: Configuration, sigma: float, seed: int = 0) -> Configuration:
    """Add isotropic Gaussian coordinate noise; ``sigma=0`` returns the input."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return config
    rng = np.random.default_rng(seed)
    return Configuration(config.points + rng.normal(0.0, sigma, size=config.points.shape))


def rescale_to_unit(config: Configuration, center: bool = False) -> Configuration:
    """Uniformly rescale so the longest bounding-box side spans exactly 1.

    With ``center`` the bounding box is centered on the origin, otherwise its
    minimum corner moves to the origin. The scaling is the same for every
    axis, so shape (and local isometry after a lift) is preserved.
    """
    pts = config.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float((hi - lo).max())
    if span == 0.0:
        raise ValueError("configuration has zero extent")
    if center:
        return Configuration((pts - (lo + hi) / 2.0) / span)
    return Configuration((pts - lo) / span)


def _lifted(config: Configuration, points: np.ndarray, alpha: float) -> Configuration:
    # A huge alpha shrinks the curved direction below round-off, flattening the surface.
    if affine_rank(points) < affine_rank(config.points):
        raise ValueError(f"alpha {alpha} is too large for the domain's extent: the lift collapses")
    return Configuration(points)


def lift_s_surface(config: Configuration, alpha: float = 10.0) -> Configuration:
    """Lift a planar configuration onto an S-shaped surface in R^3.

    The first planar coordinate ``v`` parametrizes the curved direction at
    unit speed: ``(sin(a v)/a, u, sign(a v) (cos(a v) - 1)/a)``. The two
    bending arcs have period ``2*pi/a``, so keep ``|a v| < 3*pi/2`` per side
    (e.g. via :func:`rescale_to_unit` with ``center=True``) to avoid
    self-intersection. An alpha that flattens the lift raises ``ValueError``.
    """
    if config.p != 2:
        raise ValueError("lift expects a planar configuration")
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    v = config.points[:, 0]
    u = config.points[:, 1]
    t = alpha * v
    x = np.sin(t) / alpha
    z = np.sign(t) * (np.cos(t) - 1.0) / alpha
    return _lifted(config, np.column_stack([x, u, z]), alpha)


def _swiss_arclength(s: np.ndarray, alpha: float) -> np.ndarray:
    a = alpha * s
    return 0.5 * (s * np.sqrt(1.0 + a * a) + np.arcsinh(a) / alpha)


def _invert_swiss_arclength(v: np.ndarray, alpha: float) -> np.ndarray:
    # F is increasing and convex with F(s) >= s, so Newton started at s = v
    # descends monotonically onto the root; clipping just guards round-off.
    s = v.copy()
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(200):
                f = _swiss_arclength(s, alpha) - v
                if np.abs(f).max(initial=0.0) <= _ARCLENGTH_TOL:
                    return s
                s = np.clip(s - f / np.sqrt(1.0 + (alpha * s) ** 2), 0.0, v)
    except FloatingPointError:
        pass  # alpha * s overflows: alpha is too large for this v
    raise StressTuneError("arc-length inversion did not converge")


def lift_swiss_roll(config: Configuration, alpha: float = 50.0) -> Configuration:
    """Lift a planar configuration onto a spiral (swiss-roll) surface in R^3.

    The first planar coordinate ``v >= 0`` is arc length along the spiral
    ``s -> (s cos(a s), s sin(a s))``; the radial parameter solves
    ``integral_0^s sqrt(1 + (a t)^2) dt = v`` to within 1e-10. An alpha that
    flattens the lift below the input's affine rank raises ``ValueError``.
    """
    if config.p != 2:
        raise ValueError("lift expects a planar configuration")
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    v = config.points[:, 0]
    u = config.points[:, 1]
    if (v < 0).any():
        raise ValueError("the curved coordinate must be nonnegative for the spiral lift")
    s = _invert_swiss_arclength(v, alpha)
    t = alpha * s
    return _lifted(config, np.column_stack([s * np.cos(t), u, s * np.sin(t)]), alpha)


@dataclass(frozen=True)
class CityTable(_Value):
    """Named geographic locations in degrees."""

    names: tuple[str, ...]
    lat: np.ndarray
    lon: np.ndarray

    def __post_init__(self):
        lat, lon = _freeze(self, "lat"), _freeze(self, "lon")
        names = tuple(str(s) for s in self.names)
        if not names or lat.shape != (len(names),) or lon.shape != (len(names),):
            raise ValueError("names, lat and lon must be equal-length and nonempty")
        if not (np.isfinite(lat).all() and np.isfinite(lon).all()):
            raise ValueError("coordinates must be finite")
        if (np.abs(lat) > 90.0).any():
            raise ValueError("latitudes must lie in [-90, 90]")
        if (np.abs(lon) > 180.0).any():
            raise ValueError("longitudes must lie in [-180, 180]")
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return len(self.names)


def load_cities(path: str | os.PathLike) -> CityTable:
    """Load a ``city,lat,lng`` CSV (extra columns are ignored).

    Errors name the offending column or 1-based row so bad exports are easy
    to locate.
    """
    names, lat, lon = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            for col in ("city", "lat", "lng"):
                if col not in fields:
                    raise ValueError(f"{path}: missing required column {col!r}")
            for rowno, rec in enumerate(reader, start=2):
                try:
                    la = float(rec["lat"])
                    lo = float(rec["lng"])
                except (TypeError, ValueError):
                    raise ValueError(f"{path}: row {rowno}: lat/lng must be numeric") from None
                if abs(la) > 90.0:
                    raise ValueError(f"{path}: row {rowno}: latitude {la} outside [-90, 90]")
                if abs(lo) > 180.0:
                    raise ValueError(f"{path}: row {rowno}: longitude {lo} outside [-180, 180]")
                names.append(rec["city"])
                lat.append(la)
                lon.append(lo)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        # DictReader's own line_num counts only the rows it returned.
        raise ValueError(f"{path}: row {reader.reader.line_num}: {exc}") from exc
    if not names:
        raise ValueError(f"{path}: no data rows")
    return CityTable(names=tuple(names), lat=np.array(lat), lon=np.array(lon))


def haversine_matrix(cities: CityTable) -> DenseSymmetricMatrix:
    """Great-circle distance matrix in kilometres via the haversine formula.

    ``2 R arcsin sqrt(sin^2(dlat/2) + cos(lat_i) cos(lat_j) sin^2(dlon/2))``
    with ``R = EARTH_RADIUS_KM``.
    """
    # The broadcast temporaries: traced at 6.06-6.50 x 8n^2 bytes for n = 1,000-3,000.
    _check_dense_fits("haversine_matrix", cities.n, 6)
    phi = np.radians(cities.lat)
    lam = np.radians(cities.lon)
    sin_dphi = np.sin((phi[None, :] - phi[:, None]) / 2.0)
    sin_dlam = np.sin((lam[None, :] - lam[:, None]) / 2.0)
    cos_outer = np.cos(phi)[:, None] * np.cos(phi)[None, :]
    a = sin_dphi**2 + cos_outer * sin_dlam**2
    D = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    np.fill_diagonal(D, 0.0)
    return DenseSymmetricMatrix(D)
