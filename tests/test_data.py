import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad

import oracles
from stresstune import (
    CityTable,
    Configuration,
    DissimilarityGraph,
    DomainShape,
    EARTH_RADIUS_KM,
    StressTuneError,
    add_gaussian_noise,
    apply_multiplicative_noise,
    generate_shape,
    haversine_matrix,
    lift_s_surface,
    lift_swiss_roll,
    load_cities,
    rescale_to_unit,
)
from stresstune.data import _invert_swiss_arclength
from conftest import malformed_csv


class TestDomainShape:
    def test_named_presets_exist(self):
        for kind in ("rectangle", "hollow_rectangle", "c_shape", "h_shape"):
            shape = DomainShape.named(kind)
            assert shape.area() > 0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="pentagon"):
            DomainShape.named("pentagon")

    def test_hollow_rectangle_membership(self):
        shape = DomainShape.named("hollow_rectangle")
        pts = np.array([[0.5, 0.5], [1.5, 1.0], [2.5, 1.9], [1.5, 0.5]])
        np.testing.assert_array_equal(shape.contains(pts), [True, False, True, True])

    def test_h_shape_crossbar(self):
        shape = DomainShape.named("h_shape")
        pts = np.array([[1.5, 1.5], [1.5, 0.5], [0.5, 0.5], [2.5, 2.9]])
        np.testing.assert_array_equal(shape.contains(pts), [True, False, True, True])


class TestGenerateShape:
    def test_rectangle_target_count_window(self):
        cfg = generate_shape(DomainShape.named("rectangle"), 4000, seed=0)
        assert 3200 <= cfg.n <= 4200

    def test_no_point_in_hole_without_jitter(self):
        shape = DomainShape.named("hollow_rectangle")
        cfg = generate_shape(shape, 500, jitter_frac=0.0, seed=1)
        assert shape.contains(cfg.points).all()
        inside_hole = (
            (cfg.points[:, 0] > 1.0)
            & (cfg.points[:, 0] < 2.0)
            & (cfg.points[:, 1] > 0.8)
            & (cfg.points[:, 1] < 1.2)
        )
        assert not inside_hole.any()

    def test_seed_determinism(self):
        a = generate_shape(DomainShape.named("c_shape"), 800, seed=42)
        b = generate_shape(DomainShape.named("c_shape"), 800, seed=42)
        np.testing.assert_array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = generate_shape(DomainShape.named("rectangle"), 300, seed=0)
        b = generate_shape(DomainShape.named("rectangle"), 300, seed=1)
        assert not np.array_equal(a.points, b.points)

    def test_unattainable_target_rejected(self):
        # On a unit square the admissible grid counts near 7 are 4 and 9;
        # neither lands in [0.8 * 7, 1.05 * 7].
        square = DomainShape(name="unit_square", includes=((0.0, 1.0, 0.0, 1.0),))
        with pytest.raises(ValueError):
            generate_shape(square, 7, jitter_frac=0.0, seed=0)

    def test_bad_parameters(self):
        shape = DomainShape.named("rectangle")
        with pytest.raises(ValueError):
            generate_shape(shape, 3)
        with pytest.raises(ValueError):
            generate_shape(shape, 100, jitter_frac=0.5)


class TestApplyMultiplicativeNoise:
    def make_graph(self, rng, m=200):
        edges = [(i, i + 1, float(rng.uniform(0.5, 2.0))) for i in range(m)]
        return DissimilarityGraph(m + 1, edges)

    def test_sigma_zero_identical(self, rng):
        g = self.make_graph(rng)
        out = apply_multiplicative_noise(g, 0.0, seed=3)
        np.testing.assert_array_equal(out.weights, g.weights)

    def test_support_bounds_and_topology(self, rng):
        g = self.make_graph(rng)
        out = apply_multiplicative_noise(g, 0.3, seed=3)
        np.testing.assert_array_equal(out.ei, g.ei)
        np.testing.assert_array_equal(out.ej, g.ej)
        ratio = out.weights / g.weights
        assert (ratio >= 0.7).all() and (ratio <= 1.3).all()

    def test_sample_statistics(self, rng):
        g = self.make_graph(rng, m=10_000)
        out = apply_multiplicative_noise(g, 0.15, seed=5)
        eps = out.weights / g.weights - 1.0
        assert abs(eps.mean()) < 0.01
        assert eps.min() >= -0.15 and eps.max() <= 0.15

    def test_determinism(self, rng):
        g = self.make_graph(rng)
        a = apply_multiplicative_noise(g, 0.2, seed=11)
        b = apply_multiplicative_noise(g, 0.2, seed=11)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_sigma_at_least_one_refused(self, rng):
        g = self.make_graph(rng)
        with pytest.raises(ValueError):
            apply_multiplicative_noise(g, 1.0)


class TestLiftSSurface:
    def test_flat_line_maps_to_plane(self):
        cfg = Configuration(np.array([[0.0, -1.0], [0.0, 0.5], [0.0, 2.0]]))
        out = lift_s_surface(cfg, alpha=10.0)
        np.testing.assert_allclose(out.points[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(out.points[:, 1], [-1.0, 0.5, 2.0])
        np.testing.assert_allclose(out.points[:, 2], 0.0, atol=1e-12)

    def test_curved_direction_is_unit_speed(self, rng):
        # A short step along the curved coordinate must preserve length: the
        # profile curve is parameterized by arc length.
        alpha = 10.0
        for v in rng.uniform(-0.4, 0.4, size=5):
            u = float(rng.uniform(0, 1))
            step = 1e-4
            seg = Configuration(np.array([[v, u], [v + step, u]]))
            out = lift_s_surface(seg, alpha=alpha)
            got = np.linalg.norm(out.points[1] - out.points[0])
            assert got == pytest.approx(step, rel=1e-7)

    def test_straight_direction_is_isometric(self):
        seg = Configuration(np.array([[0.2, 0.0], [0.2, 1e-4]]))
        out = lift_s_surface(seg, alpha=10.0)
        got = np.linalg.norm(out.points[1] - out.points[0])
        assert got == pytest.approx(1e-4, rel=1e-10)

    def test_requires_planar_input(self, rng):
        with pytest.raises(ValueError):
            lift_s_surface(Configuration(rng.uniform(size=(4, 3))))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            lift_s_surface(Configuration(np.array([[0.1, 0.0], [0.2, 0.5]])), alpha=alpha)

    def test_alpha_that_collapses_the_surface_refused(self, rng):
        # At alpha 1e12 the curved coordinates shrink below 1e-12, so the
        # lifted square has affine rank 1, below the input's 2.
        square = Configuration(rng.uniform(-0.5, 0.5, size=(30, 2)))
        assert lift_s_surface(square, alpha=1e9).p == 3
        with pytest.raises(ValueError, match="too large for the domain's extent"):
            lift_s_surface(square, alpha=1e12)


class TestLiftSwissRoll:
    def test_zero_arc_length_start(self):
        cfg = Configuration(np.array([[0.0, -1.0], [0.0, 0.5], [0.0, 2.0]]))
        out = lift_swiss_roll(cfg, alpha=50.0)
        np.testing.assert_allclose(out.points[0], [0.0, -1.0, 0.0], atol=1e-12)

    def test_inversion_matches_quadrature(self, rng):
        alpha = 50.0
        vs = rng.uniform(0.0, 1.5, size=8)
        ss = _invert_swiss_arclength(vs, alpha)
        for v, s in zip(vs, ss):
            integral, _ = quad(lambda t: np.sqrt(1 + (alpha * t) ** 2), 0.0, s)
            assert integral == pytest.approx(v, abs=1e-9)

    def test_curved_direction_arc_length(self, rng):
        # The lift is unit-speed in the rolled coordinate; measure a short
        # chord subdivided into ten pieces to approximate the arc.
        alpha = 50.0
        for v in rng.uniform(0.01, 1.0, size=5):
            u = float(rng.uniform(0, 1))
            step = 1e-4
            vs = np.linspace(v, v + step, 11)
            pts = Configuration(np.column_stack([vs, np.full(11, u)]))
            out = lift_swiss_roll(pts, alpha=alpha)
            arc = oracles.polyline_arc_length(out.points)
            assert arc == pytest.approx(step, rel=1e-6)

    def test_negative_v_rejected(self):
        with pytest.raises(ValueError):
            lift_swiss_roll(Configuration(np.array([[-0.1, 0.0]])), alpha=50.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            lift_swiss_roll(Configuration(np.array([[0.1, 0.0], [0.2, 0.5]])), alpha=alpha)

    def test_alpha_that_collapses_the_roll_refused(self, rng):
        # The arc-length inversion converges at alpha 1e30, but the radii it
        # returns are below 1e-14, so the roll flattens onto its straight axis.
        square = Configuration(rng.uniform(size=(30, 2)))
        with pytest.raises(ValueError, match="too large for the domain's extent"):
            lift_swiss_roll(square, alpha=1e30)

    def test_overflowing_alpha_raises_without_warnings(self, rng):
        square = Configuration(rng.uniform(size=(30, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StressTuneError, match="did not converge"):
                lift_swiss_roll(square, alpha=1e200)


class TestAddGaussianNoise:
    def test_sigma_zero_identity(self, rng):
        cfg = Configuration(rng.uniform(size=(5, 3)))
        out = add_gaussian_noise(cfg, 0.0, seed=1)
        np.testing.assert_array_equal(out.points, cfg.points)

    def test_sample_standard_deviation(self):
        cfg = Configuration(np.zeros((100_000, 1)))
        out = add_gaussian_noise(cfg, 0.25, seed=2)
        assert out.points.std() == pytest.approx(0.25, rel=0.02)

    def test_determinism(self, rng):
        cfg = Configuration(rng.uniform(size=(50, 2)))
        a = add_gaussian_noise(cfg, 0.1, seed=9)
        b = add_gaussian_noise(cfg, 0.1, seed=9)
        np.testing.assert_array_equal(a.points, b.points)


class TestRescaleToUnit:
    def test_anchored_scaling(self):
        cfg = Configuration(np.array([[2.0, 1.0], [6.0, 1.0], [2.0, 3.0]]))
        out = rescale_to_unit(cfg)
        assert out.points.min() == 0.0
        assert out.points.max() == pytest.approx(1.0)

    def test_centered_scaling(self):
        cfg = Configuration(np.array([[2.0, 1.0], [6.0, 1.0], [2.0, 3.0]]))
        out = rescale_to_unit(cfg, center=True)
        assert np.abs(out.points).max() == pytest.approx(0.5)


class TestHaversine:
    def table(self, rows):
        names = tuple(f"c{i}" for i in range(len(rows)))
        lat = np.array([r[0] for r in rows])
        lon = np.array([r[1] for r in rows])
        return CityTable(names=names, lat=lat, lon=lon)

    def test_identical_coordinates_zero(self):
        t = self.table([(40.0, -75.0), (40.0, -75.0)])
        D = haversine_matrix(t)
        assert D.values[0, 1] == 0.0

    def test_antipodal_is_pi_r(self):
        t = self.table([(10.0, 20.0), (-10.0, -160.0)])
        D = haversine_matrix(t)
        want = np.pi * EARTH_RADIUS_KM
        assert D.values[0, 1] == pytest.approx(want, rel=1e-6)

    def test_matches_law_of_cosines_oracle(self, rng):
        rows = [
            (float(rng.uniform(-60, 60)), float(rng.uniform(-179, 179)))
            for _ in range(20)
        ]
        t = self.table(rows)
        D = haversine_matrix(t).values
        for i in range(20):
            for j in range(i + 1, 20):
                want = oracles.law_of_cosines_km(*rows[i], *rows[j], EARTH_RADIUS_KM)
                assert D[i, j] == pytest.approx(want, rel=1e-3)

    def test_la_to_sf(self):
        t = self.table([(34.0522, -118.2437), (37.7749, -122.4194)])
        D = haversine_matrix(t)
        want = oracles.law_of_cosines_km(34.0522, -118.2437, 37.7749, -122.4194, EARTH_RADIUS_KM)
        assert D.values[0, 1] == pytest.approx(want, rel=1e-3)
        assert 500 < D.values[0, 1] < 600  # sanity: roughly 560 km

    def test_triangle_inequality_sampled(self, rng):
        rows = [
            (float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180)))
            for _ in range(12)
        ]
        D = haversine_matrix(self.table(rows)).values
        for i in range(12):
            for j in range(12):
                for k in range(12):
                    assert D[i, j] <= (D[i, k] + D[k, j]) * (1 + 1e-9) + 1e-9

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CityTable(names=("a",), lat=np.array([95.0]), lon=np.array([0.0]))


# Well-formed city fields for the fuzzing of load_cities.
_NAME = hst.text(max_size=6)
_LAT = hst.floats(-90, 90).map(repr)
_LNG = hst.floats(-180, 180).map(repr)


class TestLoadCities:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "cities.csv"
        path.write_text("city,lat,lng,population\nA,34.05,-118.24,100\nB,37.77,-122.42,50\n")
        t = load_cities(path)
        assert t.n == 2
        assert t.names == ("A", "B")
        np.testing.assert_allclose(t.lat, [34.05, 37.77])

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("city,lng\nA,-118.0\n")
        with pytest.raises(ValueError, match="lat"):
            load_cities(path)

    def test_out_of_range_row_numbered(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("city,lat,lng\nA,34.0,-118.0\nB,95.0,-120.0\n")
        with pytest.raises(ValueError, match="3"):
            load_cities(path)

    def test_unparseable_number_row_numbered(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("city,lat,lng\nA,abc,-118.0\n")
        with pytest.raises(ValueError, match="2"):
            load_cities(path)

    def test_oversized_field_names_the_row(self, tmp_path):
        path = tmp_path / "cities.csv"
        big = "A" * (csv.field_size_limit() + 1)
        for text, row in ((f"city,lat,lng\nA,1.0,2.0\n{big},1.0,2.0\n", 3), (f"city,lat,lng,{big}\nA,1.0,2.0\n", 1)):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=f"row {row}: field larger than field limit"):
                load_cities(path)

    @settings(max_examples=300, deadline=None)
    @given(text=malformed_csv("city,lat,lng", [_NAME, _LAT, _LNG]))
    def test_malformed_rows_return_a_table_or_raise_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz_cities.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            table = load_cities(path)
        except ValueError:
            return
        assert isinstance(table, CityTable) and table.n >= 1
