"""Tests for the electron-optical column model."""

import math

import pytest

from repro.machine.column import Column, FIELD_EMISSION, LAB6, TUNGSTEN


@pytest.fixture
def column():
    return Column(LAB6, energy_kev=20.0)


class TestSources:
    def test_brightness_ordering(self):
        assert TUNGSTEN.brightness < LAB6.brightness < FIELD_EMISSION.brightness

    def test_brightness_scales_with_voltage(self):
        assert LAB6.brightness_at(40.0) == pytest.approx(2 * LAB6.brightness)

    def test_brightness_validates(self):
        with pytest.raises(ValueError):
            LAB6.brightness_at(0)


class TestSpotSize:
    def test_validates_inputs(self, column):
        with pytest.raises(ValueError):
            column.spot_size(0, 0.01)
        with pytest.raises(ValueError):
            column.spot_size(1e-9, 0)

    def test_contributions_all_positive(self, column):
        contributions = column.spot_contributions(1e-9, 5e-3)
        assert all(c > 0 for c in contributions)

    def test_total_is_quadrature_sum(self, column):
        contributions = column.spot_contributions(1e-9, 5e-3)
        assert column.spot_size(1e-9, 5e-3) == pytest.approx(
            math.sqrt(sum(c * c for c in contributions))
        )

    def test_gauss_term_dominates_at_small_aperture(self, column):
        d_g, d_s, d_c, d_d = column.spot_contributions(1e-8, 1e-3)
        assert d_g > d_s

    def test_sphere_term_dominates_at_large_aperture(self, column):
        d_g, d_s, d_c, d_d = column.spot_contributions(1e-9, 4e-2)
        assert d_s > d_g

    def test_diffraction_negligible(self, column):
        # The 1979 claim: electron wavelength never limits e-beam spots.
        _, _, _, d_d = column.spot_contributions(1e-9, 5e-3)
        assert d_d < 2e-3  # a nanometre-scale term, far below the spot


class TestOptimization:
    def test_optimal_angle_minimizes(self, column):
        best_angle = column.optimal_half_angle(1e-8)
        best = column.spot_size(1e-8, best_angle)
        for factor in (0.5, 2.0):
            assert column.spot_size(1e-8, best_angle * factor) >= best

    def test_best_spot_grows_with_current(self, column):
        assert column.best_spot_size(1e-7) > column.best_spot_size(1e-9)

    def test_brighter_source_smaller_spot(self):
        lab6 = Column(LAB6).best_spot_size(1e-8)
        fe = Column(FIELD_EMISSION).best_spot_size(1e-8)
        assert fe < lab6

    def test_max_current_inverts_best_spot(self, column):
        current = column.max_current_for_spot(0.25)
        assert column.best_spot_size(current) == pytest.approx(0.25, rel=0.01)

    def test_unachievable_spot_raises(self, column):
        with pytest.raises(ValueError, match="unachievable"):
            column.max_current_for_spot(1e-6)

    def test_current_density_reasonable(self, column):
        # LaB6 columns delivered ~1-100 A/cm² into sub-µm spots.
        j = column.current_density(1e-8)
        assert 0.1 < j < 1e4

    def test_validation(self):
        with pytest.raises(ValueError):
            Column(LAB6, energy_kev=0)
        with pytest.raises(ValueError):
            Column(LAB6, spherical_aberration_mm=0)
        with pytest.raises(ValueError):
            Column(LAB6).max_current_for_spot(0)


class TestMaxCurrentMemo:
    """``max_current_for_spot`` is memoized on (source, kV, Cs, Cc, spot)."""

    def test_memoized_answer_is_the_solve(self):
        column = Column(LAB6, energy_kev=25.0)
        assert column.max_current_for_spot(0.3) == column._solve_max_current(0.3)

    def test_equal_columns_share_one_solve(self, monkeypatch):
        calls = []
        solve = Column._solve_max_current

        def counting(self, spot_um):
            calls.append(spot_um)
            return solve(self, spot_um)

        monkeypatch.setattr(Column, "_solve_max_current", counting)
        first = Column(TUNGSTEN, energy_kev=17.0).max_current_for_spot(0.5)
        again = Column(TUNGSTEN, energy_kev=17.0).max_current_for_spot(0.5)
        assert first == again
        assert calls == [0.5]

    def test_key_follows_the_column(self):
        column = Column(LAB6, energy_kev=20.0)
        before = column.max_current_for_spot(0.25)
        column.energy_kev = 30.0
        assert column.max_current_for_spot(0.25) != before
        assert column.max_current_for_spot(0.25) == column._solve_max_current(0.25)

    def test_unachievable_spot_raises_every_time(self, column):
        for _ in range(2):
            with pytest.raises(ValueError, match="unachievable"):
                column.max_current_for_spot(1e-6)
