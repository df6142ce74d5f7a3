import math

import pytest

from ramsey_sensing import sensitivity
from ramsey_sensing.sensor import EnsembleConfig, SensorModel
from workloads import OMEGA_S, SIGMA, closed_form_points


def test_closed_form_points_are_deterministic_in_seed_and_index():
    assert closed_form_points(7, 3) == closed_form_points(7, 3)
    assert closed_form_points(7, 3) != closed_form_points(7, 4)
    assert closed_form_points(7, 3) != closed_form_points(8, 3)


@pytest.mark.parametrize("seed", range(40))
def test_closed_form_points_stay_in_the_defined_region(seed):
    for index in range(3):
        fig2, two_tone = closed_form_points(seed, index)
        assert len(fig2) == 12 and len(two_tone) == 12
        for n, t2 in fig2:
            assert 100 <= n <= 100_000 and 1e-3 <= t2 <= 1e-1
        for f, n, t2 in two_tone:
            assert 0.1 <= f <= 1.0 and 100 <= n <= 100_000 and 1e-3 <= t2 <= 3e-2
            assert f >= 0.2 or n >= 1000


@pytest.mark.parametrize("seed", [0, 42])
def test_closed_form_two_tone_points_are_detectable(seed):
    _, two_tone = closed_form_points(seed, 0)
    for f, n, t2 in two_tone:
        g = sensitivity.gmin_continuous_two_tone(
            SensorModel(f, t2), EnsembleConfig(n, 1), OMEGA_S, SIGMA).g_min
        assert math.isfinite(g) and g > 0


def test_the_boundary_the_generator_avoids_is_real():
    with pytest.raises(ValueError, match="undetectable"):
        sensitivity.gmin_continuous_two_tone(
            SensorModel(0.1, 1e-2), EnsembleConfig(100, 1), OMEGA_S, SIGMA)
