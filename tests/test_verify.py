import numpy as np

from gkm import ParamSet, verify


def test_draw_params_with_no_parameters_draws_nothing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert verify._draw_params(rng, 0) == ParamSet()
    assert rng.bit_generator.state == before

