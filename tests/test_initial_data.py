import math

import numpy as np
import pytest

from vvlab.fields import FieldError, Grid2D, ScalarField2D, norms
from vvlab.initial_data import KINDS, make_initial_data, patch_pair


def test_taylor_green_formula(grid64):
    f = make_initial_data("taylor_green", grid64)
    x1, x2 = grid64.coords()
    np.testing.assert_allclose(f.values, 2 * np.cos(x1) * np.cos(x2), atol=1e-14)


def test_patch_pair_mass_quadrature():
    # high-resolution quadrature oracle for the disc mass
    g = Grid2D(512, 1.0)
    r = 0.1
    f = make_initial_data("patch_pair", g, radius=r, separation=0.45)
    plus_mass = g.spacing ** 2 * f.values[f.values > 0].sum()
    assert plus_mass == pytest.approx(math.pi * r * r, rel=0.02)
    assert norms(f).l1 == pytest.approx(2 * math.pi * r * r, rel=0.02)


@pytest.mark.parametrize("kind,params", [
    ("taylor_green", {}),
    ("patch_pair", {"radius": 0.08, "separation": 0.3}),
    ("random_yudovich", {"rng_seed": 11}),
])
def test_all_kinds_mean_zero(kind, params):
    g = Grid2D(64, 1.0) if kind != "taylor_green" else Grid2D(64, 2 * math.pi)
    f = make_initial_data(kind, g, **params)
    assert f.mean_zero


def test_random_yudovich_bounded():
    g = Grid2D(64, 1.0)
    f = make_initial_data("random_yudovich", g, amplitude=0.7, rng_seed=2)
    assert np.abs(f.values).max() <= 0.7 + 1e-12


def test_random_yudovich_deterministic():
    g = Grid2D(64, 1.0)
    a = make_initial_data("random_yudovich", g, rng_seed=5)
    b = make_initial_data("random_yudovich", g, rng_seed=5)
    np.testing.assert_array_equal(a.values, b.values)


def test_unknown_kind_rejected(grid64):
    with pytest.raises(FieldError, match="unknown initial data kind"):
        make_initial_data("vortex_sheet", grid64)


def test_overlapping_patches_rejected():
    g = Grid2D(64, 1.0)
    with pytest.raises(FieldError, match="overlap"):
        patch_pair(g, radius=0.2, separation=0.3)


def test_kinds_constant_lists_constructors():
    assert set(KINDS) == {"taylor_green", "patch_pair", "random_yudovich"}
