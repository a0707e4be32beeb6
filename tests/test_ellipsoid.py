"""Central-cut ellipsoid: update formulas, volume identities, containment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollopt.ellipsoid import (
    Ellipsoid,
    NumericBreakdown,
    central_cut_volume_ratio,
)


def random_pd(rng, dim):
    A = rng.normal(size=(dim, dim))
    return A @ A.T + 0.5 * np.eye(dim)


def test_unit_ball_single_cut():
    E = Ellipsoid.ball(np.zeros(2), 1.0)
    cut = E.update(np.array([1.0, 0.0]))  # keep {x1 >= 0}
    assert np.allclose(cut.center, [1.0 / 3.0, 0.0], atol=1e-12)
    axes = np.sqrt(np.sort(np.linalg.eigvalsh(cut.shape)))
    assert np.allclose(axes, [2.0 / 3.0, 2.0 / math.sqrt(3.0)], atol=1e-12)


def test_volume_ratio_identity_random(rng):
    for dim in range(2, 9):
        for _ in range(5):
            E = Ellipsoid(rng.normal(size=dim), random_pd(rng, dim))
            g = rng.normal(size=dim)
            cut = E.update(g)
            ratio = math.exp(cut.log_volume() - E.log_volume())
            assert ratio == pytest.approx(central_cut_volume_ratio(dim), abs=1e-9)
            assert ratio <= math.exp(-1.0 / (2.0 * (dim + 1))) + 1e-12


def test_alternating_cuts_shrink_volume(rng):
    E = Ellipsoid.ball(np.zeros(3), 5.0)
    vol = E.log_volume()
    g = np.array([1.0, 0.0, 0.0])
    for i in range(20):
        E = E.update(g if i % 2 == 0 else -g)
        new_vol = E.log_volume()
        assert new_vol < vol
        vol = new_vol


def test_kept_halfspace_points_remain(rng):
    for _ in range(20):
        E = Ellipsoid(rng.normal(size=3), random_pd(rng, 3))
        g = rng.normal(size=3)
        cut = E.update(g)
        # sample points of E on the kept side
        L = np.linalg.cholesky(E.shape)
        for _ in range(50):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            x = E.center + L @ (u * rng.uniform(0, 1))
            if np.dot(g, x) >= np.dot(g, E.center):
                assert cut.contains(x, tol=1e-7)


def test_dimension_one_halving():
    E = Ellipsoid.ball(np.array([0.0]), 2.0)
    cut = E.update(np.array([1.0]))
    assert cut.center[0] == pytest.approx(1.0)
    assert cut.shape[0, 0] == pytest.approx(1.0)
    ratio = math.exp(cut.log_volume() - E.log_volume())
    assert ratio == pytest.approx(0.5, abs=1e-12)


def test_zero_normal_rejected():
    E = Ellipsoid.ball(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        E.update(np.zeros(2))


def test_degenerate_shape_breaks():
    E = Ellipsoid(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NumericBreakdown):
        E.update(np.array([0.0, 1.0]))


def test_circumscribing_box_contains_corners():
    E = Ellipsoid.circumscribing_box(np.zeros(3), np.ones(3) * 4.0)
    for corner in ([0, 0, 0], [4, 4, 4], [4, 0, 4], [0, 4, 0]):
        assert E.contains(np.array(corner, dtype=float), tol=1e-9)


@given(dim=st.integers(min_value=2, max_value=6), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_update_volume_identity_property(dim, seed):
    rng = np.random.default_rng(seed)
    E = Ellipsoid(rng.normal(size=dim), random_pd(rng, dim))
    g = rng.normal(size=dim)
    if not np.any(g != 0.0):
        g = np.eye(dim)[0]
    cut = E.update(g)
    ratio = math.exp(cut.log_volume() - E.log_volume())
    assert abs(ratio - central_cut_volume_ratio(dim)) < 1e-9


def test_shape_stays_exactly_symmetric_under_cuts(rng):
    E = Ellipsoid.ball(np.zeros(8), 10.0)
    for _ in range(500):
        E = E.update(rng.normal(size=8))
        assert np.array_equal(E.shape, E.shape.T)
