"""Bessel evaluator against a high-precision oracle (mpmath)."""

import math

import mpmath
import numpy as np
import pytest

from bmkit import DomainError, bessel_j, j0_field, j1_field
from bmkit import solid_torus

mpmath.mp.dps = 40


def mp_j(order, z):
    return float(mpmath.besselj(order, mpmath.mpf(z)))


def test_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_first_zero_of_j0():
    # first positive zero located by bisection on the oracle series
    z0 = 2.404825557695773
    assert abs(bessel_j(0, z0)) < 1e-9


def test_against_mpmath_across_range():
    zs = np.concatenate([np.linspace(0, 7.9, 45), np.linspace(8.0, 50.0, 60)])
    for order in (0, 1):
        got = bessel_j(order, zs)
        want = np.array([mp_j(order, z) for z in zs])
        err = np.abs(got - want)
        rel = err / np.maximum(np.abs(want), 1e-3)
        assert np.max(rel) < 1e-10, (order, float(np.max(rel)))


def test_matches_scipy():
    from scipy.special import j0, j1
    zs = np.linspace(0.0, 50.0, 211)
    assert np.max(np.abs(bessel_j(0, zs) - j0(zs))) < 1e-12
    assert np.max(np.abs(bessel_j(1, zs) - j1(zs))) < 1e-12


def test_parity():
    zs = np.linspace(0.1, 40.0, 17)
    assert np.allclose(bessel_j(0, -zs), bessel_j(0, zs))
    assert np.allclose(bessel_j(1, -zs), -bessel_j(1, zs))


def test_out_of_range():
    with pytest.raises(DomainError):
        bessel_j(0, 51.0)
    with pytest.raises(DomainError):
        bessel_j(0, float("nan"))
    with pytest.raises(DomainError):
        bessel_j(2, 1.0)


def test_cylinder_recurrence_derivative():
    # d/dr (r J1(kc r)) = kc r J0(kc r), checked by finite differences
    kc = 2.0
    for r in (0.3, 0.7):
        h = 1e-6
        lhs = ((r + h) * bessel_j(1, kc * (r + h))
               - (r - h) * bessel_j(1, kc * (r - h))) / (2 * h)
        rhs = r * kc * bessel_j(0, kc * r)
        assert abs(lhs - rhs) < 1e-8


def test_field_partials_match_fd():
    chart = solid_torus(a=1.0)
    pts = np.stack([np.linspace(0.05, 0.95, 9),
                    np.zeros(9), np.zeros(9)], axis=-1)
    h = 1e-6
    for field in (j0_field(0, 2.0), j1_field(0, 2.0)):
        dp = np.zeros(3)
        dp[0] = h
        fd = (field(pts + dp) - field(pts - dp)) / (2 * h)
        an = field.partial(0)(pts)
        assert np.max(np.abs(fd - an)) < 1e-8


def test_series_pinned_to_mpmath_on_0_8():
    # absolute error of the Horner-form series on 4001 points of [0, 8)
    zs = np.linspace(0.0, 8.0, 4001, endpoint=False)
    for order in (0, 1):
        want = np.array([mp_j(order, z) for z in zs])
        err = float(np.max(np.abs(bessel_j(order, zs) - want)))
        assert err <= 5e-14, (order, err)


def test_values_do_not_depend_on_the_other_arguments():
    """Each value is the one bessel_j gives for its argument alone, on both sides of the
    switch at |z| = 8, so evaluating a grid in blocks of any size changes no bit."""
    z = np.random.default_rng(3).uniform(-50.0, 50.0, 301)
    for order in (0, 1):
        alone = [bessel_j(order, float(x)) for x in z]
        assert bessel_j(order, z).tolist() == alone
        assert bessel_j(order, z[5:290]).tolist() == alone[5:290]
