import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torusvar.h_calculus import ExactTorus
from torusvar.torus_geometry import (
    MAX_GRID,
    TorusShape,
    area_volume,
    curvatures,
    divbar_numeric,
    grid_nodes,
    lb_numeric,
    spectral_derivative,
    suggest_grid,
)

from oracles import ref_fundamental_forms

T21 = TorusShape(a=2.0, r=1.0)


def random_tori(count, seed=0):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ratio = Fraction(rng.randint(23, 80), 20)
        r = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        out.append(TorusShape.from_ratio(ratio, r))
    return out


def test_curvatures_on_top_circle():
    h, k = curvatures(T21, math.pi / 2)
    assert h == pytest.approx(0.5, abs=1e-15)
    assert k == pytest.approx(0.0, abs=1e-15)


def test_curvatures_on_outer_equator():
    h, k = curvatures(T21, 0.0)
    assert h == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert k == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_weingarten_relation_everywhere():
    for t in random_tori(6, seed=3):
        u = grid_nodes(128)
        h, k = curvatures(t, u)
        assert np.max(np.abs(t.r**2 * k - 2 * t.r * h + 1)) < 1e-14


def test_shape_validation():
    with pytest.raises(ValueError):
        TorusShape(a=1.0, r=1.0)
    with pytest.raises(ValueError):
        TorusShape(a=2.0, r=-1.0)


@pytest.mark.parametrize("r", [Fraction(19, 3), Fraction(38, 3), Fraction(47, 3)])
def test_a_equal_to_r_is_rejected_on_the_exact_values(r):
    # rounded, these tori read a > r: the check must be made before the sqrt
    assert math.sqrt(r * r) > float(r)
    with pytest.raises(ValueError, match=rf"^need a\^2 > r\^2 and r > 0, got a\^2={r * r}, r={r}$"):
        TorusShape.from_ratio(1, r)
    with pytest.raises(ValueError, match=r"^need a\^2 > r\^2"):
        ExactTorus(r * r, r).to_shape()


@pytest.mark.parametrize(
    "ratio, r, rounded",
    [
        (Fraction(10**18 + 1, 10**18), 1, "a=1.0, r=1.0"),
        # radii below the smallest float round to 0
        (2, Fraction(1, 10**400), "a=0.0, r=0.0"),
    ],
)
def test_radii_that_round_to_a_not_above_r_are_rejected_with_the_exact_ratio(ratio, r, rounded):
    message = rf"^a\^2/r\^2 = {ratio} does not give a > r > 0 in floats: the radii round to {rounded}$"
    with pytest.raises(ValueError, match=message):
        TorusShape.from_ratio(ratio, r)


def test_outer_equator_metric_component():
    _, g22, _, _ = ref_fundamental_forms(T21, 0.0)
    assert g22 == pytest.approx(9.0)


def test_forms_reproduce_curvatures_at_random_angles():
    rng = random.Random(1)
    for t in random_tori(4, seed=8):
        for _ in range(32):
            u = rng.uniform(0.0, 2.0 * math.pi)
            g11, g22, h11, h22 = ref_fundamental_forms(t, u)
            h, k = curvatures(t, u)
            assert 0.5 * (h11 / g11 + h22 / g22) == pytest.approx(h, rel=1e-13)
            assert (h11 * h22) / (g11 * g22) == pytest.approx(k, rel=1e-13, abs=1e-13)


def test_metric_never_degenerates():
    for t in random_tori(6, seed=12):
        u = grid_nodes(64)
        assert np.all(t.a + t.r * np.cos(u) > 0)


def test_laplacian_of_constant_vanishes():
    out = lb_numeric(T21, np.full(64, 3.7))
    assert np.max(np.abs(out)) < 1e-12


def test_divbar_of_constant_vanishes():
    out = divbar_numeric(T21, np.full(64, -1.25))
    assert np.max(np.abs(out)) < 1e-12


def test_laplacian_of_cos_matches_hand_expansion():
    # (1/(r^2 w)) d/du (w * (-sin u)) with w = 3 + cos u, expanded by hand
    t = TorusShape(a=3.0, r=1.0)
    u = grid_nodes(256)
    w = 3.0 + np.cos(u)
    expected = (-np.cos(u) * w + np.sin(u) ** 2) / w
    got = lb_numeric(t, np.cos(u))
    assert np.max(np.abs(got - expected)) < 1e-10


def test_divbar_of_k_is_divbar_of_h_scaled():
    for t in random_tori(3, seed=21):
        u = grid_nodes(256)
        h, k = curvatures(t, u)
        lhs = divbar_numeric(t, k)
        rhs = divbar_numeric(t, h) * (2.0 / t.r)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


def test_divergence_structure_integrates_to_zero():
    for t in random_tori(3, seed=33):
        u = grid_nodes(256)
        h, _ = curvatures(t, u)
        w = t.a + t.r * np.cos(u)
        du = 2.0 * math.pi / 256
        for op in (lb_numeric, divbar_numeric):
            field = op(t, h**2)
            integral = 2.0 * math.pi * np.sum(field * t.r * w) * du
            scale = max(1.0, float(np.max(np.abs(field))))
            assert abs(integral) < 1e-10 * scale


def test_spectral_derivative_is_exact_on_trig_polys():
    u = grid_nodes(64)
    f = np.cos(3 * u) + 0.5 * np.sin(7 * u)
    expected = -3 * np.sin(3 * u) + 3.5 * np.cos(7 * u)
    assert np.max(np.abs(spectral_derivative(f) - expected)) < 1e-12


def test_grid_validation():
    for op in (lb_numeric, divbar_numeric):
        with pytest.raises(ValueError, match="even and >= 16, got 8"):
            op(T21, np.zeros(8))
        with pytest.raises(ValueError, match="even and >= 16, got 33"):
            op(T21, np.zeros(33))


def test_area_volume_closed_forms():
    av = area_volume(T21)
    assert av.area == pytest.approx(8 * math.pi**2, rel=1e-14)
    assert av.volume == pytest.approx(4 * math.pi**2, rel=1e-14)


def test_area_volume_quadrature_agrees_with_closed_forms():
    for t in random_tori(5, seed=44):
        av = area_volume(t)
        assert abs(av.area_quadrature - av.area) < 1e-12 * av.area
        assert abs(av.volume_quadrature - av.volume) < 1e-12 * av.volume


def test_reduced_volume_clifford():
    t = TorusShape.from_ratio(2, 1)
    av = area_volume(t)
    # closed form: v = 3/(2 sqrt(pi)) * (r/a)^(1/2)
    expected = 1.5 / math.sqrt(math.pi) * (1.0 / t.a) ** 0.5
    assert av.reduced_volume == pytest.approx(expected, rel=1e-12)
    assert av.reduced_volume == pytest.approx(0.7116, abs=5e-4)


def test_exact_square_construction():
    t = ExactTorus(Fraction(6, 5), 1).to_shape()
    assert t.a2 == Fraction(6, 5)
    assert t.a == pytest.approx(math.sqrt(1.2), rel=1e-15)


def test_suggest_grid_covers_two_derivatives_at_nyquist():
    # the residual weights mode k by k^2, so the Nyquist mode k = N/2 of the
    # chosen grid must have k^2 q^k below the tail, and the grid below it not
    for ratio in (Fraction(3), Fraction(12, 11), Fraction(56, 55), Fraction(30, 29)):
        t = TorusShape.from_ratio(ratio, Fraction(3, 2))
        s = math.sqrt(float(ratio))
        q = 1.0 / (s + math.sqrt(s * s - 1.0))
        n = suggest_grid(t)
        assert n % 256 == 0 and (n // 256) & (n // 256 - 1) == 0
        assert (n / 2) ** 2 * q ** (n / 2) < 1e-14
        if n > 256:
            assert (n / 4) ** 2 * q ** (n / 4) >= 1e-14
    assert suggest_grid(TorusShape.from_ratio(Fraction(56, 55), 1)) == 1024


def test_suggest_grid_below_the_cap():
    assert suggest_grid(TorusShape.from_ratio(1 + Fraction(1, 10**5), 1)) == 32768 <= MAX_GRID


def test_suggest_grid_rejects_ratios_beyond_the_cap():
    # the needed grid is found by arithmetic alone; no array is allocated
    with pytest.raises(ValueError, match=r"a\^2/r\^2 = 1000000001/1000000000 needs a grid of 4194304"):
        suggest_grid(TorusShape.from_ratio(1 + Fraction(1, 10**9), 1))
