"""Operator-valued Fourier transform against closed forms and slow oracles.

The convolution tests deliberately avoid circularity: grid groups are
checked against a raw double-loop quadrature sum, and the spectral path on
SU(2) is checked against the same double sum on an exact small rule, not
against another library path.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from pego import (
    GroupMismatchError,
    NeighborhoodSpec,
    ResolutionError,
    constant_function,
    convolve,
    cyclic,
    dihedral,
    dirac_net_element,
    distance,
    enumerate_dual,
    evaluate_at,
    forward,
    forward_batch,
    forward_to_cutoff,
    haar_quadrature,
    identity,
    inverse,
    inverse_transform,
    matrix_entry_function,
    multiply,
    parse_label,
    point,
    product,
    random_band_limited_function,
    safe_band,
    sample,
    su2,
    torus,
    translate,
    translate_spectral,
)

TWO_PI = 2.0 * math.pi


def test_forward_constant_hits_only_trivial():
    for group, res, cutoff in [(dihedral(3), 1, None), (su2(), 4, 4)]:
        rule = haar_quadrature(group, res)
        fc = forward_to_cutoff(constant_function(rule), cutoff)
        for lab in fc.labels:
            expect = np.eye(1) if lab.is_trivial else np.zeros((lab.dim, lab.dim))
            npt.assert_allclose(fc[lab], expect, atol=1e-13)


def test_forward_torus_character_is_a_delta():
    rule = haar_quadrature(torus(1), 17)
    f = sample(rule, lambda p: np.exp(3j * p.coords[0]))
    fc = forward_to_cutoff(f, 8)
    for lab in fc.labels:
        expect = 1.0 if lab.name == "torus:[3]" else 0.0
        npt.assert_allclose(fc[lab], [[expect]], atol=1e-13)


def test_forward_matrix_entry_is_scaled_unit_matrix():
    """Schur: the (i,j) entry function of pi transforms to E_ji / dim(pi)."""
    rule = haar_quadrature(su2(), 4)
    lab = parse_label(su2(), "wigner:2")
    f = matrix_entry_function(lab, 1, 2, rule)
    fc = forward_to_cutoff(f, 4)
    expect = np.zeros((3, 3))
    expect[1, 0] = 1.0 / 3.0
    npt.assert_allclose(fc[lab], expect, atol=1e-13)
    for other in fc.labels:
        if other != lab:
            npt.assert_allclose(fc[other], 0.0, atol=1e-13)
    # same shape on the dihedral 2-dim irrep
    rule3 = haar_quadrature(dihedral(3))
    lab3 = parse_label(dihedral(3), "dihedral:2dim-1")
    fc3 = forward_to_cutoff(matrix_entry_function(lab3, 1, 1, rule3))
    npt.assert_allclose(fc3[lab3], [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)


ROUND_TRIP_CASES = [
    (cyclic(8), 1, None, 2),
    (dihedral(4), 1, None, 3),
    (torus(1), 17, 8, 5),
    (torus(2), 9, 4, 2),
    (su2(), 4, 4, 3),
    (product(cyclic(2), su2()), 3, 3, 2),
]


@pytest.mark.parametrize("group,res,cutoff,band", ROUND_TRIP_CASES, ids=lambda x: str(x))
def test_round_trip_and_plancherel(group, res, cutoff, band):
    rule = haar_quadrature(group, res)
    f = random_band_limited_function(rule, band, seed=9, norm=1.3)
    fc = forward_to_cutoff(f, cutoff)
    back = inverse_transform(fc, rule)
    npt.assert_allclose(back.values, f.values, atol=1e-11)
    mass = complex(rule.integrate(np.abs(f.values) ** 2)).real
    head = fc.head_mass(fc.labels)
    assert abs(mass - head) < 1e-11 * max(mass, 1.0)


EVALUATE_CASES = [
    (torus(1), 17, 3, 5),
    (product(torus(1), su2()), 4, 1, 1),
    (product(su2(), cyclic(3)), 3, 2, 3),
]


@pytest.mark.parametrize("group,res,band,cutoff", EVALUATE_CASES, ids=lambda x: str(x))
def test_evaluate_at_matches_synthesis(group, res, band, cutoff):
    """Point-based synthesis at the nodes reproduces stack-based synthesis,
    also on the Kronecker irreps of product groups."""
    rule = haar_quadrature(group, res)
    f = random_band_limited_function(rule, band, seed=1)
    fc = forward_to_cutoff(f, cutoff)
    vals = evaluate_at(fc, rule.nodes)
    npt.assert_allclose(vals, f.values, atol=1e-12)
    if group == torus(1):
        # off-grid point agrees with the trig-polynomial sum done by hand
        theta = 0.321
        hand = sum(
            complex(fc[lab][0, 0]) * np.exp(1j * lab.index[0] * theta)
            for lab in fc.labels
        )
        got = evaluate_at(fc, [point(torus(1), (theta,))])[0]
        assert abs(got - hand) < 1e-12


def _double_sum_convolution(f, g, points):
    """(f*g)(x) = sum_y w_y f(x y^-1) g(y), raw loops, no library paths."""
    from pego import inverse as group_inverse

    rule = f.rule
    fc = forward_to_cutoff(f)
    out = []
    for x in points:
        shifted = [multiply(x, group_inverse(y)) for y in rule.nodes]
        fvals = evaluate_at(fc, shifted)
        out.append(np.sum(rule.weights * fvals * g.values))
    return np.array(out)


@pytest.mark.parametrize(
    "group,res",
    [(cyclic(8), 1), (dihedral(3), 1), (torus(1), 9), (torus(2), 5)],
    ids=lambda x: str(x),
)
def test_convolve_direct_matches_double_sum(group, res):
    rule = haar_quadrature(group, res)
    band = 2 if safe_band(rule) is None else 2
    f = random_band_limited_function(rule, band, seed=3)
    g = random_band_limited_function(rule, band, seed=4)
    got = convolve(f, g, method="direct")
    expect = _double_sum_convolution(f, g, rule.nodes)
    npt.assert_allclose(got.values, expect, atol=1e-11)


def test_convolve_fft_matches_direct():
    for group, res in [(cyclic(16), 1), (torus(1), 12), (torus(2), 6)]:
        rule = haar_quadrature(group, res)
        rng = np.random.default_rng(5)
        f = sample(rule, lambda p: 0)  # placeholder, overwritten below
        f.values[:] = rng.normal(size=len(rule)) + 1j * rng.normal(size=len(rule))
        g = sample(rule, lambda p: 0)
        g.values[:] = rng.normal(size=len(rule)) + 1j * rng.normal(size=len(rule))
        a = convolve(f, g, method="direct")
        b = convolve(f, g, method="fft")
        npt.assert_allclose(a.values, b.values, atol=1e-12)


def test_convolve_su2_spectral_matches_double_sum():
    """Non-circular check of the only SU(2) path on an exact small rule."""
    rule = haar_quadrature(su2(), 3)
    f = random_band_limited_function(rule, 1, seed=6)
    g = random_band_limited_function(rule, 1, seed=7)
    got = convolve(f, g, method="spectral")
    probe = rule.nodes[::31]
    expect = _double_sum_convolution(f, g, probe)
    idx = list(range(0, len(rule), 31))
    npt.assert_allclose(got.values[idx], expect, atol=1e-10)


def test_convolution_theorem_reverses_factors():
    """hat(f*g)(pi) = ghat(pi) @ fhat(pi), and the order is observable."""
    rule = haar_quadrature(dihedral(3))
    f = random_band_limited_function(rule, 3, seed=11)
    g = random_band_limited_function(rule, 3, seed=12)
    fc = forward_to_cutoff(f)
    gc = forward_to_cutoff(g)
    cc = forward_to_cutoff(convolve(f, g, method="direct"))
    lab = parse_label(dihedral(3), "dihedral:2dim-1")
    npt.assert_allclose(cc[lab], gc[lab] @ fc[lab], atol=1e-12)
    # fhat @ ghat is the transform of g*f, which differs off-center
    assert np.abs(gc[lab] @ fc[lab] - fc[lab] @ gc[lab]).max() > 1e-3
    assert np.abs(convolve(f, g).values - convolve(g, f).values).max() > 1e-3


def test_translate_matches_pointwise_definition():
    for group, res in [(dihedral(4), 1), (cyclic(8), 1)]:
        rule = haar_quadrature(group, res)
        f = random_band_limited_function(rule, 2, seed=2)
        rng = np.random.default_rng(8)
        elems = list(rule.nodes)
        y = elems[rng.integers(len(elems))]
        shifted = translate(f, y)
        expect = [f.values[rule.node_index(multiply(x, y))] for x in rule.nodes]
        npt.assert_allclose(shifted.values, expect, atol=0)


def test_translate_spectral_identity():
    """hat(R_y f)(pi) = pi(y) @ fhat(pi) on every supported family."""
    from pego import irrep_matrix

    for group, res, cutoff, y_coords in [
        (torus(1), 17, 5, (0.613,)),
        (su2(), 4, 3, None),
        (dihedral(3), 1, None, (2, 1)),
    ]:
        rule = haar_quadrature(group, res)
        if y_coords is None:
            q = np.array([0.9, 0.1, -0.3, 0.28])
            y = point(group, tuple(q / np.linalg.norm(q)))
        else:
            y = point(group, y_coords)
        f = random_band_limited_function(rule, 2, seed=13)
        lhs = forward_to_cutoff(translate(f, y), cutoff)
        fc = forward_to_cutoff(f, cutoff)
        for lab in lhs.labels:
            npt.assert_allclose(lhs[lab], irrep_matrix(lab, y) @ fc[lab], atol=1e-11)


def test_grid_translation_matches_spectral_identity():
    """Re-indexed translation by a node of a torus grid or a product of grids."""
    for group, res in [(torus(2), 9), (product(torus(1), cyclic(3)), 9)]:
        rule = haar_quadrature(group, res)
        f = random_band_limited_function(rule, 2, seed=13)
        y = rule.nodes[len(rule) // 3 + 1]
        spectral = inverse_transform(translate_spectral(forward_to_cutoff(f), y), rule)
        npt.assert_allclose(translate(f, y).values, spectral.values, atol=1e-11)


def test_translate_torus_character_is_eigenfunction():
    rule = haar_quadrature(torus(1), 17)
    f = sample(rule, lambda p: np.exp(4j * p.coords[0]))
    y = point(torus(1), (0.37,))
    shifted = translate(f, y)
    npt.assert_allclose(shifted.values, np.exp(4j * 0.37) * f.values, atol=1e-12)


def test_dirac_net_element_properties():
    for group, res, radius in [(torus(1), 33, 0.3), (su2(), 6, 0.8), (dihedral(3), 1, 0.5)]:
        rule = haar_quadrature(group, res)
        e_u = dirac_net_element(group, NeighborhoodSpec(radius), rule)
        assert abs(complex(rule.integrate(e_u.values)) - 1.0) < 1e-12
        ident = identity(group)
        for p, v in zip(rule.nodes, e_u.values):
            if distance(ident, p) > radius + 1e-12:
                assert v == 0.0
        assert np.all(e_u.values.real >= 0)


def test_dirac_net_unresolvable_radius_raises():
    # the su2 Euler rule has no node at the identity, so a tiny ball is empty
    rule = haar_quadrature(su2(), 4)
    with pytest.raises(ResolutionError):
        dirac_net_element(su2(), NeighborhoodSpec(1e-4), rule)


def test_safe_band_values():
    assert safe_band(haar_quadrature(dihedral(3))) is None
    assert safe_band(haar_quadrature(torus(1), 17)) == 8
    assert safe_band(haar_quadrature(su2(), 4)) == 4
    assert safe_band(haar_quadrature(product(cyclic(2), su2()), 3)) == 3


def test_forward_to_cutoff_rejects_aliased_request():
    rule = haar_quadrature(torus(1), 9)
    f = constant_function(rule)
    with pytest.raises(ResolutionError):
        forward_to_cutoff(f, 8)


def test_forward_batch_matches_forward():
    rule = haar_quadrature(su2(), 3)
    fs = [random_band_limited_function(rule, 2, seed=s) for s in range(4)]
    dual = enumerate_dual(su2(), 3)
    batch = forward_batch(fs, dual)
    for fb, f in zip(batch, fs):
        single = forward(f, dual)
        for lab in dual:
            npt.assert_allclose(fb[lab], single[lab], atol=1e-13)


def test_mixed_rule_arithmetic_raises():
    f = constant_function(haar_quadrature(torus(1), 9))
    g = constant_function(haar_quadrature(torus(1), 11))
    with pytest.raises(GroupMismatchError):
        _ = f + g
    with pytest.raises(GroupMismatchError):
        convolve(f, g)
