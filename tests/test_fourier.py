"""Operator-valued Fourier transform against closed forms and slow oracles.

The convolution tests deliberately avoid circularity: grid groups are
checked against a raw double-loop quadrature sum, torus grids also against
the sum indexed by integer steps mod R, and the spectral path on SU(2)
against the same double sum on an exact small rule, not against another
library path.
"""

import contextlib
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pego import (
    DualFiltration,
    DualSubset,
    FourierCoefficients,
    GroupMismatchError,
    NeighborhoodSpec,
    ResolutionError,
    SampledFunction,
    basis_twist,
    builtin_family,
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
    plancherel_residual,
    point,
    product,
    random_band_limited_function,
    safe_band,
    sample,
    sample_ball,
    su2,
    tail_decay_profile,
    torus,
    translate,
    translate_spectral,
)
from pego import fourier, irreps
from pego.irreps import irrep_matrices

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


def _modular_convolution(f, g):
    """(f*g)(x_i) = sum_j w_j f(x_i - x_j) g(x_j) on a torus grid: each node
    is its integer step vector (C order), differences are taken mod R and
    raveled back to a node.  No library path is involved."""
    shape = f.rule.meta["shape"]
    steps = np.indices(shape).reshape(len(shape), -1).T
    npt.assert_allclose(f.rule.coords, steps * (2.0 * math.pi / shape[0]), rtol=0, atol=1e-12)
    diff = (steps[:, None, :] - steps[None, :, :]) % shape[0]
    idx = np.ravel_multi_index(tuple(np.moveaxis(diff, -1, 0)), shape)
    return (f.values[idx] * (f.rule.weights * g.values)).sum(axis=1)


@pytest.mark.parametrize("n,res", [(1, 12), (1, 17), (2, 6), (2, 11), (2, 24)])
def test_convolve_direct_on_torus_grids_is_the_quadrature_sum(n, res):
    """Random samples, not band-limited, so the spectral product (which
    drops the top bin of an even grid) could not pass; res 24 on torus:2 has
    576 nodes."""
    rule = haar_quadrature(torus(n), res)
    rng = np.random.default_rng([5, n, res])
    f, g = (SampledFunction(rule, [1, 1j] @ rng.normal(size=(2, len(rule)))) for _ in range(2))
    got = convolve(f, g, method="direct")
    npt.assert_allclose(got.values, _modular_convolution(f, g), rtol=0, atol=1e-12)
    assert np.array_equal(convolve(f, g).values, got.values)
    with pytest.raises(ValueError):
        convolve(f, g, method="fft")


@pytest.mark.parametrize("group", [cyclic(12), dihedral(5), product(cyclic(2), dihedral(3))],
                         ids=str)
def test_direct_convolution_keeps_no_node_index_on_the_rule(group):
    """Convolving twice on a finite rule gives the same quadrature sum and
    leaves nothing in the rule's meta: no N x N node index is held for the
    life of the rule."""
    rule = haar_quadrature(group)
    before = dict(rule.meta)
    f, g = (random_band_limited_function(rule, 2, seed=s) for s in (1, 2))
    first = convolve(f, g, method="direct")
    again = convolve(f, g, method="direct")
    assert np.array_equal(first.values, again.values)
    assert "_conv_index" not in rule.meta and rule.meta == before


_FINITE_PRODUCTS = [product(cyclic(3), dihedral(3)), product(dihedral(3), dihedral(4))]


def _random_samples(rule, seed):
    """Two seeded complex sample arrays on a rule, not band-limited."""
    rng = np.random.default_rng(seed)
    return [SampledFunction(rule, v) for v in rng.normal(size=(2, len(rule), 2)) @ [1, 1j]]


@pytest.mark.parametrize("group", _FINITE_PRODUCTS, ids=str)
def test_finite_products_transform_factor_by_factor(group, monkeypatch):
    """On a finite product, the forward transform equals the weighted sum
    over the elements against each label's matrices, the synthesis on the
    full dual gives the samples back, and only factor labels get stacks."""
    rule = haar_quadrature(group)
    fs = _random_samples(rule, 7)
    dual = enumerate_dual(group)
    stacks = []
    real = irreps.irrep_stack

    def counted(label, at):
        stacks.append(label)
        return real(label, at)

    monkeypatch.setattr(irreps, "irrep_stack", counted)
    coeffs = forward_batch(fs, dual)
    back = fourier.inverse_batch(coeffs, rule)
    assert stacks and {lab.group for lab in stacks} <= set(group.factors)
    for f, c, b in zip(fs, coeffs, back):
        for lab in dual:
            want = np.einsum("t,tji->ij", rule.weights * f.values,
                             irrep_matrices(lab, rule.nodes).conj())
            npt.assert_allclose(c[lab], want, rtol=0, atol=1e-15)
        npt.assert_allclose(b.values, f.values, rtol=0, atol=1e-14)


@pytest.mark.parametrize("group", _FINITE_PRODUCTS, ids=str)
def test_finite_products_convolve_by_node_reindexing(group):
    """"auto" and "direct" are the quadrature sum over the elements, against
    a raw loop over points; a hand-built rule on the same nodes has no
    "direct" path, and its "auto" is the spectral product on the full dual."""
    from pego import QuadratureRule
    from pego import inverse as group_inverse

    rule = haar_quadrature(group)
    f, g = _random_samples(rule, 9)
    where = {x: i for i, x in enumerate(rule.nodes)}
    want = [sum(w * f.values[where[multiply(x, group_inverse(y))]] * gy
                for y, w, gy in zip(rule.nodes, rule.weights, g.values)) for x in rule.nodes]
    got = convolve(f, g, method="direct")
    npt.assert_allclose(got.values, want, rtol=0, atol=1e-15)
    assert np.array_equal(convolve(f, g).values, got.values)
    hand = QuadratureRule(group, rule.coords, rule.weights, None, 1)
    fh, gh = (SampledFunction(hand, h.values) for h in (f, g))
    with pytest.raises(ValueError, match="unavailable"):
        convolve(fh, gh, method="direct")
    npt.assert_allclose(convolve(fh, gh).values, got.values, rtol=0, atol=1e-14)


_PROPERTY_RULES = {
    "torus:1-odd": (torus(1), 9),
    "torus:1-even": (torus(1), 10),
    "torus:2-odd": (torus(2), 7),
    "torus:2-even": (torus(2), 8),
    "dihedral:9": (dihedral(9), 1),
    "su2": (su2(), 4),
    "product(torus:1,su2)": (product(torus(1), su2()), 3),
}


@pytest.mark.parametrize("name", sorted(_PROPERTY_RULES))
def test_convolution_theorem_and_plancherel_under_auto(name):
    """For band-limited f and g, ``convolve(f, g)`` transforms to
    ghat @ fhat label by label, and its squared L2 norm from the samples
    equals the Plancherel sum of dim ||ghat fhat||_F^2."""
    group, res = _PROPERTY_RULES[name]
    rule = haar_quadrature(group, res)
    band = safe_band(rule)
    band = max(lab.shell for lab in enumerate_dual(group)) if band is None else band

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(st.integers(0, 2**16), st.integers(0, 2**16))
    def laws(seed_f, seed_g):
        f = random_band_limited_function(rule, band, seed=seed_f)
        g = random_band_limited_function(rule, band, seed=seed_g)
        fc, gc = forward_to_cutoff(f), forward_to_cutoff(g)
        h = convolve(f, g)
        hc = forward_to_cutoff(h)
        for b, (gb, fb) in enumerate(zip(gc.blocks, fc.blocks)):
            npt.assert_allclose(hc.blocks[b], gb @ fb, rtol=0, atol=1e-12)
        mass = float(np.sum(rule.weights * np.abs(h.values) ** 2))
        assert abs(mass - hc.head_mass(hc.labels)) <= 1e-12 * max(mass, 1.0)

    laws()


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


@pytest.mark.parametrize("group,res", [(su2(), 6), (product(torus(1), su2()), 4)], ids=str)
def test_spectral_convolution_transforms_f_and_g_in_one_batch(monkeypatch, group, res):
    """One ``forward_batch([f, g])``, within 1e-15 of the form with one
    ``forward_to_cutoff`` per function."""
    rule = haar_quadrature(group, res)
    f, g = (random_band_limited_function(rule, safe_band(rule), seed=s) for s in (1, 2))
    fc, gc = forward_to_cutoff(f), forward_to_cutoff(g)
    blocks = [b @ a for b, a in zip(gc.blocks, fc.blocks)]
    want = inverse_transform(FourierCoefficients.from_blocks(group, fc.table, blocks), rule)
    batches = []
    real = fourier.forward_batch

    def counted(fs, dual):
        batches.append(len(fs))
        return real(fs, dual)

    monkeypatch.setattr(fourier, "forward_batch", counted)
    got = convolve(f, g, method="spectral")
    assert batches == [2]
    npt.assert_allclose(got.values, want.values, rtol=0, atol=1e-15)


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
        expect = [f.values[rule.nodes.index(multiply(x, y))] for x in rule.nodes]
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


def _assert_transforms_match_dense_oracle(rule, dual, twisted, seed, twist_cutoff):
    """forward_batch and inverse against sums over irrep_matrices at every
    node, plain or under basis_twist of the group ``twisted`` (the rule's
    group or one of its factors; None for plain), at atol 1e-13."""
    g = rule.group
    rng = np.random.default_rng(seed)
    fs = [
        SampledFunction(rule, rng.normal(size=len(rule)) + 1j * rng.normal(size=len(rule)))
        for _ in range(2)
    ]
    entries = {
        lab: (rng.normal(size=(lab.dim, lab.dim)) + 1j * rng.normal(size=(lab.dim, lab.dim)))
        / len(dual) ** 2
        for lab in dual
    }
    coeffs = FourierCoefficients(g, tuple(dual), entries)
    twist = contextlib.nullcontext() if twisted is None else basis_twist(twisted, twist_cutoff, 5)
    with twist:
        got = forward_batch(fs, dual)
        synth = inverse_transform(coeffs, rule).values
        mats = {lab: irrep_matrices(lab, rule.nodes) for lab in dual}
    for lab in dual:
        for f, c in zip(fs, got):
            want = np.einsum("t,tji->ij", rule.weights * f.values, mats[lab].conj())
            npt.assert_allclose(c[lab], want, rtol=0, atol=1e-13)
    want = sum(
        lab.dim * np.einsum("ij,tji->t", entries[lab], mats[lab]) for lab in dual
    )
    npt.assert_allclose(synth, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_separable_su2_transforms_match_dense_oracle(twisted):
    """The Euler-grid forward and inverse against sums over irrep_matrices at
    every node, plain and under basis_twist, on su2 res 1-8."""
    g = su2()
    for res in range(1, 9):
        rule = haar_quadrature(g, res)
        dual = enumerate_dual(g, safe_band(rule))
        _assert_transforms_match_dense_oracle(rule, dual, g if twisted else None, res, res)


_DENSE_CASES = {
    "torus:1": (torus(1), 9),
    "torus:2": (torus(2), 17),
    "cyclic:6": (cyclic(6), 1),
    "product(torus:1,su2)": (product(torus(1), su2()), 4),
    "product(su2,cyclic:3)": (product(su2(), cyclic(3)), 3),
    # two factors of dimension 2 in one label: the Kronecker index order
    "product(dihedral:3,su2)": (product(dihedral(3), su2()), 4),
}


@pytest.mark.parametrize("name,twist", [
    (name, twist) for name in sorted(_DENSE_CASES)
    for twist in ("plain", "twisted", "factor0", "factor1")
    if twist in ("plain", "twisted") or _DENSE_CASES[name][0].family == "product"
])
def test_grid_and_product_transforms_match_dense_oracle(name, twist):
    """The torus FFT, the cyclic stacks and the factor-by-factor product
    kernels against sums over irrep_matrices at every node: plain, under a
    twist of the group, and on products under a twist of one factor, which
    only the factor's own kernel and matrices can apply."""
    group, res = _DENSE_CASES[name]
    rule = haar_quadrature(group, res)
    band = safe_band(rule)
    dual = enumerate_dual(group, band)
    twisted = (None if twist == "plain" else group if twist == "twisted"
               else group.factors[int(twist.removeprefix("factor"))])
    _assert_transforms_match_dense_oracle(rule, dual, twisted, res, band)


@pytest.mark.parametrize("group,res,cutoff", [
    (torus(1), 5, 7),
    (torus(2), 4, 3),
    (product(torus(1), su2()), 3, 4),
], ids=str)
def test_forward_beyond_the_safe_band_equals_the_dense_sum(group, res, cutoff):
    """Labels past the grid's band read aliased FFT bins, several labels per
    bin, and still equal the quadrature sum; the synthesis adds them up."""
    rule = haar_quadrature(group, res)
    assert cutoff > safe_band(rule)
    dual = enumerate_dual(group, cutoff)
    _assert_transforms_match_dense_oracle(rule, dual, None, 11, None)


def _count_stacks(monkeypatch):
    """The labels of every ``irreps.irrep_stack`` call from here on."""
    calls = []
    real = irreps.irrep_stack

    def counted(label, rule):
        calls.append(label)
        return real(label, rule)

    monkeypatch.setattr(irreps, "irrep_stack", counted)
    return calls


@pytest.mark.parametrize("group,res", [(torus(2), 17), (product(torus(1), su2()), 5)], ids=str)
def test_grid_and_product_transforms_build_no_stacks(group, res, monkeypatch):
    """Forward, inverse and off-grid translation on a torus grid and on a
    product rule evaluate no irrep stack, on the rule or its factor rules."""
    rule = haar_quadrature(group, res)
    f = random_band_limited_function(rule, 2, seed=4)
    calls = _count_stacks(monkeypatch)
    inverse_transform(forward_to_cutoff(f), rule)
    forward_batch([f, f], enumerate_dual(group, safe_band(rule)))
    y = sample_ball(group, NeighborhoodSpec(0.7, 3), seed=1)[-1]
    moved = translate(f, y)
    assert calls == []
    npt.assert_allclose(moved.values, evaluate_at(forward_to_cutoff(f),
                        [multiply(x, y) for x in rule.nodes]), rtol=0, atol=1e-12)


def test_su2_transforms_build_no_stacks(monkeypatch):
    rule = haar_quadrature(su2(), 6)
    f = random_band_limited_function(rule, 3, seed=4)
    g = random_band_limited_function(rule, 2, seed=5)
    calls = _count_stacks(monkeypatch)
    forward_batch([f, g], enumerate_dual(su2(), 6))
    inverse_transform(forward_to_cutoff(f), rule)
    q = np.array([0.3, -0.5, 0.7, 0.2])
    translate(f, point(su2(), tuple(q / np.linalg.norm(q))))
    convolve(f, g, method="spectral")
    assert calls == []


def test_su2_transform_memory_stays_far_below_the_stacks():
    """Forward plus inverse at res 12, where the stacks of the alias-free
    dual would take n * sum d^2 * 16 = 209 MB."""
    rule = haar_quadrature(su2(), 12)
    dual = enumerate_dual(su2(), safe_band(rule))
    assert len(rule) * sum(lab.dim**2 for lab in dual) * 16 > 200e6
    f = constant_function(rule)
    tracemalloc.start()
    try:
        inverse_transform(forward(f, dual), rule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_enumerate_dual_returns_equal_independent_lists():
    first = enumerate_dual(torus(2), 3)
    second = enumerate_dual(torus(2), 3)
    assert first == second and first is not second
    first.pop()
    first.reverse()
    assert enumerate_dual(torus(2), 3) == second
    assert len(second) == 49


def _assert_profile_is_per_step_residual(fam, filtration=None):
    prof = tail_decay_profile(fam, filtration)
    top = prof.steps[-1].subset
    coeffs = forward_batch(fam.members, top.labels)
    for step in prof.steps:
        want = [
            plancherel_residual(f, c, step.subset) for f, c in zip(fam.members, coeffs)
        ]
        assert step.per_member.tolist() == want
        assert step.sup_tail == max(want)


def test_tail_profile_equals_per_step_plancherel_residual():
    rule = haar_quadrature(torus(2), 17)
    _assert_profile_is_per_step_residual(builtin_family("heat_kernel", rule, {"count": 6}))
    g = torus(1)
    rule = haar_quadrature(g, 17)
    labs = {lab.name: lab for lab in enumerate_dual(g, 8)}
    order = ["triv", "torus:[5]", "torus:[-2]", "torus:[1]", "torus:[-7]", "torus:[3]"]
    filtration = DualFiltration(
        tuple(
            DualSubset.from_labels(g, [labs[n] for n in order[:k]])
            for k in (1, 2, 4, 6)
        )
    )
    fam = builtin_family("matrix_entry_span", rule, {"shell": 8, "count": 5})
    _assert_profile_is_per_step_residual(fam, filtration)
