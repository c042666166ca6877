"""Group arithmetic against independent oracles.

Cyclic groups are checked against modular addition, the dihedral group
against an explicit 2x2 matrix realization (rotations and a flip), SU(2)
against quaternion algebra done in raw numpy, and products componentwise.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from pego import (
    GroupMismatchError,
    NeighborhoodSpec,
    cyclic,
    dihedral,
    distance,
    enumerate_elements,
    haar_quadrature,
    identity,
    inverse,
    multiply,
    parse_group,
    point,
    product,
    sample_ball,
    su2,
    torus,
)
from pego.groups import conjugate

TWO_PI = 2.0 * math.pi


def test_cyclic_law_matches_modular_addition():
    g = cyclic(8)
    for a in range(8):
        for b in range(8):
            prod = multiply(point(g, a), point(g, b))
            assert prod.coords == ((a + b) % 8,)
    for a in range(8):
        assert inverse(point(g, a)).coords == ((-a) % 8,)


def _d3_matrix(p):
    """2x2 realization of D_3: r -> rotation by 2 pi r / 3, s -> x-axis flip."""
    r, s = p.coords
    t = TWO_PI * r / 3.0
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    flip = np.array([[1.0, 0.0], [0.0, -1.0]])
    return rot @ (flip if s else np.eye(2))


def test_dihedral_law_matches_matrix_realization():
    g = dihedral(3)
    elems = enumerate_elements(g)
    assert len(elems) == 6
    for a in elems:
        for b in elems:
            lhs = _d3_matrix(multiply(a, b))
            rhs = _d3_matrix(a) @ _d3_matrix(b)
            npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_dihedral_is_noncommutative():
    g = dihedral(3)
    rho = point(g, (1, 0))
    sig = point(g, (0, 1))
    assert multiply(rho, sig).coords != multiply(sig, rho).coords


def test_su2_multiply_matches_quaternion_product():
    rng = np.random.default_rng(3)
    g = su2()
    for _ in range(50):
        qa = rng.normal(size=4)
        qb = rng.normal(size=4)
        qa /= np.linalg.norm(qa)
        qb /= np.linalg.norm(qb)
        a = point(g, tuple(qa))
        b = point(g, tuple(qb))
        # Hamilton product written out independently
        w1, v1 = qa[0], qa[1:]
        w2, v2 = qb[0], qb[1:]
        w = w1 * w2 - v1 @ v2
        v = w1 * v2 + w2 * v1 + np.cross(v1, v2)
        npt.assert_allclose(multiply(a, b).coords, np.concatenate([[w], v]), atol=1e-12)


def _random_point(group, rng):
    fam = group.family
    if fam in ("cyclic", "dihedral"):
        elems = enumerate_elements(group)
        return elems[rng.integers(len(elems))]
    if fam == "torus":
        return point(group, tuple(rng.uniform(0, TWO_PI, size=group.n)))
    if fam == "su2":
        q = rng.normal(size=4)
        return point(group, tuple(q / np.linalg.norm(q)))
    return point(group, tuple(_random_point(f, rng) for f in group.factors))


ALL_GROUPS = [cyclic(8), dihedral(3), torus(1), torus(2), su2(), product(cyclic(4), su2())]


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_group_axioms_on_random_triples(group):
    rng = np.random.default_rng(11)
    e = identity(group)
    # the su2 geodesic metric resolves ~sqrt(eps) near 0, hence 1e-7
    for _ in range(30):
        a, b, c = (_random_point(group, rng) for _ in range(3))
        ab_c = multiply(multiply(a, b), c)
        a_bc = multiply(a, multiply(b, c))
        assert distance(ab_c, a_bc) < 1e-7
        assert distance(multiply(a, e), a) < 1e-7
        assert distance(multiply(e, a), a) < 1e-7
        assert distance(multiply(a, inverse(a)), e) < 1e-7


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_distance_is_bi_invariant(group):
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, g_ = (_random_point(group, rng) for _ in range(3))
        d = distance(a, b)
        assert abs(distance(multiply(g_, a), multiply(g_, b)) - d) < 1e-10
        assert abs(distance(multiply(a, g_), multiply(b, g_)) - d) < 1e-10
    a = _random_point(group, rng)
    assert distance(a, a) == 0.0


def test_distance_examples():
    t = torus(1)
    # flat circular metric wraps: 0.1 and 2 pi - 0.1 are 0.2 apart
    assert abs(distance(point(t, (0.1,)), point(t, (TWO_PI - 0.1,))) - 0.2) < 1e-12
    q = su2()
    mi = point(q, (-1.0, 0.0, 0.0, 0.0))
    assert abs(distance(identity(q), mi) - TWO_PI) < 1e-12
    g = dihedral(3)
    assert distance(point(g, (1, 0)), point(g, (1, 1))) == 1.0


def test_conjugate_definition():
    g = dihedral(5)
    rng = np.random.default_rng(0)
    a = _random_point(g, rng)
    h = _random_point(g, rng)
    expect = multiply(multiply(inverse(h), a), h)
    assert conjugate(a, h).coords == expect.coords


@pytest.mark.parametrize("group,res", [(cyclic(8), 1), (dihedral(3), 1), (torus(1), 9), (torus(2), 5), (su2(), 3)], ids=lambda x: str(x))
def test_haar_weights_are_a_probability(group, res):
    rule = haar_quadrature(group, res)
    assert np.all(rule.weights >= 0)
    npt.assert_allclose(rule.weights.sum(), 1.0, atol=1e-12)
    assert abs(complex(rule.integrate(np.ones(len(rule)))) - 1.0) < 1e-12


def test_haar_finite_is_uniform_counting():
    g = dihedral(4)
    rule = haar_quadrature(g, 1)
    assert len(rule) == 8
    npt.assert_allclose(rule.weights, np.full(8, 1.0 / 8.0))


@pytest.mark.parametrize("name", ["product(cyclic:3,dihedral:3)", "product(cyclic:5,cyclic:10)",
                                  "product(cyclic:2,product(cyclic:3,dihedral:2))"])
def test_finite_products_have_product_rules(name):
    """A finite product's rule is the product of its factor rules, like
    every product's: every element once, first factor slowest (the order of
    ``enumerate_elements``), weights the products of the factor weights,
    each within one ulp of 1/|G|, the canonical id and no band limit."""
    from pego import safe_band

    group = parse_group(name)
    rule = haar_quadrature(group, 2)
    assert rule.meta["kind"] == "product"
    frules = rule.meta["factor_rules"]
    assert all(fr is haar_quadrature(f, 2) for fr, f in zip(frules, group.factors))
    assert rule.nodes == tuple(enumerate_elements(group))
    assert rule.rule_id == f"{name}|res2"
    assert rule.exactness_degree is None and safe_band(rule) is None
    want = frules[0].weights
    for fr in frules[1:]:
        want = np.outer(want, fr.weights).ravel()
    assert np.array_equal(rule.weights, want)
    n = group.order
    assert np.all(np.abs(rule.weights - 1.0 / n) <= np.spacing(1.0 / n))


def test_haar_translation_invariance_torus():
    """Integral of a smooth function is unchanged by translating the nodes."""
    g = torus(1)
    rule = haar_quadrature(g, 17)

    def f(p):
        (t,) = p.coords
        return math.cos(3 * t) ** 2 + 0.5 * math.sin(t)

    base = rule.integrate([f(p) for p in rule.nodes])
    y = point(g, (0.737,))
    shifted = rule.integrate([f(multiply(y, p)) for p in rule.nodes])
    # cos^2(3t) integrates to 1/2, sin integrates to 0
    assert abs(base - 0.5) < 1e-12
    assert abs(shifted - base) < 1e-12


def test_haar_su2_exactness_on_polynomials():
    """Moments of quaternion coordinates: E[w^2] = 1/4, E[w] = E[wx] = 0."""
    rule = haar_quadrature(su2(), 3)
    w = np.array([p.coords[0] for p in rule.nodes])
    x = np.array([p.coords[1] for p in rule.nodes])
    assert abs(rule.integrate(w)) < 1e-12
    assert abs(rule.integrate(w * x)) < 1e-12
    assert abs(rule.integrate(w * w) - 0.25) < 1e-12


@pytest.mark.parametrize("res", [1, 4, 6, 16])
def test_haar_su2_nodes_match_the_euler_product_bitwise(res):
    """Node by node, q_z(alpha) q_y(beta) q_z(gamma) normalized, alpha
    outermost and gamma innermost, with weights (1/n_a) (w_beta/2) (1/n_c)."""
    rule = haar_quadrature(su2(), res)
    alphas, betas, gammas = rule.meta["alphas"], rule.meta["betas"], rule.meta["gammas"]
    n_a, n_c = len(alphas), len(gammas)
    nodes, weights = [], []
    for a in alphas:
        ca, sa = math.cos(a / 2), math.sin(a / 2)
        for b, gl_w in zip(betas, np.polynomial.legendre.leggauss(len(betas))[1]):
            cb, sb = math.cos(b / 2), math.sin(b / 2)
            for c in gammas:
                cg, sg = math.cos(c / 2), math.sin(c / 2)
                wa, xa, ya, za = ca * cb, -sa * sb, ca * sb, sa * cb
                w, x = wa * cg - za * sg, xa * cg + ya * sg
                y, z = ya * cg - xa * sg, za * cg + wa * sg
                nrm = math.sqrt(w * w + x * x + y * y + z * z)
                nodes.append((w / nrm, x / nrm, y / nrm, z / nrm))
                weights.append((1.0 / n_a) * (gl_w / 2.0) * (1.0 / n_c))
    assert [p.coords for p in rule.nodes] == nodes
    assert rule.weights.tolist() == weights


def test_sample_ball_stays_inside_and_hits_identity():
    for group, delta in [(torus(1), 0.3), (su2(), 0.9), (dihedral(3), 1.5)]:
        pts = sample_ball(group, NeighborhoodSpec(delta, 12), seed=4)
        e = identity(group)
        dists = [distance(e, p) for p in pts]
        assert min(dists) == 0.0
        assert max(dists) <= delta + 1e-12


def test_sample_ball_finite_is_exhaustive():
    g = dihedral(3)
    pts = sample_ball(g, NeighborhoodSpec(1.5, 3))
    assert len(pts) == 6  # whole group once delta >= 1
    pts0 = sample_ball(g, NeighborhoodSpec(0.5, 3))
    assert len(pts0) == 1


def test_sample_ball_reaches_boundary():
    pts = sample_ball(torus(1), NeighborhoodSpec(0.4, 9), seed=0)
    e = identity(torus(1))
    assert max(distance(e, p) for p in pts) > 0.4 - 1e-9


def test_parse_group_round_trips():
    for text, expect in [
        ("cyclic:8", cyclic(8)),
        ("dihedral:3", dihedral(3)),
        ("torus:2", torus(2)),
        ("su2", su2()),
        ("product(cyclic:2,su2)", product(cyclic(2), su2())),
    ]:
        assert parse_group(text) == expect
        assert parse_group(expect.name) == expect


def test_parse_group_rejects_garbage():
    with pytest.raises(ValueError):
        parse_group("octonions")
    with pytest.raises(ValueError):
        parse_group("cyclic:0")


def test_mixed_group_operations_raise():
    a = point(cyclic(4), 1)
    b = point(cyclic(5), 1)
    with pytest.raises(GroupMismatchError):
        multiply(a, b)
