"""The one irrep evaluator, ``irreps._blocks_at``, on rules and at points.

A rule request reads every node of a rule in rule order: on an su2 Euler
rule from its grid tables, on a product rule from its factor rules (crossed
node axes), and elsewhere at ``rule.coords``.  The contract tests check,
plain and twisted, that such a request matches the same request at the
rule's coordinate array, and that every label in it equals a request of that
label alone, bit for bit.  The property tests draw off-grid points on
product groups and check the representation laws through ``irrep_blocks``.
Blocks that mix factor dimensions are checked against ``np.kron`` of the
factors' matrices.
"""

import contextlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pego import (
    QuadratureRule,
    basis_twist,
    coords_of,
    cyclic,
    dihedral,
    enumerate_dual,
    haar_quadrature,
    inverse,
    multiply,
    point,
    product,
    su2,
    torus,
)
from pego.fourier import slot_table
from pego.groups import _multiply
from pego.irreps import _blocks_at, irrep_blocks, irrep_matrix, irrep_stack


def _shifted(rule, shift):
    """A hand-built rule (no kind) on the canonical rule's nodes times the
    point with coordinates ``shift``: no grid structure to exploit."""
    y = coords_of(rule.group, [point(rule.group, shift)])
    return QuadratureRule(rule.group, _multiply(rule.group, rule.coords, y), rule.weights,
                          rule.exactness_degree, rule.resolution)


_Q = (0.6, -0.2, 0.7, 0.3316624790355399)  # a unit quaternion off every fiber

# name: (rule, cutoff)
RULES = {
    "cyclic:5": (haar_quadrature(cyclic(5)), None),
    "dihedral:9": (haar_quadrature(dihedral(9)), None),
    "product(cyclic:3,dihedral:3)": (haar_quadrature(product(cyclic(3), dihedral(3))), None),
    "torus:2 grid": (haar_quadrature(torus(2), 5), 2),
    "su2 euler": (haar_quadrature(su2(), 4), 4),
    "product(torus:1,su2)": (haar_quadrature(product(torus(1), su2()), 3), 3),
    "product(su2,cyclic:3)": (haar_quadrature(product(su2(), cyclic(3)), 3), 3),
    "su2 hand-built": (_shifted(haar_quadrature(su2(), 4), _Q), 4),
    "product(torus:1,su2) hand-built": (
        _shifted(haar_quadrature(product(torus(1), su2()), 3), ((0.4,), _Q)), 3),
}


def _twists(group, cutoff):
    """No twist, a twist of the group's dual, and on products one of each
    factor's dual (applied inside the factor evaluations)."""
    yield contextlib.nullcontext()
    yield basis_twist(group, cutoff, seed=3)
    for factor in group.factors:
        yield basis_twist(factor, cutoff, seed=4)


@pytest.mark.parametrize("name", list(RULES))
def test_rule_requests_match_points_and_single_labels(name):
    rule, cutoff = RULES[name]
    group = rule.group
    table = slot_table(tuple(enumerate_dual(group, cutoff)))
    for twist in _twists(group, cutoff):
        with twist:
            on_rule = _blocks_at(table.block_labels, rule)
            at_coords = _blocks_at(table.block_labels, rule.coords)
            for labs, got, want in zip(table.block_labels, on_rule, at_coords):
                d = labs[0].dim
                assert got.shape == want.shape == (len(rule), len(labs), d, d)
                npt.assert_allclose(got, want, rtol=0, atol=1e-13)
                for pos, lab in enumerate(labs):
                    # irrep_stack is the one-label request on the rule
                    assert np.array_equal(irrep_stack(lab, rule), got[:, pos])
                    alone = _blocks_at(((lab,),), rule.coords)[0][:, 0]
                    assert np.array_equal(alone, want[:, pos])


def test_empty_request_is_empty():
    assert _blocks_at((), RULES["cyclic:5"][0]) == []


def _coords(group):
    """A strategy for the raw coordinates of one point of ``group``: angles
    beyond [0, 2 pi) on the torus, any nonzero quaternion on su2."""
    if group.family == "torus":
        return st.tuples(*[st.floats(-10.0, 10.0)] * group.n)
    if group.family == "cyclic":
        return st.tuples(st.integers(0, group.n - 1))
    if group.family == "su2":
        quats = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
            lambda q: sum(c * c for c in q) > 1e-2)
        return quats.map(lambda q: tuple(np.array(q) / np.linalg.norm(q)))
    return st.tuples(*[_coords(f) for f in group.factors])


PROPERTY_GROUPS = {
    "product(torus:1,su2)": (product(torus(1), su2()), 3),
    "product(su2,cyclic:3)": (product(su2(), cyclic(3)), 3),
}
POINTS = 4


def _point_pairs(name):
    coords = st.lists(_coords(PROPERTY_GROUPS[name][0]), min_size=2 * POINTS, max_size=2 * POINTS)
    return coords.map(lambda cs: [point(PROPERTY_GROUPS[name][0], c) for c in cs])


def _check_laws(block_labels, xs, ys):
    eye = [np.eye(labs[0].dim) for labs in block_labels]
    at_x, at_y = irrep_blocks(block_labels, xs), irrep_blocks(block_labels, ys)
    at_xy = irrep_blocks(block_labels, [multiply(x, y) for x, y in zip(xs, ys)])
    at_inv = irrep_blocks(block_labels, [inverse(x) for x in xs])
    for i, bx, by, bxy, binv in zip(eye, at_x, at_y, at_xy, at_inv):
        bx_h = bx.conj().swapaxes(-1, -2)
        npt.assert_allclose(bxy, bx @ by, rtol=0, atol=1e-12)
        npt.assert_allclose(bx @ bx_h, np.broadcast_to(i, bx.shape), rtol=0, atol=1e-12)
        npt.assert_allclose(binv, bx_h, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", list(PROPERTY_GROUPS))
def test_representation_laws_at_off_grid_points(name):
    group, cutoff = PROPERTY_GROUPS[name]
    block_labels = slot_table(tuple(enumerate_dual(group, cutoff))).block_labels

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(_point_pairs(name), st.integers(0, 2**16))
    def laws(points, seed):
        xs, ys = points[:POINTS], points[POINTS:]
        _check_laws(block_labels, xs, ys)
        with basis_twist(group, cutoff, seed=seed):
            _check_laws(block_labels, xs, ys)

    laws()


def _seeded_points(group, rng, count):
    """``count`` seeded points of a product of dihedral and su2 factors."""
    comps = []
    for f in group.factors:
        if f.family == "dihedral":
            rs = zip(rng.integers(f.n, size=count), rng.integers(2, size=count))
            comps.append([point(f, (int(r), int(s))) for r, s in rs])
        else:
            qs = rng.normal(size=(count, 4))
            comps.append([point(f, tuple(q)) for q in qs / np.linalg.norm(qs, axis=1)[:, None]])
    return [point(group, c) for c in zip(*comps)]


@pytest.mark.parametrize("name,cutoff", [("product(dihedral:3,dihedral:4)", None),
                                         ("product(su2,su2)", 3)])
def test_blocks_that_mix_factor_dimensions_are_kronecker_products(name, cutoff):
    """A block holds labels of one dimension whose factor dimensions differ
    (2 x 1 beside 1 x 2 on dihedral factors; 4 x 1, 2 x 2 and 1 x 4 on su2
    factors).  Each label's matrices, at seeded points and on the finite
    product at its rule, equal ``np.kron`` of its factors' matrices."""
    from pego import parse_group

    group = parse_group(name)
    table = slot_table(tuple(enumerate_dual(group, cutoff)))
    mixed = [labs for labs in table.block_labels
             if len({tuple(c.dim for c in lab.index) for lab in labs}) > 1]
    assert mixed
    points = _seeded_points(group, np.random.default_rng(len(name)), 6)
    requests = [(points, coords_of(group, points))]
    if group.is_finite:
        rule = haar_quadrature(group)
        requests.append((rule.nodes, rule))
    for pts, at in requests:
        for labs, got in zip(table.block_labels, _blocks_at(table.block_labels, at)):
            for pos, lab in enumerate(labs):
                want = [np.kron(irrep_matrix(lab.index[0], p.coords[0]),
                                irrep_matrix(lab.index[1], p.coords[1])) for p in pts]
                npt.assert_allclose(got[:, pos], want, rtol=0, atol=1e-15)
