"""The group law is one set of array kernels (``groups._multiply``,
``_inverse`` and ``_distance``) that the single-point functions wrap.

The oracle is the single-point law as it was written before the kernels, one
family branch at a time, kept here.  Kernels and wrappers must equal it with
``==``, on every family and on batches that broadcast one row against many.
Node re-indexing (``fourier._translated_nodes``), which multiplies every node
by a batch of elements with one kernel call and locates the products
arithmetically, is checked against a search of the node list.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pego import (
    GroupMismatchError,
    coords_of,
    distance,
    enumerate_dual,
    evaluate_at,
    forward_to_cutoff,
    haar_quadrature,
    inverse,
    multiply,
    parse_group,
    point,
    points_of,
    random_band_limited_function,
)
from pego import fourier, groups
from pego.fourier import translate_values
from pego.irreps import irrep_blocks
from pego.groups import GroupPoint, _distance, _inverse, _multiply, _take

TWO_PI = 2.0 * math.pi


def _oracle_multiply(a, b):
    fam = a.group.family
    if fam == "cyclic":
        return GroupPoint(a.group, ((a.coords[0] + b.coords[0]) % a.group.n,))
    if fam == "dihedral":
        r1, s1 = a.coords
        r2, s2 = b.coords
        r = (r1 + (r2 if s1 == 0 else -r2)) % a.group.n
        return GroupPoint(a.group, (r, (s1 + s2) % 2))
    if fam == "torus":
        return GroupPoint(a.group, tuple((x + y) % TWO_PI for x, y in zip(a.coords, b.coords)))
    if fam == "su2":
        w1, x1, y1, z1 = a.coords
        w2, x2, y2, z2 = b.coords
        w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
        x = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
        y = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
        z = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
        nrm = math.sqrt(w * w + x * x + y * y + z * z)
        return GroupPoint(a.group, (w / nrm, x / nrm, y / nrm, z / nrm))
    return GroupPoint(a.group, tuple(_oracle_multiply(x, y) for x, y in zip(a.coords, b.coords)))


def _oracle_inverse(a):
    fam = a.group.family
    if fam == "cyclic":
        return GroupPoint(a.group, ((-a.coords[0]) % a.group.n,))
    if fam == "dihedral":
        r, s = a.coords
        if s == 0:
            return GroupPoint(a.group, ((-r) % a.group.n, 0))
        return GroupPoint(a.group, (r, 1))
    if fam == "torus":
        return GroupPoint(a.group, tuple((-x) % TWO_PI for x in a.coords))
    if fam == "su2":
        w, x, y, z = a.coords
        return GroupPoint(a.group, (w, -x, -y, -z))
    return GroupPoint(a.group, tuple(_oracle_inverse(x) for x in a.coords))


def _oracle_distance(a, b):
    """The single-point distance, summed term by term.  It squares with
    ``t * t`` and takes numpy's ``arccos``: libm's ``pow(t, 2)`` and
    ``math.acos`` differ from those in the last bit for some inputs (numpy's
    arccos is vectorized on AVX-512 machines), and the array distances
    (Dirac elements, ball pools) have always used numpy's."""
    fam = a.group.family
    if fam in ("cyclic", "dihedral"):
        return 0.0 if a.coords == b.coords else 1.0
    sq = 0.0
    if fam == "torus":
        for x, y in zip(a.coords, b.coords):
            t = (x - y + math.pi) % TWO_PI - math.pi
            sq += t * t
        return math.sqrt(sq)
    if fam == "su2":
        dot = 0.0
        for x, y in zip(a.coords, b.coords):
            dot += x * y
        return 2.0 * float(np.arccos(min(1.0, max(-1.0, dot))))
    for x, y in zip(a.coords, b.coords):
        d = _oracle_distance(x, y)
        sq += d * d
    return math.sqrt(sq)


LAW_GROUPS = ("cyclic:5", "dihedral:4", "dihedral:1", "torus:1", "torus:3", "su2",
              "product(torus:1,su2)", "product(su2,cyclic:3)", "product(cyclic:3,dihedral:3)")


def _random_point(group, rng):
    """A random point; su2 draws the identity, its negative and the beta = 0
    and beta = pi fibers often, so that dots of +-1 reach the clip."""
    fam = group.family
    if fam == "cyclic":
        return point(group, (int(rng.integers(group.n)),))
    if fam == "dihedral":
        return point(group, (int(rng.integers(group.n)), int(rng.integers(2))))
    if fam == "torus":
        return point(group, tuple(rng.uniform(-TWO_PI, 2 * TWO_PI, group.n)))
    if fam == "su2":
        t = rng.uniform(-4.0, 4.0)
        special = [(1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0),
                   (math.cos(t), 0.0, 0.0, math.sin(t)), (0.0, math.cos(t), math.sin(t), 0.0)]
        k = int(rng.integers(len(special) + 4))
        q = rng.normal(size=4)
        return point(group, special[k] if k < len(special) else tuple(q / np.linalg.norm(q)))
    return point(group, tuple(_random_point(f, rng) for f in group.factors))


def _flat(p):
    if p.group.family == "product":
        return [c for comp in p.coords for c in _flat(comp)]
    return list(p.coords)


def _assert_same(got, want):
    """Equal coordinates, bit for bit (signed zeros too)."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert p == q
        assert [type(c) for c in _flat(p)] == [type(c) for c in _flat(q)]
        assert np.array_equal(np.signbit(_flat(p)), np.signbit(_flat(q)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LAW_GROUPS), st.integers(0, 10_000), st.integers(1, 9))
def test_kernels_and_wrappers_equal_the_single_point_oracle(name, seed, count):
    group = parse_group(name)
    rng = np.random.default_rng(seed)
    a = [_random_point(group, rng) for _ in range(count)]
    b = [_random_point(group, rng) for _ in range(count)]
    b[0] = a[0]  # distance 0 (or its float floor on su2) and a*a
    ca, cb = coords_of(group, a), coords_of(group, b)

    prods = [_oracle_multiply(x, y) for x, y in zip(a, b)]
    _assert_same(points_of(group, _multiply(group, ca, cb)), prods)
    _assert_same([multiply(x, y) for x, y in zip(a, b)], prods)
    # a one-row array broadcasts against the other operand
    first = _take(ca, slice(0, 1))
    _assert_same(points_of(group, _multiply(group, first, cb)),
                 [_oracle_multiply(a[0], y) for y in b])
    _assert_same(points_of(group, _multiply(group, cb, first)),
                 [_oracle_multiply(y, a[0]) for y in b])

    invs = [_oracle_inverse(x) for x in a]
    _assert_same(points_of(group, _inverse(group, ca)), invs)
    _assert_same([inverse(x) for x in a], invs)

    dists = [_oracle_distance(x, y) for x, y in zip(a, b)]
    got = _distance(group, ca, cb)
    assert got.dtype == float and got.tolist() == dists
    singles = [distance(x, y) for x, y in zip(a, b)]
    assert all(type(d) is float for d in singles) and singles == dists
    assert _distance(group, first, cb).tolist() == [_oracle_distance(a[0], y) for y in b]


def test_the_public_edge_refuses_a_point_of_another_group():
    group = parse_group("product(torus:1,su2)")
    rule = haar_quadrature(group, 2)
    f = random_band_limited_function(rule, 1, seed=1)
    p, q = rule.nodes[3], rule.nodes[0].coords[1]  # q is a point of the su2 factor
    for call in (lambda: multiply(p, q), lambda: multiply(q, p), lambda: distance(p, q),
                 lambda: translate_values(f, [p, q]),
                 lambda: evaluate_at(forward_to_cutoff(f), [p, q]),
                 lambda: irrep_blocks(((enumerate_dual(group, 1)[0],),), [q])):
        with pytest.raises(GroupMismatchError):
            call()


@pytest.mark.parametrize("name, step", [("cyclic:5", 1), ("dihedral:4", 1),
                                        ("product(cyclic:3,dihedral:3)", 1), ("torus:2", 7),
                                        ("product(torus:1,cyclic:3)", 1)])
def test_translated_nodes_equals_a_search_of_the_nodes(name, step):
    """Every step-th node as y: all elements of the finite groups, grid hits
    on the torus; one C-ordered row per element."""
    group = parse_group(name)
    rule = haar_quadrature(group, 5)
    ys = _take(rule.coords, slice(None, None, step))
    idx = fourier._translated_nodes(rule, ys)
    assert idx.flags.c_contiguous
    assert idx.tolist() == [[rule.nodes.index(multiply(x, y)) for x in rule.nodes]
                            for y in rule.nodes[::step]]


def test_permutes_decides_without_multiplying_any_node(monkeypatch):
    """Off-grid torus elements, off-grid torus factors and every element of
    product(torus:1,su2) are refused, grid hits accepted, all on the
    elements alone: no node is multiplied."""
    multiplied = []
    real = fourier._multiply
    monkeypatch.setattr(fourier, "_multiply", lambda g, a, b: multiplied.append(g) or real(g, a, b))
    torus2 = haar_quadrature(parse_group("torus:2"), 5)
    assert fourier._permutes(torus2, np.array([[0.0, 0.1]])).tolist() == [False]
    assert fourier._permutes(torus2, torus2.coords).all()
    mixed = haar_quadrature(parse_group("product(torus:1,cyclic:3)"), 5)
    assert fourier._permutes(mixed, (np.array([[0.3]]), np.array([[1]]))).tolist() == [False]
    assert fourier._permutes(mixed, mixed.coords).all()
    prod = haar_quadrature(parse_group("product(torus:1,su2)"), 5)
    ys = _take(prod.coords, slice(None, None, 97))  # on the torus grid, but su2 never re-indexes
    assert not fourier._permutes(prod, ys).any()
    assert multiplied == []


def test_translate_values_mixes_grid_hits_and_misses_row_by_row():
    """A product(torus:1,cyclic:3) batch alternating grid nodes and off-grid
    torus angles: the factor masks AND to every other row, and each row of
    the split batch equals its one-element call bit for bit."""
    mixed = haar_quadrature(parse_group("product(torus:1,cyclic:3)"), 5)
    f = random_band_limited_function(mixed, 2, seed=6)
    grid = mixed.nodes_at([1, 4, 8, 13])
    off = [point(mixed.group, ((a,), (k,))) for a, k in ((0.3, 1), (2.0, 0), (4.4, 2), (5.9, 1))]
    ys = [y for pair in zip(grid, off) for y in pair]
    assert fourier._permutes(mixed, coords_of(mixed.group, ys)).tolist() == [True, False] * 4
    moved = translate_values(f, ys)
    for row, y in zip(moved, ys):
        assert np.array_equal(row, translate_values(f, [y])[0])


def test_translate_values_is_one_kernel_call_on_finite_rules(monkeypatch):
    """A finite batch re-indexes through one array product of all nodes by
    all its elements, and builds no point."""
    rule = haar_quadrature(parse_group("product(cyclic:3,dihedral:3)"), 1)
    f = random_band_limited_function(rule, 2, seed=4)
    ys = rule.nodes_at([0, 5, 17])
    calls = []
    real = groups._multiply

    def counted(group, a, b):
        calls.append((groups._rows(a), groups._rows(b)))
        return real(group, a, b)

    monkeypatch.setattr(fourier, "_multiply", counted)
    built = []
    real_post = GroupPoint.__post_init__
    monkeypatch.setattr(GroupPoint, "__post_init__",
                        lambda self: built.append(self) or real_post(self))
    moved = translate_values(f, ys)
    assert calls == [(1, 3)] and built == []
    for row, y in zip(moved, ys):
        assert row.tolist() == [f.values[rule.nodes.index(multiply(x, y))] for x in rule.nodes]
