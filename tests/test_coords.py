"""Group points as coordinate arrays.

A quadrature rule stores its nodes as coordinate arrays (``rule.coords``) and
builds GroupPoints only when ``rule.nodes`` is read.  Checked here: the lazy
nodes equal the point-by-point construction of every family, ``coords_of``
and ``points_of`` invert each other, hand-built rules digest their arrays,
the array distances select the same Dirac supports as a scalar ``distance``
loop, and balls of non-finite radius are refused.
"""

import itertools
import math

import numpy as np
import pytest

from pego import (
    GroupPoint,
    NeighborhoodSpec,
    QuadratureRule,
    coords_of,
    dirac_net_element,
    distance,
    haar_quadrature,
    identity,
    irrep_stack,
    lemma31_bound_check,
    parse_group,
    parse_label,
    point,
    points_of,
    random_band_limited_function,
    su2,
    torus,
)
from pego import groups

RULES = [
    ("cyclic:5", 1),
    ("dihedral:4", 1),
    ("torus:1", 7),
    ("torus:2", 5),
    ("su2", 3),
    ("product(torus:1,su2)", 2),
    ("product(cyclic:2,dihedral:3)", 1),
    ("product(su2,cyclic:3)", 2),
    ("product(product(cyclic:2,torus:1),su2)", 1),
]


def _nodes_point_by_point(group, res):
    """Nodes built one GroupPoint at a time: residues, rotations then
    reflections, and itertools products of the grid axes and of factor
    nodes."""
    fam = group.family
    if fam == "cyclic":
        return [GroupPoint(group, (j,)) for j in range(group.n)]
    if fam == "dihedral":
        return [GroupPoint(group, (r, s)) for s in (0, 1) for r in range(group.n)]
    if fam == "torus":
        axes = [np.arange(res) * (2.0 * math.pi / res)] * group.n
        return [GroupPoint(group, tuple(float(a) for a in combo))
                for combo in itertools.product(*axes)]
    if fam == "su2":
        # pinned node by node against the Euler-angle product in test_groups
        return list(haar_quadrature(group, res).nodes)
    factor_nodes = [_nodes_point_by_point(f, res) for f in group.factors]
    return [GroupPoint(group, combo) for combo in itertools.product(*factor_nodes)]


def _fresh_canonical_rule(group, res):
    """A canonical rule built anew, outside the per-process cache."""
    return groups._canonical_rule.__wrapped__(group, res)


@pytest.mark.parametrize("name, res", RULES)
def test_lazy_nodes_equal_the_point_by_point_construction(monkeypatch, name, res):
    group = parse_group(name)
    built = []
    real = GroupPoint.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(GroupPoint, "__post_init__", counted)
    rule = _fresh_canonical_rule(group, res)
    assert built == []
    nodes = rule.nodes
    assert built
    monkeypatch.undo()
    assert list(nodes) == _nodes_point_by_point(group, res)
    assert rule.nodes is nodes
    assert rule.nodes_at([len(rule) - 1, 0]) == [nodes[-1], nodes[0]]
    if group.is_finite:
        assert list(nodes) == groups.enumerate_elements(group)


@pytest.mark.parametrize("name, res", RULES)
def test_points_of_inverts_coords_of(name, res):
    group = parse_group(name)
    rule = haar_quadrature(group, res)
    rng = np.random.default_rng(5)
    pts = [rule.nodes[int(i)] for i in rng.integers(len(rule), size=7)]
    assert points_of(group, coords_of(group, pts)) == pts
    assert points_of(group, coords_of(group, [])) == []
    for got, want in zip(groups._arrays(coords_of(group, rule.nodes)), groups._arrays(rule.coords)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_canonical_work_builds_no_group_point(monkeypatch):
    """Building a rule, stacks on it, its Dirac element and a Lemma 3.1 check
    make no point: the check inverts and translates by coordinate arrays."""
    group = parse_group("product(torus:1,su2)")
    built = []
    real = GroupPoint.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(GroupPoint, "__post_init__", counted)
    rule = _fresh_canonical_rule(group, 3)
    irrep_stack(parse_label(group, "prod(torus:[1],wigner:1)"), rule)
    e_u = dirac_net_element(group, 0.9, rule)
    assert built == []
    f = random_band_limited_function(rule, 2, seed=1)
    assert lemma31_bound_check(f, 0.9, 2.0).support_size == np.count_nonzero(e_u.values) > 0
    assert built == []
    assert "nodes" not in vars(rule)


def test_hand_built_rule_ids_digest_the_coordinate_arrays():
    """Hand-built rules digest the bytes of their coordinate arrays and
    weights; these ids are pinned so that they do not drift unnoticed."""
    g = torus(1)
    canon = haar_quadrature(g, 8)
    shifted = [point(g, (p.coords[0] + 0.2,)) for p in canon.nodes]
    rule = QuadratureRule(g, coords_of(g, shifted), canon.weights, canon.exactness_degree, 8)
    assert rule.rule_id == "torus:1|res8|ef1e8713544e"
    assert list(rule.nodes) == shifted
    g = parse_group("product(cyclic:2,su2)")
    canon = haar_quadrature(g, 2)
    rule = QuadratureRule(g, coords_of(g, canon.nodes), canon.weights, canon.exactness_degree, 2)
    assert rule.rule_id == "product(cyclic:2,su2)|res2|85b63f07b0a7"
    g = parse_group("dihedral:3")
    canon = haar_quadrature(g, 1)
    rule = QuadratureRule(g, coords_of(g, canon.nodes[::-1]), canon.weights, None, 1)
    assert rule.rule_id == "dihedral:3|res1|95c34a36811d"


def _one_ulp_off(coords):
    """A copy of a coordinate array whose last float is one ulp larger."""
    if isinstance(coords, tuple):
        return coords[:-1] + (_one_ulp_off(coords[-1]),)
    out = coords.copy()
    out[-1, -1] = np.nextafter(out[-1, -1], np.inf)
    return out


@pytest.mark.parametrize("name, res", [("su2", 8), ("product(torus:1,su2)", 3)])
def test_hand_built_rule_id_builds_no_node_and_tells_rules_apart(name, res):
    g = parse_group(name)
    canon = haar_quadrature(g, res)

    def hand_built(coords):
        return QuadratureRule(g, coords, canon.weights, canon.exactness_degree, res)

    rule = hand_built(canon.coords)
    assert rule.rule_id.startswith(f"{g.name}|res{res}|")
    assert "nodes" not in rule.__dict__
    assert hand_built(canon.coords).rule_id == rule.rule_id
    assert hand_built(_one_ulp_off(canon.coords)).rule_id != rule.rule_id
    assert canon.rule_id == f"{g.name}|res{res}"


# the rules and radii of the verify workload's lemma31 suite (cli._BALL_RADII)
# and of acceptance criterion 4
SUPPORT_CASES = [
    ("dihedral:9", 1, [0.5, 1.0]),
    ("torus:2", 5, [0.2, 0.5, 1.0]),
    ("torus:2", 11, [0.2, 0.5, 1.0]),
    ("su2", 4, [0.8, 1.2]),
    ("product(torus:1,su2)", 5, [0.5, 1.0]),
    ("cyclic:8", 1, [0.5, 1.5]),
    ("dihedral:3", 1, [0.5, 1.5]),
    ("torus:1", 33, list(np.linspace(0.2, 1.0, 50))),
    ("su2", 6, list(np.linspace(0.45, 0.7, 50))),
]


@pytest.mark.parametrize("name, res, radii", SUPPORT_CASES)
def test_dirac_supports_match_a_scalar_distance_loop(name, res, radii):
    group = parse_group(name)
    rule = haar_quadrature(group, res)
    e = identity(group)
    dists = [distance(e, p) for p in rule.nodes]
    for radius in radii:
        e_u = dirac_net_element(group, radius, rule)
        want = [d <= radius + 1e-12 for d in dists]
        assert (e_u.values != 0).tolist() == want


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_non_finite_radii_are_refused(radius):
    with pytest.raises(ValueError, match="finite"):
        NeighborhoodSpec(radius)
    rule = haar_quadrature(su2(), 2)
    with pytest.raises(ValueError, match="finite"):
        dirac_net_element(su2(), radius, rule)
    f = random_band_limited_function(rule, 2, seed=0)
    with pytest.raises(ValueError, match="finite"):
        lemma31_bound_check(f, radius, 2.0)


def test_su2_points_refuse_nan():
    with pytest.raises(ValueError):
        GroupPoint(su2(), (math.nan, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        point(su2(), (math.nan, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        dirac_net_element(su2(), -0.5, haar_quadrature(su2(), 2))
