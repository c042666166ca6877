"""Concrete compact groups: group law, bi-invariant metrics, Haar quadrature.

Supported families: cyclic Z_N, dihedral D_N, the n-torus, SU(2) as unit
quaternions, and finite products of these.  Every quadrature rule integrates
against the normalized Haar measure (weights sum to 1), and every metric is
bi-invariant, so balls around the identity push around the group by
translation without changing their Haar mass.

Group descriptors have a canonical string form (``cyclic:8``, ``dihedral:3``,
``torus:2``, ``su2``, ``product(torus:1,cyclic:2)``) used by the CLI and by
every serialized report.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupDescriptor",
    "GroupPoint",
    "GroupMismatchError",
    "ResolutionError",
    "NeighborhoodSpec",
    "QuadratureRule",
    "cyclic",
    "dihedral",
    "torus",
    "su2",
    "product",
    "parse_group",
    "point",
    "identity",
    "multiply",
    "inverse",
    "distance",
    "conjugate",
    "enumerate_elements",
    "haar_quadrature",
    "sample_ball",
]

_TWO_PI = 2.0 * math.pi

_FAMILIES = ("cyclic", "dihedral", "torus", "su2", "product")


class GroupMismatchError(ValueError):
    """Operands belong to different groups."""


class ResolutionError(ValueError):
    """A quadrature rule is too coarse for the requested computation."""


@dataclass(frozen=True)
class GroupDescriptor:
    """Identifies one of the supported compact groups.

    Parameters
    ----------
    family : str
        One of ``cyclic``, ``dihedral``, ``torus``, ``su2``, ``product``.
    n : int
        Order parameter: N for cyclic/dihedral, dimension for the torus.
        Unused (0) for su2 and products.
    factors : tuple of GroupDescriptor
        Component groups, products only.
    """

    family: str
    n: int = 0
    factors: tuple = ()

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown group family {self.family!r}")
        if self.family in ("cyclic", "dihedral", "torus") and self.n < 1:
            raise ValueError(f"{self.family} needs a positive order parameter")
        if self.family == "product":
            if len(self.factors) < 2:
                raise ValueError("product needs at least two factors")
            for f in self.factors:
                if not isinstance(f, GroupDescriptor):
                    raise TypeError("product factors must be GroupDescriptors")
        elif self.factors:
            raise ValueError(f"{self.family} takes no factors")

    @property
    def name(self):
        """Canonical string form, parseable by :func:`parse_group`."""
        if self.family == "su2":
            return "su2"
        if self.family == "product":
            return "product(" + ",".join(f.name for f in self.factors) + ")"
        return f"{self.family}:{self.n}"

    @property
    def is_finite(self):
        if self.family in ("cyclic", "dihedral"):
            return True
        if self.family == "product":
            return all(f.is_finite for f in self.factors)
        return False

    @property
    def order(self):
        """Number of elements for finite groups, None otherwise."""
        if self.family == "cyclic":
            return self.n
        if self.family == "dihedral":
            return 2 * self.n
        if self.family == "product":
            orders = [f.order for f in self.factors]
            if any(o is None for o in orders):
                return None
            return math.prod(orders)
        return None

    @property
    def is_abelian(self):
        if self.family == "cyclic" or self.family == "torus":
            return True
        if self.family == "dihedral":
            return self.n <= 2
        if self.family == "su2":
            return False
        return all(f.is_abelian for f in self.factors)

    def __str__(self):
        return self.name


def cyclic(n):
    return GroupDescriptor("cyclic", n)


def dihedral(n):
    return GroupDescriptor("dihedral", n)


def torus(n):
    return GroupDescriptor("torus", n)


def su2():
    return GroupDescriptor("su2")


def product(*factors):
    return GroupDescriptor("product", factors=tuple(factors))


def _split_top_level(text, sep=","):
    """Split on sep, ignoring separators nested inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def parse_group(text):
    """Parse a canonical group name such as ``product(torus:1,cyclic:2)``."""
    text = text.strip()
    if text == "su2":
        return su2()
    if text.startswith("product(") and text.endswith(")"):
        inner = text[len("product(") : -1]
        parts = [p for p in _split_top_level(inner) if p.strip()]
        return product(*(parse_group(p) for p in parts))
    if ":" in text:
        family, _, num = text.partition(":")
        family = family.strip()
        if family in ("cyclic", "dihedral", "torus"):
            try:
                n = int(num)
            except ValueError:
                raise ValueError(f"bad order parameter in group name {text!r}") from None
            return GroupDescriptor(family, n)
    raise ValueError(f"unrecognized group name {text!r}")


@dataclass(frozen=True)
class GroupPoint:
    """A group element.

    Coordinates by family: ``(j,)`` residue for cyclic, ``(r, s)`` for
    dihedral (rotation exponent, reflection bit), angles in ``[0, 2pi)`` for
    the torus, a unit quaternion ``(w, x, y, z)`` for SU(2), and a tuple of
    component GroupPoints for products.
    """

    group: GroupDescriptor
    coords: tuple

    def __post_init__(self):
        fam = self.group.family
        if fam == "su2":
            nrm = math.sqrt(sum(c * c for c in self.coords))
            if abs(nrm - 1.0) > 1e-12:
                raise ValueError("su2 coordinates must be a unit quaternion; use point()")


def point(group, coords):
    """Build a validated, normalized GroupPoint from raw coordinates."""
    fam = group.family
    if fam == "cyclic":
        (j,) = coords if isinstance(coords, (tuple, list)) else (coords,)
        return GroupPoint(group, (int(j) % group.n,))
    if fam == "dihedral":
        r, s = coords
        return GroupPoint(group, (int(r) % group.n, int(s) % 2))
    if fam == "torus":
        if len(coords) != group.n:
            raise ValueError(f"torus:{group.n} point needs {group.n} angles")
        return GroupPoint(group, tuple(float(a) % _TWO_PI for a in coords))
    if fam == "su2":
        w, x, y, z = (float(c) for c in coords)
        nrm = math.sqrt(w * w + x * x + y * y + z * z)
        if nrm == 0.0 or abs(nrm - 1.0) > 1e-6:
            raise ValueError("su2 point must be (near-)unit quaternion")
        return GroupPoint(group, (w / nrm, x / nrm, y / nrm, z / nrm))
    if fam == "product":
        if len(coords) != len(group.factors):
            raise ValueError("product point needs one component per factor")
        comps = []
        for g, c in zip(group.factors, coords):
            comps.append(c if isinstance(c, GroupPoint) and c.group == g else point(g, c))
        return GroupPoint(group, tuple(comps))
    raise ValueError(f"unknown family {fam!r}")


def identity(group):
    fam = group.family
    if fam == "cyclic":
        return GroupPoint(group, (0,))
    if fam == "dihedral":
        return GroupPoint(group, (0, 0))
    if fam == "torus":
        return GroupPoint(group, (0.0,) * group.n)
    if fam == "su2":
        return GroupPoint(group, (1.0, 0.0, 0.0, 0.0))
    return GroupPoint(group, tuple(identity(f) for f in group.factors))


def _check_same_group(a, b):
    if a.group != b.group:
        raise GroupMismatchError(f"points from {a.group.name} and {b.group.name}")


def multiply(a, b):
    """Group product a*b."""
    _check_same_group(a, b)
    fam = a.group.family
    if fam == "cyclic":
        return GroupPoint(a.group, ((a.coords[0] + b.coords[0]) % a.group.n,))
    if fam == "dihedral":
        # rho^r1 sig^s1 * rho^r2 sig^s2 = rho^(r1 + (-1)^s1 r2) sig^(s1+s2)
        r1, s1 = a.coords
        r2, s2 = b.coords
        r = (r1 + (r2 if s1 == 0 else -r2)) % a.group.n
        return GroupPoint(a.group, (r, (s1 + s2) % 2))
    if fam == "torus":
        return GroupPoint(
            a.group, tuple((x + y) % _TWO_PI for x, y in zip(a.coords, b.coords))
        )
    if fam == "su2":
        w1, x1, y1, z1 = a.coords
        w2, x2, y2, z2 = b.coords
        w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
        x = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
        y = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
        z = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
        nrm = math.sqrt(w * w + x * x + y * y + z * z)
        return GroupPoint(a.group, (w / nrm, x / nrm, y / nrm, z / nrm))
    return GroupPoint(
        a.group, tuple(multiply(x, y) for x, y in zip(a.coords, b.coords))
    )


def inverse(a):
    fam = a.group.family
    if fam == "cyclic":
        return GroupPoint(a.group, ((-a.coords[0]) % a.group.n,))
    if fam == "dihedral":
        r, s = a.coords
        if s == 0:
            return GroupPoint(a.group, ((-r) % a.group.n, 0))
        return GroupPoint(a.group, (r, 1))  # reflections are involutions
    if fam == "torus":
        return GroupPoint(a.group, tuple((-x) % _TWO_PI for x in a.coords))
    if fam == "su2":
        w, x, y, z = a.coords
        return GroupPoint(a.group, (w, -x, -y, -z))
    return GroupPoint(a.group, tuple(inverse(x) for x in a.coords))


def conjugate(a, g):
    """g^-1 a g."""
    return multiply(multiply(inverse(g), a), g)


def _wrap_angle(t):
    """Reduce to (-pi, pi]."""
    t = (t + math.pi) % _TWO_PI - math.pi
    return t


def distance(a, b):
    """Bi-invariant metric.

    Discrete (0/1) on finite groups, flat circular distance on the torus,
    geodesic quaternion angle 2*arccos(<a,b>) on SU(2), and the l2 combination
    across product factors.  Satisfies distance(a,b) = 0 iff a == b.
    """
    _check_same_group(a, b)
    fam = a.group.family
    if fam in ("cyclic", "dihedral"):
        return 0.0 if a.coords == b.coords else 1.0
    if fam == "torus":
        return math.sqrt(
            sum(_wrap_angle(x - y) ** 2 for x, y in zip(a.coords, b.coords))
        )
    if fam == "su2":
        dot = sum(x * y for x, y in zip(a.coords, b.coords))
        return 2.0 * math.acos(min(1.0, max(-1.0, dot)))
    return math.sqrt(
        sum(distance(x, y) ** 2 for x, y in zip(a.coords, b.coords))
    )


def enumerate_elements(group):
    """All elements of a finite group in canonical order."""
    fam = group.family
    if fam == "cyclic":
        return [GroupPoint(group, (j,)) for j in range(group.n)]
    if fam == "dihedral":
        pts = [GroupPoint(group, (r, 0)) for r in range(group.n)]
        pts += [GroupPoint(group, (r, 1)) for r in range(group.n)]
        return pts
    if fam == "product" and group.is_finite:
        factor_elems = [enumerate_elements(f) for f in group.factors]
        return [
            GroupPoint(group, combo) for combo in itertools.product(*factor_elems)
        ]
    raise ValueError(f"{group.name} is not finite")


@dataclass(frozen=True)
class NeighborhoodSpec:
    """A metric ball around the identity: radius and how many samples to draw."""

    radius: float
    sample_count: int = 1

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


class QuadratureRule:
    """Nodes and weights for normalized Haar integration.

    Attributes
    ----------
    group : GroupDescriptor
    nodes : tuple of GroupPoint
    weights : ndarray
        Nonnegative, sums to 1 within 1e-12.
    exactness_degree : int or None
        Band up to which integration of irreducible matrix entries is exact:
        max |k| on the torus, 2*l on SU(2).  None on finite groups (the full
        group average is exact at every band).
    resolution : int
        The requested resolution parameter.  ``haar_quadrature`` returns one
        shared rule per (group, resolution), with the rule_id ``group|resN``.
        A rule built directly appends a digest of its nodes and weights, so
        function arithmetic accepts it only together with its equals.

    The irrep stacks computed on a rule (``irreps.irrep_stack``) are stored on
    it and live exactly as long as the rule does.
    """

    def __init__(self, group, nodes, weights, exactness_degree, resolution, meta=None):
        self.group = group
        self.nodes = tuple(nodes)
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(self.nodes),):
            raise ValueError("weights must align with nodes")
        w.setflags(write=False)
        self.weights = w
        self.exactness_degree = exactness_degree
        self.resolution = resolution
        self.meta = dict(meta or {})
        self._node_index = None
        self._rule_id = None
        self._stacks = {}

    @property
    def rule_id(self):
        if self._rule_id is None:
            data = repr([p.coords for p in self.nodes]).encode() + self.weights.tobytes()
            digest = hashlib.sha1(data).hexdigest()[:12]
            self._rule_id = f"{self.group.name}|res{self.resolution}|{digest}"
        return self._rule_id

    def __len__(self):
        return len(self.nodes)

    def __repr__(self):
        return f"QuadratureRule({self.rule_id}, {len(self)} nodes)"

    def node_index(self, p):
        """Index of a point among the nodes (finite groups and exact grid hits)."""
        if self._node_index is None:
            self._node_index = {n.coords: i for i, n in enumerate(self.nodes)}
        try:
            return self._node_index[p.coords]
        except KeyError:
            raise KeyError(f"{p.coords} is not a node of {self.rule_id}") from None

    def integrate(self, values):
        values = np.asarray(values)
        return complex(np.sum(self.weights * values))


def _haar_finite(group, resolution):
    elems = enumerate_elements(group)
    n = len(elems)
    return QuadratureRule(
        group, elems, np.full(n, 1.0 / n), None, resolution, {"kind": "finite"}
    )


def _haar_torus(group, resolution):
    if resolution < 1:
        raise ResolutionError("torus rule needs resolution >= 1")
    R = resolution
    axes = [np.arange(R) * (_TWO_PI / R)] * group.n
    nodes = [
        GroupPoint(group, tuple(float(a) for a in combo))
        for combo in itertools.product(*axes)
    ]
    w = np.full(len(nodes), R ** (-group.n), dtype=float)
    meta = {"kind": "torus-grid", "shape": (R,) * group.n}
    return QuadratureRule(group, nodes, w, R - 1, resolution, meta)


def _haar_su2(group, resolution):
    """Euler-angle product rule.

    Uniform grids in alpha on [0, 2pi) and gamma on [0, 4pi), Gauss-Legendre
    in cos(beta).  Exact for matrix entries of the spin-l irrep whenever
    2l <= 2*resolution: the gamma grid on [0, 4pi) kills every half-integer
    frequency below the grid size, and the beta dependence of an entry with
    2l <= degree is a polynomial in cos(beta) of degree <= l.
    """
    if resolution < 1:
        raise ResolutionError("su2 rule needs resolution >= 1")
    r = resolution
    n_a, n_b, n_c = 2 * r + 1, r + 1, 4 * r + 1
    alphas = np.arange(n_a) * (_TWO_PI / n_a)
    gammas = np.arange(n_c) * (2.0 * _TWO_PI / n_c)
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_b)
    betas = np.arccos(gl_x)
    nodes = []
    weights = np.empty(n_a * n_b * n_c)
    i = 0
    for ia in range(n_a):
        ca, sa = math.cos(alphas[ia] / 2), math.sin(alphas[ia] / 2)
        for ib in range(n_b):
            cb, sb = math.cos(betas[ib] / 2), math.sin(betas[ib] / 2)
            for ic in range(n_c):
                cg, sg = math.cos(gammas[ic] / 2), math.sin(gammas[ic] / 2)
                # q = q_z(alpha) q_y(beta) q_z(gamma)
                w1, z1 = ca, sa
                w2, y2 = cb, sb
                w3, z3 = cg, sg
                # q_z(a) q_y(b) = (ca*cb, -sa*sb?, ...)  do it explicitly:
                # (w1,0,0,z1)*(w2,0,y2,0) = (w1w2, z1*y2? ...)
                wa = w1 * w2
                xa = -z1 * y2
                ya = w1 * y2
                za = z1 * w2
                # * (w3,0,0,z3)
                w = wa * w3 - za * z3
                x = xa * w3 + ya * z3
                y = ya * w3 - xa * z3
                z = za * w3 + wa * z3
                nodes.append(GroupPoint(group, _unit4(w, x, y, z)))
                weights[i] = (1.0 / n_a) * (gl_w[ib] / 2.0) * (1.0 / n_c)
                i += 1
    meta = {
        "kind": "su2-euler",
        "alphas": alphas,
        "betas": betas,
        "gammas": gammas,
        "gl_w": gl_w,
    }
    return QuadratureRule(group, nodes, weights, 2 * r, resolution, meta)


def _unit4(w, x, y, z):
    nrm = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / nrm, x / nrm, y / nrm, z / nrm)


def _haar_product(group, resolution):
    factor_rules = tuple(haar_quadrature(f, resolution) for f in group.factors)
    nodes = [
        GroupPoint(group, combo)
        for combo in itertools.product(*(fr.nodes for fr in factor_rules))
    ]
    w = factor_rules[0].weights
    for fr in factor_rules[1:]:
        w = np.outer(w, fr.weights).ravel()
    degrees = [fr.exactness_degree for fr in factor_rules]
    finite_degrees = [d for d in degrees if d is not None]
    exactness = min(finite_degrees) if finite_degrees else None
    meta = {"kind": "product", "factor_rules": factor_rules}
    return QuadratureRule(group, nodes, w, exactness, resolution, meta)


def haar_quadrature(group, resolution=1):
    """Build the canonical Haar quadrature rule at a given resolution.

    Finite groups average over all elements (resolution is recorded but does
    not change the rule).  The torus uses the R-point uniform grid per axis
    (exact for bands |k| <= R-1).  SU(2) uses an Euler-angle rule exact for
    matrix entries with 2l <= 2*resolution.  Products combine factor rules at
    the same resolution.  Every call with the same (group, resolution)
    returns the same rule object, so callers share the stacks stored on it.
    """
    if resolution < 1:
        raise ResolutionError("resolution must be >= 1")
    return _canonical_rule(group, resolution)


@functools.cache
def _canonical_rule(group, resolution):
    fam = group.family
    if fam in ("cyclic", "dihedral") or (fam == "product" and group.is_finite):
        rule = _haar_finite(group, resolution)
    elif fam == "torus":
        rule = _haar_torus(group, resolution)
    elif fam == "su2":
        rule = _haar_su2(group, resolution)
    elif fam == "product":
        rule = _haar_product(group, resolution)
    else:
        raise ValueError(f"unknown family {fam!r}")
    rule._rule_id = f"{group.name}|res{resolution}"
    return rule


def _ball_point_at(group, radius, direction_rng):
    """A point at the given metric distance from e, direction drawn from rng."""
    fam = group.family
    if fam in ("cyclic", "dihedral"):
        if radius < 1.0:
            return identity(group)
        elems = enumerate_elements(group)[1:]
        return elems[int(direction_rng.integers(len(elems)))]
    if fam == "torus":
        u = direction_rng.normal(size=group.n)
        nrm = np.linalg.norm(u)
        if nrm == 0:
            u = np.zeros(group.n)
            u[0] = 1.0
        else:
            u = u / nrm
        return point(group, tuple(radius * float(c) for c in u))
    if fam == "su2":
        ax = direction_rng.normal(size=3)
        nrm = np.linalg.norm(ax)
        if nrm == 0:
            ax = np.array([0.0, 0.0, 1.0])
        else:
            ax = ax / nrm
        half = radius / 2.0
        s = math.sin(half)
        return point(group, (math.cos(half), s * ax[0], s * ax[1], s * ax[2]))
    if fam == "product":
        split = np.abs(direction_rng.normal(size=len(group.factors)))
        nrm = np.linalg.norm(split)
        split = split / nrm if nrm > 0 else np.ones(len(group.factors)) / math.sqrt(len(group.factors))
        comps = tuple(
            _ball_point_at(f, radius * float(s), direction_rng)
            for f, s in zip(group.factors, split)
        )
        return GroupPoint(group, comps)
    raise ValueError(fam)


def sample_ball(group, spec, seed=0):
    """Deterministic sample of the closed metric ball around the identity.

    Always contains the identity, and (when the radius is resolvable) points
    at the boundary distance.  Finite groups are sampled exhaustively, the
    one-dimensional torus by a symmetric uniform grid of angles, and the
    remaining families by seeded directions with radial fractions spanning
    [0, 1].

    Parameters
    ----------
    group : GroupDescriptor
    spec : NeighborhoodSpec
    seed : int
        Seed for the direction draws; ignored by the exhaustive branches.

    Returns
    -------
    list of GroupPoint
    """
    delta = float(spec.radius)
    count = int(spec.sample_count)
    fam = group.family
    if delta == 0.0:
        return [identity(group)]
    if group.is_finite:
        e = identity(group)
        return [p for p in enumerate_elements(group) if distance(e, p) <= delta]
    if fam == "torus" and group.n == 1:
        if count == 1:
            return [identity(group)]
        angles = np.linspace(-delta, delta, count)
        if not np.any(np.isclose(angles, 0.0, atol=1e-15)):
            angles[np.argmin(np.abs(angles))] = 0.0
        return [point(group, (float(a),)) for a in angles]
    rng = np.random.default_rng(seed)
    pts = [identity(group)]
    if count == 1:
        return pts
    fractions = np.linspace(0.0, 1.0, count)[1:]
    for t in fractions:
        pts.append(_ball_point_at(group, delta * float(t), rng))
    return pts
