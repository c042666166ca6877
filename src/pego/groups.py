"""Concrete compact groups: group law, bi-invariant metrics, Haar quadrature.

Supported families: cyclic Z_N, dihedral D_N, the n-torus, SU(2) as unit
quaternions, and finite products of these.  Every quadrature rule integrates
against the normalized Haar measure (weights sum to 1), and every metric is
bi-invariant, so balls around the identity push around the group by
translation without changing their Haar mass.

Group descriptors have a canonical string form (``cyclic:8``, ``dihedral:3``,
``torus:2``, ``su2``, ``product(torus:1,cyclic:2)``) used by the CLI and by
every serialized report.

Group elements live in coordinate arrays (``coords_of``), one row per
element and one array per factor on products.  The group law (``_multiply``,
``_inverse``, ``_distance``) acts on whole arrays row by row; its formulas
are elementwise and run on one point's coordinates too, so the public
``multiply``, ``inverse``, ``distance``, ``conjugate`` and ``identity`` are
thin wrappers that agree bit for bit with a batch.  ``GroupPoint`` is the
public input and output type only.
"""

from __future__ import annotations

import functools
import hashlib
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
    "coords_of",
    "points_of",
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
            if not abs(nrm - 1.0) <= 1e-12:  # NaN fails too
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
        if not abs(nrm - 1.0) <= 1e-6:  # NaN fails too
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


def _identity_coords(group):
    """The identity as a one-row coordinate array."""
    fam = group.family
    if fam == "product":
        return tuple(_identity_coords(f) for f in group.factors)
    if fam == "su2":
        return np.array([[1.0, 0.0, 0.0, 0.0]])
    if fam == "torus":
        return np.zeros((1, group.n))
    return np.zeros((1, 1 if fam == "cyclic" else 2), dtype=int)


def identity(group):
    return points_of(group, _identity_coords(group))[0]


def _check_same_group(a, b):
    if a.group != b.group:
        raise GroupMismatchError(f"points from {a.group.name} and {b.group.name}")


def multiply(a, b):
    """Group product a*b."""
    _check_same_group(a, b)
    return _point_at(a.group, _mul_columns(a.group, _columns(a), _columns(b)))


def inverse(a):
    return _point_at(a.group, _inv_columns(a.group, _columns(a)))


def conjugate(a, g):
    """g^-1 a g."""
    return multiply(multiply(inverse(g), a), g)


def distance(a, b):
    """Bi-invariant metric.

    Discrete (0/1) on finite groups, flat circular distance on the torus,
    geodesic quaternion angle 2*arccos(<a,b>) on SU(2), and the l2 combination
    across product factors.  Satisfies distance(a,b) = 0 iff a == b.
    """
    _check_same_group(a, b)
    return float(_distance(a.group, a, b))


def _multiply(group, a, b):
    """Products a*b of the rows of two coordinate arrays, row by row; a
    one-row array broadcasts against the other."""
    return _stacked(group, _mul_columns(group, _columns(a), _columns(b)))


def _inverse(group, a):
    """The inverse of every row of a coordinate array."""
    return _stacked(group, _inv_columns(group, _columns(a)))


def _distance(group, a, b):
    """``distance`` between the rows of two coordinate arrays, row by row (a
    one-row array broadcasts against the other), or between two points."""
    return _dist_columns(group, _columns(a), _columns(b))


# The group law is written once, on coordinate columns: the columns of a
# coordinate array, one entry per element of a batch, or the coordinates of
# a single point, one number each.  Every formula is elementwise, so a batch
# gets row by row exactly what each of its points gets alone.

def _columns(coords):
    """The columns of a coordinate array or of a point, per factor on products."""
    if isinstance(coords, GroupPoint):
        return coords.coords if coords.group.family != "product" else _columns(coords.coords)
    if isinstance(coords, tuple):
        return tuple(_columns(c) for c in coords)
    return np.moveaxis(coords, -1, 0)


def _stacked(group, cols):
    """The coordinate array with the columns ``cols`` (``_columns`` inverted)."""
    if group.family == "product":
        return tuple(_stacked(f, c) for f, c in zip(group.factors, cols))
    return np.stack(cols, axis=-1)


def _point_at(group, cols):
    """The GroupPoint whose coordinates are the numbers ``cols``."""
    if group.family == "product":
        return GroupPoint(group, tuple(_point_at(f, c) for f, c in zip(group.factors, cols)))
    return GroupPoint(group, tuple(cols) if group.is_finite else tuple(map(float, cols)))


def _mul_columns(group, a, b):
    fam = group.family
    if fam == "product":
        return tuple(_mul_columns(f, x, y) for f, x, y in zip(group.factors, a, b))
    if fam == "cyclic":
        return ((a[0] + b[0]) % group.n,)
    if fam == "dihedral":
        # rho^r1 sig^s1 * rho^r2 sig^s2 = rho^(r1 + (-1)^s1 r2) sig^(s1+s2)
        (r1, s1), (r2, s2) = a, b
        return ((r1 + (1 - 2 * s1) * r2) % group.n, (s1 + s2) % 2)
    if fam == "torus":
        return tuple((x + y) % _TWO_PI for x, y in zip(a, b))
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    x = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    y = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    z = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    nrm = np.sqrt(w * w + x * x + y * y + z * z)
    return (w / nrm, x / nrm, y / nrm, z / nrm)


def _inv_columns(group, a):
    fam = group.family
    if fam == "product":
        return tuple(_inv_columns(f, x) for f, x in zip(group.factors, a))
    if fam == "cyclic":
        return ((-a[0]) % group.n,)
    if fam == "dihedral":
        r, s = a
        return (((2 * s - 1) * r) % group.n, s)  # reflections are involutions
    if fam == "torus":
        return tuple((-x) % _TWO_PI for x in a)
    w, x, y, z = a
    return (w, -x, -y, -z)


def _dist_columns(group, a, b):
    """Angle differences are wrapped to (-pi, pi] and squared axis by axis,
    the quaternion dot is summed term by term, and product factors add
    their squares in order."""
    fam = group.family
    if fam in ("cyclic", "dihedral"):
        differ = a[0] != b[0]
        for x, y in zip(a[1:], b[1:]):
            differ = differ | (x != y)
        return differ * 1.0
    if fam == "torus":
        sq = 0.0
        for x, y in zip(a, b):
            t = (x - y + math.pi) % _TWO_PI - math.pi
            sq = sq + t * t
        return np.sqrt(sq)
    if fam == "su2":
        dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
        return 2.0 * np.arccos(np.clip(dot, -1.0, 1.0))
    dists = [_dist_columns(f, x, y) for f, x, y in zip(group.factors, a, b)]
    return np.sqrt(sum(d * d for d in dists))


def enumerate_elements(group):
    """All elements of a finite group in canonical order."""
    if not group.is_finite:
        raise ValueError(f"{group.name} is not finite")
    return points_of(group, _finite_coords(group))


def coords_of(group, points):
    """The coordinates of points as arrays: for each family one (N, k) array
    whose rows are the points' coordinate tuples (integer residues on cyclic
    and (r, s) on dihedral groups, angles on the torus, unit quaternions on
    su2), and one such array per factor on products.  ``points_of`` is its
    inverse.

    Public functions that take points call it once, on entry, and pass the
    arrays on: a point of another group raises GroupMismatchError here,
    before its coordinates could be read as this group's."""
    points = list(points)
    for p in points:
        if p.group is not group and p.group != group:
            raise GroupMismatchError(f"point of {p.group.name} where {group.name} is expected")
    if group.family == "product":
        return tuple(
            coords_of(f, [p.coords[k] for p in points]) for k, f in enumerate(group.factors)
        )
    width = {"cyclic": 1, "dihedral": 2, "torus": group.n, "su2": 4}[group.family]
    dtype = int if group.is_finite else float
    return np.array([p.coords for p in points], dtype=dtype).reshape(len(points), width)


def points_of(group, coords):
    """The GroupPoints whose coordinates are the rows of a ``coords_of``
    array, in order.  Called where points leave the library: rule nodes,
    ``sample_ball``, ``enumerate_elements`` and ``identity``."""
    if group.family == "product":
        comps = [points_of(f, c) for f, c in zip(group.factors, coords)]
        return [GroupPoint(group, cs) for cs in zip(*comps)]
    return [GroupPoint(group, row) for row in zip(*coords.T.tolist())]


def _arrays(coords):
    """The arrays of a coordinate array of any family, product factors
    flattened in order."""
    if isinstance(coords, tuple):
        return [a for c in coords for a in _arrays(c)]
    return [coords]


def _rows(coords):
    """The number of rows of a coordinate array (of any family)."""
    return len(_arrays(coords)[0])


def _take(coords, idx):
    """The rows ``idx`` of a coordinate array (of any family)."""
    if isinstance(coords, tuple):
        return tuple(_take(c, idx) for c in coords)
    return coords[idx]


def _product_coords(factor_coords):
    """Coordinates of every tuple of factor points, first factor slowest
    (the order of ``itertools.product``)."""
    idx = np.indices([_rows(c) for c in factor_coords]).reshape(len(factor_coords), -1)
    return tuple(_take(c, i) for c, i in zip(factor_coords, idx))


def _finite_coords(group):
    """Coordinates of every element of a finite group in canonical order:
    residues; rotations, then reflections; products as ``_product_coords``."""
    if group.family == "cyclic":
        return np.arange(group.n).reshape(-1, 1)
    if group.family == "dihedral":
        return np.stack([np.tile(np.arange(group.n), 2), np.repeat([0, 1], group.n)], axis=1)
    return _product_coords([_finite_coords(f) for f in group.factors])


@dataclass(frozen=True)
class NeighborhoodSpec:
    """A metric ball around the identity: radius and how many samples to draw."""

    radius: float
    sample_count: int = 1

    def __post_init__(self):
        if not math.isfinite(self.radius):
            raise ValueError("radius must be finite")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


class QuadratureRule:
    """Nodes and weights for normalized Haar integration.

    Attributes
    ----------
    group : GroupDescriptor
    coords : ndarray or tuple of ndarray
        The nodes as read-only coordinate arrays (``coords_of``): residues
        (N, 1) on cyclic and (r, s) rows (N, 2) on dihedral groups, angles
        (N, n) on the torus, unit quaternions (N, 4) on su2, and one such
        array per factor on products.  Kernels read these arrays, and the
        group law acts on them directly (``_multiply``, ``_inverse``,
        ``_distance``), so no kernel builds a node as a point.
    nodes : tuple of GroupPoint
        The same nodes as points (``points_of``), for callers outside the
        library, built the first time they are read; ``nodes_at`` builds
        only the ones it is asked for.
    weights : ndarray
        Nonnegative, sums to 1 within 1e-12.
    exactness_degree : int or None
        Band up to which integration of irreducible matrix entries is exact:
        max |k| on the torus, 2*l on SU(2).  None on finite groups (the full
        group average is exact at every band).
    resolution : int
        The requested resolution parameter.  ``haar_quadrature`` returns one
        shared rule per (group, resolution), with the rule_id ``group|resN``.
        A rule built directly (from ``coords_of`` of its points) appends a
        digest of the bytes of its coordinate arrays and weights, taken
        without building a node, so function arithmetic accepts it only
        together with its equals.

    ``meta["kind"]`` picks the transform kernels (``fourier._kernels``).  A
    torus grid (``"torus-grid"``, axis lengths in ``meta["shape"]``)
    transforms by FFT.  An su2 Euler rule (``"su2-euler"``) keeps its grid
    axes in ``meta``, the Wigner d-matrices at its betas in
    ``meta["_wigner_d"]`` (``irreps.euler_grid_d``) and one alpha/gamma
    phase pair, for the largest spin asked so far, in
    ``meta["_euler_phases"]`` (``irreps.euler_phases``), and contracts over
    those axes.  Every product group, finite or not, has a product rule
    (``"product"``): it keeps its factor rules in ``meta["factor_rules"]``
    and transforms one factor axis at a time with their kernels.  None of
    these builds an irrep stack of the whole group to transform.

    A rule keeps no irrep stack.  Finite rules (``"finite"``: cyclic and
    dihedral groups) and hand-built rules (no kind) transform against stacks
    evaluated per call: one
    ``irreps.irrep_stack`` per label forward, one ``irreps._blocks_at``
    request for all labels in the synthesis.
    """

    def __init__(self, group, coords, weights, exactness_degree, resolution, meta=None):
        self.group = group
        for a in _arrays(coords):
            a.setflags(write=False)
        self.coords = coords
        w = np.asarray(weights, dtype=float)
        if w.shape != (_rows(coords),):
            raise ValueError("weights must align with nodes")
        w.setflags(write=False)
        self.weights = w
        self.exactness_degree = exactness_degree
        self.resolution = resolution
        self.meta = dict(meta or {})
        self._rule_id = None

    @functools.cached_property
    def nodes(self):
        return tuple(points_of(self.group, self.coords))

    def nodes_at(self, idx):
        """The nodes at the indices ``idx``, as a list of GroupPoint, without
        building the others."""
        return points_of(self.group, _take(self.coords, np.asarray(idx, dtype=int)))

    @property
    def rule_id(self):
        if self._rule_id is None:
            data = b"".join(a.tobytes() for a in _arrays(self.coords)) + self.weights.tobytes()
            digest = hashlib.sha1(data).hexdigest()[:12]
            self._rule_id = f"{self.group.name}|res{self.resolution}|{digest}"
        return self._rule_id

    def __len__(self):
        return len(self.weights)

    def __repr__(self):
        return f"QuadratureRule({self.rule_id}, {len(self)} nodes)"

    def integrate(self, values):
        values = np.asarray(values)
        return complex(np.sum(self.weights * values))


def _haar_finite(group, resolution):
    n = group.order
    return QuadratureRule(
        group, _finite_coords(group), np.full(n, 1.0 / n), None, resolution, {"kind": "finite"}
    )


def _haar_torus(group, resolution):
    if resolution < 1:
        raise ResolutionError("torus rule needs resolution >= 1")
    R = resolution
    axis = np.arange(R) * (_TWO_PI / R)
    coords = axis[np.indices((R,) * group.n).reshape(group.n, -1).T]
    w = np.full(len(coords), R ** (-group.n), dtype=float)
    meta = {"kind": "torus-grid", "shape": (R,) * group.n}
    return QuadratureRule(group, coords, w, R - 1, resolution, meta)


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
    # q = q_z(alpha) q_y(beta) q_z(gamma), with q_z(t) = (cos t/2, 0, 0, sin t/2)
    # and q_y(t) = (cos t/2, 0, sin t/2, 0), over the (alpha, beta, gamma) grid
    ca, sa = np.cos(alphas / 2)[:, None, None], np.sin(alphas / 2)[:, None, None]
    cb, sb = np.cos(betas / 2)[:, None], np.sin(betas / 2)[:, None]
    cg, sg = np.cos(gammas / 2), np.sin(gammas / 2)
    wa, xa, ya, za = ca * cb, -sa * sb, ca * sb, sa * cb
    w, x, y, z = wa * cg - za * sg, xa * cg + ya * sg, ya * cg - xa * sg, za * cg + wa * sg
    nrm = np.sqrt(w * w + x * x + y * y + z * z)
    coords = (np.stack([w, x, y, z], axis=-1) / nrm[..., None]).reshape(-1, 4)
    w_bc = (1.0 / n_a) * (gl_w / 2.0)[:, None] * np.full(n_c, 1.0 / n_c)
    weights = np.broadcast_to(w_bc, (n_a, n_b, n_c)).ravel()
    meta = {
        "kind": "su2-euler",
        "alphas": alphas,
        "betas": betas,
        "gammas": gammas,
    }
    return QuadratureRule(group, coords, weights, 2 * r, resolution, meta)


def _haar_product(group, resolution):
    factor_rules = tuple(haar_quadrature(f, resolution) for f in group.factors)
    coords = _product_coords([fr.coords for fr in factor_rules])
    w = factor_rules[0].weights
    for fr in factor_rules[1:]:
        w = np.outer(w, fr.weights).ravel()
    degrees = [fr.exactness_degree for fr in factor_rules]
    finite_degrees = [d for d in degrees if d is not None]
    exactness = min(finite_degrees) if finite_degrees else None
    meta = {"kind": "product", "factor_rules": factor_rules}
    return QuadratureRule(group, coords, w, exactness, resolution, meta)


def haar_quadrature(group, resolution=1):
    """Build the canonical Haar quadrature rule at a given resolution.

    Finite groups average over all elements (resolution is recorded but does
    not change the rule).  The torus uses the R-point uniform grid per axis
    (exact for bands |k| <= R-1).  SU(2) uses an Euler-angle rule exact for
    matrix entries with 2l <= 2*resolution.  Products combine factor rules at
    the same resolution.  Every call with the same (group, resolution)
    returns the same rule object.  A rule of more than ``_NODE_BUDGET`` nodes
    (``_node_count``) is refused with ValueError before anything is built.
    """
    if resolution < 1:
        raise ResolutionError("resolution must be >= 1")
    count = _node_count(group, resolution)
    if count > _NODE_BUDGET:
        raise ValueError(f"{group.name} at resolution {resolution} needs {count} quadrature "
                         f"nodes, more than the budget of {_NODE_BUDGET}")
    return _canonical_rule(group, resolution)


# The most nodes a canonical rule may have.  The largest rule the tests,
# tools, demos and benchmark build is product(torus:1,su2) at resolution 9
# (63,270 nodes); 2^22 lies 66 times above it and keeps one complex sample
# at 64 MiB.
_NODE_BUDGET = 2**22


def _node_count(group, resolution):
    """The node count of the canonical rule, from the group and resolution
    alone: the group order on finite groups, R^n on torus:n, (2r+1)(r+1)(4r+1)
    on su2, and the product of the factor counts on products."""
    if group.family == "torus":
        return resolution**group.n
    if group.family == "su2":
        return (2 * resolution + 1) * (resolution + 1) * (4 * resolution + 1)
    if group.family == "product":
        return math.prod(_node_count(f, resolution) for f in group.factors)
    return group.order


@functools.cache
def _canonical_rule(group, resolution):
    fam = group.family
    if fam in ("cyclic", "dihedral"):
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


def _unit_draw(rng, n, fallback):
    """A direction in R^n: n standard normals, normalized (the unit vector
    along axis ``fallback`` if they all vanish)."""
    u = rng.normal(size=n)
    nrm = np.linalg.norm(u)
    if nrm == 0:
        u = np.zeros(n)
        u[fallback] = 1.0
        return u
    return u / nrm


def _split_draw(rng, k):
    """How a product ball point shares its radius among k factors: the
    normalized absolute values of k standard normals."""
    split = np.abs(rng.normal(size=k))
    nrm = np.linalg.norm(split)
    return split / nrm if nrm > 0 else np.ones(k) / math.sqrt(k)


def sample_ball(group, spec, seed=0):
    """Deterministic sample of the closed metric ball around the identity.

    Always contains the identity, and (when the radius is resolvable) points
    at the boundary distance.  Finite groups are sampled exhaustively, the
    one-dimensional torus by a symmetric uniform grid of angles, and the
    remaining families by seeded directions with radial fractions spanning
    [0, 1].  The points are those ``_ball_pool`` draws at this one radius.

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
    if spec.radius == 0.0:
        return [identity(group)]
    return points_of(group, _ball_pool(group, [spec.radius], spec.sample_count, seed)[0])


def _draws_once(group):
    """Whether ``_ball_draw`` draws the same numbers at every radius: true
    unless some (product) factor is finite, which draws only once the radius
    reaches 1."""
    if group.family == "product":
        return all(_draws_once(f) for f in group.factors)
    return not group.is_finite


def _ball_draw(group, radius, rng):
    """The draws for one ball point at ``radius`` from e: a unit vector
    (torus), a unit rotation axis (su2), an element index (cyclic and
    dihedral: 0, the identity, without a draw below radius 1, else a
    uniformly drawn other element), or a radius split and one such draw per
    factor at its share of the radius (product)."""
    fam = group.family
    if fam in ("cyclic", "dihedral"):
        return 0 if radius < 1.0 else 1 + int(rng.integers(group.order - 1))
    if fam == "torus":
        return _unit_draw(rng, group.n, 0)
    if fam == "su2":
        return _unit_draw(rng, 3, 2)
    split = _split_draw(rng, len(group.factors))
    return split, [_ball_draw(f, radius * float(s), rng) for f, s in zip(group.factors, split)]


def _ball_coords(group, radii, draws):
    """Coordinates of the points placed at ``radii`` by ``draws`` (one draw
    per radius): the drawn elements (cyclic and dihedral), angle rows
    (torus), unit quaternion rows (su2), or one such array per factor
    (product)."""
    fam = group.family
    if fam in ("cyclic", "dihedral"):
        return _finite_coords(group)[np.array(draws, dtype=int)]
    if fam == "torus":
        return (radii[:, None] * np.array(draws)) % _TWO_PI
    if fam == "su2":
        half = radii / 2.0
        ax = np.sin(half)[:, None] * np.array(draws)
        w, x, y, z = np.cos(half), ax[:, 0], ax[:, 1], ax[:, 2]
        nrm = np.sqrt(w * w + x * x + y * y + z * z)
        return np.stack([w, x, y, z], axis=1) / nrm[:, None]
    splits = np.array([d[0] for d in draws])
    return tuple(
        _ball_coords(f, radii * splits[:, k], [d[1][k] for d in draws])
        for k, f in enumerate(group.factors)
    )


def _ball_pool(group, radii, count, seed=0):
    """``sample_ball(group, NeighborhoodSpec(r, count), seed)`` at each of the
    positive ``radii``, concatenated, and every point's distance to the
    identity: (coordinate array, array).

    Finite groups keep the elements within each radius.  Otherwise the
    identity comes first, then one point per radial fraction of
    ``linspace(0, 1, count)`` after 0: on the torus:1 grid, or drawn from a
    generator seeded afresh at every radius.  The draws depend on the radius
    only through finite factors, so without one they are made once and
    scaled per radius.  Coordinates and distances are array expressions.
    """
    e = _identity_coords(group)
    radii = np.array([NeighborhoodSpec(float(r), count).radius for r in radii])
    if group.is_finite:
        every = _finite_coords(group)
        dists = _distance(group, e, every)
        coords = _take(every, np.concatenate([np.nonzero(dists <= r)[0] for r in radii]))
    elif count == 1:
        coords = _take(e, np.zeros(len(radii), dtype=int))
    elif group.family == "torus" and group.n == 1:
        angles = np.linspace(-radii, radii, count, axis=-1)
        off = ~np.any(np.isclose(angles, 0.0, atol=1e-15), axis=1)
        angles[off, np.argmin(np.abs(angles[off]), axis=1)] = 0.0
        coords = angles.reshape(-1, 1) % _TWO_PI
    else:
        # fraction 0 is the identity, which borrows the first draw and is
        # then set exactly
        fractions = np.linspace(0.0, 1.0, count)
        draws = []
        for r in radii:
            if not draws or not _draws_once(group):
                rng = np.random.default_rng(seed)
                drawn = [_ball_draw(group, r * t, rng) for t in fractions[1:]]
            draws += drawn[:1] + drawn
        coords = _ball_coords(group, (radii[:, None] * fractions).ravel(), draws)
        for c, ident in zip(_arrays(coords), _arrays(e)):
            c[::count] = ident
    return coords, _distance(group, e, coords)
