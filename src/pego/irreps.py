"""Unitary dual of the supported groups: labels, matrices, characters.

Each irreducible representation is fixed in one concrete orthonormal basis:

* cyclic and torus characters are 1x1;
* dihedral D_N carries ``triv``, ``sign`` (det of the reflection action),
  for even N also ``alt``/``altsign`` (rho -> -1), and two-dimensional
  representations ``2dim-h`` in the basis where rotations are diagonal,
  ``rho -> diag(omega^h, omega^-h)``, ``sigma -> antidiag(1, 1)``;
* SU(2) uses Wigner D-matrices in the descending-weight basis, labeled by
  ``two_l = 2*l`` so half-integer spins stay exact;
* product irreps are Kronecker products of factor irreps.

Matrices come from one evaluator, ``_blocks_at``, a block of same-dimension
labels at a time, at the rows of a coordinate array or at every node of a
quadrature rule.  ``irrep_matrix``, ``irrep_matrices``, ``irrep_blocks``
and ``irrep_stack`` are thin calls of it, and a label's matrices do not
depend on the other labels of a request, so they all agree bitwise.

Every reported norm downstream is basis independent; :func:`basis_twist`
conjugates the whole dual by seeded random unitaries so tests can assert
exactly that.

Label serialization: ``triv`` (any group), ``chi:k``, ``torus:[k1,...,kn]``,
``wigner:2l``, ``dihedral:sign|alt|altsign|2dim-h``, ``prod(a,b)``.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _wigner
from .groups import GroupDescriptor, QuadratureRule, _split_top_level, coords_of

__all__ = [
    "IrrepLabel",
    "DualSubset",
    "trivial_label",
    "enumerate_dual",
    "shell_subset",
    "parse_label",
    "irrep_matrix",
    "irrep_matrices",
    "irrep_blocks",
    "irrep_stack",
    "euler_grid_d",
    "euler_phases",
    "character",
    "random_unitary",
    "basis_twist",
]

_DIHEDRAL_RANK = {"triv": 0, "sign": 1, "alt": 2, "altsign": 3, "e": 4}


@dataclass(frozen=True)
class IrrepLabel:
    """Canonical label of one irreducible unitary representation.

    ``index`` is the family-specific payload: ``(k,)`` for cyclic, the
    frequency vector for the torus, ``(two_l,)`` for SU(2), a tag tuple for
    dihedral (``("triv",)``, ``("e", h)``, ...), and a tuple of component
    labels for products.  ``dim`` is the representation dimension.
    """

    group: GroupDescriptor
    index: tuple
    dim: int

    # The hash, shell, name and sort key are computed once per label and kept
    # on it, so dict lookups, sorting and reports do not rebuild them.

    @functools.cached_property
    def _hash(self):
        return hash((self.group, self.index, self.dim))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: never carry the cached ones
        return (IrrepLabel, (self.group, self.index, self.dim))

    @functools.cached_property
    def shell(self):
        """Nonnegative ordering key; shell 0 is exactly the trivial irrep."""
        fam = self.group.family
        if fam == "cyclic":
            k = self.index[0]
            return min(k, self.group.n - k)
        if fam == "torus":
            return max(abs(k) for k in self.index)
        if fam == "su2":
            return self.index[0]
        if fam == "dihedral":
            tag = self.index[0]
            if tag == "triv":
                return 0
            if tag == "sign":
                return 1
            if tag in ("alt", "altsign"):
                return 2
            return 2 + self.index[1]
        return sum(c.shell for c in self.index)

    @property
    def is_trivial(self):
        return self.shell == 0

    @functools.cached_property
    def name(self):
        if self.is_trivial:
            return "triv"
        fam = self.group.family
        if fam == "cyclic":
            return f"chi:{self.index[0]}"
        if fam == "torus":
            return "torus:[" + ",".join(str(k) for k in self.index) + "]"
        if fam == "su2":
            return f"wigner:{self.index[0]}"
        if fam == "dihedral":
            tag = self.index[0]
            if tag == "e":
                return f"dihedral:2dim-{self.index[1]}"
            return f"dihedral:{tag}"
        return "prod(" + ",".join(c.name for c in self.index) + ")"

    @functools.cached_property
    def sort_key(self):
        fam = self.group.family
        if fam == "cyclic":
            return (self.shell, self.index[0])
        if fam == "torus":
            return (self.shell,) + self.index
        if fam == "su2":
            return (self.index[0],)
        if fam == "dihedral":
            tag = self.index[0]
            h = self.index[1] if tag == "e" else 0
            return (self.shell, _DIHEDRAL_RANK[tag], h)
        return (self.shell, tuple(c.sort_key for c in self.index))

    def __str__(self):
        return self.name


def trivial_label(group):
    fam = group.family
    if fam == "cyclic":
        return IrrepLabel(group, (0,), 1)
    if fam == "torus":
        return IrrepLabel(group, (0,) * group.n, 1)
    if fam == "su2":
        return IrrepLabel(group, (0,), 1)
    if fam == "dihedral":
        return IrrepLabel(group, ("triv",), 1)
    return IrrepLabel(group, tuple(trivial_label(f) for f in group.factors), 1)


def _dual_cyclic(group):
    return [IrrepLabel(group, (k,), 1) for k in range(group.n)]


def _dual_dihedral(group):
    n = group.n
    labels = [IrrepLabel(group, ("triv",), 1), IrrepLabel(group, ("sign",), 1)]
    if n % 2 == 0:
        labels.append(IrrepLabel(group, ("alt",), 1))
        labels.append(IrrepLabel(group, ("altsign",), 1))
        top = n // 2 - 1
    else:
        top = (n - 1) // 2
    labels += [IrrepLabel(group, ("e", h), 2) for h in range(1, top + 1)]
    return labels


def enumerate_dual(group, cutoff=None):
    """Labels of the unitary dual, sorted by (shell, canonical tiebreak).

    Finite groups always return the complete dual (``cutoff`` ignored).  The
    torus and SU(2) require a cutoff: frequency vectors with max|k| <= cutoff,
    respectively spins with 2l <= cutoff.  Products enumerate factor duals and
    keep tuples whose shell sum is <= cutoff (full dual when every factor is
    finite and no cutoff is given).  Each call returns a fresh list; the
    sorted enumeration itself is built once per (group, cutoff).
    """
    return list(_sorted_dual(group, cutoff))


@functools.cache
def _sorted_dual(group, cutoff):
    fam = group.family
    if fam == "cyclic":
        labels = _dual_cyclic(group)
    elif fam == "dihedral":
        labels = _dual_dihedral(group)
    elif fam == "torus":
        if cutoff is None:
            raise ValueError("torus dual is infinite; a cutoff is required")
        rng = range(-cutoff, cutoff + 1)
        labels = [
            IrrepLabel(group, ks, 1)
            for ks in itertools.product(rng, repeat=group.n)
        ]
    elif fam == "su2":
        if cutoff is None:
            raise ValueError("su2 dual is infinite; a cutoff is required")
        labels = [IrrepLabel(group, (t,), t + 1) for t in range(cutoff + 1)]
    elif fam == "product":
        if cutoff is None and not group.is_finite:
            raise ValueError("infinite product dual requires a cutoff")
        factor_duals = [_sorted_dual(f, cutoff) for f in group.factors]
        labels = [
            IrrepLabel(group, combo, math.prod(c.dim for c in combo))
            for combo in itertools.product(*factor_duals)
        ]
        if cutoff is not None:
            labels = [lab for lab in labels if lab.shell <= cutoff]
    else:
        raise ValueError(f"unknown family {fam!r}")
    return tuple(sorted(labels, key=lambda lab: lab.sort_key))


@dataclass(frozen=True)
class DualSubset:
    """A finite, duplicate-free, canonically ordered set of irrep labels."""

    group: GroupDescriptor
    labels: tuple

    @classmethod
    def from_labels(cls, group, labels):
        uniq = {}
        for lab in labels:
            if lab.group != group:
                raise ValueError(f"label {lab.name} is not an irrep of {group.name}")
            uniq[lab] = None
        ordered = tuple(sorted(uniq, key=lambda lab: lab.sort_key))
        return cls(group, ordered)

    def __contains__(self, lab):
        return lab in set(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    @functools.cached_property
    def max_shell(self):
        """The largest shell among the labels, computed once per subset."""
        return max(lab.shell for lab in self.labels)

    @property
    def names(self):
        return [lab.name for lab in self.labels]

    def complement_within(self, other):
        """Labels of ``other`` not in this subset, canonical order."""
        mine = set(self.labels)
        return DualSubset.from_labels(
            self.group, [lab for lab in other if lab not in mine]
        )


def shell_subset(group, max_shell, cutoff=None):
    """All irreps with shell <= max_shell, as a DualSubset."""
    cutoff = max_shell if cutoff is None and not group.is_finite else cutoff
    labels = enumerate_dual(group, cutoff)
    return DualSubset.from_labels(
        group, [lab for lab in labels if lab.shell <= max_shell]
    )


def parse_label(group, text):
    """Parse a serialized irrep label in the context of a group.

    Accepts the canonical forms produced by ``IrrepLabel.name`` plus
    family-appropriate shorthands: a bare integer is ``chi:k`` on cyclic
    groups and ``wigner:2l`` on SU(2); dihedral tags may drop the
    ``dihedral:`` prefix, and ``2dim`` means ``2dim-1``.
    """
    text = text.strip()
    fam = group.family
    if text == "triv":
        return trivial_label(group)
    if fam == "cyclic":
        body = text.removeprefix("chi:")
        try:
            k = int(body)
        except ValueError:
            raise ValueError(f"bad cyclic label {text!r}") from None
        return IrrepLabel(group, (k % group.n,), 1)
    if fam == "torus":
        body = text.removeprefix("torus:")
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        try:
            ks = tuple(int(p) for p in body.split(",")) if body else ()
        except ValueError:
            raise ValueError(f"bad torus label {text!r}") from None
        if len(ks) != group.n:
            raise ValueError(f"label {text!r} has wrong rank for {group.name}")
        return IrrepLabel(group, ks, 1)
    if fam == "su2":
        body = text.removeprefix("wigner:")
        try:
            two_l = int(body)
        except ValueError:
            raise ValueError(f"bad su2 label {text!r}") from None
        if two_l < 0:
            raise ValueError("su2 spin label must be nonnegative")
        return IrrepLabel(group, (two_l,), two_l + 1)
    if fam == "dihedral":
        body = text.removeprefix("dihedral:")
        if body in ("sign", "alt", "altsign"):
            if body in ("alt", "altsign") and group.n % 2:
                raise ValueError(f"{body} only exists for even dihedral order")
            return IrrepLabel(group, (body,), 1)
        if body == "2dim":
            body = "2dim-1"
        if body.startswith("2dim-"):
            try:
                h = int(body[len("2dim-") :])
            except ValueError:
                raise ValueError(f"bad dihedral label {text!r}") from None
            top = group.n // 2 - 1 if group.n % 2 == 0 else (group.n - 1) // 2
            if not 1 <= h <= top:
                raise ValueError(f"dihedral:{group.n} has no 2dim-{h}")
            return IrrepLabel(group, ("e", h), 2)
        raise ValueError(f"bad dihedral label {text!r}")
    if fam == "product":
        if text.startswith("prod(") and text.endswith(")"):
            parts = _split_top_level(text[len("prod(") : -1])
            if len(parts) != len(group.factors):
                raise ValueError(f"label {text!r} has wrong arity for {group.name}")
            comps = tuple(
                parse_label(g, p) for g, p in zip(group.factors, parts)
            )
            return IrrepLabel(group, comps, math.prod(c.dim for c in comps))
        raise ValueError(f"bad product label {text!r}")
    raise ValueError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# Matrix evaluation.  ``_blocks_at`` is the one evaluator, at points and on
# rules alike, ``_kron`` its one Kronecker product and ``_twisted`` its one
# twist step.  A module-level "basis twist" can conjugate every irrep by a
# fixed unitary; it exists so tests can certify basis independence of all
# reported quantities.  No matrix is kept: every matrix and stack is evaluated
# afresh on each call, from the grid tables an su2 Euler rule keeps in its
# ``meta`` (``euler_grid_d``, ``euler_phases``) where it has them.

_TWIST = {"table": None}


def random_unitary(dim, rng):
    """Haar-distributed unitary via QR with the standard phase fix."""
    zmat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(zmat)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


@contextmanager
def basis_twist(group, cutoff=None, seed=0):
    """Temporarily conjugate every irrep of ``group`` by a random unitary.

    Inside the context, ``irrep_matrix(pi, g)`` returns ``U* pi(g) U`` with a
    per-label unitary drawn from ``seed``.  The twisted family is again a
    concrete realization of the same dual, so any basis-independent quantity
    must be unchanged; a 1x1 twist is a unit scalar that cancels, so it is
    never applied.  Stacks and transforms evaluated inside the context are
    twisted too (``_twisted``).  Twists do not nest.
    """
    if _TWIST["table"] is not None:
        raise RuntimeError("basis_twist does not nest")
    rng = np.random.default_rng(seed)
    table = {}
    for lab in enumerate_dual(group, cutoff):
        table[lab] = random_unitary(lab.dim, rng)
    _TWIST["table"] = table
    try:
        yield table
    finally:
        _TWIST["table"] = None


def _twisted(block_labels, blocks, forward):
    """Per-dimension blocks (..., n_b, d, d) of matrices or coefficients, any
    leading axes, in the active ``basis_twist``: U* B U per covered label of
    d > 1 for matrices and forward coefficients (``forward``), U C U* for
    coefficients about to be synthesized.  The one reader of ``_TWIST``."""
    table = _TWIST["table"]
    if table is None:
        return blocks
    out = []
    for labels, block in zip(block_labels, blocks):
        us = [table.get(lab) for lab in labels]
        if labels[0].dim > 1 and any(u is not None for u in us):
            u = np.stack([np.eye(lab.dim) if v is None else v for lab, v in zip(labels, us)])
            uh = u.conj().transpose(0, 2, 1)
            block = uh @ block @ u if forward else u @ block @ uh
        out.append(block)
    return out


def _dihedral_matrix_arrays(label, rs, ss):
    """Dihedral irrep matrices at integer arrays rs, ss of length n, each
    raveled: shape (n, d * d)."""
    tag = label.index[0]
    if tag != "e":  # a character: -1 on odd s (sign), odd r (alt) or both
        odd = {"triv": 0 * rs, "sign": ss, "alt": rs, "altsign": rs + ss}[tag] % 2
        return (1.0 - 2.0 * odd).astype(complex)[:, None]
    om = np.exp(2j * np.pi * label.index[1] * np.asarray(rs) / label.group.n)
    # diag(om, conj om) at rotations, antidiag(om, conj om) at reflections
    out = np.zeros((len(om), 4), dtype=complex)
    rows, s = np.arange(len(om)), ss % 2
    out[rows, s] = om
    out[rows, 3 - s] = om.conj()
    return out


def _blocks_at(block_labels, at):
    """Matrices of every block of a request: per tuple of labels of one
    dimension d, all of one group, one (n, n_b, d, d) array.

    ``at`` is a coordinate array (``groups.coords_of``), whose n rows are the
    points, or a ``QuadratureRule``, whose n nodes are read in rule order.
    Every entry is computed elementwise, so a label's matrices do not depend
    on the other labels of the request:

    * torus phases exp(i sum_a ang_a k_a) are multiplied axis by axis
      (``_block_at``);
    * an su2 Euler rule combines its grid d-matrices with its phases, one
      ``_euler_stack`` per spin; any other su2 input takes the Euler angles
      of its quaternions and one ``_wigner.wigner_D`` call for all spins;
    * product labels are Kronecker products of their factors' matrices, each
      distinct factor label evaluated once (``_product_blocks``).

    Twists apply per block (``_twisted``), at the level of the group whose
    dual they cover.
    """
    if not block_labels:
        return []
    group = block_labels[0][0].group
    rule = at if isinstance(at, QuadratureRule) else None
    kind = None if rule is None else rule.meta.get("kind")
    coords = at if rule is None else rule.coords
    if group.family == "su2" and kind == "su2-euler":
        raw = [_euler_stack(lab, rule) for (lab,) in block_labels]
    elif group.family == "su2":  # every spin has its own dimension: one label per block
        angles = _wigner.euler_from_quaternion(*coords.T)
        raw = _wigner.wigner_D([lab.index[0] for (lab,) in block_labels], *angles)
    elif kind == "product":
        raw = _product_blocks(block_labels, rule.meta["factor_rules"], crossed=True)
    elif group.family == "product":
        raw = _product_blocks(block_labels, coords, crossed=False)
    else:
        raw = [_block_at(group, labels, coords) for labels in block_labels]
    mats = [np.ascontiguousarray(m, dtype=complex).reshape(-1, len(labs), labs[0].dim, labs[0].dim)
            for labs, m in zip(block_labels, raw)]
    return _twisted(block_labels, mats, True)


def _block_at(group, labels, coords):
    """Untwisted matrices of one block of a cyclic, torus or dihedral group.

    A torus character is the product over axes of exp(i k_a theta_a): per
    axis, exp(i k theta) is taken once for each k from the block's lowest
    to its highest frequency (``_torus_frequencies``), and each label
    gathers its factors from those tables.  A label's matrices thus do not
    depend on the other labels of the block.
    """
    fam = group.family
    if fam == "cyclic":
        ks = np.array([lab.index[0] for lab in labels], dtype=float)
        return np.exp(2j * np.pi * coords * ks / group.n)
    if fam == "torus":
        offsets, low, high = _torus_frequencies(labels)
        out = None
        for a in range(group.n):
            ks = np.arange(low[a], high[a] + 1, dtype=float)
            part = np.take(np.exp(1j * (coords[:, a : a + 1] * ks)), offsets[a], axis=1)
            out = part if out is None else np.multiply(out, part, out=out)
        return out
    if fam == "dihedral":  # (n, n_b * d * d), as ``_blocks_at`` reads it
        return np.concatenate([_dihedral_matrix_arrays(lab, *coords.T) for lab in labels], axis=1)
    raise ValueError(f"unknown family {fam!r}")


@functools.cache
def _torus_frequencies(labels):
    """A block of torus labels' frequencies as (rank, n_b) offsets from the
    lowest frequency of each axis, with the lowest and highest frequency per
    axis; built once per label tuple, like ``fourier.slot_table``."""
    ks = np.array([lab.index for lab in labels]).reshape(len(labels), -1).T
    low, high = ks.min(axis=1), ks.max(axis=1)
    return np.ascontiguousarray(ks - low[:, None]), low.tolist(), high.tolist()


def _product_blocks(block_labels, factor_at, crossed):
    """Untwisted matrices of the blocks of a product group, from its
    factors' matrices (the product factorization of Maslen and Rockmore,
    "Generalized FFTs", DIMACS 28, 1997).  Per factor, the distinct factor
    labels of the request are evaluated in one ``_blocks_at`` at
    ``factor_at[k]``: the factor rules of a product rule (``crossed``) or
    the factor coordinate arrays.  Labels of a block with the same factor
    dimensions are then Kronecker-combined together (``_kron``)."""
    labels = [lab for labs in block_labels for lab in labs]
    factor_blocks = []  # per factor and dimension: the block and each label's position in it
    for k, at in enumerate(factor_at):
        by_dim = {}
        for comp in dict.fromkeys(lab.index[k] for lab in labels):
            by_dim.setdefault(comp.dim, []).append(comp)
        mats = _blocks_at([tuple(comps) for comps in by_dim.values()], at)
        factor_blocks.append({
            d: (block, {c: i for i, c in enumerate(comps)})
            for (d, comps), block in zip(by_dim.items(), mats)
        })
    out = []
    for labs in block_labels:
        by_dims = {}
        for i, lab in enumerate(labs):
            by_dims.setdefault(tuple(c.dim for c in lab.index), []).append(i)
        parts = []
        for dims, idx in by_dims.items():
            factors = []
            for k, d in enumerate(dims):
                block, pos = factor_blocks[k][d]
                take = [pos[labs[i].index[k]] for i in idx]
                factors.append(block if take == list(range(block.shape[1])) else block[:, take])
            parts.append((idx, functools.reduce(lambda a, b: _kron(a, b, crossed), factors)))
        if len(parts) == 1:
            out.append(parts[0][1])
            continue
        first = parts[0][1]
        block = np.empty((len(first), len(labs)) + first.shape[2:], dtype=complex)
        for idx, acc in parts:
            block[:, idx] = acc
        out.append(block)
    return out


def _kron(a, b, crossed):
    """kron(a, b) label by label, for (s, n_b, i, i) and (t, n_b, j, j)
    matrices: node by node (s == t), or at every node pair (s, t) with a's
    node slowest when ``crossed``, as ``groups._product_coords`` orders a
    product rule's nodes."""
    if crossed:
        a, b = a[:, None], b[None]
    d = a.shape[-1] * b.shape[-1]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(-1, a.shape[-3], d, d)


def irrep_blocks(block_labels, points):
    """Irrep matrices at many points, a block of labels at a time.

    ``block_labels`` holds tuples of labels of one dimension each, all of one
    group; the result has one (n, n_b, d, d) array per tuple, whose ``[k, i]``
    is pi(points[k]) for its i-th label.  The points' coordinates are read
    once for all blocks (``_blocks_at``).
    """
    if not block_labels:
        return []
    return _blocks_at(block_labels, coords_of(block_labels[0][0].group, points))


def irrep_matrices(label, points):
    """Unitary matrices of an irrep at a batch of points, shape (n, d, d):
    ``_blocks_at`` on a block of one label."""
    return _blocks_at(((label,),), coords_of(label.group, points))[0][:, 0]


def irrep_matrix(label, g):
    """The unitary matrix of one irrep at one group element."""
    return _blocks_at(((label,),), coords_of(label.group, [g]))[0][0, 0]


def character(label, g):
    """Trace of the irrep at g (basis independent)."""
    return complex(np.trace(irrep_matrix(label, g)))


def euler_grid_d(label, rule):
    """Wigner d-matrices of an su2 label at the betas of an Euler rule.

    Shape (n_beta, d, d), real and read-only.  Computed once per (rule, spin)
    and kept on the rule, in ``rule.meta["_wigner_d"]``, for the separable
    transforms and the su2 stacks.
    """
    cache = rule.meta.setdefault("_wigner_d", {})
    two_l = label.index[0]
    dmat = cache.get(two_l)
    if dmat is None:
        dmat = _wigner.wigner_d(two_l, rule.meta["betas"])
        dmat.setflags(write=False)
        cache[two_l] = dmat
    return dmat


def euler_phases(rule, top):
    """Phases e^{i m alpha_a} and e^{i m gamma_c} on an Euler rule's uniform axes.

    One column per 2m in -top..top, so integer and half-integer spins share
    the matrices; spin two_l <= top reads the columns
    ``top + two_m_values(two_l)``.  The rule keeps one read-only pair, for
    the largest top asked so far, in ``rule.meta["_euler_phases"]``; a
    smaller top gets the centered column slice of it, and only a larger top
    rebuilds it.
    """
    kept = rule.meta.get("_euler_phases")
    big = -1 if kept is None else (kept[0].shape[1] - 1) // 2
    if top > big:
        half_m = np.arange(-top, top + 1) / 2.0
        kept = tuple(np.exp(1j * np.outer(rule.meta[axis], half_m)) for axis in ("alphas", "gammas"))
        for ph in kept:
            ph.setflags(write=False)
        rule.meta["_euler_phases"] = kept
        big = top
    cols = slice(big - top, big + top + 1)
    return kept[0][:, cols], kept[1][:, cols]


def _euler_stack(label, rule):
    """pi(a, b, c) = e^{-i m_p a} d_pq(b) e^{-i m_q c} at every node of an su2
    Euler rule, whose nodes run over (alpha, beta, gamma) with gamma fastest.
    The d-matrices come from ``euler_grid_d``, one per distinct beta; the
    product is written C-ordered, so the reshape to (n, d, d) copies nothing."""
    two_l = label.index[0]
    ph_a, ph_c = euler_phases(rule, two_l)
    cols = two_l + _wigner.two_m_values(two_l)
    d_grid = euler_grid_d(label, rule)
    stack = np.empty((len(ph_a), len(d_grid), len(ph_c), label.dim, label.dim), dtype=complex)
    ph_a = ph_a[:, cols].conj()[:, None, None, :, None]
    ph_c = ph_c[:, cols].conj()[None, None, :, None, :]
    np.multiply(ph_a * d_grid[None, :, None], ph_c, out=stack)
    return stack.reshape(len(rule), label.dim, label.dim)


def irrep_stack(label, rule):
    """Matrices of an irrep at every node of a rule, shape (n, d, d):
    ``_blocks_at`` on a block of one label, evaluated afresh on each call
    and kept nowhere.

    An su2 Euler rule combines its grid d-matrices with the alpha and gamma
    phases (``_euler_stack``); a product rule Kronecker-combines the
    factors' stacks on its factor rules, so each factor is evaluated at its
    own rule's nodes only; every other rule evaluates the label at
    ``rule.coords`` and builds no GroupPoint.  The transforms use stacks on
    cyclic, dihedral and hand-built rules only, finite factors of product
    rules included; stacks elsewhere serve matrix-entry functions and
    ``char:`` specs.
    """
    if label.group != rule.group:
        raise ValueError(f"label {label.name} is not an irrep of {rule.group.name}")
    return _blocks_at(((label,),), rule)[0][:, 0]
