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
from .groups import GroupDescriptor, _split_top_level

__all__ = [
    "IrrepLabel",
    "DualSubset",
    "trivial_label",
    "enumerate_dual",
    "shell_subset",
    "parse_label",
    "irrep_matrix",
    "irrep_matrices",
    "irrep_stack",
    "euler_grid_d",
    "euler_phases",
    "twist_unitary",
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
# Matrix evaluation.  A module-level "basis twist" can conjugate every irrep
# by a fixed unitary; it exists so tests can certify basis independence of
# all reported quantities.  While a twist is active, ``stacks`` holds the
# stacks built under it, keyed by (rule, label); they are dropped when the
# twist exits, so the untwisted stacks stored on rules never go stale.

_TWIST = {"table": None, "stacks": None}


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
    must be unchanged.  ``irrep_stack`` builds and keeps twisted stacks for
    the duration of the context only; the stacks stored on rules are neither
    used nor touched.  Twists do not nest.
    """
    if _TWIST["table"] is not None:
        raise RuntimeError("basis_twist does not nest")
    rng = np.random.default_rng(seed)
    table = {}
    for lab in enumerate_dual(group, cutoff):
        table[lab] = random_unitary(lab.dim, rng)
    _TWIST.update(table=table, stacks={})
    try:
        yield table
    finally:
        _TWIST.update(table=None, stacks=None)


def twist_unitary(label):
    """The unitary U with which the active ``basis_twist`` realizes ``label``
    as ``U* pi U``; None outside a twist or for a label it does not cover."""
    table = _TWIST["table"]
    return None if table is None else table.get(label)


def _apply_twist(label, mats):
    u = twist_unitary(label)
    return mats if u is None else u.conj().T @ mats @ u


def _dihedral_matrix_arrays(label, rs, ss):
    """Stack of dihedral irrep matrices for integer arrays rs, ss."""
    n = label.group.n
    tag = label.index[0]
    if tag == "triv":
        vals = np.ones_like(rs, dtype=complex)
        return vals[..., None, None]
    if tag == "sign":
        vals = np.where(ss % 2 == 0, 1.0, -1.0).astype(complex)
        return vals[..., None, None]
    if tag == "alt":
        vals = np.where(rs % 2 == 0, 1.0, -1.0).astype(complex)
        return vals[..., None, None]
    if tag == "altsign":
        vals = (np.where(rs % 2 == 0, 1.0, -1.0) * np.where(ss % 2 == 0, 1.0, -1.0)).astype(complex)
        return vals[..., None, None]
    h = label.index[1]
    om = np.exp(2j * np.pi * h * np.asarray(rs) / n)
    out = np.zeros(np.shape(rs) + (2, 2), dtype=complex)
    rot = ss % 2 == 0
    out[rot, 0, 0] = om[rot]
    out[rot, 1, 1] = om[rot].conj()
    out[~rot, 0, 1] = om[~rot]
    out[~rot, 1, 0] = om[~rot].conj()
    return out


def irrep_matrices(label, points):
    """Unitary matrices of an irrep at a batch of points, shape (n, d, d)."""
    fam = label.group.family
    if fam == "cyclic":
        js = np.array([p.coords[0] for p in points], dtype=float)
        vals = np.exp(2j * np.pi * label.index[0] * js / label.group.n)
        mats = vals[:, None, None]
    elif fam == "torus":
        ang = np.array([p.coords for p in points], dtype=float).reshape(len(points), label.group.n)
        ks = np.asarray(label.index, dtype=float)
        mats = np.exp(1j * (ang @ ks))[:, None, None]
    elif fam == "dihedral":
        rs = np.array([p.coords[0] for p in points])
        ss = np.array([p.coords[1] for p in points])
        mats = _dihedral_matrix_arrays(label, rs, ss)
    elif fam == "su2":
        q = np.array([p.coords for p in points], dtype=float).reshape(len(points), 4)
        al, be, ga = _wigner.euler_from_quaternion(q[:, 0], q[:, 1], q[:, 2], q[:, 3])
        mats = _wigner.wigner_D(label.index[0], al, be, ga)
    elif fam == "product":
        mats = None
        for k, comp_label in enumerate(label.index):
            block = irrep_matrices(comp_label, [p.coords[k] for p in points])
            if mats is None:
                mats = block
            else:
                n, d1, _ = mats.shape
                d2 = block.shape[1]
                mats = np.einsum("tij,tkl->tikjl", mats, block).reshape(
                    n, d1 * d2, d1 * d2
                )
        # product twists apply at the top level only
        return _apply_twist(label, np.ascontiguousarray(mats))
    else:
        raise ValueError(f"unknown family {fam!r}")
    return _apply_twist(label, np.ascontiguousarray(mats.astype(complex)))


def irrep_matrix(label, g):
    """The unitary matrix of one irrep at one group element."""
    return irrep_matrices(label, [g])[0]


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
    The d-matrices come from ``euler_grid_d``, one per distinct beta."""
    two_l = label.index[0]
    ph_a, ph_c = euler_phases(rule, two_l)
    cols = two_l + _wigner.two_m_values(two_l)
    ph_a = ph_a[:, cols].conj()[:, None, None, :, None]
    ph_c = ph_c[:, cols].conj()[None, None, :, None, :]
    stack = ph_a * euler_grid_d(label, rule)[None, :, None] * ph_c
    return stack.reshape(len(rule), label.dim, label.dim)


def irrep_stack(label, rule):
    """Matrices of an irrep at every node of a rule, shape (n, d, d).

    Built once and stored on the rule, so it lives as long as the rule does;
    inside ``basis_twist`` the twisted stack is kept by the twist instead.
    The returned array is shared and read-only.  A product rule reuses its
    factor stacks, and an su2 Euler rule combines its grid d-matrices with
    the alpha and gamma phases (``_euler_stack``); every other rule evaluates
    ``irrep_matrices`` at its nodes.  The transforms use stacks on torus,
    finite and product rules only (su2 Euler rules transform through
    ``euler_grid_d``); stacks on an su2 rule serve the callers that need
    every matrix entry at every node, such as matrix-entry functions.
    """
    twisted = _TWIST["stacks"]
    cache, key = (rule._stacks, label) if twisted is None else (twisted, (rule, label))
    hit = cache.get(key)
    if hit is not None:
        return hit
    if label.group != rule.group:
        raise ValueError(f"label {label.name} is not an irrep of {rule.group.name}")
    kind = rule.meta.get("kind")
    if kind == "product":
        # Factor twists (if any) commute with the Kronecker structure, so the
        # product of factor stacks is always a valid realization.
        stack = None
        for comp_label, frule in zip(label.index, rule.meta["factor_rules"]):
            block = irrep_stack(comp_label, frule)
            if stack is None:
                stack = block
            else:
                n1, d1, _ = stack.shape
                n2, d2, _ = block.shape
                stack = np.einsum("aij,bkl->abikjl", stack, block).reshape(
                    n1 * n2, d1 * d2, d1 * d2
                )
        stack = _apply_twist(label, np.ascontiguousarray(stack))
    elif kind == "su2-euler":
        stack = _apply_twist(label, _euler_stack(label, rule))
    else:
        stack = irrep_matrices(label, rule.nodes)
    stack.setflags(write=False)
    cache[key] = stack
    return stack
