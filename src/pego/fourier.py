"""Operator-valued Fourier analysis on compact groups.

The transform pairs a function sampled on a Haar quadrature rule with one
matrix per irreducible representation:

    coeff(pi) = integral of f(t) pi(t)^* dm(t),
    f(x)      = sum over pi of dim(pi) * trace(coeff(pi) pi(x)).

Convolution ``(f*g)(x) = integral f(x y^-1) g(y) dm(y)`` transforms to the
matrix product ``ghat @ fhat`` (order matters on noncommutative groups), and
the right translation ``(R_y f)(x) = f(x y)`` to ``pi(y) @ fhat``.  Right
translates come in batches (``translate_batch``): node re-indexing where
x -> x*y permutes the grid, and otherwise one transform of f, one batched
``pi(y) @ fhat`` per dimension block for all the elements, and one synthesis.

Everything is computed against a fixed rule.  For band-limited functions
whose frequency content fits inside the rule's exactness degree the discrete
transform agrees with the continuum one exactly, which is the regime all
bound checks run in.

Coefficients are packed: one contiguous (n_b, d, d) block per irrep
dimension, with a slot table per label tuple (``slot_table``) that maps each
label to its block and position.  Kernels loop over blocks and slots by
integer; masses, norms and head sums are vectorized per block.

On the SU(2) Euler grid both directions are separable: two phase GEMMs over
the uniform alpha and gamma axes and one Gauss-Legendre-weighted sum against
d^l(beta) per spin, O(r^4) time and O(r^3) memory, with no (N, d, d) irrep
stack built.  On torus, finite and product rules each label is one GEMM
against the irrep stack cached on the rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _wigner, irreps
from .groups import (
    GroupMismatchError,
    NeighborhoodSpec,
    QuadratureRule,
    ResolutionError,
    distance,
    identity,
    multiply,
)
from .groups import inverse as group_inverse

__all__ = [
    "SampledFunction",
    "FourierCoefficients",
    "SlotTable",
    "slot_table",
    "head_sums",
    "safe_band",
    "constant_function",
    "sample",
    "matrix_entry_function",
    "random_band_limited_function",
    "forward",
    "forward_to_cutoff",
    "forward_batch",
    "inverse",
    "inverse_batch",
    "evaluate_at",
    "convolve",
    "translate",
    "translate_batch",
    "translate_spectral",
    "dirac_net_element",
]


@dataclass
class SampledFunction:
    """A complex-valued function known at the nodes of a quadrature rule."""

    rule: QuadratureRule
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (len(self.rule),):
            raise ValueError(
                f"values have shape {vals.shape}, rule has {len(self.rule)} nodes"
            )
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("sampled values must be finite")
        self.values = vals

    @property
    def group(self):
        return self.rule.group

    def __add__(self, other):
        _check_same_rule(self, other)
        return SampledFunction(self.rule, self.values + other.values)

    def __sub__(self, other):
        _check_same_rule(self, other)
        return SampledFunction(self.rule, self.values - other.values)

    def __mul__(self, scalar):
        return SampledFunction(self.rule, self.values * complex(scalar))

    __rmul__ = __mul__


def _check_same_rule(f, g):
    if f.rule.rule_id != g.rule.rule_id:
        raise GroupMismatchError(
            f"functions sampled on different rules: {f.rule.rule_id} vs {g.rule.rule_id}"
        )


@dataclass(frozen=True, eq=False)
class SlotTable:
    """Where each label of a coverage lives in the packed coefficient blocks.

    Labels are grouped by dimension: block ``b`` holds the labels of
    dimension ``dims[b]``, in coverage order, as one (n_b, d, d) array, and
    ``block_labels[b]`` lists them.  ``index`` maps a label to its position
    in ``labels``; at that position ``block_of`` and ``pos_of`` hold the
    label's block and its position in the block.  ``slot`` and ``members``
    are derived from those; ``matrices_at`` lays irrep matrices out the same
    way.  Built once per label tuple by ``slot_table``.
    """

    labels: tuple
    dims: tuple
    block_labels: tuple
    index: dict
    block_of: np.ndarray
    pos_of: np.ndarray

    def slot(self, lab):
        """(block, position) of a label; KeyError outside the coverage."""
        i = self.index[lab]
        return int(self.block_of[i]), int(self.pos_of[i])

    @functools.cached_property
    def members(self):
        """Per block, the positions in ``labels`` of its labels, in order."""
        return tuple(np.flatnonzero(self.block_of == b) for b in range(len(self.dims)))

    def matrices_at(self, points):
        """The irrep matrices at ``points``, laid out like the blocks: per
        block one (m, n_b, d, d) array whose ``[k, pos]`` is pi(points[k])
        for the label at ``pos``."""
        points = list(points)
        return [
            np.stack([irreps.irrep_matrices(lab, points) for lab in labs], axis=1)
            for labs in self.block_labels
        ]


@functools.cache
def slot_table(labels):
    """The slot table of a label tuple (duplicate-free), built once per tuple.

    Tuples come from dual enumerations and net subsets, a handful per
    session (the benchmark's audit workload builds 8, verify and
    spectral-su2 4 each), so the cache is unbounded, like the one of
    ``irreps._sorted_dual``.
    """
    index = {}
    for i, lab in enumerate(labels):
        if index.setdefault(lab, i) != i:
            raise ValueError(f"label {lab.name} appears twice")
    dims = tuple(dict.fromkeys(lab.dim for lab in labels))
    block_of = np.array([dims.index(lab.dim) for lab in labels], dtype=int)
    pos_of = np.empty(len(labels), dtype=int)
    block_labels = []
    for b in range(len(dims)):
        mine = np.flatnonzero(block_of == b)
        pos_of[mine] = np.arange(len(mine))
        block_labels.append(tuple(labels[i] for i in mine))
    return SlotTable(labels, dims, tuple(block_labels), index, block_of, pos_of)


def head_sums(masses, positions):
    """Sums of ``masses[..., positions]``, added one term at a time in the
    given order (0 for no positions).

    The one summation behind every head mass: ``head_mass`` and the p = 2
    tail profile both call it, so their heads agree bitwise.
    """
    picked = masses[..., positions]
    if picked.shape[-1] == 0:
        return np.zeros(picked.shape[:-1])
    return np.cumsum(picked, axis=-1)[..., -1]


class FourierCoefficients:
    """One coefficient matrix per irrep label, packed by dimension.

    ``labels`` fixes the declared coverage and its order; every label in it
    has an entry, zeros stored explicitly.  The matrices live in ``blocks``,
    one contiguous (n_b, d, d) array per dimension, laid out by the label
    tuple's ``slot_table`` (``table``); ``coeffs[lab]`` is a view into its
    block.  ``cutoff`` records the shell cutoff when the coverage came from
    ``enumerate_dual`` (None for ad-hoc label sets).  ``l2_mass_total``
    carries ||f||_2^2 of the source function when known, which lets tail
    computations account for mass outside the coverage.

    Built from a dict ``{label: matrix}`` by the constructor, or from packed
    blocks by ``from_blocks``.
    """

    def __init__(self, group, labels, entries, cutoff=None, l2_mass_total=None):
        labels = tuple(labels)
        if set(labels) != set(entries):
            raise ValueError("labels and entries disagree")
        table = slot_table(labels)
        blocks = []
        for d, labs in zip(table.dims, table.block_labels):
            block = np.empty((len(labs), d, d), dtype=complex)
            for k, lab in enumerate(labs):
                mat = np.asarray(entries[lab], dtype=complex)
                if mat.shape != (d, d):
                    raise ValueError(f"entry for {lab.name} has shape {mat.shape}")
                block[k] = mat
            blocks.append(block)
        self._set(group, table, blocks, cutoff, l2_mass_total)

    @classmethod
    def from_blocks(cls, group, table, blocks, cutoff=None, l2_mass_total=None):
        """Coefficients from blocks laid out by the slot table ``table``;
        complex blocks are kept as given, not copied."""
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        want = [(len(labs), d, d) for d, labs in zip(table.dims, table.block_labels)]
        if [b.shape for b in blocks] != want:
            raise ValueError(f"blocks have shapes {[b.shape for b in blocks]}, want {want}")
        out = cls.__new__(cls)
        out._set(group, table, blocks, cutoff, l2_mass_total)
        return out

    def _set(self, group, table, blocks, cutoff, l2_mass_total):
        self.group = group
        self.table = table
        self.labels = table.labels
        self.blocks = tuple(blocks)
        self.cutoff = cutoff
        self.l2_mass_total = l2_mass_total

    def __getitem__(self, lab):
        b, pos = self.table.slot(lab)
        return self.blocks[b][pos]

    def __contains__(self, lab):
        return lab in self.table.index

    def positions(self, subset):
        """Positions in ``labels`` of the labels of ``subset``, in its order."""
        index = self.table.index
        try:
            return np.array([index[lab] for lab in subset], dtype=int)
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0].name} outside computed coverage") from None

    def label_masses(self):
        """dim(pi) ||coeff(pi)||_F^2 for every label, in ``labels`` order."""
        out = np.empty(len(self.labels))
        for d, mem, block in zip(self.table.dims, self.table.members, self.blocks):
            out[mem] = d * np.sum(np.abs(block) ** 2, axis=(1, 2))
        return out

    def head_mass(self, subset):
        """sum over pi in subset of dim(pi) ||coeff(pi)||_F^2, in subset order."""
        return float(head_sums(self.label_masses(), self.positions(subset)))


def safe_band(rule):
    """Largest shell cutoff the rule transforms without aliasing.

    Forward coefficients of a function band-limited at shell <= b against a
    dual enumerated to cutoff b are exact when b <= safe_band(rule).  None
    means unrestricted (finite groups: the full dual is always exact).
    """
    deg = rule.exactness_degree
    if deg is None:
        return None
    return deg // 2


def constant_function(rule, value=1.0):
    return SampledFunction(rule, np.full(len(rule), complex(value)), name="const")


def sample(rule, fn, name=""):
    """Sample a callable point -> complex on the rule's nodes."""
    return SampledFunction(
        rule, np.array([fn(p) for p in rule.nodes], dtype=complex), name=name
    )


def matrix_entry_function(label, i, j, rule):
    """The matrix-entry function t -> pi(t)_{ij} sampled on a rule (1-based)."""
    if not (1 <= i <= label.dim and 1 <= j <= label.dim):
        raise ValueError(f"entry ({i},{j}) out of range for dim {label.dim}")
    stack = irreps.irrep_stack(label, rule)
    return SampledFunction(
        rule, stack[:, i - 1, j - 1].copy(), name=f"{label.name}[{i},{j}]"
    )


def _random_blocks(group, table, rng):
    """Complex-normal coefficient blocks for the labels of ``table``, and
    their Plancherel mass sum of dim ||C||_F^2.

    Label by label in table order, the real and then the imaginary parts of
    its (d, d) matrix are drawn; one ``rng.normal`` call draws them all, the
    same stream as one call per part, and they are gathered into the packed
    blocks.  The mass is summed in label order.
    """
    sizes = np.array([lab.dim for lab in table.labels], dtype=int) ** 2
    draws = rng.normal(size=2 * int(sizes.sum()))
    start = np.cumsum(2 * sizes) - 2 * sizes
    blocks = []
    for d, mem in zip(table.dims, table.members):
        at = start[mem][:, None] + np.arange(d * d)
        blocks.append((draws[at] + 1j * draws[at + d * d]).reshape(len(mem), d, d))
    unscaled = FourierCoefficients.from_blocks(group, table, blocks)
    return blocks, float(head_sums(unscaled.label_masses(), np.arange(len(table.labels))))


def random_band_limited_function(rule, band, seed=0, norm=1.0, name=""):
    """Seeded random function with frequency content in shells <= band.

    Coefficient matrices have iid complex-normal entries (``_random_blocks``,
    labels in shell order), rescaled so that ||f||_2 equals ``norm``.
    Exactly band-limited, hence transform-exact on any rule with
    safe_band >= band.
    """
    rng = np.random.default_rng(seed) if isinstance(seed, (int, np.integer)) else seed
    table = slot_table(irreps.shell_subset(rule.group, band).labels)
    blocks, mass = _random_blocks(rule.group, table, rng)
    if norm is not None and mass > 0:
        scale = norm / math.sqrt(mass)
        blocks = [b * scale for b in blocks]
    out = inverse(FourierCoefficients.from_blocks(rule.group, table, blocks), rule)
    out.name = name or f"rand(band={band})"
    return out


def forward(f, dual):
    """Fourier coefficients of f on a list of labels: ``forward_batch([f], dual)[0]``."""
    return forward_batch([f], dual)[0]


def forward_to_cutoff(f, cutoff=None):
    """Transform against the canonical dual enumeration up to a shell cutoff.

    Defaults to safe_band(rule), the largest alias-free choice.  Raises
    ResolutionError if the requested cutoff exceeds it.
    """
    band = safe_band(f.rule)
    if cutoff is None:
        cutoff = band
    if band is not None and cutoff > band:
        raise ResolutionError(
            f"cutoff {cutoff} exceeds alias-free band {band} of {f.rule.rule_id}"
        )
    out = forward(f, irreps.enumerate_dual(f.group, cutoff))
    out.cutoff = cutoff
    return out


def forward_batch(fs, dual):
    """Transform many functions on one rule against one dual.

    The one forward kernel.  coeff(pi)[i, j] = sum_t w_t f(t) conj(pi(t)[j, i]).
    Each dimension block is one (m, n_b, d, d) array, and function k gets the
    views ``[k]`` of those arrays.  On su2 Euler rules the kernel runs
    separably over the grid axes (``_su2_forward``).  On every other rule it
    is, per label, one GEMM of conj(w * f) against the cached stack viewed as
    (N, d*d), written into the label's slot; each block is then conjugated
    and transposed back once, so no conjugated copy of a stack is made.
    """
    if not fs:
        return []
    rule = fs[0].rule
    for f in fs:
        _check_same_rule(fs[0], f)
    table = slot_table(tuple(dual))
    wf = np.stack([f.rule.weights * f.values for f in fs])  # (m, N)
    masses = [float(np.sum(f.rule.weights * np.abs(f.values) ** 2)) for f in fs]
    if rule.meta.get("kind") == "su2-euler":
        blocks = _su2_forward(wf, table, rule)
    else:
        blocks = _stack_forward(np.conj(wf, out=wf), table, rule)
    return [
        FourierCoefficients.from_blocks(rule.group, table, [b[k] for b in blocks], None, masses[k])
        for k in range(len(fs))
    ]


def _stack_forward(cwf, table, rule):
    n, m = len(rule), len(cwf)
    blocks = []
    for d, labs in zip(table.dims, table.block_labels):
        raw = np.empty((len(labs), m, d * d), dtype=complex)
        for k, lab in enumerate(labs):
            np.matmul(cwf, irreps.irrep_stack(lab, rule).reshape(n, d * d), out=raw[k])
        raw = raw.conj().reshape(len(labs), m, d, d).transpose(1, 0, 3, 2)
        blocks.append(np.ascontiguousarray(raw))
    return blocks


def _su2_forward(wf, table, rule):
    """Separable forward transform on the su2 Euler grid, O(r^4) time.

    With pi(a, b, c)_{pq} = e^{-i m_p a} d_pq(b) e^{-i m_q c} and the sampled
    w * f viewed as (m, n_a, n_b, n_c), two phase GEMMs give
    G[b, m', m] = sum_{a,c} w f e^{i m' a} e^{i m c}, and then
    coeff[p, q] = sum_b d_qp(b) G[b, m_q, m_p] per spin (Kostelec & Rockmore,
    "FFTs on the rotation group", J. Fourier Anal. Appl. 14, 2008).  Inside a
    ``basis_twist`` each coefficient becomes U* coeff U.  Every su2 spin has
    its own dimension, so each block holds one label.
    """
    top = max((lab.index[0] for lab in table.labels), default=0)
    ph_a, ph_c = irreps.euler_phases(rule, top)
    m, n_a, n_c = len(wf), len(ph_a), len(ph_c)
    g = (wf.reshape(-1, n_c) @ ph_c).reshape(m, n_a, -1, 2 * top + 1)
    g = ph_a.T @ g.transpose(0, 2, 1, 3)  # (m, n_b, m', m)
    blocks = []
    for (lab,) in table.block_labels:
        cols = top + _wigner.two_m_values(lab.index[0])
        sub = g[:, :, cols[:, None], cols]  # (m, b, q, p)
        coeff = (irreps.euler_grid_d(lab, rule) * sub).sum(axis=1).transpose(0, 2, 1)
        u = irreps.twist_unitary(lab)
        if u is not None:
            coeff = u.conj().T @ coeff @ u
        blocks.append(coeff[:, None])
    return blocks


def _su2_inverse(table, blocks, m, rule):
    """Separable synthesis on the su2 Euler grid, the transpose of
    ``_su2_forward``: H[b, m_p, m_q] = sum over spins of dim C[q, p] d_pq(b),
    then two GEMMs with the conjugate phases, for m coefficient sets at once.
    Inside a ``basis_twist`` each label synthesizes from U C U*."""
    top = max((lab.index[0] for lab in table.labels), default=0)
    ph_a, ph_c = irreps.euler_phases(rule, top)
    k = 2 * top + 1
    h = np.zeros((m, len(rule.meta["betas"]), k, k), dtype=complex)
    for (lab,), block in zip(table.block_labels, blocks):
        c = block[:, 0]  # (m, d, d)
        u = irreps.twist_unitary(lab)
        if u is not None:
            c = u @ c @ u.conj().T
        cols = top + _wigner.two_m_values(lab.index[0])
        h[:, :, cols[:, None], cols] += (
            lab.dim * c.transpose(0, 2, 1)[:, None] * irreps.euler_grid_d(lab, rule)
        )
    vals = ph_a.conj() @ (h @ ph_c.conj().T)  # (m, n_b, n_a, n_c)
    return vals.transpose(0, 2, 1, 3).reshape(m, -1)


def _synthesize(table, blocks, m, n, matrices_of):
    """Synthesis against given matrices: sum over pi of dim(pi) tr(coeff(pi) pi(x)),
    for m coefficient sets whose blocks are (m, n_b, d, d).

    ``matrices_of(lab)`` gives pi at the n evaluation points, shape (n, d, d).
    tr(C P) = sum_ij C[i, j] P[j, i], so each label is one product of the
    rows dim(pi) * C transposed and flattened, (m, d*d), with the transposed
    (n, d*d) view of its matrices.
    """
    vals = np.zeros((m, n), dtype=complex)
    for d, labs, block in zip(table.dims, table.block_labels, blocks):
        rows = (d * block.transpose(0, 1, 3, 2)).reshape(m, len(labs), d * d)
        for k, lab in enumerate(labs):
            vals += rows[:, k] @ matrices_of(lab).reshape(n, d * d).T
    return vals


def inverse(coeffs, rule):
    """Synthesize the function on a rule's nodes: ``inverse_batch([coeffs], rule)[0]``."""
    return inverse_batch([coeffs], rule)[0]


def inverse_batch(coeffs, rule):
    """Synthesize many coefficient sets over one label tuple on a rule's nodes.

    The one synthesis kernel on rules (``_synthesize_on_rule``).
    """
    if not coeffs:
        return []
    table = coeffs[0].table
    if any(c.labels != table.labels for c in coeffs):
        raise ValueError("coefficient sets cover different labels")
    blocks = [np.stack([c.blocks[b] for c in coeffs]) for b in range(len(table.dims))]
    return [SampledFunction(rule, v) for v in _synthesize_on_rule(table, blocks, len(coeffs), rule)]


def _synthesize_on_rule(table, blocks, m, rule):
    """Values (m, N) at a rule's nodes of m coefficient sets whose blocks are
    (m, n_b, d, d).  Separable over the grid axes on su2 Euler rules
    (``_su2_inverse``); everywhere else each label is one product with the
    rule's cached stack, shared by all sets."""
    if rule.meta.get("kind") == "su2-euler":
        return _su2_inverse(table, blocks, m, rule)
    return _synthesize(table, blocks, m, len(rule), lambda lab: irreps.irrep_stack(lab, rule))


def evaluate_at(coeffs, points):
    """Evaluate the synthesized function at arbitrary group points.

    The synthesis kernel of ``inverse``, fed ``irrep_matrices`` at the points.
    """
    points = list(points)
    blocks = [b[None] for b in coeffs.blocks]
    return _synthesize(
        coeffs.table, blocks, 1, len(points), lambda lab: irreps.irrep_matrices(lab, points)
    )[0]


def _reindex_plan(rule, y):
    """Node permutation realizing x -> x*y on the rule's node grid, or None.

    Translated values are ``vals[perm]``: exact re-indexing, available on
    finite groups and on torus grids when y lies on the grid.
    """
    kind = rule.meta.get("kind")
    if kind == "finite":
        return np.array([rule.node_index(multiply(node, y)) for node in rule.nodes])
    if kind == "torus-grid":
        shape = rule.meta["shape"]
        r = shape[0]
        axis_maps = []
        for phi in y.coords:
            k = phi * r / (2.0 * math.pi)
            kr = round(k)
            if abs(k - kr) > 1e-9:
                return None
            axis_maps.append((np.arange(r) + int(kr)) % r)
        return np.arange(len(rule)).reshape(shape)[np.ix_(*axis_maps)].ravel()
    if kind == "product":
        perm = np.zeros(1, dtype=int)
        for frule, ycomp in zip(rule.meta["factor_rules"], y.coords):
            sub = _reindex_plan(frule, ycomp)
            if sub is None:
                return None
            perm = (perm[:, None] * len(frule) + sub).ravel()
        return perm
    return None


def translate(f, y):
    """Right translation (R_y f)(x) = f(x y): ``translate_batch(f, [y])[0]``."""
    return translate_batch(f, [y])[0]


def translate_batch(f, ys):
    """Right translates R_y f, one per element of ``ys``, in order.

    An element whose x -> x*y permutes the rule's nodes (finite groups, grid
    translations of the torus, products of those) re-indexes the samples
    exactly.  All the others share one transform of f at the rule's
    alias-free band, one coefficient-side action per dimension block
    (``_right_action``) and one synthesis, which is exact for band-limited
    functions.
    """
    ys = list(ys)
    if any(y.group != f.group for y in ys):
        raise GroupMismatchError("translation element from a different group")
    out = [None] * len(ys)
    spectral = []
    for k, y in enumerate(ys):
        perm = _reindex_plan(f.rule, y)
        if perm is None:
            spectral.append(k)
        else:
            out[k] = SampledFunction(f.rule, f.values[perm])
    if spectral:
        coeffs = forward_to_cutoff(f)
        blocks = _right_action(coeffs, [ys[k] for k in spectral])
        vals = _synthesize_on_rule(coeffs.table, blocks, len(spectral), f.rule)
        for k, v in zip(spectral, vals):
            out[k] = SampledFunction(f.rule, v)
    return out


def _right_action(coeffs, ys):
    """pi(y) @ coeff(pi) for every y and label: per dimension block, the
    (m, n_b, d, d) irrep matrices at the m elements (``SlotTable.matrices_at``)
    times the (n_b, d, d) block, in one batched product."""
    return [mats @ block for mats, block in zip(coeffs.table.matrices_at(ys), coeffs.blocks)]


def translate_spectral(coeffs, y):
    """Coefficient-side right translation: coeff(pi) -> pi(y) @ coeff(pi),
    the block action of ``translate_batch`` for one element."""
    blocks = [b[0] for b in _right_action(coeffs, [y])]
    return FourierCoefficients.from_blocks(
        coeffs.group, coeffs.table, blocks, coeffs.cutoff, coeffs.l2_mass_total
    )


def _convolve_reindex(f, g):
    """Direct quadrature convolution on node grids (finite groups, torus grids).

    (f*g)(x) = sum_j w_j g(y_j) f(x y_j^-1); column j of the cached index is
    the node permutation x -> x y_j^-1 from ``_reindex_plan``.
    """
    rule = f.rule
    idx = rule.meta.get("_conv_index")
    if idx is None:
        idx = np.stack([_reindex_plan(rule, group_inverse(y)) for y in rule.nodes], axis=1)
        rule.meta["_conv_index"] = idx
    return SampledFunction(rule, f.values[idx] @ (rule.weights * g.values))


def _convolve_fft(f, g):
    """Grid convolution through the convolution theorem (torus / cyclic)."""
    rule = f.rule
    kind = rule.meta.get("kind")
    if kind == "finite" and rule.group.family == "cyclic":
        n = len(rule)
        out = np.fft.ifft(np.fft.fft(f.values) * np.fft.fft(g.values)) / n
        return SampledFunction(rule, out)
    if kind == "torus-grid":
        shape = rule.meta["shape"]
        fa = np.fft.fftn(f.values.reshape(shape))
        ga = np.fft.fftn(g.values.reshape(shape))
        out = np.fft.ifftn(fa * ga) / len(rule)
        return SampledFunction(rule, out.ravel())
    raise ValueError("fft convolution unavailable on this rule")


def _convolve_spectral(f, g):
    band = safe_band(f.rule)
    fc = forward_to_cutoff(f, band)
    gc = forward_to_cutoff(g, band)
    blocks = [g @ h for g, h in zip(gc.blocks, fc.blocks)]
    return inverse(FourierCoefficients.from_blocks(f.group, fc.table, blocks), f.rule)


def convolve(f, g, method="auto"):
    """Convolution (f*g)(x) = integral of f(x y^-1) g(y) dm(y).

    ``method`` chooses the evaluation path: "direct" re-indexes nodes (finite
    groups and torus grids), "fft" uses the convolution theorem on those same
    grids, "spectral" multiplies coefficient matrices (ghat @ fhat) at the
    alias-free band and synthesizes back (the only path on SU(2)).  "auto"
    picks direct for small grids, fft for large ones, spectral elsewhere.
    All paths agree within 1e-12 in their shared domains (for band-limited
    inputs where the spectral path applies).
    """
    _check_same_rule(f, g)
    kind = f.rule.meta.get("kind")
    gridlike = kind == "finite" or kind == "torus-grid"
    if method == "auto":
        if kind == "finite":
            method = "direct"
        elif kind == "torus-grid":
            method = "direct" if len(f.rule) <= 512 else "fft"
        else:
            method = "spectral"
    if method == "direct" and gridlike:
        return _convolve_reindex(f, g)
    if method == "fft" and (kind == "torus-grid" or f.group.family == "cyclic"):
        return _convolve_fft(f, g)
    if method == "spectral":
        return _convolve_spectral(f, g)
    raise ValueError(f"convolution method {method!r} unavailable on {f.rule.rule_id}")


def _distances_to_identity(rule):
    dists = rule.meta.get("_dist_to_e")
    if dists is None:
        e = identity(rule.group)
        dists = np.array([distance(e, p) for p in rule.nodes])
        rule.meta["_dist_to_e"] = dists
    return dists


def dirac_net_element(group, spec, rule):
    """Normalized indicator of the metric ball U around the identity.

    e_U is nonnegative, supported inside U, and integrates to exactly 1 under
    the rule's weights.  Raises ResolutionError when no node falls inside U
    (the rule cannot resolve the neighborhood; refine it or enlarge U).
    """
    if group != rule.group:
        raise GroupMismatchError("rule belongs to a different group")
    radius = spec.radius if isinstance(spec, NeighborhoodSpec) else float(spec)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    dists = _distances_to_identity(rule)
    mask = dists <= radius + 1e-12
    mass = float(np.sum(rule.weights[mask]))
    if not mask.any() or mass <= 0.0:
        raise ResolutionError(
            f"ball of radius {radius} contains no node of {rule.rule_id}"
        )
    vals = np.where(mask, 1.0 / mass, 0.0).astype(complex)
    return SampledFunction(rule, vals, name=f"dirac(r={radius})")
