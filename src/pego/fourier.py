"""Operator-valued Fourier analysis on compact groups.

The transform pairs a function sampled on a Haar quadrature rule with one
matrix per irreducible representation:

    coeff(pi) = integral of f(t) pi(t)^* dm(t),
    f(x)      = sum over pi of dim(pi) * trace(coeff(pi) pi(x)).

Convolution ``(f*g)(x) = integral f(x y^-1) g(y) dm(y)`` transforms to the
matrix product ``ghat @ fhat`` (order matters on noncommutative groups), and
the right translation ``(R_y f)(x) = f(x y)`` to ``pi(y) @ fhat``.  Where the
nodes form a group, convolution is the quadrature sum over them: one FFT on
torus grids, and on finite groups the translates of f by the inverse nodes,
gathered per call, times the weighted samples of g; elsewhere it is the
coefficient product at the alias-free band, for many pairs at once
(``_convolve_blocks``).  Right translates come in
batches (``translate_values``): one mask picks the elements whose x -> x*y
permutes the grid, which gather the samples through one (m, N) node index;
the others share one transform of f, one batched ``pi(y) @ fhat`` per
dimension block, and one synthesis.  Pairwise, each element translates its
own function, with its own coefficients (``_translate_values``).

Everything is computed against a fixed rule.  For band-limited functions
whose frequency content fits inside the rule's exactness degree the discrete
transform agrees with the continuum one exactly, which is the regime all
bound checks run in.

Coefficients are packed: one contiguous (n_b, d, d) block per irrep
dimension, with a slot table per label tuple (``slot_table``) that maps each
label to its block and position.  The blocks are the whole transform; for m
functions each is (m, n_b, d, d) (``_forward_blocks``, ``_inverse_blocks``).
Kernels loop over blocks and slots by integer; masses, norms and head sums
are vectorized per block.

Each kind of rule has its own pair of kernels (``_kernels``), and none of
the grid kernels builds an (N, d, d) irrep stack:

* torus grids: one FFT of w * f, read at the bins k mod R, and one inverse
  FFT of the coefficients scattered into those bins;
* su2 Euler grids: two phase GEMMs over the uniform alpha and gamma axes and
  one sum against d^l(beta) per spin, O(r^4) time and O(r^3) memory.  The
  forward kernel reads the unweighted samples, one gamma GEMM per function,
  and applies the Gauss-Legendre weights per beta to the gamma sums, so it
  never sees a weighted copy of the samples; the synthesis contracts alpha
  on the small (n_b, K, K) array first and one gamma GEMM writes the values;
* products, finite ones included: one factor axis at a time, each with its
  factor's own kernel, with the Kronecker entries gathered into (or
  scattered from) the slots;
* finite rules (cyclic and dihedral) and hand-built rules: per label one
  single-row product per member against its irrep stack
  (``irreps.irrep_stack``) forward, and a synthesis against the stacks of
  all labels from one ``irreps._blocks_at`` request, evaluated per call.

Every kernel gives each member of a batch the numbers it gets alone: a row
of an m-row pass equals the one-row pass bit for bit, so a batch of samples
never changes a number (the stack kernels take one single-row product per
member rather than one GEMM of all the rows, whose rounding depends on m).

Off the grid, ``evaluate_at`` on su2 contracts one Euler-angle
trigonometric tensor per spin parity and builds no D-matrix; every other
group synthesizes against the block matrices of one ``irreps._blocks_at``
request at the points.  The right action pi(y) @ fhat takes its matrices
from one such request on every group; on su2 and on su2 factors they come
from one ``_wigner.wigner_D`` call for all spins of the request.

Inside an ``irreps.basis_twist``, the su2 and product kernels and the su2
``evaluate_at``, which build no irrep matrix, pass their coefficient blocks
through ``irreps._twisted``, the step that also twists every matrix.
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
    _inverse,
    _multiply,
    _rows,
    _take,
    coords_of,
)

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
    "translate_values",
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
    are derived from those; ``irreps._blocks_at(block_labels, at)`` lays
    irrep matrices out the same way.  Built once per label tuple by
    ``slot_table``.
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

    def positions(self, subset):
        """Positions in ``labels`` of the labels of ``subset``, in its order;
        a prefix of ``labels`` (a shell filtration step) needs no lookup."""
        subset = tuple(subset)
        if self.labels[: len(subset)] == subset:
            return np.arange(len(subset))
        try:
            return np.array([self.index[lab] for lab in subset], dtype=int)
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0].name} outside computed coverage") from None

    def outside(self, subset):
        """Boolean mask over ``labels``: True on every label not in ``subset``."""
        mask = np.ones(len(self.labels), dtype=bool)
        mask[self.positions(subset)] = False
        return mask


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

    The one summation behind every head mass and every p = 2 tail:
    ``head_mass``, the mass beyond a coverage and the tails of
    ``norms.plancherel_residual`` and the decay profile all call it.
    """
    picked = masses[..., positions]
    if picked.shape[-1] == 0:
        return np.zeros(picked.shape[:-1])
    return np.cumsum(picked, axis=-1)[..., -1]


def _label_masses(table, blocks):
    """dim(pi) ||coeff(pi)||_F^2 of every label, in ``table.labels`` order,
    as a (..., labels) array from the table's (..., n_b, d, d) blocks with
    any leading axes."""
    lead = blocks[0].shape[:-3] if blocks else ()
    out = np.empty(lead + (len(table.labels),))
    for d, mem, block in zip(table.dims, table.members, blocks):
        out[..., mem] = d * np.sum(np.abs(block) ** 2, axis=(-2, -1))
    return out


class FourierCoefficients:
    """One coefficient matrix per irrep label, packed by dimension.

    ``labels`` fixes the declared coverage and its order; every label in it
    has an entry, zeros stored explicitly.  The matrices live in ``blocks``,
    one contiguous (n_b, d, d) array per dimension, laid out by the label
    tuple's ``slot_table`` (``table``); ``coeffs[lab]`` is a view into its
    block.  The blocks are the whole object: masses and norms are read from
    them, and a p = 2 tail takes ||f||_2 from the samples
    (``norms.beyond_cutoff_mass``).

    Built from a dict ``{label: matrix}`` by the constructor, or from packed
    blocks by ``from_blocks``.  It is one function's face of blocks with a
    leading member axis (``_forward_blocks``).
    """

    def __init__(self, group, labels, entries):
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
        self._set(group, table, blocks)

    @classmethod
    def from_blocks(cls, group, table, blocks):
        """Coefficients from blocks laid out by the slot table ``table``;
        complex blocks are kept as given, not copied."""
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        want = [(len(labs), d, d) for d, labs in zip(table.dims, table.block_labels)]
        if [b.shape for b in blocks] != want:
            raise ValueError(f"blocks have shapes {[b.shape for b in blocks]}, want {want}")
        out = cls.__new__(cls)
        out._set(group, table, blocks)
        return out

    def _set(self, group, table, blocks):
        self.group = group
        self.table = table
        self.labels = table.labels
        self.blocks = tuple(blocks)

    def __getitem__(self, lab):
        b, pos = self.table.slot(lab)
        return self.blocks[b][pos]

    def __contains__(self, lab):
        return lab in self.table.index

    def label_masses(self):
        """dim(pi) ||coeff(pi)||_F^2 for every label (``_label_masses``)."""
        return _label_masses(self.table, self.blocks)

    def head_mass(self, subset):
        """sum over pi in subset of dim(pi) ||coeff(pi)||_F^2, in subset order."""
        return float(head_sums(self.label_masses(), self.table.positions(subset)))


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


def _random_blocks(table, rng):
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
    return blocks, float(head_sums(_label_masses(table, blocks), slice(None)))


def random_band_limited_function(rule, band, seed=0, norm=1.0, name=""):
    """Seeded random function with frequency content in shells <= band.

    Coefficient matrices have iid complex-normal entries (``_random_blocks``,
    labels in shell order), rescaled so that ||f||_2 equals ``norm``.
    Exactly band-limited, hence transform-exact on any rule with
    safe_band >= band.  The one row of ``_random_band_limited(rule, band,
    [seed], norm)``: a function's values are the same in any batch.
    """
    out = SampledFunction(rule, _random_band_limited(rule, band, [seed], norm)[0])
    out.name = name or f"rand(band={band})"
    return out


def _random_band_limited(rule, band, seeds, norm=1.0):
    """The (len(seeds), N) values of ``random_band_limited_function`` at
    each seed (an integer or a Generator): every seed draws its own blocks
    from its own stream, and all of them take one synthesis pass, in which
    a member's values do not depend on the batch."""
    table = slot_table(irreps.shell_subset(rule.group, band).labels)
    drawn = []
    for seed in seeds:
        rng = np.random.default_rng(seed) if isinstance(seed, (int, np.integer)) else seed
        blocks, mass = _random_blocks(table, rng)
        if norm is not None and mass > 0:
            scale = norm / math.sqrt(mass)
            blocks = [b * scale for b in blocks]
        drawn.append(blocks)
    stacked = [np.stack(parts) for parts in zip(*drawn)]
    return _inverse_blocks(rule, table, stacked, len(drawn))


def forward(f, dual):
    """Fourier coefficients of f on a list of labels: ``forward_batch([f], dual)[0]``."""
    return forward_batch([f], dual)[0]


def forward_to_cutoff(f, cutoff=None):
    """Transform against the canonical dual enumeration up to a shell cutoff.

    Defaults to safe_band(rule), the largest alias-free choice.  Raises
    ResolutionError if the requested cutoff exceeds it.
    """
    return forward(f, _cutoff_dual(f.rule, cutoff))


def _cutoff_dual(rule, cutoff=None):
    """The canonical dual enumeration of ``forward_to_cutoff``: to ``cutoff``,
    by default safe_band(rule), and ResolutionError beyond that band."""
    band = safe_band(rule)
    if cutoff is None:
        cutoff = band
    if band is not None and cutoff > band:
        raise ResolutionError(
            f"cutoff {cutoff} exceeds alias-free band {band} of {rule.rule_id}"
        )
    return irreps.enumerate_dual(rule.group, cutoff)


def forward_batch(fs, dual):
    """Transform many functions on one rule against one dual.

    One ``FourierCoefficients`` per function: function k gets the views
    ``[k]`` of the (m, n_b, d, d) blocks of ``_forward_blocks``.
    """
    if not fs:
        return []
    rule = fs[0].rule
    for f in fs:
        _check_same_rule(fs[0], f)
    table = slot_table(tuple(dual))
    blocks = _forward_blocks(rule, [f.values for f in fs], table)
    return [FourierCoefficients.from_blocks(rule.group, table, [b[k] for b in blocks])
            for k in range(len(fs))]


def _forward_blocks(rule, vals, table):
    """The one forward pass, a product's factor passes included: m rows of
    N unweighted samples (a list of value arrays or an (m, N) array) to the
    blocks of ``table``, each (m, n_b, d, d), member axis outermost, by the
    rule's kernel (``_kernels``), the only pass over the samples."""
    return _kernels(rule)[0](vals, table, rule)


def _inverse_blocks(rule, table, blocks, m):
    """The one synthesis pass, a product's factor passes included: the
    (m, n_b, d, d) blocks of ``table`` to (m, N) values at the nodes."""
    return _kernels(rule)[1](table, blocks, m, rule)


def _kernels(rule):
    """The (forward, synthesis) kernel pair of a rule, by ``meta["kind"]``,
    for ``_forward_blocks`` and ``_inverse_blocks`` only; hand-built rules
    carry no kind and take the stack kernels.  A forward kernel computes
    coeff(pi)[i, j] = sum_t w_t f(t) conj(pi(t)[j, i]) and applies the
    weights itself: the torus and stack kernels to the samples, the su2
    kernel per beta after its gamma sum, a product kernel through its
    factors', so no forward kernel on su2 sees a weighted copy of them."""
    kind = rule.meta.get("kind")
    if kind == "su2-euler":
        return _su2_forward, _su2_inverse
    if kind == "product":
        return _product_forward, _product_inverse
    if kind == "torus-grid":
        return _grid_forward, _grid_inverse
    return _stack_forward, _stack_inverse


def _stack_forward(vals, table, rule):
    """Per label, one single-row product of each member's conj(w * f)
    against the stack viewed as (N, d*d), all members in one ``np.matmul``
    of (m, 1, N) rows over one ``irreps.irrep_stack`` call.  A member's
    product is the one it gets alone, so its coefficients do not depend on
    the batch (one GEMM of the m rows would change its rounding with m).
    Each block is conjugated and transposed back once, so no conjugated copy
    of a stack is made."""
    n, m = len(rule), len(vals)
    cwf = np.conj(rule.weights * np.asarray(vals))[:, None, :]
    blocks = []
    for d, labs in zip(table.dims, table.block_labels):
        raw = np.empty((len(labs), m, 1, d * d), dtype=complex)
        for k, lab in enumerate(labs):
            np.matmul(cwf, irreps.irrep_stack(lab, rule).reshape(n, d * d), out=raw[k])
        raw = raw.conj().reshape(len(labs), m, d, d).transpose(1, 0, 3, 2)
        blocks.append(np.ascontiguousarray(raw))
    return blocks


def _stack_inverse(table, blocks, m, rule):
    """Synthesis against the irrep stacks of every block, one
    ``irreps._blocks_at`` request at the rule's nodes."""
    return _synthesize(table, blocks, m, len(rule), irreps._blocks_at(table.block_labels, rule))


@functools.cache
def _grid_bins(table, shape):
    """Flat FFT bin of every label of a torus slot table (one block of
    characters), the frequency vector k taken mod the grid size, and whether
    two labels share a bin (a cutoff beyond the grid's band)."""
    ks = np.array([lab.index for lab in table.labels], dtype=int).reshape(-1, len(shape))
    bins = np.ravel_multi_index(tuple((ks % shape).T), shape)
    return bins, len(set(bins.tolist())) < len(bins)


def _grid_forward(vals, table, rule):
    """Forward transform on a torus grid, one FFT.

    The nodes 2 pi n / R per axis make coeff(k) = sum_n wf(n) e^{-2 pi i k.n/R}
    the FFT of w * f at bin k mod R (Cooley & Tukey, Math. Comp. 19, 1965);
    a label beyond the grid's band reads its aliased bin.  All labels are
    characters, so the table has at most one block.
    """
    if not table.labels:
        return []
    shape = rule.meta["shape"]
    m = len(vals)
    wf = rule.weights * np.asarray(vals)
    spec = np.fft.fftn(wf.reshape((m,) + shape), axes=range(1, len(shape) + 1))
    bins = _grid_bins(table, shape)[0]
    return [np.take(spec.reshape(m, -1), bins, axis=1).reshape(m, -1, 1, 1)]


def _grid_inverse(table, blocks, m, rule):
    """Synthesis on a torus grid: the coefficients are added into their bins
    (labels sharing a bin add up) and one inverse FFT, times the node count,
    sums the characters."""
    shape = rule.meta["shape"]
    spec = np.zeros((m, len(rule)), dtype=complex)
    if table.labels:
        bins, aliased = _grid_bins(table, shape)
        if aliased:
            np.add.at(spec, (slice(None), bins), blocks[0].reshape(m, -1))
        else:
            spec[:, bins] = blocks[0].reshape(m, -1)
    vals = np.fft.ifftn(spec.reshape((m,) + shape), axes=range(1, len(shape) + 1))
    return len(rule) * vals.reshape(m, -1)


@functools.cache
def _product_plan(table):
    """How a product slot table factors.

    Per factor: the slot table of the factor labels that the table's labels
    use, and the start of each of its blocks in the flat entry axis that
    holds those blocks one after the other.  Per block of ``table``: the
    (n_b, D, D) index of every coefficient entry into the outer product of
    the factors' entry axes; for a label pi_1 x ... x pi_k, entry
    [(i_1, ..., i_k), (j_1, ..., j_k)] sits at entry [i_t, j_t] of pi_t on
    every factor t.
    """
    nf = len(table.labels[0].index)
    ftabs = tuple(
        slot_table(tuple(dict.fromkeys(lab.index[t] for lab in table.labels))) for t in range(nf)
    )
    starts = [
        np.cumsum([0] + [len(labs) * d * d for d, labs in zip(ft.dims, ft.block_labels)])
        for ft in ftabs
    ]
    sizes = [int(st[-1]) for st in starts]
    strides = [math.prod(sizes[t + 1 :]) for t in range(nf)]
    index = []
    for labs in table.block_labels:
        rows = []
        for lab in labs:
            flat = 0
            for t, (ft, st, comp) in enumerate(zip(ftabs, starts, lab.index)):
                b, pos = ft.slot(comp)
                d = comp.dim
                entries = st[b] + pos * d * d + np.arange(d * d)
                shape = [1] * (2 * nf)
                shape[t] = shape[nf + t] = d
                flat = flat + strides[t] * entries.reshape(shape)
            rows.append(np.reshape(flat, (lab.dim, lab.dim)))
        index.append(np.array(rows))
    return ftabs, starts, index


def _product_forward(vals, table, rule):
    """Forward transform on a product rule, one factor axis at a time.

    With f viewed as (m, N_1, ..., N_k), each factor's own kernel contracts
    its node axis, with that factor's weights, against every factor label
    the table uses and leaves that factor's coefficient entries in its place
    (Maslen & Rockmore, "Generalized FFTs", DIMACS 28, 1997); the largest
    node axis goes first.  The product weights are the products of the
    factor weights, so for a product label coeff[(i_1, i_2), (j_1, j_2)] =
    sum w f conj(pi_1[j_1, i_1]) conj(pi_2[j_2, i_2]) is then one entry of
    the contracted array, and each block is one gather from it
    (``_product_plan``).
    """
    if not table.labels:
        return []
    frules = rule.meta["factor_rules"]
    ftabs, starts, index = _product_plan(table)
    m = len(vals)
    x = np.asarray(vals).reshape((m,) + tuple(len(fr) for fr in frules))
    for t in sorted(range(len(frules)), key=lambda t: -len(frules[t])):
        fr = frules[t]
        moved = np.moveaxis(x, t + 1, -1)
        blocks = _forward_blocks(fr, moved.reshape(-1, len(fr)), ftabs[t])
        flat = np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)
        x = np.moveaxis(flat.reshape(moved.shape[:-1] + (flat.shape[1],)), -1, t + 1)
    x = x.reshape(m, -1)
    # np.take keeps the member axis outermost, where x[:, idx] puts it innermost
    return irreps._twisted(table.block_labels, [np.take(x, idx, axis=1) for idx in index], True)


def _product_inverse(table, blocks, m, rule):
    """Synthesis on a product rule, the transpose of ``_product_forward``:
    the coefficients are scattered into the outer product of the factors'
    entry axes, and each factor's synthesis turns its entry axis into its
    node axis, the smallest node axis first."""
    if not table.labels:
        return np.zeros((m, len(rule)), dtype=complex)
    frules = rule.meta["factor_rules"]
    ftabs, starts, index = _product_plan(table)
    sizes = tuple(int(st[-1]) for st in starts)
    x = np.zeros((m, math.prod(sizes)), dtype=complex)
    for block, idx in zip(irreps._twisted(table.block_labels, blocks, False), index):
        x[:, idx] = block
    x = x.reshape((m,) + sizes)
    for t in sorted(range(len(frules)), key=lambda t: len(frules[t])):
        fr, ft = frules[t], ftabs[t]
        moved = np.moveaxis(x, t + 1, -1)
        flat = moved.reshape(-1, sizes[t])
        parts = [
            flat[:, lo:hi].reshape(len(flat), len(labs), d, d)
            for lo, hi, d, labs in zip(starts[t], starts[t][1:], ft.dims, ft.block_labels)
        ]
        vals = _inverse_blocks(fr, ft, parts, len(flat))
        x = np.moveaxis(vals.reshape(moved.shape[:-1] + (len(fr),)), -1, t + 1)
    return x.reshape(m, -1)


def _su2_forward(vals, table, rule):
    """Separable forward transform on the su2 Euler grid, O(r^4) time.

    With pi(a, b, c)_{pq} = e^{-i m_p a} d_pq(b) e^{-i m_q c} and the samples
    f viewed as (m, n_a, n_b, n_c), two phase GEMMs and the Gauss-Legendre
    weights w_b give G[b, m', m] = w_b sum_{a,c} f e^{i m' a} e^{i m c}, and
    then coeff[p, q] = sum_b d_qp(b) G[b, m_q, m_p] per spin (Kostelec &
    Rockmore, "FFTs on the rotation group", J. Fourier Anal. Appl. 14, 2008).
    The gamma GEMM runs per function, from its unweighted values into one
    (m, n_a, n_b, K) array, which the node weights of each beta (all nodes
    of one beta share a weight) then scale in place: no weighted or stacked
    copy of the samples is made.  Every su2 spin has its own dimension, so
    each block holds one label.
    """
    top = max((lab.index[0] for lab in table.labels), default=0)
    ph_a, ph_c = irreps.euler_phases(rule, top)
    n_a, n_b, n_c = len(ph_a), len(rule.meta["betas"]), len(ph_c)
    k = 2 * top + 1
    g = np.empty((len(vals), n_a, n_b, k), dtype=complex)
    for i, v in enumerate(vals):  # no view of g outlives the loop, so g is freed below
        np.matmul(v.reshape(-1, n_c), ph_c, out=g[i].reshape(-1, k))
    g *= rule.weights.reshape(n_a, n_b, n_c)[0, :, :1]
    g = ph_a.T @ g.transpose(0, 2, 1, 3)  # (m, n_b, m', m)
    blocks = []
    for (lab,) in table.block_labels:
        cols = _wigner._spin_columns(top, lab.index[0])
        sub = g[:, :, cols, cols]  # (m, b, q, p)
        coeff = (irreps.euler_grid_d(lab, rule) * sub).sum(axis=1).transpose(0, 2, 1)
        blocks.append(coeff[:, None])
    return irreps._twisted(table.block_labels, blocks, True)


def _su2_inverse(table, blocks, m, rule):
    """Separable synthesis on the su2 Euler grid, the transpose of
    ``_su2_forward``: H[b, m_p, m_q] = sum over spins of dim C[q, p] d_pq(b),
    then the alpha GEMM on that small (n_b, K, K) array and one gamma GEMM
    that writes the (m, N) values, for m coefficient sets at once."""
    top = max((lab.index[0] for lab in table.labels), default=0)
    ph_a, ph_c = irreps.euler_phases(rule, top)
    k = 2 * top + 1
    h = np.zeros((m, len(rule.meta["betas"]), k, k), dtype=complex)
    blocks = irreps._twisted(table.block_labels, blocks, False)
    for (lab,), block in zip(table.block_labels, blocks):
        cols = _wigner._spin_columns(top, lab.index[0])
        h[:, :, cols, cols] += (
            lab.dim * block[:, 0].transpose(0, 2, 1)[:, None] * irreps.euler_grid_d(lab, rule)
        )
    half = (ph_a.conj() @ h).transpose(0, 2, 1, 3).reshape(-1, k)  # (m * n_a * n_b, m_q)
    return (half @ ph_c.conj().T).reshape(m, -1)


def _synthesize(table, blocks, m, n, mats):
    """Synthesis against given matrices: sum over pi of dim(pi) tr(coeff(pi) pi(x)),
    for m coefficient sets whose blocks are (m, n_b, d, d).

    ``mats`` holds per block the matrices at the n evaluation points,
    (n, n_b, d, d).  tr(C P) = sum_ij C[i, j] P[j, i], so each block is, per
    member, one single-row product of its row dim(pi) * C transposed and
    flattened, (n_b*d*d,), with the flattened (n, n_b*d*d) matrices; one
    ``np.matmul`` of (m, 1, n_b*d*d) rows makes them all, and a member's
    values are the ones it gets alone, whatever the batch.
    """
    vals = np.zeros((m, n), dtype=complex)
    for d, block, mat in zip(table.dims, blocks, mats):
        rows = (d * block.transpose(0, 1, 3, 2)).reshape(m, 1, -1)
        vals += np.matmul(rows, mat.reshape(n, rows.shape[2]).T)[:, 0]
    return vals


def inverse(coeffs, rule):
    """Synthesize the function on a rule's nodes: ``inverse_batch([coeffs], rule)[0]``."""
    return inverse_batch([coeffs], rule)[0]


def inverse_batch(coeffs, rule):
    """Synthesize many coefficient sets over one label tuple on a rule's nodes.

    The sets' blocks, stacked along a leading member axis, take one
    synthesis pass (``_inverse_blocks``).
    """
    if not coeffs:
        return []
    table = coeffs[0].table
    if any(c.labels != table.labels for c in coeffs):
        raise ValueError("coefficient sets cover different labels")
    blocks = [np.stack([c.blocks[b] for c in coeffs]) for b in range(len(table.dims))]
    return [SampledFunction(rule, v) for v in _inverse_blocks(rule, table, blocks, len(coeffs))]


def evaluate_at(coeffs, points):
    """Evaluate the synthesized function at arbitrary group points.

    On su2, the coefficients are one trigonometric polynomial in the Euler
    angles of the points (``_su2_values``, the identity in ``pego._wigner``)
    and no D-matrix is built.  Every other group, products with an su2
    factor included, takes the synthesis of ``inverse`` fed the block
    matrices at the points (one ``irreps._blocks_at`` request).
    """
    coords = coords_of(coeffs.group, points)
    if coeffs.group.family == "su2":
        return _su2_values(coeffs, coords)
    blocks = [b[None] for b in coeffs.blocks]
    mats = irreps._blocks_at(coeffs.table.block_labels, coords)
    return _synthesize(coeffs.table, blocks, 1, _rows(coords), mats)[0]


# Points per block of ``_su2_values``: its largest temporary is
# (_POINT_BLOCK, K^2) complex, 4.7 MB at band 16 (K = 17).
_POINT_BLOCK = 1024


def _su2_values(coeffs, coords):
    """Values of su2 coefficients at the rows of a quaternion array.

    f(a, b, c) = sum_{p,q,k} T[p,q,k] e^{-i m_p a} e^{-i m_q c} e^{-i w_k b}
    per spin parity, where T[p,q,k] = sum_l d_l C_l[q,p] V_l[p,k] conj(V_l[q,k])
    runs over the weights of the parity's largest spin: each spin adds its
    dimension-scaled, transposed coefficients times its ``_wigner.trig_cube``
    into the centered cube of its own weights.  The points are then taken
    ``_POINT_BLOCK`` at a time: one (P, K) @ (K, K^2) GEMM against the alpha
    phases and a K^2 contraction against the gamma and beta phases.
    """
    alpha, beta, gamma = _wigner.euler_from_quaternion(*coords.T)
    vals = np.zeros(len(coords), dtype=complex)
    two_ls = [lab.index[0] for (lab,) in coeffs.table.block_labels]
    blocks = irreps._twisted(coeffs.table.block_labels, coeffs.blocks, False)
    for parity in (0, 1):
        mine = [b for b, t in enumerate(two_ls) if t % 2 == parity]
        if not mine:
            continue
        top = max(two_ls[b] for b in mine)
        k = top + 1
        tensor = np.zeros((k, k, k), dtype=complex)
        for b in mine:
            two_l = two_ls[b]
            cube = slice((top - two_l) // 2, (top + two_l) // 2 + 1)
            scaled = (two_l + 1) * blocks[b][0].T
            tensor[cube, cube, cube] += scaled[:, :, None] * _wigner.trig_cube(two_l)
        tensor = tensor.reshape(k, k * k)
        half_m = np.arange(top, -top - 2, -2) / 2.0  # m_p, m_q; w_k is its reverse
        for lo in range(0, len(coords), _POINT_BLOCK):
            hi = lo + _POINT_BLOCK
            ph_a = np.exp(-1j * alpha[lo:hi, None] * half_m)
            ph_c = np.exp(-1j * gamma[lo:hi, None] * half_m)
            ph_b = np.exp(-1j * beta[lo:hi, None] * half_m[::-1])
            part = (ph_a @ tensor).reshape(-1, k, k) @ ph_b[:, :, None]
            vals[lo:hi] += np.einsum("tq,tq->t", part[:, :, 0], ph_c)
    return vals


def _permutes(rule, ys):
    """Whether x -> x*y permutes the rule's nodes, one bool per row y of the
    coordinate array ``ys``, decided on the elements alone: on finite rules
    always, on torus grids when y lies on the grid (every angle within 1e-9
    grid steps of one), on products when every factor does, and never on
    su2 Euler or hand-built rules."""
    kind = rule.meta.get("kind")
    if kind == "product":
        return np.logical_and.reduce(
            [_permutes(fr, yc) for fr, yc in zip(rule.meta["factor_rules"], ys)])
    if kind == "torus-grid":
        k = ys * rule.meta["shape"][0] / (2.0 * math.pi)
        return np.all(np.abs(k - np.rint(k)) <= 1e-9, axis=-1)
    return np.full(_rows(ys), kind == "finite")


def _node_index(rule, coords):
    """The node index of every row of a coordinate array of nodes of a
    finite, torus grid or product rule, by arithmetic on the node order:
    the residue on cyclic and r + n*s on dihedral rules, the nearest grid
    step on each torus axis, and the factor indices raveled first factor
    slowest."""
    kind = rule.meta["kind"]
    if kind == "finite":
        if rule.group.family == "cyclic":
            return coords[..., 0]
        return coords[..., 0] + rule.group.n * coords[..., 1]
    if kind == "torus-grid":
        shape = rule.meta["shape"]
        steps = np.rint(coords * (shape[0] / (2.0 * math.pi))).astype(int) % shape[0]
        return np.ravel_multi_index(tuple(np.moveaxis(steps, -1, 0)), shape)
    idx = 0
    for frule, c in zip(rule.meta["factor_rules"], coords):
        idx = idx * len(frule) + _node_index(frule, c)
    return idx


def _translated_nodes(rule, ys):
    """The (m, N) node index of x*y, row k for the row y = ys[k] of a
    coordinate array whose every element permutes the nodes (``_permutes``):
    one ``_multiply`` of the nodes, as a (1, N) row, by the elements, as an
    (m, 1) column, located by ``_node_index``."""
    moved = _multiply(rule.group, _take(rule.coords, None), _take(ys, (slice(None), None)))
    return _node_index(rule, moved)


def translate(f, y):
    """Right translation (R_y f)(x) = f(x y): the one row of
    ``translate_values(f, [y])``."""
    return SampledFunction(f.rule, _translate_values(f.rule, f.values, coords_of(f.group, [y]))[0])


def translate_values(f, ys):
    """The values of the right translates R_y f as one (len(ys), N) array,
    row k for ``ys[k]``.

    The elements whose x -> x*y permutes the rule's nodes (``_permutes``:
    finite groups, grid translations of the torus, products of those)
    re-index the samples exactly, through one node index for all of them.
    The others share one transform of f at the rule's alias-free band, one
    coefficient-side action per dimension block (``_right_action``) and one
    synthesis, exact for band-limited functions.
    """
    return _translate_values(f.rule, f.values, coords_of(f.group, ys))


def _translate_values(rule, vals, ys, table=None, blocks=None):
    """``translate_values`` at the rows of a coordinate array ``ys``, of one
    function's (N,) samples ``vals``, or pairwise: row k of an (m, N) ``vals``
    translated by ``ys[k]``.  The rows of one ``_permutes`` mask gather the
    samples; the others take one ``_right_action`` and one synthesis on the
    transform at the rule's alias-free band, as a slot table and blocks,
    (n_b, d, d) for one function and (m, n_b, d, d) pairwise, made here by
    one ``_forward_blocks`` if None and needed."""
    m = _rows(ys)
    if m == 0:
        return np.empty((0, len(rule)), dtype=complex)

    def gather(mask):
        idx = _translated_nodes(rule, _take(ys, mask))
        return vals[idx] if vals.ndim == 1 else np.take_along_axis(vals[mask], idx, axis=1)

    hit = _permutes(rule, ys)
    if hit.all():
        return gather(slice(None))
    if table is None:
        table = slot_table(tuple(_cutoff_dual(rule)))
        blocks = _forward_blocks(rule, np.atleast_2d(vals), table)
        blocks = [b[0] for b in blocks] if vals.ndim == 1 else blocks
    if not hit.any():
        return _inverse_blocks(rule, table, _right_action(table, blocks, ys), m)
    out = np.empty((m, len(rule)), dtype=complex)
    out[hit] = gather(hit)
    if vals.ndim == 2:
        blocks = [b[~hit] for b in blocks]
    moved = _right_action(table, blocks, _take(ys, ~hit))
    out[~hit] = _inverse_blocks(rule, table, moved, m - int(hit.sum()))
    return out


def _right_action(table, blocks, ys):
    """pi(y) @ coeff(pi) for every row y of the coordinate array ``ys`` and
    label of ``table``: per block, the (m, n_b, d, d) irrep matrices at the m
    elements (one ``irreps._blocks_at`` request) times the block, one
    (n_b, d, d) block for every element, or pairwise an (m, n_b, d, d) one
    whose row k goes with element k."""
    mats = irreps._blocks_at(table.block_labels, ys)
    return [mat @ block for mat, block in zip(mats, blocks)]


def translate_spectral(coeffs, y):
    """Coefficient-side right translation: coeff(pi) -> pi(y) @ coeff(pi),
    the block action of ``translate_values`` for one element."""
    ys = coords_of(coeffs.group, [y])
    blocks = [b[0] for b in _right_action(coeffs.table, coeffs.blocks, ys)]
    return FourierCoefficients.from_blocks(coeffs.group, coeffs.table, blocks)


def _convolve_fft(f, g):
    """The quadrature sum of ``convolve`` on a torus grid, by one FFT: the
    nodes are the group Z_R^n and every weight is 1/N, so the sum is the
    cyclic convolution of the samples over N."""
    rule = f.rule
    shape = rule.meta["shape"]
    fa = np.fft.fftn(f.values.reshape(shape))
    ga = np.fft.fftn(g.values.reshape(shape))
    return SampledFunction(rule, (np.fft.ifftn(fa * ga) / len(rule)).ravel())


def _convolve_spectral(f, g):
    """ghat @ fhat at the alias-free band, f and g transformed in one batch:
    the one pair of ``_convolve_blocks``."""
    fc, gc = forward_batch([f, g], _cutoff_dual(f.rule))
    fblocks, gblocks = ([b[None] for b in c.blocks] for c in (fc, gc))
    return SampledFunction(f.rule, _convolve_blocks(f.rule, fc.table, fblocks, gblocks)[0])


def _convolve_blocks(rule, table, fblocks, gblocks):
    """The (m, N) values of the convolutions f_k * g_k of m pairs from their
    (m, n_b, d, d) blocks of ``table``: one product ghat @ fhat per block
    and one synthesis, in which a pair's values do not depend on the batch."""
    return _inverse_blocks(rule, table, [g @ f for f, g in zip(fblocks, gblocks)], len(fblocks[0]))


def _direct_convolution(rule):
    """Whether ``convolve``'s "direct" quadrature sum exists on the rule,
    whose nodes then form a group: torus grids and the canonical rules of
    finite groups, finite products included."""
    kind = rule.meta.get("kind")
    return kind == "torus-grid" or (kind is not None and rule.group.is_finite)


def convolve(f, g, method="auto"):
    """Convolution (f*g)(x) = integral of f(x y^-1) g(y) dm(y).

    ``method`` chooses the evaluation path.  "direct" is the quadrature sum
    sum_j w_j f(x y_j^-1) g(y_j) over the nodes of a rule whose nodes form a
    group (``_direct_convolution``): one FFT on torus grids (``_convolve_fft``) and node re-indexing
    on the canonical rules of finite groups, finite products included: the
    (N, N) translates of f by the inverse nodes (``_translate_values``),
    made per call and not kept, times w * g.  "spectral" multiplies coefficient matrices
    (ghat @ fhat) at the alias-free band and synthesizes back, the only path
    on SU(2), products with an infinite factor and hand-built rules.
    "auto" picks "direct" where it exists and "spectral" elsewhere.  The two
    agree within 1e-12 on band-limited inputs; on other samples only
    "direct" is the quadrature sum (on an even torus grid "spectral" drops
    the top bin).
    """
    _check_same_rule(f, g)
    rule = f.rule
    direct = _direct_convolution(rule)
    if method == "auto":
        method = "direct" if direct else "spectral"
    if method == "direct" and rule.meta.get("kind") == "torus-grid":
        return _convolve_fft(f, g)
    if method == "direct" and direct:
        # entry (i, j) is f(x_i y_j^-1): the translates by the inverse nodes
        # re-index the samples, transposed and made C-contiguous
        moved = np.ascontiguousarray(
            _translate_values(rule, f.values, _inverse(rule.group, rule.coords)).T)
        return SampledFunction(rule, moved @ (rule.weights * g.values))
    if method == "spectral":
        return _convolve_spectral(f, g)
    raise ValueError(f"convolution method {method!r} unavailable on {rule.rule_id}")


def dirac_net_element(group, spec, rule):
    """Normalized indicator of the metric ball U around the identity.

    e_U is nonnegative, supported inside U, and integrates to exactly 1 under
    the rule's weights.  Raises ResolutionError when no node falls inside U
    (the rule cannot resolve the neighborhood; refine it or enlarge U).
    """
    if group != rule.group:
        raise GroupMismatchError("rule belongs to a different group")
    if not isinstance(spec, NeighborhoodSpec):
        spec = NeighborhoodSpec(float(spec))
    radius = spec.radius
    mask = rule._identity_distances <= radius + 1e-12
    mass = float(np.sum(rule.weights[mask]))
    if not mask.any() or mass <= 0.0:
        raise ResolutionError(
            f"ball of radius {radius} contains no node of {rule.rule_id}"
        )
    vals = np.where(mask, 1.0 / mass, 0.0).astype(complex)
    return SampledFunction(rule, vals, name=f"dirac(r={radius})")
