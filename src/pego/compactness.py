"""Precompactness diagnostics for families in L^2 of a compact group.

For a bounded family K the two sampled certificates are

* uniform spectral decay: the l2-oplus tail outside a finite dual subset A
  can be made small uniformly over K (checked along a growing filtration
  A_0 = {triv} c A_1 c ...), and
* uniform L^2 equicontinuity: sup over members of ||R_y f - f||_2 can be
  made small uniformly over y in a shrinking identity ball.

Each implies the other with explicit constants; both (plus boundedness) are
equivalent to precompactness.  The three criteria are the public stages
``boundedness``, ``tail_decay_profile`` and ``equicontinuity_profile``;
``pego_verdicts`` calls each once and joins them per epsilon, and
``epsilon_net`` builds on ``pego_verdict``.  A family keeps its one forward
transform at the alias-free band (``FamilySpec._band_spectrum``), so its
profiles at every p, its verdict and its net transform it once between them,
as blocks with a leading member axis (``_Spectrum``) read in place.
The two quantitative implications are exposed
as `lemma31_bound_checks` (equicontinuity controls the tail through a Dirac
net element) and `lemma32_bound_checks` (a head/tail split controls the
modulus), with one-case faces `lemma31_bound_check` and `lemma32_bound_check`,
each the one row of a batch over many functions (``_lemma31_batch``,
``_lemma32_batch``), which ``pego verify`` calls.  Their moduli
||R_y f - f|| come from one batched translate sweep
(``fourier._translate_values``); the continuity profile reads them at p = 2
from the coefficients by Plancherel instead (``ContinuityProfile.path``).
The verdict engine requires the sampled flags to agree, raising a diagnostic
instead of emitting a silent verdict when they do not.

For families given by a generator over an unbounded integer grid, monotone
escape of the per-member witnesses across the grid is treated as a
resolution-independent certificate of failure; families over compact
parameter boxes only ever report sampled evidence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fourier, irreps, norms
from .groups import (
    GroupMismatchError,
    NeighborhoodSpec,
    _ball_pool,
    _inverse,
    _rows,
    _take,
    coords_of,
)
from .irreps import DualSubset
from .norms import ExponentPair

__all__ = [
    "FamilySpec",
    "DualFiltration",
    "DecayProfile",
    "ContinuityProfile",
    "BoundednessReport",
    "Lemma31Check",
    "Lemma32Check",
    "PegoVerdict",
    "EpsilonNet",
    "NotPrecompactError",
    "CoherenceError",
    "boundedness",
    "tail_decay_profile",
    "equicontinuity_profile",
    "lemma31_bound_check",
    "lemma31_bound_checks",
    "lemma32_bound_check",
    "lemma32_bound_checks",
    "pego_verdict",
    "pego_verdicts",
    "epsilon_net",
    "default_mesh",
]

_TREND_WINDOW = 3  # distinct trailing grid points needed to call a trend
_TRANSLATE_BLOCK_VALUES = 2**16  # bounds each batch of translates to 2^16 sampled values
_ACTION_BLOCK_VALUES = 2**20  # bounds each batch of the spectral moduli's block products


class NotPrecompactError(RuntimeError):
    """Raised when an operation requires a precompact family but the verdict
    says otherwise.  Carries the verdict (with its certificate) as .verdict."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class CoherenceError(RuntimeError):
    """The two sampled criteria disagreed beyond tolerance; no silent verdict."""

    def __init__(self, message, decay_profile=None, continuity_profile=None):
        super().__init__(message)
        self.decay_profile = decay_profile
        self.continuity_profile = continuity_profile


@dataclass(frozen=True)
class FamilySpec:
    """A finite family of sampled functions on one rule.

    ``param_space`` says whether the members follow a generator over an
    unbounded integer range ("unbounded": ladders indexed by n in N) or a
    compact box ("compact": e.g. heat times in [t_min, t_max]).  Trend
    certificates are only issued for unbounded parameter spaces.

    The family is frozen and holds its members as a tuple, so it keeps its
    one forward transform at the alias-free band (``_band_spectrum``, made
    on first use): every stage, the verdict and the epsilon net read it.
    Its members' L2 norms are taken once (``_l2_norms``), where a member
    whose squared norm is beyond float range is refused.
    """

    members: tuple
    name: str
    param_space: str = "compact"

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("a family needs at least one member")
        rule = self.members[0].rule
        for f in self.members:
            if f.rule.rule_id != rule.rule_id:
                raise GroupMismatchError("family members sampled on different rules")
        if self.param_space not in ("compact", "unbounded"):
            raise ValueError("param_space must be 'compact' or 'unbounded'")

    @functools.cached_property
    def _l2_norms(self):
        """Each member's L2 norm, read by ``boundedness`` at p = 2 and by the
        spectrum, so the verdict and every p = 2 stage meet this check
        first: a member whose squared norm, which every mass, tail and
        modulus is read from, is beyond float range raises ValueError."""
        with np.errstate(over="ignore"):
            l2 = _member_norms(self, 2)
            over = ~np.isfinite(l2**2)
        if over.any():
            k = int(np.argmax(over))
            raise ValueError(f"family {self.name!r}: member {self.members[k].name or k} "
                             "has an L2 norm whose square is beyond float range")
        return l2

    @functools.cached_property
    def _band_spectrum(self):
        """The members' transform at the alias-free band (``_spectrum``)."""
        return _spectrum(self)

    @property
    def rule(self):
        return self.members[0].rule

    @property
    def group(self):
        return self.rule.group

    def __len__(self):
        return len(self.members)


@dataclass(frozen=True)
class DualFiltration:
    """A strictly increasing chain of dual subsets starting at {triv}."""

    subsets: tuple

    def __post_init__(self):
        if not self.subsets:
            raise ValueError("filtration needs at least one step")
        first = self.subsets[0]
        if len(first) != 1 or not first.labels[0].is_trivial:
            raise ValueError("filtration must start at the trivial irrep")
        for a, b in zip(self.subsets, self.subsets[1:]):
            sa, sb = set(a.labels), set(b.labels)
            if not (sa < sb):
                raise ValueError("filtration steps must strictly increase")

    @classmethod
    def shells(cls, group, cutoff=None):
        """One step per distinct shell value present up to the cutoff.

        Built once per (group, cutoff) and shared (``_shell_filtration``).
        """
        return _shell_filtration(group, cutoff)

    def __iter__(self):
        return iter(self.subsets)

    def __len__(self):
        return len(self.subsets)

    @property
    def top(self):
        return self.subsets[-1]


@functools.cache
def _shell_filtration(group, cutoff):
    # the canonical dual is sorted by shell, so every step is a prefix of it
    dual = tuple(irreps.enumerate_dual(group, cutoff))
    ends = [k for k in range(1, len(dual) + 1) if k == len(dual) or dual[k].shell != dual[k - 1].shell]
    return DualFiltration(tuple(DualSubset(group, dual[:k]) for k in ends))


@dataclass
class BoundednessReport:
    per_member: np.ndarray
    sup_norm: float
    bounded: bool
    trend: str | None
    evidence: str = "sampled"


@dataclass(frozen=True)
class _Spectrum:
    """One forward transform of a whole family, read in place by every part
    of a verdict: the slot table of the labels (``table``), the members'
    coefficients as one (members, n_b, d, d) array per dimension block of
    it (``blocks``, made once by ``fourier._forward_blocks``), the
    (members, labels) table of dim(pi) ||coeff(pi)||_F^2 read from those
    blocks (``label_mass``, bitwise each member's
    ``FourierCoefficients.label_masses``), and each member's squared mass
    beyond the labels (``beyond``, bitwise ``norms.beyond_cutoff_mass``)."""

    table: fourier.SlotTable
    blocks: tuple
    label_mass: np.ndarray
    beyond: np.ndarray


def _spectrum(family, labels=None):
    """Transform the family once, against ``labels`` (default: the canonical
    dual at the rule's alias-free band)."""
    if labels is None:
        labels = irreps.enumerate_dual(family.group, fourier.safe_band(family.rule))
    table = fourier.slot_table(tuple(labels))
    blocks = tuple(fourier._forward_blocks(family.rule, [f.values for f in family.members], table))
    label_mass = fourier._label_masses(table, blocks)
    beyond = norms._beyond_masses(family._l2_norms**2, label_mass)
    return _Spectrum(table, blocks, label_mass, beyond)


def _member_norms(family, p):
    values = np.stack([f.values for f in family.members])
    return norms.lp_value_norms(family.rule.weights, values, p)


def _strictly_increasing(seq, rtol=1e-9):
    ref = max(abs(v) for v in seq) or 1.0
    return all(b - a > rtol * ref for a, b in zip(seq, seq[1:]))


def boundedness(family, p=2):
    """Sampled norm bound with an unbounded-trend heuristic.

    The family is flagged unbounded only when it comes from a generator over
    an unbounded parameter grid and the member norms strictly increase across
    the trailing grid points; the sup over a compact parameter box is an
    honest sampled bound.
    """
    vals = family._l2_norms.copy() if p == 2 else _member_norms(family, p)
    trend = None
    if family.param_space == "unbounded" and len(vals) > _TREND_WINDOW:
        tail = vals[-(_TREND_WINDOW + 1) :]
        if _strictly_increasing(tail.tolist()):
            trend = "increasing"
    return BoundednessReport(vals, float(vals.max()), trend is None, trend)


@dataclass
class DecayStep:
    subset: DualSubset
    per_member: np.ndarray
    sup_tail: float


@dataclass
class DecayProfile:
    """l2-oplus tails of every member along a dual filtration.  At p = 2 a
    tail is the Plancherel residual: the masses outside the step summed in
    label order plus the mass beyond the computed cutoff, so tails far below
    ||f|| keep their digits."""

    family_name: str
    p: float
    steps: list
    truncated: bool

    @property
    def sup_tails(self):
        return np.array([s.sup_tail for s in self.steps])

    def witness_index(self, eps):
        """Index of the first subset with sup tail < eps, None if absent."""
        return _first_below(self.sup_tails, eps)

    def member_witness_indices(self, eps):
        table = np.stack([s.per_member for s in self.steps])  # (steps, m)
        return [_first_below(col, eps) for col in table.T]


def _first_below(values, eps):
    """Index of the first entry of ``values`` below eps, None if absent."""
    idx = np.flatnonzero(np.asarray(values) < eps)
    return int(idx[0]) if idx.size else None


def tail_decay_profile(family, filtration=None, p=2.0):
    """Tails of every member outside each filtration step.

    p = 2 tails are Plancherel residuals (``norms.plancherel_residual``,
    beyond-cutoff mass included); other exponents are summed over the
    computed dual only, from one (members, labels) table of Schatten norms
    (``norms._lp_sums``), and the profile is marked truncated.  The default
    filtration reads the family's transform; a custom one transforms
    against its top step.
    """
    if filtration is None:
        filtration = DualFiltration.shells(
            family.group, fourier.safe_band(family.rule)
        )
        spectrum = family._band_spectrum
    else:
        spectrum = _spectrum(family, filtration.top.labels)
    table = spectrum.table
    outside = np.stack([table.outside(subset) for subset in filtration])
    if p == 2.0:
        # every step's tails from one running sum of the masked mass table
        tails = norms._summed_tails(spectrum.label_mass, outside[:, None], spectrum.beyond)
    else:
        schatten = norms._schatten_table(table, spectrum.blocks, p)
        tails = [norms._lp_sums(table, w, schatten[:, w], p) for w in map(np.flatnonzero, outside)]
    steps = [DecayStep(s, per, float(per.max())) for s, per in zip(filtration, tails)]
    return DecayProfile(family.name, p, steps, p != 2.0 and not family.group.is_finite)


@dataclass
class ContinuityProfile:
    """Sampled modulus of L^p continuity over shrinking identity balls.

    omegas[k] = sup over members and ball samples at deltas[k].  ``path``
    says how the moduli were computed, and follows from p.
    """

    family_name: str
    p: float
    deltas: np.ndarray
    per_member: np.ndarray  # (members, deltas)
    ball_samples: int
    seed: int

    @property
    def path(self):
        """"spectral" at p = 2 (by Plancherel from the coefficients,
        ``_spectral_moduli``), "direct" at any other p (translated samples)."""
        return "spectral" if self.p == 2.0 else "direct"

    @property
    def omegas(self):
        return self.per_member.max(axis=0)

    def witness_delta(self, eps):
        """Largest delta in the mesh with omega(delta) < eps, None if absent."""
        k = _first_below(self.omegas, eps)
        return None if k is None else float(self.deltas[k])

    def member_witness_indices(self, eps):
        return [_first_below(row, eps) for row in self.per_member]


def default_mesh(group):
    """Shrinking ball radii adapted to the group's metric scale."""
    if group.is_finite:
        return np.array([1.5, 0.5])
    return np.geomspace(1.0, 1e-4, 13)


def equicontinuity_profile(family, mesh=None, ball_samples=8, p=2.0, seed=0):
    """Sampled modulus ||R_y f - f||_p over y in shrinking identity balls.

    The mesh must be strictly decreasing.  The same seed redraws the same
    ball directions at every radius, so the sampled modulus shrinks along
    rays.  p = 2 takes the spectral path and any other p translates samples
    ("direct"); both read the family's transform.
    """
    if mesh is None:
        mesh = default_mesh(family.group)
    mesh = np.asarray(mesh, dtype=float)
    if mesh.ndim != 1 or len(mesh) == 0 or np.any(np.diff(mesh) >= 0):
        raise ValueError("mesh must be a strictly decreasing array of radii")
    if np.any(mesh <= 0):
        raise ValueError("mesh radii must be positive")
    # one pooled sample across all radii: each ball's modulus is taken over
    # every pooled point inside it, so sample sets are nested and the sampled
    # omega is genuinely nonincreasing as delta shrinks
    pool, dists = _ball_pool(family.group, mesh, ball_samples, seed)
    if p == 2.0:
        per_point = _spectral_moduli(family._band_spectrum, pool)
    else:
        spectrum = family._band_spectrum
        per_point = np.stack([_moduli(family.rule, f.values, pool, [p], spectrum.table, mine)[0]
                              for f, mine in zip(family.members, zip(*spectrum.blocks))])
    # the points within a radius are a prefix of the pool sorted by
    # distance, so each ball's sup is a running max read at its prefix end
    order = np.argsort(dists, kind="stable")
    running = np.maximum.accumulate(per_point[:, order], axis=1)
    inside = np.searchsorted(dists[order], mesh + 1e-12, side="right")
    out = np.where(inside > 0, running[:, inside - 1], 0.0)
    return ContinuityProfile(family.name, p, mesh, out, ball_samples, seed)


def _spectral_moduli(spectrum, ys):
    """||R_y f - f||_2 for every member (rows) and every row y of the
    coordinate array ``ys`` (columns), by Plancherel: the sum over labels of
    dim ||(pi(y) - I) coeff(pi)||_F^2, plus four times the mass beyond the
    cutoff, which moves by at most a factor 2 in norm.

    Every term is a sum of squared moduli, so nothing cancels when f is
    nearly invariant under y and no floor is needed.  No work runs once per
    (member, y) pair; each dimension block of ``spectrum.blocks`` is one
    product.  On characters |(chi(y) - 1) c|^2 = |chi(y) - 1|^2 |c|^2, so a
    1-dim block is the real GEMM of the (members, n_b) label masses with the
    (n_b, ys) table of |chi(y) - 1|^2.  On a block of dimension d >= 2, each
    label's (pi(y) - I) C for every pair is one GEMM (ys*d, d) @ (d, members*d),
    batched over the block's labels, whose entries are squared and summed.
    Those products hold at most _ACTION_BLOCK_VALUES complex values: members
    are taken a batch at a time.
    """
    table = spectrum.table
    n, m = _rows(ys), len(spectrum.label_mass)
    acc = np.zeros((m, n))
    mats_at = irreps._blocks_at(table.block_labels, ys)
    for d, mem, block, mats in zip(table.dims, table.members, spectrum.blocks, mats_at):
        if d == 1:
            chi = mats[:, :, 0, 0]
            chi -= 1.0
            acc += spectrum.label_mass[:, mem] @ np.square(np.abs(chi)).T
            continue
        n_b = len(mem)
        # (n_b, ys*d, d): row (y, i) of label l holds (pi_l(y) - I)[i, :]
        act = (mats - np.eye(d)).transpose(1, 0, 2, 3).reshape(n_b, n * d, d)
        per_batch = max(1, _ACTION_BLOCK_VALUES // (n_b * n * d * d))
        for lo in range(0, m, per_batch):
            part = block[lo : lo + per_batch]
            k = len(part)
            # (n_b, d, k*d): column (member, c) of label l holds C_l[:, c]
            moved = act @ part.transpose(1, 2, 0, 3).reshape(n_b, d, k * d)
            # |z|^2 = re^2 + im^2: square the float view in place, then sum
            # over the rows i, over the columns c and over the labels
            sq = moved.view(float).reshape(n_b, n, d, k * 2 * d)
            np.square(sq, out=sq)
            per = sq.sum(axis=2).reshape(n_b * n * k, 2 * d) @ np.ones(2 * d)
            acc[lo : lo + k] += d * per.reshape(n_b, n, k).sum(axis=0).T
    return np.sqrt(acc + 4.0 * spectrum.beyond[:, None])


def _moduli(rule, vals, ys, ps, table, blocks, owner=None):
    """||R_y f - f||_p for every p of ``ps`` (rows) and every row y of the
    coordinate array ``ys`` (columns), in order.  f is the one function of
    the (N,) samples ``vals``; or, pairwise, given ``owner``, the function
    of element k is row owner[k] of the (m, N) ``vals``, whose transform is
    row owner[k] of the (m, n_b, d, d) ``blocks``.

    Translates come from ``fourier._translate_values`` in blocks of at most
    _TRANSLATE_BLOCK_VALUES sampled values, so the translates held at once
    stay bounded, and every block shares the transform at the alias-free
    band (``table`` and ``blocks``, None when every element permutes the
    nodes).  Each block's |R_y f - f| is taken once, in place, and every
    exponent's norms are read from it (``norms._magnitude_norms``), row by
    row, so an element's moduli do not depend on the others.
    """
    per_block = max(1, _TRANSLATE_BLOCK_VALUES // len(rule))
    out = np.empty((len(ps), _rows(ys)))
    for lo in range(0, _rows(ys), per_block):
        rows = slice(lo, lo + per_block)
        f_vals, f_blocks = vals, blocks
        if owner is not None:
            f_vals = vals[owner[rows]]
            f_blocks = None if blocks is None else [b[owner[rows]] for b in blocks]
        moved = fourier._translate_values(rule, f_vals, _take(ys, rows), table, f_blocks)
        moved -= f_vals
        mags = np.abs(moved)
        del moved  # freed before an exponent's copy of the magnitudes is made
        for row, p in enumerate(ps):
            # every exponent but the last works on a copy: the norms
            # overwrite the magnitudes they are given
            own = mags if row == len(ps) - 1 else mags.copy()
            out[row, lo : lo + len(mags)] = norms._magnitude_norms(rule.weights, own, p)
    return out


def _lemma_pass(rule, vals, cutoff):
    """(table, blocks, band): the one forward pass of the (m, N) samples
    ``vals`` in both lemma batches, against the canonical dual at ``cutoff``
    (default: the alias-free band), enumerated and not refused beyond the
    band; ``band`` is (table, blocks) when that is the band, else None."""
    shared = cutoff in (None, fourier.safe_band(rule))
    labels = fourier._cutoff_dual(rule) if shared else irreps.enumerate_dual(rule.group, cutoff)
    table = fourier.slot_table(tuple(labels))
    blocks = fourier._forward_blocks(rule, vals, table)
    return table, blocks, (table, blocks) if shared else None


def _swept_moduli(rule, vals, ys, ps, owner, band):
    """``_moduli`` of every (row owner[k], element ys[k]) pair at every p of
    ``ps``, on the rows' transform at the alias-free band ``band`` (a slot
    table and its blocks); when it is None and some element does not permute
    the nodes, one forward pass of all rows at the band is made here."""
    if band is None and not fourier._permutes(rule, ys).all():
        band_table = fourier.slot_table(tuple(fourier._cutoff_dual(rule)))
        band = band_table, fourier._forward_blocks(rule, vals, band_table)
    return _moduli(rule, vals, ys, ps, *(band or (None, None)), owner=owner)


def _row_coefficients(rule, vals, table, blocks):
    """Each row of the (m, N) samples ``vals`` as a function and its
    coefficients, the views ``[k]`` of the (m, n_b, d, d) ``blocks``."""
    fs = [fourier.SampledFunction(rule, v) for v in vals]
    fcs = [fourier.FourierCoefficients.from_blocks(rule.group, table, [b[k] for b in blocks])
           for k in range(len(vals))]
    return fs, fcs


def _tail(f, fc, subset, p):
    """(tail, truncated): f's l^p tail outside ``subset``.  At p = 2 it is
    ``norms.plancherel_residual``, the mass beyond the cutoff included;
    otherwise ``fc``'s l^p sum over the positions of its other labels,
    truncated on an infinite group."""
    if p == 2.0:
        return norms.plancherel_residual(f, fc, subset), False
    where = np.flatnonzero(fc.table.outside(subset))
    per = norms._schatten_table(fc.table, fc.blocks, p, where)
    return float(norms._lp_sums(fc.table, where, per, p)), not f.group.is_finite


@dataclass
class Lemma31Check:
    """Equicontinuity controls the dual tail: through the Dirac element e_U,
    the tail outside A = {pi : ||ehat_U(pi)||_op > 1/2} obeys

        tail_{p'}(fhat, A) <= 2 sup_{y in U} ||f - R_{y^-1} f||_p.
    """

    subset: DualSubset
    tail: float
    rhs: float
    slack: float
    satisfied: bool
    truncated: bool
    p: float
    p_conj: float
    radius: float
    support_size: int


def lemma31_bound_check(f, ball, pair, cutoff=None, slack=1e-8):
    """Check the tail-from-modulus bound for one function and one ball:
    ``lemma31_bound_checks(f, ball, [pair], cutoff, slack)[0]``."""
    return lemma31_bound_checks(f, ball, [pair], cutoff, slack)[0]


def lemma31_bound_checks(f, ball, pairs, cutoff=None, slack=1e-8):
    """``Lemma31Check`` of one function and one ball at each exponent pair of
    ``pairs``, in order.

    ``ball`` is a NeighborhoodSpec (or radius).  A is constructed from the
    Dirac element exactly as in the proof; the sup over U is sampled over the
    quadrature nodes supporting e_U, which is the whole discrete ball.  Only
    the final norms depend on the exponent, so every pair shares the Dirac
    element, its transform and A, one transform of f against the dual at
    ``cutoff`` and one sweep of translates over the ball, which gives the
    moduli at every p.  The tail at p' is ``_tail``'s.  The one row of
    ``_lemma31_batch``: a function's checks are the same in any batch.
    """
    return _lemma31_batch(f.rule, f.values[None], [ball], pairs, cutoff, slack)[0]


def _lemma31_batch(rule, vals, balls, pairs, cutoff=None, slack=1e-8):
    """``lemma31_bound_checks`` of every row k of the (m, N) samples ``vals``
    in its own ball ``balls[k]`` at every exponent pair of ``pairs``, one list
    of checks per row.

    All rows take one forward pass at ``cutoff`` (``_lemma_pass``).  Each
    distinct radius takes one Dirac element, one transform of it against
    that dual, one set A and one support.  The translates of all (row, node
    of its ball) pairs take one bounded sweep (``_swept_moduli``, pairwise),
    which gives the moduli at every p; the tail is the row's own.
    """
    pairs = [ExponentPair.of(pair) for pair in pairs]
    balls = [b if isinstance(b, NeighborhoodSpec) else NeighborhoodSpec(float(b)) for b in balls]
    group = rule.group
    table, blocks, band = _lemma_pass(rule, vals, cutoff)
    # per radius: A = {pi : ||ehat_U(pi)||_op > 1/2} and the support of e_U
    per_radius = {}
    for ball in balls:
        if ball.radius not in per_radius:
            e_u = fourier.dirac_net_element(group, ball, rule).values
            ehat = [b[0] for b in fourier._forward_blocks(rule, e_u[None], table)]
            op_norms = norms._schatten_table(table, ehat, math.inf)
            a_labels = [lab for lab, v in zip(table.labels, op_norms.tolist()) if v > 0.5]
            per_radius[ball.radius] = (DualSubset.from_labels(group, a_labels),
                                       np.flatnonzero(np.abs(e_u) > 0))
    supports = [per_radius[ball.radius][1] for ball in balls]
    sizes = [support.size for support in supports]
    ys = _inverse(group, _take(rule.coords, np.concatenate(supports)))
    owner = np.repeat(np.arange(len(vals)), sizes)
    moduli = _swept_moduli(rule, vals, ys, [pair.p for pair in pairs], owner, band)
    own = np.split(moduli, np.cumsum(sizes)[:-1], axis=1)
    out = []
    for f, fc, ball, size, rows in zip(*_row_coefficients(rule, vals, table, blocks),
                                       balls, sizes, own):
        subset = per_radius[ball.radius][0]
        checks = []
        for pair, row in zip(pairs, rows):
            q = pair.p_conj
            tail, truncated = _tail(f, fc, subset, q)
            rhs = 2.0 * float(np.max(row, initial=0.0))
            checks.append(Lemma31Check(
                subset,
                tail,
                rhs,
                slack,
                tail <= rhs + slack,
                truncated,
                pair.p,
                q,
                ball.radius,
                int(size),
            ))
        out.append(checks)
    return out


@dataclass
class Lemma32Check:
    """The head/tail split controls the modulus through the dual action:

        ||R_y f - f||_{p'} <= sup_{pi in A} ||pi(y) - I||_op * head_p(fhat, A)
                              + 2 tail_p(fhat, A).
    """

    lhs: float
    head_term: float
    tail_term: float
    head_sup: float
    slack: float
    satisfied: bool
    truncated: bool
    p: float
    p_conj: float


def lemma32_bound_check(f, y, subset, pair, cutoff=None, slack=1e-8):
    """Check the modulus-from-tail bound for one function, element and head
    set: ``lemma32_bound_checks(f, [(y, subset, pair)], cutoff, slack)[0]``."""
    return lemma32_bound_checks(f, [(y, subset, pair)], cutoff, slack)[0]


def lemma32_bound_checks(f, cases, cutoff=None, slack=1e-8):
    """``Lemma32Check`` of one function for each (element, head set, exponent
    pair) of ``cases``, in order.

    Every case shares one transform of f against the dual at ``cutoff``
    and one sweep of translates over all the elements, which takes them in
    bounded blocks and gives the moduli at every distinct p' of the cases.
    The tail at p is ``_tail``'s.  The one row of ``_lemma32_batch``: a
    function's checks are the same in any batch.
    """
    return _lemma32_batch(f.rule, f.values[None], [cases], cutoff, slack)[0]


def _lemma32_batch(rule, vals, cases, cutoff=None, slack=1e-8):
    """``lemma32_bound_checks`` of every row k of the (m, N) samples ``vals``
    at its own cases ``cases[k]``, one list of checks per row.

    All rows take one forward pass at ``cutoff`` (``_lemma_pass``), and the
    translates of all (row, element) pairs one bounded sweep
    (``_swept_moduli``, pairwise: the action pi(y) @ C of each element on
    its own row's coefficients).  Each head set's sup of
    ||pi(y) - I||_op takes one irrep-matrix request for all its elements;
    the head norm and the tail are the row's own.
    """
    cases = [[(y, subset, ExponentPair.of(pair)) for y, subset, pair in row] for row in cases]
    table, blocks, band = _lemma_pass(rule, vals, cutoff)
    flat = [(k, y, subset, pair) for k, row in enumerate(cases) for y, subset, pair in row]
    for _, _, subset, _ in flat:
        for lab in subset:
            if lab not in table.index:
                raise ValueError(f"head label {lab.name} beyond the computed dual")
    ys = coords_of(rule.group, [y for _, y, _, _ in flat])
    ps = list(dict.fromkeys(pair.p_conj for _, _, _, pair in flat))
    owner = np.array([k for k, _, _, _ in flat], dtype=int)
    moduli = _swept_moduli(rule, vals, ys, ps, owner, band)
    head_sups = np.empty(len(flat))
    by_subset = {}
    for j, (_, _, subset, _) in enumerate(flat):
        by_subset.setdefault(tuple(subset), []).append(j)
    for labs, js in by_subset.items():
        sub = fourier.slot_table(labs)
        at_y = irreps._blocks_at(sub.block_labels, _take(ys, np.array(js)))
        act = [mats - np.eye(d) for d, mats in zip(sub.dims, at_y)]
        head_sups[js] = np.max(norms._schatten_table(sub, act, math.inf), axis=-1, initial=0.0)
    fs, fcs = _row_coefficients(rule, vals, table, blocks)
    out = [[] for _ in cases]
    for j, (k, _, subset, pair) in enumerate(flat):
        lhs = float(moduli[ps.index(pair.p_conj), j])
        head_sup = float(head_sups[j])
        head_norm = norms.lp_oplus_norm(fcs[k], pair.p, subset).value
        head_term = head_sup * head_norm
        tail, truncated = _tail(fs[k], fcs[k], subset, pair.p)
        tail_term = 2.0 * tail
        rhs = head_term + tail_term
        out[k].append(Lemma32Check(
            lhs,
            head_term,
            tail_term,
            head_sup,
            slack,
            lhs <= rhs + slack,
            truncated,
            pair.p,
            pair.p_conj,
        ))
    return out


@dataclass
class FlagReport:
    flag: bool
    witness: object
    certificate: dict | None
    evidence: str = "sampled"


@dataclass
class PegoVerdict:
    """Joint outcome of the three sampled criteria at one epsilon."""

    family_name: str
    epsilon: float
    boundedness: BoundednessReport
    uniform_decay: FlagReport
    equicontinuous: FlagReport
    conclusion: str
    decay_profile: DecayProfile
    continuity_profile: ContinuityProfile
    config: dict


def _escape_certificate(family, witness_indices, side):
    """Monotone escape of per-member witnesses across an unbounded grid.

    Fires when the witnesses never move back, are still moving inside the
    trailing window, and have moved at least two steps overall; or when the
    trailing members have no witness at all at the sampled resolution.  On a
    quantized mesh consecutive members may share a step, so movement, not
    strict per-member increase, is what counts.
    """
    if family.param_space != "unbounded" or len(family) <= _TREND_WINDOW:
        return None
    # None (no witness at the sampled resolution) dominates every index
    big = max((w for w in witness_indices if w is not None), default=0) + 1
    seq = [big if w is None else w for w in witness_indices]
    window = seq[-(_TREND_WINDOW + 1) :]
    nondecreasing = all(b >= a for a, b in zip(seq, seq[1:]))
    moving = any(b > a for a, b in zip(window, window[1:]))
    escaped = all(w is None for w in witness_indices[-_TREND_WINDOW:])
    if escaped or (nondecreasing and moving and seq[-1] - seq[0] >= 2):
        idx = len(family) - 1
        member = family.members[idx]
        return {
            "side": side,
            "member_index": idx,
            "member_name": member.name or f"member[{idx}]",
            "witness_trail": [None if w is None else int(w) for w in witness_indices],
            "detail": (
                "per-member witnesses move monotonically outward along the "
                "unbounded family grid and are still moving at its end"
            ),
        }
    return None


def _flag(family, witness, member_indices, side):
    """One criterion's flag: it holds when the family has a ``witness`` (None
    when it has none) and its per-member witness indices certify no escape."""
    cert = _escape_certificate(family, member_indices, side)
    return FlagReport(witness is not None and cert is None, witness, cert)


def pego_verdict(
    family,
    epsilon,
    filtration=None,
    mesh=None,
    ball_samples=8,
    seed=0,
):
    """Run all three sampled criteria at one epsilon and combine them.

    Requires the decay and equicontinuity flags to agree (they are
    equivalent criteria); disagreement raises CoherenceError rather than
    guessing.  Conclusions: "precompact" (bounded, both flags hold),
    "not_precompact_unbounded" (norm trend escapes along the grid; the
    spectral flags may well both hold), "not_precompact_no_decay" (both
    flags fail with a monotone escape certificate), or
    "inconclusive_at_resolution" (flags fail but nothing certifies escape).
    """
    return pego_verdicts(family, [epsilon], filtration, mesh, ball_samples, seed)[0]


def pego_verdicts(
    family,
    epsilons,
    filtration=None,
    mesh=None,
    ball_samples=8,
    seed=0,
):
    """``pego_verdict`` at each of several epsilons, in order.

    The epsilon only enters the flags, so the three stages (``boundedness``,
    ``tail_decay_profile`` and ``equicontinuity_profile``) run once and every
    verdict shares them.  An epsilon that is not positive and finite (NaN
    included) raises ValueError before work starts, and the first incoherent
    epsilon raises CoherenceError.
    """
    epsilons = list(epsilons)
    if not all(0 < eps < math.inf for eps in epsilons):
        raise ValueError("epsilon must be positive and finite")
    bnd = boundedness(family)
    decay = tail_decay_profile(family, filtration)
    conti = equicontinuity_profile(family, mesh, ball_samples, seed=seed)
    return [_combine(family, eps, bnd, decay, conti, ball_samples, seed) for eps in epsilons]


def _combine(family, epsilon, bnd, decay, conti, ball_samples, seed):
    """The verdict at one epsilon from the epsilon-free reports."""
    step = decay.witness_index(epsilon)
    dflag = _flag(family, None if step is None else decay.steps[step].subset,
                  decay.member_witness_indices(epsilon), "decay")
    eflag = _flag(family, conti.witness_delta(epsilon),
                  conti.member_witness_indices(epsilon), "equicontinuity")
    if dflag.flag != eflag.flag:
        raise CoherenceError(
            f"criteria disagree at epsilon={epsilon}: uniform decay says "
            f"{dflag.flag}, equicontinuity says {eflag.flag}; the sampled "
            "resolution cannot support a verdict",
            decay_profile=decay,
            continuity_profile=conti,
        )
    if not bnd.bounded:
        conclusion = "not_precompact_unbounded"
    elif dflag.flag:
        conclusion = "precompact"
    elif dflag.certificate or eflag.certificate:
        conclusion = "not_precompact_no_decay"
    else:
        conclusion = "inconclusive_at_resolution"
    config = {
        "epsilon": epsilon,
        "ball_samples": ball_samples,
        "seed": seed,
        "mesh": [float(d) for d in conti.deltas],
        "filtration_shells": [step.subset.max_shell for step in decay.steps],
    }
    return PegoVerdict(
        family.name, epsilon, bnd, dflag, eflag, conclusion, decay, conti, config
    )


@dataclass
class EpsilonNet:
    """A finite epsilon-net of coefficient-space centers covering the family.

    Centers are band-limited functions supported on the head subset
    ``subset``; ``center_coefficients`` reconstructs them.  Rows of
    ``centers`` hold the subset's packed blocks in block order
    (``_embed_coefficients``).  The cover is verified member by member via
    the exact Plancherel distance (head coefficient distance plus residual
    mass), never assumed.
    """

    epsilon: float
    subset: DualSubset
    centers: np.ndarray  # (n_centers, n_real)
    assignments: np.ndarray  # member -> center index
    distances: np.ndarray
    cover_verified: bool
    cell: float
    center_coefficients: list


def _embed_coefficients(coeffs):
    """The coefficients as one real vector whose Euclidean norm is the
    Plancherel norm: block after block, and within a block label by label,
    sqrt(dim) * coeff, real part then imaginary part, row-major."""
    if not coeffs.blocks:
        return np.zeros(0)
    return _embed_blocks(coeffs.table.dims, [b[None] for b in coeffs.blocks])[0]


def _embed_blocks(dims, blocks):
    """``_embed_coefficients`` of many members at once, from one or more
    per-dimension (members, n_b, d, d) blocks: one row per member."""
    return np.concatenate([
        math.sqrt(d) * np.stack([block.real, block.imag], axis=2).reshape(len(block), -1)
        for d, block in zip(dims, blocks)
    ], axis=1)


def _unembed_centers(vecs, subset, group):
    """Inverse of ``_embed_coefficients`` on the labels of ``subset``, for
    every row of ``vecs``, a block at a time for all rows."""
    table = fourier.slot_table(tuple(subset))
    blocks = []
    pos = 0
    for d, labs in zip(table.dims, table.block_labels):
        size = 2 * len(labs) * d * d
        parts = vecs[:, pos : pos + size].reshape(len(vecs), len(labs), 2, d, d)
        pos += size
        blocks.append((parts[:, :, 0] + 1j * parts[:, :, 1]) / math.sqrt(d))
    return [fourier.FourierCoefficients.from_blocks(group, table, mats) for mats in zip(*blocks)]


def epsilon_net(
    family, epsilon, filtration=None, mesh=None, ball_samples=8, seed=0
):
    """Construct and verify a finite epsilon-net for a precompact family.

    Demands a "precompact" verdict at epsilon/2 first and raises
    NotPrecompactError (carrying the verdict and its certificate) otherwise.
    Centers are the grid points nearest the members on a coefficient-space
    grid over the decay witness subset A: quantization moves a member by at
    most epsilon/2 in the head, and the tail outside A is below epsilon/2 by
    the witness property, so every member provably lies within epsilon of its
    center; the code still verifies each distance explicitly.
    """
    verdict = pego_verdict(family, epsilon / 2.0, filtration, mesh, ball_samples, seed)
    if verdict.conclusion != "precompact":
        cert = verdict.uniform_decay.certificate or verdict.equicontinuous.certificate
        detail = f" certificate: {cert}" if cert else ""
        raise NotPrecompactError(
            f"family {family.name!r} is not precompact at epsilon/2="
            f"{epsilon / 2.0} (conclusion: {verdict.conclusion});"
            f" no net attempted.{detail}",
            verdict=verdict,
        )
    # the witness step: its per-member tails are the residuals outside it
    step = verdict.decay_profile.steps[verdict.decay_profile.witness_index(epsilon / 2.0)]
    subset = step.subset
    if filtration is None:
        spectrum = family._band_spectrum
    else:
        spectrum = _spectrum(family, subset.labels)
    # the witness is a prefix of the transformed labels (a step of the shell
    # filtration, or all of them): its blocks lead the spectrum's blocks
    blocks = dict(zip(spectrum.table.dims, spectrum.blocks))
    table = fourier.slot_table(subset.labels)
    vecs = _embed_blocks(table.dims, [
        blocks[d][:, : len(labs)] for d, labs in zip(table.dims, table.block_labels)
    ])
    n_real = vecs.shape[1]
    cell = epsilon / math.sqrt(n_real) if n_real else epsilon
    # centered cells: a coordinate that is zero in exact arithmetic snaps to
    # 0 whatever the sign of its roundoff; the cells stay floats, whatever
    # their size, and + 0.0 turns -0.0 into 0.0
    cells = np.rint(vecs / cell) + 0.0
    # distinct cells in lexicographic order, as np.unique(axis=0) orders
    # them, without its structured-dtype sort
    rows = [tuple(r) for r in cells.tolist()]
    uniq = sorted(set(rows))
    where = {r: i for i, r in enumerate(uniq)}
    assignments = np.array([where[r] for r in rows])
    centers = np.array(uniq).reshape(len(uniq), n_real) * cell
    head_dist = np.linalg.norm(vecs - centers[assignments], axis=1)
    dist = np.sqrt(head_dist**2 + step.per_member**2)
    cover_verified = bool(np.all(dist <= epsilon + 1e-12))
    center_coeffs = _unembed_centers(centers, subset, family.group)
    return EpsilonNet(
        epsilon,
        subset,
        centers,
        assignments,
        dist,
        cover_verified,
        cell,
        center_coeffs,
    )
