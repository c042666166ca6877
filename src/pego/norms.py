"""Schatten, summed-over-the-dual, and function-space norms, with the
Plancherel residual and Hausdorff-Young inequality checks built on them.

The dual-side norm at exponent p weights each irrep by its dimension,

    ||c||_p = ( sum over pi of dim(pi) * ||c(pi)||_{S_p}^p )^(1/p),

with the p = inf case the plain supremum of operator norms.  At p = 2 the
norm squares to the Plancherel mass and matches ||f||_2 exactly.

Every p = 2 tail is summed, never subtracted: the tail outside a subset A
of the coverage is

    sqrt(beyond + sum over pi in the coverage outside A of dim(pi) ||c(pi)||_F^2),

the complement added in coverage order.  ``beyond`` = ||f||_2^2 minus the
full head is the mass beyond the coverage (``beyond_cutoff_mass``), the
one subtraction and the one roundoff floor, so a small tail keeps its
digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier

__all__ = [
    "ExponentPair",
    "NormReport",
    "HausdorffYoungCheck",
    "schatten_norm",
    "schatten_norms",
    "lp_oplus_norm",
    "lp_function_norm",
    "lp_value_norms",
    "beyond_cutoff_mass",
    "plancherel_residual",
    "hausdorff_young_check",
    "hausdorff_young_checks",
]


@dataclass(frozen=True)
class ExponentPair:
    """An exponent p in [1, 2] together with its conjugate p' = p/(p-1)."""

    p: float
    p_conj: float

    @classmethod
    def of(cls, p):
        """The pair of exponent ``p``; an ExponentPair is returned as is."""
        if isinstance(p, cls):
            return p
        p = float(p)
        return cls(p, math.inf if p == 1.0 else p / (p - 1.0))

    def __post_init__(self):
        if not 1.0 <= self.p <= 2.0:
            raise ValueError("exponent must lie in [1, 2]")
        want = math.inf if self.p == 1.0 else self.p / (self.p - 1.0)
        if not (self.p_conj == want or abs(self.p_conj - want) < 1e-12):
            raise ValueError("conjugate exponent does not match")


@dataclass(frozen=True)
class NormReport:
    """A norm value plus what was summed: exponent, labels, truncation."""

    value: float
    p: float
    subset_names: tuple
    truncated: bool


def _schatten_stack(mats, p):
    """Schatten p-norms (p >= 1 or inf) of a (..., d, d) stack: Frobenius
    norms at p = 2, one batched ``svd`` otherwise."""
    if p != math.inf and p < 1:
        raise ValueError("schatten exponent must be >= 1 or inf")
    if p == 2:
        return np.sqrt(np.sum(np.abs(mats) ** 2, axis=(-2, -1)))
    sv = np.linalg.svd(mats, compute_uv=False)
    if p == math.inf:
        return sv.max(axis=-1, initial=0.0)
    return np.sum(sv**p, axis=-1) ** (1.0 / p)


def schatten_norm(mat, p):
    """Schatten p-norm of a matrix (p >= 1 or inf) via singular values."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("schatten_norm expects a square matrix")
    return float(_schatten_stack(mat[None], p)[0])


def _schatten_table(table, blocks, p, where=None):
    """Schatten p-norms of the labels at the positions ``where`` of ``table``
    (default: all), in that order, as a (..., len(where)) array from the
    table's (..., n_b, d, d) blocks with any leading axes."""
    where = np.arange(len(table.labels)) if where is None else where
    lead = blocks[0].shape[:-3] if blocks else ()
    out = np.empty(lead + (len(where),))
    for b, block in enumerate(blocks):
        mine = np.flatnonzero(table.block_of[where] == b)
        if mine.size:
            out[..., mine] = _schatten_stack(block[..., table.pos_of[where[mine]], :, :], p)
    return out


def _lp_sums(table, where, per, p):
    """(sum of dim(pi) per^p)^(1/p) over the last axis of the (k,) or (m, k)
    Schatten norms ``per`` of the labels at positions ``where`` of ``table``
    (max at p = inf, 0 over none), each row summed C-contiguous, in ``where``
    order, and rooted by a scalar power: bitwise that row's sum alone."""
    if p == math.inf:
        return per.max(axis=-1, initial=0.0)
    dims = np.asarray(table.dims)[table.block_of[where]]
    sums = np.sum(dims * np.ascontiguousarray(per) ** p, axis=-1)
    return np.array([s ** (1.0 / p) for s in sums.tolist()]) if sums.ndim else sums ** (1.0 / p)


def schatten_norms(coeffs, p, subset=None):
    """Schatten p-norms of the matrices of ``subset`` (default: all), in order."""
    where = None if subset is None else coeffs.table.positions(subset)
    return _schatten_table(coeffs.table, coeffs.blocks, p, where)


def lp_oplus_norm(coeffs, p, subset=None):
    """Dimension-weighted l^p combination of Schatten norms over the dual.

    ``subset`` restricts the sum (default: the full computed coverage).  The
    report's ``truncated`` flag is set when the defaulted coverage cannot
    exhaust an infinite dual; an explicitly passed subset is summed exactly
    and reported untruncated.
    """
    if p != math.inf and p < 1:
        raise ValueError("exponent must be >= 1 or inf")
    defaulted = subset is None
    labels = tuple(coeffs.labels if defaulted else subset)
    per = schatten_norms(coeffs, p, None if defaulted else labels)
    value = float(_lp_sums(coeffs.table, coeffs.table.positions(labels), per, p))
    truncated = defaulted and not coeffs.group.is_finite
    return NormReport(value, p, tuple(lab.name for lab in labels), truncated)


def lp_function_norm(f, p):
    """Quadrature L^p norm; p = inf takes the max over nodes."""
    return float(lp_value_norms(f.rule.weights, f.values[None], p)[0])


def lp_value_norms(weights, values, p):
    """Quadrature L^p norms of the rows of a (k, N) value array against the
    rule weights; p = inf takes the max over nodes (0 with no nodes)."""
    return _magnitude_norms(weights, np.abs(values), p)


def _magnitude_norms(weights, mags, p):
    """``lp_value_norms`` from the magnitudes ``mags`` = |values|.  Unless p
    is inf the power is taken in place, so ``mags`` is overwritten."""
    if p != math.inf and p < 1:
        raise ValueError("exponent must be >= 1 or inf")
    if p == math.inf:
        return mags.max(axis=1, initial=0.0)
    mags **= p
    mags *= weights
    return np.sum(mags, axis=1) ** (1.0 / p)


def _beyond_masses(total, label_mass):
    """The squared l2 mass beyond the coverage: ||f||^2 (``total``) minus
    the sum of the (..., labels) ``label_mass`` rows in label order
    (``fourier.head_sums``), elementwise.

    The one place a head is subtracted from ||f||^2, under the one roundoff
    floor: a difference within 1e-12 * max(||f||^2, 1) of zero is cancellation
    noise, not spectrum, and reads as 0, so a band-limited f has exactly 0
    mass beyond its band.
    """
    head = fourier.head_sums(label_mass, slice(None))
    diff = np.asarray(total - head, dtype=float)
    noise = np.abs(diff) <= 1e-12 * np.maximum(total, 1.0)
    return np.where(noise, 0.0, np.maximum(diff, 0.0))


def _summed_tails(label_mass, outside, beyond):
    """sqrt(beyond + the label masses where ``outside`` holds), the masses
    added in label order; ``outside`` broadcasts against the (..., labels)
    ``label_mass``.  Masked-out labels add an exact zero, so a stack of
    masks is summed in one pass and each sum is bitwise the in-order sum
    of its complement alone."""
    masked = np.where(outside, label_mass, 0.0)
    return np.sqrt(beyond + fourier.head_sums(masked, slice(None)))


def beyond_cutoff_mass(f, coeffs):
    """Squared l2 mass of f beyond the labels held in ``coeffs``
    (``_beyond_masses``)."""
    return float(_beyond_masses(lp_function_norm(f, 2) ** 2, coeffs.label_masses()))


def plancherel_residual(f, coeffs, subset):
    """The l2 tail of f outside ``subset``: ``_summed_tails`` of the labels of
    the coverage outside it, plus the mass beyond the coverage; the label
    masses are taken once, for both."""
    masses = coeffs.label_masses()
    beyond = _beyond_masses(lp_function_norm(f, 2) ** 2, masses)
    return float(_summed_tails(masses, coeffs.table.outside(subset), beyond))


@dataclass(frozen=True)
class HausdorffYoungCheck:
    """Both sides of one Hausdorff-Young inequality at one exponent."""

    direction: str
    p: float
    p_conj: float
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    truncated: bool


def hausdorff_young_check(f, pair, direction="forward", cutoff=None, slack=1e-10):
    """Check a Hausdorff-Young inequality on one sampled function:
    ``hausdorff_young_checks(f, [(pair, direction)], cutoff, slack)[0]``.

    forward:  ||fhat||_{p'-oplus} <= ||f||_p        (p in [1, 2])
    reverse:  ||f||_{p'} <= ||fhat||_{p-oplus}
    """
    return hausdorff_young_checks(f, [(pair, direction)], cutoff, slack)[0]


def hausdorff_young_checks(f, cases, cutoff=None, slack=1e-10):
    """``HausdorffYoungCheck`` of one sampled function for each (exponent
    pair, direction) of ``cases``, in order.

    Coefficients are taken against the canonical dual at ``cutoff`` (default:
    the rule's alias-free band), once, and every case reads its norms from
    that one transform.  For band-limited f within that band both sides are
    exact and the inequalities are theorems; the ``truncated`` flag marks
    dual-side sums that cannot be certified complete.
    """
    cases = [(ExponentPair.of(pair), direction) for pair, direction in cases]
    if any(direction not in ("forward", "reverse") for _, direction in cases):
        raise ValueError("direction must be 'forward' or 'reverse'")
    coeffs = fourier.forward_to_cutoff(f, cutoff)
    out = []
    for pair, direction in cases:
        if direction == "forward":
            dual_side = lp_oplus_norm(coeffs, pair.p_conj)
            lhs, rhs = dual_side.value, lp_function_norm(f, pair.p)
        else:
            dual_side = lp_oplus_norm(coeffs, pair.p)
            lhs, rhs = lp_function_norm(f, pair.p_conj), dual_side.value
        out.append(HausdorffYoungCheck(
            direction,
            pair.p,
            pair.p_conj,
            lhs,
            rhs,
            slack,
            lhs <= rhs + slack,
            dual_side.truncated,
        ))
    return out
