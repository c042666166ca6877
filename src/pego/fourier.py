"""Operator-valued Fourier analysis on compact groups.

The transform pairs a function sampled on a Haar quadrature rule with one
matrix per irreducible representation:

    coeff(pi) = integral of f(t) pi(t)^* dm(t),
    f(x)      = sum over pi of dim(pi) * trace(coeff(pi) pi(x)).

Convolution ``(f*g)(x) = integral f(x y^-1) g(y) dm(y)`` transforms to the
matrix product ``ghat @ fhat`` (order matters on noncommutative groups), and
the right translation ``(R_y f)(x) = f(x y)`` to ``pi(y) @ fhat``.

Everything is computed against a fixed rule.  For band-limited functions
whose frequency content fits inside the rule's exactness degree the discrete
transform agrees with the continuum one exactly, which is the regime all
bound checks run in.

On the SU(2) Euler grid both directions are separable: two phase GEMMs over
the uniform alpha and gamma axes and one Gauss-Legendre-weighted sum against
d^l(beta) per spin, O(r^4) time and O(r^3) memory, with no (N, d, d) irrep
stack built.  On torus, finite and product rules each label is one GEMM
against the irrep stack cached on the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _wigner, irreps
from .groups import (
    GroupDescriptor,
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
    "safe_band",
    "constant_function",
    "sample",
    "matrix_entry_function",
    "random_band_limited_function",
    "forward",
    "forward_to_cutoff",
    "forward_batch",
    "inverse",
    "evaluate_at",
    "convolve",
    "translate",
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


@dataclass
class FourierCoefficients:
    """One coefficient matrix per irrep label, zeros stored explicitly.

    ``labels`` fixes the declared coverage and its order; every label in it
    has an entry.  ``cutoff`` records the shell cutoff when the coverage came
    from ``enumerate_dual`` (None for ad-hoc label sets).  ``l2_mass_total``
    carries ||f||_2^2 of the source function when known, which lets tail
    computations account for mass outside the coverage.
    """

    group: GroupDescriptor
    labels: tuple
    entries: dict
    cutoff: int | None = None
    l2_mass_total: float | None = None

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if set(self.labels) != set(self.entries):
            raise ValueError("labels and entries disagree")
        for lab, mat in self.entries.items():
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (lab.dim, lab.dim):
                raise ValueError(f"entry for {lab.name} has shape {mat.shape}")
            self.entries[lab] = mat

    def __getitem__(self, lab):
        return self.entries[lab]

    def __contains__(self, lab):
        return lab in self.entries

    def head_mass(self, subset):
        """sum over pi in subset of dim(pi) ||coeff(pi)||_F^2."""
        total = 0.0
        for lab in subset:
            if lab not in self.entries:
                raise ValueError(f"label {lab.name} outside computed coverage")
            m = self.entries[lab]
            total += lab.dim * float(np.sum(np.abs(m) ** 2))
        return total


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


def random_band_limited_function(rule, band, seed=0, norm=1.0, name=""):
    """Seeded random function with frequency content in shells <= band.

    Coefficient matrices have iid complex-normal entries, rescaled so that
    ||f||_2 equals ``norm``.  Exactly band-limited, hence transform-exact on
    any rule with safe_band >= band.
    """
    rng = np.random.default_rng(seed) if isinstance(seed, (int, np.integer)) else seed
    subset = irreps.shell_subset(rule.group, band)
    entries = {}
    mass = 0.0
    for lab in subset:
        d = lab.dim
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        entries[lab] = m
        mass += d * float(np.sum(np.abs(m) ** 2))
    if norm is not None and mass > 0:
        scale = norm / math.sqrt(mass)
        for lab in entries:
            entries[lab] = entries[lab] * scale
    coeffs = FourierCoefficients(rule.group, tuple(subset), entries)
    out = inverse(coeffs, rule)
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
    On su2 Euler rules it runs separably over the grid axes
    (``_su2_forward``).  On every other rule it is, per label, one GEMM of
    conj(w * f) against the cached stack viewed as (N, d*d), conjugated and
    transposed back on the small (m, d*d) result, so no conjugated copy of a
    stack is made.
    """
    if not fs:
        return []
    rule = fs[0].rule
    for f in fs:
        _check_same_rule(fs[0], f)
    labels = tuple(dual)
    wf = np.stack([f.rule.weights * f.values for f in fs])  # (m, N)
    masses = [float(np.sum(f.rule.weights * np.abs(f.values) ** 2)) for f in fs]
    if rule.meta.get("kind") == "su2-euler":
        per_label = _su2_forward(wf, labels, rule)
    else:
        cwf = wf.conj()
        per_label = {}
        for lab in labels:
            d = lab.dim
            block = (cwf @ irreps.irrep_stack(lab, rule).reshape(len(rule), d * d)).conj()
            per_label[lab] = block.reshape(len(fs), d, d).transpose(0, 2, 1)
    out = []
    for k in range(len(fs)):
        entries = {lab: per_label[lab][k].copy() for lab in labels}
        out.append(FourierCoefficients(rule.group, labels, entries, None, masses[k]))
    return out


def _euler_phases(rule, labels):
    """Phases e^{i m alpha_a} and e^{i m gamma_c} on the rule's uniform axes.

    One column per 2m in -L..L (L the largest two_l among ``labels``), so
    integer and half-integer spins share the matrices; spin two_l reads the
    columns ``L + two_m_values(two_l)``.
    """
    top = max((lab.index[0] for lab in labels), default=0)
    half_m = np.arange(-top, top + 1) / 2.0
    ph_a = np.exp(1j * np.outer(rule.meta["alphas"], half_m))
    ph_c = np.exp(1j * np.outer(rule.meta["gammas"], half_m))
    return top, ph_a, ph_c


def _su2_forward(wf, labels, rule):
    """Separable forward transform on the su2 Euler grid, O(r^4) time.

    With pi(a, b, c)_{pq} = e^{-i m_p a} d_pq(b) e^{-i m_q c} and the sampled
    w * f viewed as (m, n_a, n_b, n_c), two phase GEMMs give
    G[b, m', m] = sum_{a,c} w f e^{i m' a} e^{i m c}, and then
    coeff[p, q] = sum_b d_qp(b) G[b, m_q, m_p] per spin (Kostelec & Rockmore,
    "FFTs on the rotation group", J. Fourier Anal. Appl. 14, 2008).  Inside a
    ``basis_twist`` each coefficient becomes U* coeff U.
    """
    top, ph_a, ph_c = _euler_phases(rule, labels)
    m, n_a, n_c = len(wf), len(ph_a), len(ph_c)
    g = (wf.reshape(-1, n_c) @ ph_c).reshape(m, n_a, -1, 2 * top + 1)
    g = ph_a.T @ g.transpose(0, 2, 1, 3)  # (m, n_b, m', m)
    per_label = {}
    for lab in labels:
        cols = top + _wigner.two_m_values(lab.index[0])
        sub = g[:, :, cols[:, None], cols]  # (m, b, q, p)
        coeff = (irreps.euler_grid_d(lab, rule) * sub).sum(axis=1).transpose(0, 2, 1)
        u = irreps.twist_unitary(lab)
        per_label[lab] = coeff if u is None else u.conj().T @ coeff @ u
    return per_label


def _su2_inverse(coeffs, rule):
    """Separable synthesis on the su2 Euler grid, the transpose of
    ``_su2_forward``: H[b, m_p, m_q] = sum over spins of dim C[q, p] d_pq(b),
    then two GEMMs with the conjugate phases.  Inside a ``basis_twist`` each
    label synthesizes from U C U*."""
    top, ph_a, ph_c = _euler_phases(rule, coeffs.labels)
    k = 2 * top + 1
    h = np.zeros((len(rule.meta["betas"]), k, k), dtype=complex)
    for lab in coeffs.labels:
        c = coeffs[lab]
        u = irreps.twist_unitary(lab)
        if u is not None:
            c = u @ c @ u.conj().T
        cols = top + _wigner.two_m_values(lab.index[0])
        h[:, cols[:, None], cols] += lab.dim * c.T * irreps.euler_grid_d(lab, rule)
    vals = ph_a.conj() @ (h @ ph_c.conj().T)  # (n_b, n_a, n_c)
    return vals.transpose(1, 0, 2).ravel()


def _synthesize(coeffs, n, matrices_of):
    """Synthesis against given matrices: sum over pi of dim(pi) tr(coeff(pi) pi(x)).

    ``matrices_of(lab)`` gives pi at the n evaluation points, shape (n, d, d).
    tr(C P) = sum_ij C[i, j] P[j, i], so each label is one matrix-vector
    product of the (n, d*d) view with dim(pi) * C transposed and flattened.
    """
    vals = np.zeros(n, dtype=complex)
    for lab in coeffs.labels:
        d = lab.dim
        vals += matrices_of(lab).reshape(n, d * d) @ (d * coeffs[lab].T.ravel())
    return vals


def inverse(coeffs, rule):
    """Synthesize the function on a rule's nodes.

    Separable over the grid axes on su2 Euler rules (``_su2_inverse``),
    against the rule's cached stacks everywhere else.
    """
    if rule.meta.get("kind") == "su2-euler":
        vals = _su2_inverse(coeffs, rule)
    else:
        vals = _synthesize(coeffs, len(rule), lambda lab: irreps.irrep_stack(lab, rule))
    return SampledFunction(rule, vals)


def evaluate_at(coeffs, points):
    """Evaluate the synthesized function at arbitrary group points.

    The synthesis kernel of ``inverse``, fed ``irrep_matrices`` at the points.
    """
    points = list(points)
    return _synthesize(coeffs, len(points), lambda lab: irreps.irrep_matrices(lab, points))


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
    """Right translation (R_y f)(x) = f(x y).

    Uses exact node re-indexing whenever x -> x*y permutes the rule's nodes
    (finite groups, grid translations of the torus, products of those) and
    otherwise goes through the spectral identity at the rule's alias-free
    band, which is exact for band-limited functions.
    """
    if y.group != f.group:
        raise GroupMismatchError("translation element from a different group")
    perm = _reindex_plan(f.rule, y)
    if perm is not None:
        return SampledFunction(f.rule, f.values[perm])
    coeffs = forward_to_cutoff(f)
    return inverse(translate_spectral(coeffs, y), f.rule)


def translate_spectral(coeffs, y):
    """Coefficient-side right translation: coeff(pi) -> pi(y) @ coeff(pi)."""
    entries = {}
    for lab in coeffs.labels:
        entries[lab] = irreps.irrep_matrix(lab, y) @ coeffs[lab]
    return FourierCoefficients(
        coeffs.group, coeffs.labels, entries, coeffs.cutoff, coeffs.l2_mass_total
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
    entries = {lab: gc[lab] @ fc[lab] for lab in fc.labels}
    out = FourierCoefficients(f.group, fc.labels, entries)
    return inverse(out, f.rule)


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
