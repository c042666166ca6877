"""Wigner d and D matrices for SU(2), vectorized over evaluation points.

Spins are handled as integers ``two_l = 2*l`` so half-integer representations
stay exact.  Rows and columns are ordered by descending weight
``m = l, l-1, ..., -l``.  The small-d matrix is d^l(beta) = exp(-i beta J_y),
evaluated as a whole matrix from one exact diagonalization of J_y per spin
(Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307, 2015): with J_y = V M V*,
d^l(beta) = Re(V exp(-i beta M) V*).  ``wigner_d`` and ``wigner_D`` share
that one stacked matmul; ``wigner_D`` is the one evaluator of su2 irrep
matrices at points, every spin of a request from one call.

The same identity makes a band of SU(2) Fourier coefficients one
trigonometric polynomial in the Euler angles (Risbo, J. Geodesy 70, 1996;
Kostelec & Rockmore, J. Fourier Anal. Appl. 14, 2008):

    sum_l d_l tr(C_l D^l(a, b, c))
        = sum_{p,q,k} T[p,q,k] e^{-i m_p a} e^{-i m_q c} e^{-i w_k b},
    T[p,q,k] = sum_l d_l C_l[q,p] V_l[p,k] conj(V_l[q,k]),

with p, q, k running over the weights of the largest spin of one parity,
each spin filling the centered cube of its own weights.  ``trig_cube``
holds the products V_l[p,k] conj(V_l[q,k]) that build T;
``fourier.evaluate_at`` evaluates su2 coefficients off the quadrature grid
through them and builds no D-matrix.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["wigner_d", "wigner_D", "euler_from_quaternion", "two_m_values", "trig_cube"]


def two_m_values(two_l):
    """Weights 2m in row order: two_l, two_l - 2, ..., -two_l."""
    return np.arange(two_l, -two_l - 2, -2)


@functools.cache
def _jy_eigenvectors(two_l):
    """Eigenvectors of J_y as columns, for the weights -l, ..., l in order.

    J_y = (J_+ - J_-)/2i is tridiagonal in the descending-weight basis, with
    <m+1|J_+|m> = sqrt((l - m)(l + m + 1)) = sqrt(i (two_l + 1 - i)) at row
    i - 1, column i.  Its eigenvalues are exactly -l, ..., l, one apart, so
    ``eigh``'s ascending order pairs each column with its weight.
    """
    i = np.arange(1, two_l + 1)
    half_up = 0.5 * np.sqrt(i * (two_l + 1 - i))
    jy = np.diag(-1j * half_up, 1) + np.diag(1j * half_up, -1)
    vecs = np.linalg.eigh(jy)[1]
    vecs.setflags(write=False)
    return vecs


@functools.cache
def trig_cube(two_l):
    """Eigenvector products V[p, k] conj(V[q, k]) of one spin, (d, d, d).

    V holds the J_y eigenvectors (``_jy_eigenvectors``), so that
    d^l(beta)_pq = sum_k [p, q, k] e^{-i w_k beta}, with p, q in the row
    order of ``wigner_d`` and k over the weights w = -l, ..., l.  Read-only
    and cached per spin, like V itself, so every band and label subset
    shares one cube per spin: the spins up to 16 hold 375 KB.
    """
    vecs = _jy_eigenvectors(two_l)
    cube = vecs[:, None, :] * vecs.conj()[None, :, :]
    cube.setflags(write=False)
    return cube


def _spin_columns(top, two_l):
    """The columns ``top + two_m_values(two_l)`` of phases with one column
    per 2m in -top..top, ascending, as a basic slice, so gathers are views."""
    return slice(top + two_l, top - two_l - 1 if top > two_l else None, -2)


def _d_from_phases(two_l, ph_b):
    """d^l(beta) = Re((V * e^{-i w beta}) @ V*) for rows ``ph_b`` of the
    phases e^{-i w_k beta}, w = -l, ..., l: one stacked matmul, (n, d, d)."""
    vecs = _jy_eigenvectors(two_l)
    return ((vecs * ph_b[:, None, :]) @ vecs.conj().T).real


def wigner_d(two_l, beta):
    """Small Wigner d-matrix d^l(beta) = exp(-i beta J_y).

    One batched evaluation of Re(V exp(-i beta M) V*) over the betas, where V
    holds the eigenvectors of J_y (computed once per spin) and M the exact
    weights -l, ..., l.

    Parameters
    ----------
    two_l : int
        Twice the spin.
    beta : float or ndarray
        Rotation angle(s) about the y axis.

    Returns
    -------
    ndarray
        Real array of shape ``beta.shape + (two_l + 1, two_l + 1)``.
    """
    beta = np.asarray(beta, dtype=float)
    weights = np.arange(-two_l, two_l + 1, 2) / 2.0
    phases = np.exp(-1j * beta.reshape(-1, 1) * weights)
    dmat = np.ascontiguousarray(_d_from_phases(two_l, phases))  # not a strided view of .real
    return dmat.reshape(beta.shape + (two_l + 1, two_l + 1))


def wigner_D(two_ls, alpha, beta, gamma):
    """Full Wigner D-matrices D^l(alpha, beta, gamma), z-y-z convention: one
    (n, d, d) array per spin of ``two_ls``, at 1-D Euler angle arrays.

    D^l_{m'm} = exp(-i m' alpha) d^l_{m'm}(beta) exp(-i m gamma), with rows
    and columns ordered by descending weight; for two_l == 1 this is the
    defining 2x2 matrix of the element.  The phases are taken once, for the
    largest spin, and each spin slices its columns and takes d as
    ``wigner_d`` does, so no entry depends on the other elements or spins.
    """
    top = max(two_ls, default=0)
    half_m = np.arange(-top, top + 1) / 2.0
    ph_a, ph_b, ph_c = (np.exp(-1j * np.asarray(t, dtype=float)[:, None] * half_m)
                        for t in (alpha, beta, gamma))
    out = []
    for two_l in two_ls:
        rows = _spin_columns(top, two_l)  # m = l, ..., -l
        ws = slice(top - two_l, top + two_l + 1, 2)  # w = -l, ..., l
        out.append(ph_a[:, rows, None] * _d_from_phases(two_l, ph_b[:, ws]) * ph_c[:, None, rows])
    return out


def euler_from_quaternion(w, x, y, z):
    """Euler angles (z-y-z) whose rotation equals the given unit quaternion.

    Exact for every input, including the beta = 0 and beta = pi fibers: the
    returned triple always reproduces the quaternion's SU(2) matrix, not just
    its rotation, so half-integer representations evaluate consistently.
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    a = w - 1j * z
    b = y - 1j * x
    beta = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    ph_a = np.angle(a)
    ph_b = np.angle(b)
    return ph_b - ph_a, beta, -ph_b - ph_a
