"""Wigner d and D matrices for SU(2), vectorized over evaluation points.

Spins are handled as integers ``two_l = 2*l`` so half-integer representations
stay exact.  Rows and columns are ordered by descending weight
``m = l, l-1, ..., -l``.  The small-d matrix is d^l(beta) = exp(-i beta J_y),
evaluated as a whole matrix from one exact diagonalization of J_y per spin
(Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307, 2015): with J_y = V M V*,
d^l(beta) = Re(V exp(-i beta M) V*).

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


def wigner_d(two_l, beta):
    """Small Wigner d-matrix d^l(beta) = exp(-i beta J_y).

    One batched evaluation of Re(V exp(-i beta M) V*) over the distinct
    betas, where V holds the eigenvectors of J_y (computed once per spin) and
    M the exact weights -l, ..., l.  Equal betas share one matrix: the nodes
    of Euler and product rules repeat a few betas thousands of times.

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
    flat = beta.ravel()
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    first = np.ones(flat.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    slot = np.empty(flat.size, dtype=int)
    slot[order] = np.cumsum(first) - 1
    vecs = _jy_eigenvectors(two_l)
    weights = np.arange(-two_l, two_l + 1, 2) / 2.0
    phases = np.exp(-1j * ordered[first][:, None] * weights)
    dmat = ((vecs * phases[:, None, :]) @ vecs.conj().T).real
    return dmat[slot].reshape(beta.shape + dmat.shape[1:])


def wigner_D(two_l, alpha, beta, gamma):
    """Full Wigner D-matrix D^l(alpha, beta, gamma), z-y-z convention.

    D^l_{m'm} = exp(-i m' alpha) d^l_{m'm}(beta) exp(-i m gamma), with rows
    and columns ordered by descending weight.  For two_l == 1 this equals the
    defining 2x2 matrix of the group element itself.
    """
    alpha = np.asarray(alpha, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    half_m = two_m_values(two_l) / 2.0
    ph_a = np.exp(-1j * alpha[..., None] * half_m)
    ph_c = np.exp(-1j * gamma[..., None] * half_m)
    return ph_a[..., :, None] * wigner_d(two_l, beta) * ph_c[..., None, :]


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
