"""Schatten, summed-dual and quadrature norms against hand values.

Includes the two Hausdorff-Young directions (theorems for band-limited
functions, so any violation beyond slack is a bug) and property-based
checks of the norm axioms on random matrices.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pego import (
    ExponentPair,
    cyclic,
    dihedral,
    forward_to_cutoff,
    haar_quadrature,
    hausdorff_young_check,
    lp_function_norm,
    lp_oplus_norm,
    matrix_entry_function,
    parse_label,
    plancherel_residual,
    random_band_limited_function,
    sample,
    schatten_norm,
    shell_subset,
    su2,
    torus,
)
from pego.irreps import DualSubset, enumerate_dual
from pego.norms import beyond_cutoff_mass

INF = math.inf


def test_schatten_hand_values():
    m = np.diag([3.0, 4.0])
    assert abs(schatten_norm(m, 1) - 7.0) < 1e-13
    assert abs(schatten_norm(m, 2) - 5.0) < 1e-13
    assert abs(schatten_norm(m, INF) - 4.0) < 1e-13
    # rank-one non-normal matrix: single singular value 5
    r = np.array([[0.0, 3.0], [0.0, 4.0]])
    for p in (1, 2, 3, INF):
        assert abs(schatten_norm(r, p) - 5.0) < 1e-13
    assert schatten_norm(np.zeros((3, 3)), 1) == 0.0


def test_schatten_unitary_invariance():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for p in (1, 1.5, 2, 4, INF):
        assert abs(schatten_norm(q @ a, p) - schatten_norm(a, p)) < 1e-10
        assert abs(schatten_norm(a @ q, p) - schatten_norm(a, p)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 10_000),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]),
)
def test_schatten_triangle_inequality(dim, seed, p):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert schatten_norm(a + b, p) <= schatten_norm(a, p) + schatten_norm(b, p) + 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_schatten_is_nonincreasing_in_p(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ps = [1.0, 1.25, 1.5, 2.0, 3.0, INF]
    vals = [schatten_norm(a, p) for p in ps]
    for lo, hi in zip(vals, vals[1:]):
        assert hi <= lo + 1e-12


def test_lp_oplus_single_entry_example():
    """f = pi_11 of the spin-1/2 irrep: fhat = E_11/2, d = 2."""
    rule = haar_quadrature(su2(), 3)
    lab = parse_label(su2(), "wigner:1")
    f = matrix_entry_function(lab, 1, 1, rule)
    fc = forward_to_cutoff(f, 3)
    # (d * (1/2)^p)^(1/p) with d = 2
    assert abs(lp_oplus_norm(fc, 2).value - 1.0 / math.sqrt(2)) < 1e-12
    assert abs(lp_oplus_norm(fc, 1).value - 1.0) < 1e-12
    assert abs(lp_oplus_norm(fc, INF).value - 0.5) < 1e-12


def test_lp_oplus_subset_and_truncation_flags():
    rule = haar_quadrature(torus(1), 17)
    f = random_band_limited_function(rule, 3, seed=0)
    fc = forward_to_cutoff(f, 8)
    full = lp_oplus_norm(fc, 2)
    assert full.truncated  # defaulted coverage of an infinite dual
    sub = shell_subset(torus(1), 3, cutoff=8)
    part = lp_oplus_norm(fc, 2, subset=sub)
    assert not part.truncated
    assert abs(part.value - full.value) < 1e-12  # f is band-limited to 3
    # finite dual, defaulted coverage: not truncated
    rule3 = haar_quadrature(dihedral(3))
    fc3 = forward_to_cutoff(random_band_limited_function(rule3, 3, seed=1))
    assert not lp_oplus_norm(fc3, 2).truncated


def test_lp_function_norm_examples():
    rule = haar_quadrature(torus(1), 16)
    f = sample(rule, lambda p: np.exp(2j * p.coords[0]))
    for p in (1, 1.5, 2, INF):
        assert abs(lp_function_norm(f, p) - 1.0) < 1e-12
    # indicator of the half circle under the uniform grid measure
    ind = sample(rule, lambda p: 1.0 if p.coords[0] < math.pi - 1e-9 else 0.0)
    assert abs(lp_function_norm(ind, 1) - 0.5) < 1e-12
    assert abs(lp_function_norm(ind, 2) - math.sqrt(0.5)) < 1e-12
    assert lp_function_norm(ind, INF) == 1.0


def test_lp_function_norm_rejects_bad_exponent():
    rule = haar_quadrature(cyclic(4))
    f = sample(rule, lambda p: 1.0)
    with pytest.raises(ValueError):
        lp_function_norm(f, 0.5)
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 0.9)


def test_plancherel_residual_pure_high_frequency():
    """e^(i 5 theta) has unit mass entirely outside shells <= 3."""
    rule = haar_quadrature(torus(1), 17)
    f = sample(rule, lambda p: np.exp(5j * p.coords[0]))
    fc = forward_to_cutoff(f, 8)
    sub = shell_subset(torus(1), 3, cutoff=8)
    assert abs(plancherel_residual(f, fc, sub) - 1.0) < 1e-12


def test_plancherel_residual_decomposition():
    """head + residual^2 = total mass, for any subset split."""
    rule = haar_quadrature(su2(), 4)
    f = random_band_limited_function(rule, 4, seed=5, norm=2.0)
    fc = forward_to_cutoff(f, 4)
    mass = lp_function_norm(f, 2) ** 2
    for shell in (0, 1, 2, 3):
        sub = shell_subset(su2(), shell, cutoff=4)
        res = plancherel_residual(f, fc, sub)
        assert abs(fc.head_mass(sub) + res**2 - mass) < 1e-10


def test_plancherel_residual_monotone_in_subset():
    rule = haar_quadrature(torus(1), 33)
    f = random_band_limited_function(rule, 6, seed=9)
    fc = forward_to_cutoff(f, 16)
    vals = [
        plancherel_residual(f, fc, shell_subset(torus(1), s, cutoff=16))
        for s in range(7)
    ]
    for lo, hi in zip(vals, vals[1:]):
        assert hi <= lo + 1e-12
    assert vals[-1] < 3e-8  # full band captured; the roundoff floor zeroes it


def test_beyond_cutoff_mass_floors_roundoff():
    """At full coverage the roundoff floor makes both the residual and the
    mass beyond the cutoff exactly 0."""
    rule = haar_quadrature(dihedral(3))
    f = random_band_limited_function(rule, 3, seed=2)
    fc = forward_to_cutoff(f)
    full = DualSubset.from_labels(dihedral(3), enumerate_dual(dihedral(3), None))
    assert plancherel_residual(f, fc, full) < 3e-8
    assert beyond_cutoff_mass(f, fc) == 0.0
    # genuine out-of-coverage mass is not floored away
    rule_t = haar_quadrature(torus(1), 33)
    g = sample(rule_t, lambda p: np.exp(9j * p.coords[0]))
    gc = forward_to_cutoff(g, 4)
    assert abs(beyond_cutoff_mass(g, gc) - 1.0) < 1e-10


HY_CASES = [
    (cyclic(8), 1, None, 3),
    (dihedral(4), 1, None, 3),
    (torus(1), 17, 8, 4),
    (su2(), 4, 4, 2),
]


@pytest.mark.parametrize("group,res,cutoff,band", HY_CASES, ids=lambda x: str(x))
@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0])
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_hausdorff_young_holds(group, res, cutoff, band, p, direction):
    rule = haar_quadrature(group, res)
    for seed in range(5):
        f = random_band_limited_function(rule, band, seed=seed, norm=1.7)
        chk = hausdorff_young_check(f, p, direction=direction, cutoff=cutoff)
        assert chk.satisfied, (group.name, p, direction, chk.lhs - chk.rhs)
        assert chk.lhs <= chk.rhs + 1e-10
        if p == 2.0:
            # both directions collapse to the Plancherel identity at p = 2
            assert abs(chk.lhs - chk.rhs) < 1e-10


def test_hausdorff_young_fields_and_validation():
    rule = haar_quadrature(torus(1), 17)
    f = random_band_limited_function(rule, 2, seed=0)
    chk = hausdorff_young_check(f, 1.0, direction="forward", cutoff=8)
    assert chk.direction == "forward"
    assert chk.p == 1.0 and chk.p_conj == INF
    assert chk.truncated  # infinite dual, coverage cannot be exhaustive
    with pytest.raises(ValueError):
        hausdorff_young_check(f, 3.0)
    with pytest.raises(ValueError):
        hausdorff_young_check(f, 1.5, direction="sideways")
    with pytest.raises(ValueError):
        ExponentPair.of(0.5)


def test_exponent_pair_conjugates():
    assert ExponentPair.of(1.0).p_conj == INF
    assert abs(ExponentPair.of(4.0 / 3.0).p_conj - 4.0) < 1e-12
    assert ExponentPair.of(2.0).p_conj == 2.0


def test_plancherel_residual_takes_the_label_masses_once(monkeypatch):
    """One residual reads the coverage's label masses once, for the tail and
    for the mass beyond the coverage, and its value is the summed tail with
    ``beyond_cutoff_mass`` bit for bit."""
    from pego.fourier import FourierCoefficients
    from pego.norms import _summed_tails

    rule = haar_quadrature(su2(), 4)
    f = random_band_limited_function(rule, 4, seed=5)
    fc = forward_to_cutoff(f, 2)  # mass beyond the coverage too
    sub = shell_subset(su2(), 1, cutoff=2)
    outside = np.array([lab not in sub for lab in fc.labels])
    want = float(_summed_tails(fc.label_masses(), outside, beyond_cutoff_mass(f, fc)))
    assert beyond_cutoff_mass(f, fc) > 0
    calls = []
    real = FourierCoefficients.label_masses

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FourierCoefficients, "label_masses", counting)
    assert plancherel_residual(f, fc, sub) == want
    assert calls == [fc]
