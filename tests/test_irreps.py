"""Irreducible representations against independent oracles.

The SU(2) Wigner-d matrices are recomputed here with the classical
alternating factorial sum (a completely different algorithm from the Jacobi
recursion used by the library), characters are checked against closed forms,
and Schur orthogonality is verified by explicit Haar quadrature.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from pego import (
    DualSubset,
    basis_twist,
    character,
    cyclic,
    dihedral,
    enumerate_dual,
    enumerate_elements,
    haar_quadrature,
    identity,
    irrep_matrix,
    irrep_stack,
    multiply,
    parse_label,
    point,
    product,
    shell_subset,
    su2,
    torus,
    trivial_label,
)
from pego._wigner import two_m_values, wigner_d


def _wigner_d_factorial(two_l, beta):
    """Wigner small-d by the alternating factorial sum.

    d^l_{m'm}(beta) = sum_s (-1)^(m'-m+s) *
        sqrt((l+m')!(l-m')!(l+m)!(l-m)!) /
        ((l+m-s)! s! (m'-m+s)! (l-m'-s)!) *
        cos(beta/2)^(2l+m-m'-2s) * sin(beta/2)^(m'-m+2s)

    Everything is done in two_* integer arithmetic so half-integer spins are
    exact.  Slow and cancellation-prone, fine as an oracle at small spin.
    """
    ms = two_m_values(two_l)
    d = two_l + 1
    out = np.zeros((d, d))
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    f = math.factorial
    for i, two_mp in enumerate(ms):
        for j, two_m in enumerate(ms):
            lo = max(0, (two_m - two_mp) // 2)
            hi = min((two_l + two_m) // 2, (two_l - two_mp) // 2)
            pref = math.sqrt(
                f((two_l + two_mp) // 2)
                * f((two_l - two_mp) // 2)
                * f((two_l + two_m) // 2)
                * f((two_l - two_m) // 2)
            )
            tot = 0.0
            for k in range(lo, hi + 1):
                mp_minus_m = (two_mp - two_m) // 2
                den = (
                    f((two_l + two_m) // 2 - k)
                    * f(k)
                    * f(mp_minus_m + k)
                    * f((two_l - two_mp) // 2 - k)
                )
                tot += (
                    (-1.0) ** (mp_minus_m + k)
                    * c ** (two_l + (two_m - two_mp) // 2 - 2 * k)
                    * s ** (mp_minus_m + 2 * k)
                    / den
                )
            out[i, j] = pref * tot
    return out


@pytest.mark.parametrize("two_l", [0, 1, 2, 3, 4, 5, 7, 10])
def test_wigner_d_matches_factorial_sum(two_l):
    betas = np.array([0.0, 0.2, 0.5, 1.0, math.pi / 2, 2.0, 3.0, math.pi])
    got = wigner_d(two_l, betas)
    for b_idx, b in enumerate(betas):
        npt.assert_allclose(got[b_idx], _wigner_d_factorial(two_l, b), atol=1e-12)


def test_wigner_d_spin_half_closed_form():
    beta = 0.83
    expect = np.array(
        [
            [math.cos(beta / 2), -math.sin(beta / 2)],
            [math.sin(beta / 2), math.cos(beta / 2)],
        ]
    )
    npt.assert_allclose(wigner_d(1, np.array([beta]))[0], expect, atol=1e-14)


def test_wigner_d_spin_one_middle_entry_is_cos_beta():
    betas = np.linspace(0.0, math.pi, 11)
    mats = wigner_d(2, betas)
    npt.assert_allclose(mats[:, 1, 1], np.cos(betas), atol=1e-13)


def test_su2_character_closed_form():
    """chi_l(q) = sin((2l+1) t) / sin(t) for q = (cos t, sin t * axis)."""
    g = su2()
    rng = np.random.default_rng(7)
    for two_l in (1, 2, 3, 6):
        lab = parse_label(g, f"wigner:{two_l}")
        for _ in range(10):
            t = rng.uniform(0.1, math.pi - 0.1)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            q = point(g, (math.cos(t), *(math.sin(t) * axis)))
            expect = math.sin((two_l + 1) * t) / math.sin(t)
            assert abs(character(lab, q) - expect) < 1e-10


def _random_point(group, rng):
    fam = group.family
    if fam in ("cyclic", "dihedral"):
        elems = enumerate_elements(group)
        return elems[rng.integers(len(elems))]
    if fam == "torus":
        return point(group, tuple(rng.uniform(0, 2 * math.pi, size=group.n)))
    if fam == "su2":
        q = rng.normal(size=4)
        return point(group, tuple(q / np.linalg.norm(q)))
    return point(group, tuple(_random_point(f, rng) for f in group.factors))


HOMO_CASES = [
    (cyclic(8), None),
    (dihedral(3), None),
    (dihedral(4), None),
    (torus(2), 3),
    (su2(), 5),
    (product(cyclic(3), su2()), 3),
]


@pytest.mark.parametrize("group,cutoff", HOMO_CASES, ids=lambda x: str(x))
def test_irreps_are_unitary_homomorphisms(group, cutoff):
    rng = np.random.default_rng(2)
    labels = enumerate_dual(group, cutoff)
    for lab in labels:
        for _ in range(max(4, 120 // len(labels))):
            a = _random_point(group, rng)
            b = _random_point(group, rng)
            ma, mb = irrep_matrix(lab, a), irrep_matrix(lab, b)
            npt.assert_allclose(irrep_matrix(lab, multiply(a, b)), ma @ mb, atol=1e-12)
            npt.assert_allclose(ma @ ma.conj().T, np.eye(lab.dim), atol=1e-12)
        npt.assert_allclose(irrep_matrix(lab, identity(group)), np.eye(lab.dim), atol=1e-14)


def test_dim_squares_sum_to_group_order():
    for group in (cyclic(8), dihedral(3), dihedral(4), product(cyclic(2), dihedral(3))):
        labels = enumerate_dual(group, None)
        assert sum(lab.dim**2 for lab in labels) == group.order


def test_dihedral3_character_table():
    """Classes {e}, {rho, rho^2}, {reflections}; rows triv, sign, 2dim."""
    g = dihedral(3)
    reps = [point(g, (0, 0)), point(g, (1, 0)), point(g, (0, 1))]
    table = {
        "triv": [1, 1, 1],
        "dihedral:sign": [1, 1, -1],
        "dihedral:2dim-1": [2, -1, 0],
    }
    for lab in enumerate_dual(g, None):
        row = [character(lab, p) for p in reps]
        npt.assert_allclose(row, table[lab.name], atol=1e-12)
    # characters are constant on conjugacy classes
    lab2 = parse_label(g, "dihedral:2dim-1")
    assert abs(character(lab2, point(g, (2, 0))) - (-1)) < 1e-12
    for r in range(3):
        assert abs(character(lab2, point(g, (r, 1)))) < 1e-12


def test_schur_orthogonality_by_quadrature():
    """<pi_ij, sigma_kl>_Haar = delta_pi,sigma delta_ik delta_jl / dim."""
    for group, cutoff, res in [(dihedral(3), None, 1), (su2(), 2, 3)]:
        rule = haar_quadrature(group, res)
        labels = enumerate_dual(group, cutoff)
        for la in labels:
            sa = irrep_stack(la, rule)
            for lb in labels:
                sb = irrep_stack(lb, rule)
                gram = np.einsum("t,tij,tkl->ijkl", rule.weights, sa, sb.conj())
                if la == lb:
                    expect = np.einsum(
                        "ik,jl->ijkl", np.eye(la.dim), np.eye(la.dim)
                    ) / la.dim
                else:
                    expect = np.zeros((la.dim, la.dim, lb.dim, lb.dim))
                npt.assert_allclose(gram, expect, atol=1e-12)


def test_enumerate_dual_examples():
    assert [lab.name for lab in enumerate_dual(dihedral(3), None)] == [
        "triv",
        "dihedral:sign",
        "dihedral:2dim-1",
    ]
    assert len(enumerate_dual(cyclic(8), None)) == 8
    assert len(enumerate_dual(torus(1), 3)) == 7
    assert len(enumerate_dual(torus(2), 2)) == 25
    su2_labels = enumerate_dual(su2(), 4)
    assert [lab.dim for lab in su2_labels] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        enumerate_dual(torus(1), None)


def test_shells_and_trivial_label():
    assert trivial_label(dihedral(4)).shell == 0
    assert parse_label(cyclic(8), "chi:7").shell == 1  # min(k, n-k)
    assert parse_label(torus(2), "torus:[3,-4]").shell == 4
    assert parse_label(su2(), "wigner:5").shell == 5
    sub = shell_subset(torus(1), 2, cutoff=5)
    assert sub.names == ["triv", "torus:[-1]", "torus:[1]", "torus:[-2]", "torus:[2]"]


def test_parse_label_round_trips():
    cases = [
        (cyclic(8), ["triv", "chi:3"]),
        (dihedral(4), ["dihedral:alt", "dihedral:2dim-1"]),
        (torus(2), ["torus:[1,-2]"]),
        (su2(), ["wigner:3"]),
        (product(cyclic(2), su2()), ["prod(chi:1,wigner:2)"]),
    ]
    for group, names in cases:
        for name in names:
            lab = parse_label(group, name)
            assert lab.name == name
            assert parse_label(group, lab.name) == lab
    with pytest.raises(ValueError):
        parse_label(cyclic(4), "wigner:2")


def test_dual_subset_order_and_complement():
    g = torus(1)
    labs = enumerate_dual(g, 3)
    sub = DualSubset.from_labels(g, [labs[4], labs[1], labs[4]])
    assert len(sub) == 2  # duplicates dropped
    comp = sub.complement_within(DualSubset.from_labels(g, labs))
    assert len(comp) == 5
    assert all(lab not in sub for lab in comp)


def test_basis_twist_changes_entries_but_not_traces():
    from pego.irreps import irrep_matrices

    g = su2()
    lab = parse_label(g, "wigner:2")
    q = point(g, tuple(np.array([0.2, 0.4, -0.5, 0.3]) / math.sqrt(0.54)))
    plain = irrep_matrix(lab, q)
    rule = haar_quadrature(g, 2)
    plain_stack = irrep_stack(lab, rule)
    with basis_twist(g, cutoff=3, seed=1):
        twisted = irrep_matrix(lab, q)
        # still a unitary homomorphism with the same trace
        npt.assert_allclose(twisted @ twisted.conj().T, np.eye(3), atol=1e-12)
        assert abs(np.trace(twisted) - np.trace(plain)) < 1e-12
        assert np.abs(twisted - plain).max() > 1e-3
        npt.assert_allclose(
            irrep_stack(lab, rule), irrep_matrices(lab, rule.nodes), atol=1e-14
        )
    npt.assert_allclose(irrep_matrix(lab, q), plain, atol=0)
    # the untwisted stack stored on the rule outlives the twist untouched
    assert irrep_stack(lab, rule) is plain_stack


def test_basis_twist_does_not_nest():
    g = cyclic(4)
    with basis_twist(g, seed=0):
        with pytest.raises(RuntimeError):
            with basis_twist(g, seed=1):
                pass


def test_hand_built_rule_gets_its_own_stack_and_identity():
    """A rule built directly with the canonical group and resolution but
    shifted nodes must not reuse the canonical rule's cached stack, nor pass
    as the same rule in function arithmetic."""
    from pego import GroupMismatchError, QuadratureRule, SampledFunction
    from pego.irreps import irrep_matrices

    g = torus(1)
    canon = haar_quadrature(g, 8)
    shifted = QuadratureRule(
        g,
        [point(g, (p.coords[0] + 0.2,)) for p in canon.nodes],
        canon.weights,
        canon.exactness_degree,
        canon.resolution,
    )
    lab = parse_label(g, "torus:[1]")
    irrep_stack(lab, canon)  # warm the cache on the canonical rule
    npt.assert_allclose(
        irrep_stack(lab, shifted), irrep_matrices(lab, shifted.nodes), atol=1e-14
    )
    assert canon.rule_id == "torus:1|res8"
    assert shifted.rule_id != canon.rule_id
    ones = np.ones(len(canon))
    with pytest.raises(GroupMismatchError):
        SampledFunction(canon, ones) + SampledFunction(shifted, ones)


def test_haar_quadrature_returns_one_rule_per_group_and_resolution():
    g = cyclic(6)
    rule = haar_quadrature(g)
    assert haar_quadrature(g, 1) is rule
    assert haar_quadrature(g, resolution=1) is rule
    assert haar_quadrature(cyclic(6), 1) is rule
    assert haar_quadrature(g, 2) is not rule
    prod_rule = haar_quadrature(product(torus(1), su2()), 2)
    assert prod_rule.meta["factor_rules"][1] is haar_quadrature(su2(), 2)


def test_forward_pass_reuses_every_stack_of_a_289_label_dual(monkeypatch):
    """torus:2 at cutoff 8 has 289 labels; a second transform must find every
    stack the first one built, however many labels the dual has."""
    from pego import constant_function, forward_to_cutoff, irreps

    passes = []

    def recording_stack(lab, rule):
        passes[-1][lab] = irrep_stack(lab, rule)
        return passes[-1][lab]

    monkeypatch.setattr(irreps, "irrep_stack", recording_stack)
    f = constant_function(haar_quadrature(torus(2), 17))
    for _ in range(2):
        passes.append({})
        forward_to_cutoff(f, 8)
    first, second = passes
    assert len(first) == 289 and first.keys() == second.keys()
    assert all(second[lab] is first[lab] for lab in first)
