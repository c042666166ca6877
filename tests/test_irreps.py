"""Irreducible representations against independent oracles.

The SU(2) Wigner-d matrices are recomputed here with the classical
alternating factorial sum (a completely different algorithm from the
diagonalization of J_y used by the library), checked at high spin against
unitarity, the group law and Gauss-Legendre Schur sums, characters are
checked against closed forms, and Schur orthogonality is verified by explicit
Haar quadrature.
"""

import contextlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from pego import (
    DualSubset,
    basis_twist,
    character,
    coords_of,
    cyclic,
    dihedral,
    enumerate_dual,
    enumerate_elements,
    evaluate_at,
    forward_to_cutoff,
    haar_quadrature,
    identity,
    irrep_matrix,
    irrep_stack,
    multiply,
    parse_label,
    point,
    product,
    random_band_limited_function,
    shell_subset,
    su2,
    torus,
    trivial_label,
)
from pego._wigner import two_m_values, wigner_D, wigner_d


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


@pytest.mark.parametrize("two_l", [0, 1, 2, 3, 4, 5, 7, 10, 16, 24])
def test_wigner_d_matches_factorial_sum(two_l):
    """Distinct betas, and a 2-D array repeating some of them (as the nodes of
    Euler and product rules do), whose equal betas get the same bits; both
    results are contiguous real arrays."""
    betas = np.array([0.0, 0.2, 0.5, 1.0, math.pi / 2, 2.0, 3.0, math.pi])
    got = wigner_d(two_l, betas)
    for b_idx, b in enumerate(betas):
        npt.assert_allclose(got[b_idx], _wigner_d_factorial(two_l, b), atol=1e-12)
    pick = np.array([[3, 0, 3, 7], [7, 0, 3, 5]])
    repeated = wigner_d(two_l, betas[pick])
    assert repeated.shape == pick.shape + got.shape[1:]
    assert got.flags.c_contiguous and repeated.flags.c_contiguous  # not views of a complex array
    for idx in np.ndindex(pick.shape):
        npt.assert_allclose(repeated[idx], _wigner_d_factorial(two_l, betas[pick[idx]]), atol=1e-12)
        assert np.array_equal(repeated[idx], got[pick[idx]])


@pytest.mark.parametrize("two_l", [64, 128])
def test_wigner_d_high_spin_identities(two_l):
    """Unitarity, d(a) d(b) = d(a + b), d(-b) = d(b)^T, and the diagonal Schur
    relation sum_b w_b d_mn(beta_b)^2 = 2 / (2l + 1) on Gauss-Legendre nodes
    in cos(beta), exact here since d_mn^2 is a polynomial of degree 2l."""
    d = two_l + 1
    a, b = 0.7, 1.9
    da, db, dab = wigner_d(two_l, np.array([a, b, a + b]))
    npt.assert_allclose(db @ db.T, np.eye(d), atol=1e-12)
    npt.assert_allclose(da @ db, dab, atol=1e-12)
    npt.assert_allclose(wigner_d(two_l, -b), db.T, atol=1e-12)
    x, w = np.polynomial.legendre.leggauss(two_l // 2 + 1)
    schur = np.einsum("b,bmn->mn", w, wigner_d(two_l, np.arccos(x)) ** 2)
    npt.assert_allclose(schur, np.full((d, d), 2.0 / d), atol=1e-12)


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


@pytest.mark.parametrize("two_ls", [tuple(range(17)), (1, 4, 7)], ids=["0-16", "1-4-7"])
def test_wigner_D_takes_every_spin_and_element_in_one_call(two_ls):
    """One call for many spins equals one call per spin, and one call for a
    batch of elements equals one call per element, bit for bit.  The batch
    holds the beta = 0 and beta = pi fibers and repeated betas; each matrix
    is e^{-i m' alpha} d(beta) e^{-i m gamma} with d the factorial sum."""
    rng = np.random.default_rng(11)
    alpha, gamma = rng.uniform(-math.pi, math.pi, (2, 12))
    beta = np.concatenate([rng.uniform(0.0, math.pi, 4), [0.0, math.pi]])
    beta = np.concatenate([beta, beta[::-1]])
    whole = wigner_D(two_ls, alpha, beta, gamma)
    assert [m.shape for m in whole] == [(12, t + 1, t + 1) for t in two_ls]
    for two_l, mats in zip(two_ls, whole):
        assert np.array_equal(mats, wigner_D([two_l], alpha, beta, gamma)[0])
    for k in range(len(beta)):
        one = wigner_D(two_ls, alpha[k : k + 1], beta[k : k + 1], gamma[k : k + 1])
        assert all(np.array_equal(mats[k], o[0]) for mats, o in zip(whole, one))
    for two_l, mats in zip(two_ls, whole):
        half_m = two_m_values(two_l) / 2.0
        for k in (0, 4, 5):
            want = (np.exp(-1j * alpha[k] * half_m)[:, None] * _wigner_d_factorial(two_l, beta[k])
                    * np.exp(-1j * gamma[k] * half_m))
            npt.assert_allclose(mats[k], want, atol=1e-12)


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


@pytest.mark.parametrize(
    "group,cutoff",
    [(cyclic(5), None), (dihedral(4), None), (torus(1), 2), (su2(), 3),
     (product(torus(1), cyclic(2)), 2)],
    ids=lambda x: str(x),
)
def test_empty_point_list_gives_empty_stacks(group, cutoff):
    from pego.irreps import irrep_matrices

    for lab in enumerate_dual(group, cutoff):
        mats = irrep_matrices(lab, [])
        assert mats.shape == (0, lab.dim, lab.dim) and mats.dtype == complex
    rule = haar_quadrature(group, 3)
    coeffs = forward_to_cutoff(random_band_limited_function(rule, 1, seed=0))
    assert evaluate_at(coeffs, []).shape == (0,)


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
    # once the twist exits, stacks are the untwisted ones again, bit for bit
    npt.assert_array_equal(irrep_stack(lab, rule), plain_stack)


def test_basis_twist_does_not_nest():
    g = cyclic(4)
    with basis_twist(g, seed=0):
        with pytest.raises(RuntimeError):
            with basis_twist(g, seed=1):
                pass


def test_hand_built_rule_gets_its_own_stack_and_identity():
    """A rule built directly with the canonical group and resolution but
    shifted nodes must get the matrices at its own nodes, not the canonical
    rule's, and must not pass as the same rule in function arithmetic."""
    from pego import GroupMismatchError, QuadratureRule, SampledFunction
    from pego.irreps import irrep_matrices

    g = torus(1)
    canon = haar_quadrature(g, 8)
    shifted = QuadratureRule(
        g,
        coords_of(g, [point(g, (p.coords[0] + 0.2,)) for p in canon.nodes]),
        canon.weights,
        canon.exactness_degree,
        canon.resolution,
    )
    lab = parse_label(g, "torus:[1]")
    npt.assert_allclose(
        irrep_stack(lab, shifted), irrep_matrices(lab, shifted.nodes), atol=1e-14
    )
    assert np.abs(irrep_stack(lab, shifted) - irrep_stack(lab, canon)).max() > 0.1
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


@pytest.mark.parametrize("two_l", [10, 16])
def test_su2_euler_stack_is_written_once_in_node_order(two_l):
    """The stack equals the broadcast product of the phases and d-matrices
    bit for bit, and is built without a second copy of itself: the product
    is written C-ordered, so the reshape to (n, d, d) copies nothing."""
    import tracemalloc

    from pego.irreps import _euler_stack, euler_grid_d, euler_phases

    rule = haar_quadrature(su2(), 5)
    label = next(lab for lab in enumerate_dual(su2(), two_l) if lab.index[0] == two_l)
    ph_a, ph_c = euler_phases(rule, two_l)
    cols = two_l + two_m_values(two_l)
    want = (ph_a[:, cols].conj()[:, None, None, :, None] * euler_grid_d(label, rule)[None, :, None]
            * ph_c[:, cols].conj()[None, None, :, None, :]).reshape(len(rule), label.dim, label.dim)
    tracemalloc.start()
    try:
        stack = _euler_stack(label, rule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(stack, want)
    assert stack.flags.c_contiguous
    assert peak < 1.5 * stack.nbytes


def test_su2_euler_stacks_take_one_d_matrix_per_grid_beta(monkeypatch):
    """On an su2 Euler rule a stack is built from the d-matrices at the grid's
    distinct betas and the alpha/gamma phases, not from wigner_d at every
    node, and equals the matrices evaluated node by node, plain and twisted."""
    from pego import QuadratureRule, _wigner
    from pego.irreps import euler_phases, irrep_matrices

    canon = haar_quadrature(su2(), 8)
    rule = QuadratureRule(canon.group, coords_of(canon.group, canon.nodes), canon.weights,
                          canon.exactness_degree, canon.resolution,
                          {k: v for k, v in canon.meta.items() if not k.startswith("_")})
    n_beta = len(rule.meta["betas"])
    labels = enumerate_dual(su2(), 8)
    betas = {}
    real_d = _wigner.wigner_d

    def counting_d(two_l, beta):
        betas[two_l] = betas.get(two_l, 0) + np.size(beta)
        return real_d(two_l, beta)

    monkeypatch.setattr(_wigner, "wigner_d", counting_d)
    stacks = {lab: irrep_stack(lab, rule) for lab in labels}
    assert all(betas.get(lab.index[0], 0) <= n_beta for lab in labels)
    monkeypatch.setattr(_wigner, "wigner_d", real_d)
    # one phase pair, for the largest spin; smaller tops are its centered columns
    kept = rule.meta["_euler_phases"]
    small = euler_phases(rule, 3)
    assert rule.meta["_euler_phases"] is kept
    for ph, whole, axis in zip(small, kept, ("alphas", "gammas")):
        assert whole.shape == (len(rule.meta[axis]), 17)
        assert np.shares_memory(ph, whole)
        want = np.exp(1j * np.outer(rule.meta[axis], np.arange(-3, 4) / 2.0))
        npt.assert_array_equal(ph, want)
    for lab in labels:
        npt.assert_allclose(stacks[lab], irrep_matrices(lab, rule.nodes), rtol=0, atol=1e-13)
    with basis_twist(su2(), 8, seed=4):
        for lab in labels:
            npt.assert_allclose(irrep_stack(lab, rule), irrep_matrices(lab, rule.nodes),
                                rtol=0, atol=1e-13)


@pytest.mark.parametrize("group,res", [(product(torus(1), su2()), 5), (product(su2(), cyclic(3)), 3)],
                         ids=str)
def test_product_stacks_come_from_their_factor_rules(group, res, monkeypatch):
    """A product stack is the Kronecker product of its factors' stacks on the
    factor rules: it equals the matrices node by node, plain and twisted, and
    no D-matrix is evaluated on more rows than the su2 factor rule has."""
    from pego import _wigner
    from pego.irreps import irrep_matrices

    rule = haar_quadrature(group, res)
    n_su2 = len(haar_quadrature(su2(), res))
    labels = enumerate_dual(group, 2)
    rows = []
    real_D = _wigner.wigner_D

    def counting_D(two_ls, alpha, beta, gamma):
        rows.append(np.size(beta))
        return real_D(two_ls, alpha, beta, gamma)

    for twist in (contextlib.nullcontext(), basis_twist(group, 2, seed=3)):
        with twist:
            monkeypatch.setattr(_wigner, "wigner_D", counting_D)
            stacks = [irrep_stack(lab, rule) for lab in labels]
            monkeypatch.setattr(_wigner, "wigner_D", real_D)
            for lab, stack in zip(labels, stacks):
                npt.assert_allclose(stack, irrep_matrices(lab, rule.nodes), rtol=0, atol=1e-14)
    assert all(r <= n_su2 for r in rows)
