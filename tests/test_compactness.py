"""Precompactness diagnostics against closed forms.

Single-character families on the circle make every quantity computable by
hand: spectral tails are 0/1 indicators, the continuity modulus is
2 sin(delta/2), and both bound checks can be driven to exact equality.
"""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from pego import (
    CoherenceError,
    DualFiltration,
    FamilySpec,
    GroupMismatchError,
    NeighborhoodSpec,
    NotPrecompactError,
    boundedness,
    builtin_family,
    cyclic,
    dihedral,
    epsilon_net,
    equicontinuity_profile,
    evaluate_at,
    forward,
    forward_batch,
    haar_quadrature,
    lemma31_bound_check,
    lemma32_bound_check,
    lp_function_norm,
    lp_oplus_norm,
    multiply,
    parse_label,
    pego_verdict,
    point,
    product,
    random_band_limited_function,
    sample,
    shell_subset,
    su2,
    tail_decay_profile,
    torus,
    translate,
)
from pego.compactness import (
    _embed_coefficients,
    _escape_certificate,
    _spectral_moduli,
    _spectrum,
    _translation_moduli,
    default_mesh,
)
from pego.groups import _ball_pool, _rows
from pego.irreps import enumerate_dual


def _one_member_family(f, name="single"):
    return FamilySpec([f], name=name)


def test_decay_profile_single_character():
    """e^(i 2 theta): tail is exactly 1 until the shell reaches 2, then 0."""
    rule = haar_quadrature(torus(1), 17)
    f = sample(rule, lambda p: np.exp(2j * p.coords[0]))
    prof = tail_decay_profile(_one_member_family(f))
    shells = [max(lab.shell for lab in s.subset) for s in prof.steps]
    for shell, tail in zip(shells, prof.sup_tails):
        if shell < 2:
            assert abs(tail - 1.0) < 1e-12
        else:
            assert tail < 3e-8  # sqrt of cancellation noise
    assert prof.witness_index(0.5) == shells.index(2)


def test_decay_profile_witness_and_member_indices():
    rule = haar_quadrature(torus(1), 17)
    fam = FamilySpec(
        [sample(rule, lambda p, k=k: np.exp(1j * k * p.coords[0])) for k in (1, 3)],
        name="two_chars",
    )
    prof = tail_decay_profile(fam)
    assert prof.member_witness_indices(0.5) == [1, 3]
    assert prof.witness_index(0.5) == 3
    assert prof.witness_index(1e-12) is None or prof.sup_tails[-1] < 1e-12


def test_decay_profile_at_p1_sums_moduli_over_the_computed_dual():
    """For f = 2 e^(i theta) - 0.5 e^(-3i theta), the l^1 tail outside a
    shell step is 2 while shell 1 is outside it, plus 0.5 while shell 3 is,
    and the profile is marked truncated on the circle."""
    rule = haar_quadrature(torus(1), 17)
    f = sample(rule, lambda p: 2.0 * np.exp(1j * p.coords[0]) - 0.5 * np.exp(-3j * p.coords[0]))
    prof = tail_decay_profile(_one_member_family(f), p=1.0)
    assert prof.p == 1.0 and prof.truncated
    shells = [max(lab.shell for lab in s.subset) for s in prof.steps]
    assert shells == list(range(9))
    want = [2.0 * (s < 1) + 0.5 * (s < 3) for s in shells]
    npt.assert_allclose(prof.sup_tails, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "group,res,band",
    [(torus(2), 9, 4), (dihedral(9), 1, 4), (su2(), 4, 3), (product(torus(1), su2()), 4, 2)],
    ids=lambda x: str(x),
)
def test_decay_profile_at_p15_matches_each_members_own_transform(group, res, band):
    """A p = 1.5 profile of several members: each member's tail outside
    each step is ``lp_oplus_norm`` of that member's own ``forward`` against
    the top step, over the rest of it, to the roundoff by which a batched
    GEMM differs from a single one."""
    rule = haar_quadrature(group, res)
    fam = FamilySpec(
        [random_band_limited_function(rule, band, seed=s) for s in range(4)], name="rand4")
    prof = tail_decay_profile(fam, p=1.5)
    top = prof.steps[-1].subset.labels
    alone = [forward(f, top) for f in fam.members]
    assert prof.p == 1.5 and prof.truncated == (not group.is_finite)
    for step in prof.steps:
        comp = step.subset.complement_within(top)
        want = [lp_oplus_norm(c, 1.5, comp).value for c in alone]
        npt.assert_allclose(step.per_member, want, rtol=1e-13, atol=1e-15)
        assert step.sup_tail == max(step.per_member)


def test_equicontinuity_modulus_single_character_closed_form():
    """omega(delta) = |e^(i delta) - 1| = 2 sin(delta/2) for f = e^(i theta).

    R_y f - f = (e^(i y) - 1) f has constant modulus, so the L^1 modulus
    (translated samples) equals the L^2 one (spectral).  The mesh radii
    divide each other so the pooled one-dimensional ball samples land
    exactly on the smaller radii endpoints.
    """
    rule = haar_quadrature(torus(1), 17)
    f = sample(rule, lambda p: np.exp(1j * p.coords[0]))
    fam = _one_member_family(f)
    mesh = np.array([1.0, 0.5, 0.25])
    for p, path in ((1.0, "direct"), (2.0, "spectral")):
        prof = equicontinuity_profile(fam, mesh=mesh, ball_samples=9, p=p)
        expect = 2.0 * np.sin(mesh / 2.0)
        npt.assert_allclose(prof.omegas, expect, atol=1e-10)
        assert prof.path == path
    assert abs(prof.witness_delta(2.0 * math.sin(0.25) + 1e-9) - 0.5) < 1e-12


def test_equicontinuity_omegas_nonincreasing():
    rule = haar_quadrature(su2(), 4)
    fam = FamilySpec(
        [random_band_limited_function(rule, 3, seed=s, norm=1.0) for s in range(4)],
        name="rand4",
    )
    prof = equicontinuity_profile(fam, ball_samples=6, seed=3)
    om = prof.omegas
    assert np.all(np.diff(om) <= 1e-12)
    assert prof.per_member.shape == (4, len(prof.deltas))


def test_equicontinuity_mesh_validation():
    rule = haar_quadrature(cyclic(4))
    fam = _one_member_family(sample(rule, lambda p: 1.0))
    with pytest.raises(ValueError):
        equicontinuity_profile(fam, mesh=[0.5, 1.0])
    with pytest.raises(ValueError):
        equicontinuity_profile(fam, mesh=[1.0, -0.5])


@pytest.mark.parametrize(
    "group,res,band",
    [(torus(1), 17, 3), (su2(), 4, 2), (product(torus(1), su2()), 4, 1)],
    ids=lambda x: str(x),
)
def test_equicontinuity_direct_matches_spectral_at_p2(group, res, band):
    """The coefficient-side action (pi(y) - I) coeff(pi) matches translating
    the samples at every pooled point, also where irreps are matrices
    (d > 1)."""
    rule = haar_quadrature(group, res)
    fam = FamilySpec(
        [random_band_limited_function(rule, band, seed=s) for s in range(3)],
        name="rand3",
    )
    pool, _ = _ball_pool(group, np.array([0.8, 0.3, 0.1]), 7, seed=1)
    spectrum = _spectrum(fam)
    spec = _spectral_moduli(spectrum, pool)
    direct = np.stack([_translation_moduli(f, pool, [2.0], spectrum.table, blocks)[0]
                       for f, blocks in zip(fam.members, zip(*spectrum.blocks))])
    assert spec.shape == (3, _rows(pool))
    npt.assert_allclose(spec, direct, atol=1e-9)


def test_profiles_invariant_under_member_translation():
    """Translating members cannot change either profile on a finite group
    (balls are sampled exhaustively and conjugation permutes them)."""
    rule = haar_quadrature(dihedral(4))
    f = random_band_limited_function(rule, 3, seed=8)
    g = point(dihedral(4), (3, 1))
    fam_a = _one_member_family(f)
    fam_b = _one_member_family(translate(f, g))
    npt.assert_allclose(
        tail_decay_profile(fam_a).sup_tails,
        tail_decay_profile(fam_b).sup_tails,
        atol=1e-12,
    )
    pa = equicontinuity_profile(fam_a)
    pb = equicontinuity_profile(fam_b)
    npt.assert_allclose(pa.omegas, pb.omegas, atol=1e-10)


def test_boundedness_trend_flags():
    rule = haar_quadrature(cyclic(6))
    growing = builtin_family("growing_constants", rule)
    rep = boundedness(growing)
    assert not rep.bounded
    assert rep.trend == "increasing"
    assert rep.sup_norm == pytest.approx(len(growing))
    scaled = builtin_family("scaled_constants", rule)
    rep2 = boundedness(scaled)
    assert rep2.bounded and rep2.trend is None
    # same norms over a compact parameter box: an honest sampled bound
    compact = FamilySpec(list(growing.members), name="box", param_space="compact")
    assert boundedness(compact).bounded


def test_default_mesh_shapes():
    assert list(default_mesh(dihedral(3))) == [1.5, 0.5]
    mesh = default_mesh(su2())
    assert len(mesh) == 13 and mesh[0] == 1.0 and np.all(np.diff(mesh) < 0)


def test_filtration_validation_and_shells():
    with pytest.raises(ValueError):
        DualFiltration(())
    labs = enumerate_dual(dihedral(4), None)
    full = shell_subset(dihedral(4), 3)
    with pytest.raises(ValueError):
        DualFiltration((full,))  # does not start at the trivial irrep
    filt = DualFiltration.shells(dihedral(4))
    assert [len(s) for s in filt] == [1, 2, 4, 5]
    assert filt.top.names == [lab.name for lab in labs]


def test_lemma31_bound_holds_on_sampled_pairs():
    cases = [
        (haar_quadrature(dihedral(3)), None, 1.5),
        (haar_quadrature(torus(1), 17), 8, 0.7),
        (haar_quadrature(su2(), 4), 4, 1.1),
    ]
    for rule, cutoff, radius in cases:
        for p in (1.0, 2.0):
            for seed in range(3):
                band = 2 if cutoff is None else min(2, cutoff)
                f = random_band_limited_function(rule, band, seed=seed, norm=1.2)
                chk = lemma31_bound_check(f, radius, p, cutoff=cutoff)
                assert chk.satisfied, (rule.rule_id, p, seed, chk.tail - chk.rhs)
                assert chk.radius == radius
                assert chk.support_size > 0
                assert any(lab.is_trivial for lab in chk.subset)


def test_lemma31_trivial_ball_gives_zero_tail():
    """A ball so small that e_U is a point mass at the identity: A is the
    whole computed dual and the p = 2 tail must be exactly zero, not the
    sqrt-cancellation floor."""
    rule = haar_quadrature(dihedral(3))
    f = random_band_limited_function(rule, 3, seed=4)
    chk = lemma31_bound_check(f, 0.5, 2.0)
    assert chk.support_size == 1
    assert chk.tail == 0.0
    assert chk.satisfied


def test_lemma31_pure_high_frequency_tail_is_unit():
    """f = e^(i 6 theta) with A = low shells: tail exactly 1, bound holds."""
    rule = haar_quadrature(torus(1), 33)
    f = sample(rule, lambda p: np.exp(6j * p.coords[0]))
    chk = lemma31_bound_check(f, 0.5, 2.0, cutoff=16)
    assert all(lab.shell < 6 for lab in chk.subset)
    assert abs(chk.tail - 1.0) < 1e-10
    assert chk.rhs >= chk.tail - 1e-8


def test_lemma32_bound_holds_and_fields():
    rule = haar_quadrature(su2(), 4)
    f = random_band_limited_function(rule, 3, seed=1, norm=1.5)
    q = np.array([0.95, 0.2, 0.1, -0.15])
    y = point(su2(), tuple(q / np.linalg.norm(q)))
    sub = shell_subset(su2(), 2, cutoff=4)
    for p in (1.0, 2.0):
        chk = lemma32_bound_check(f, y, sub, p, cutoff=4)
        assert chk.satisfied
        assert chk.lhs <= chk.head_term + chk.tail_term + 1e-8
        assert chk.p == p


def test_lemma32_single_character_equality():
    """For f = e^(i 2 theta) and A = shells <= 2 the bound is an identity:
    lhs = |e^(2iy) - 1| = head_sup and the tail vanishes."""
    rule = haar_quadrature(torus(1), 17)
    f = sample(rule, lambda p: np.exp(2j * p.coords[0]))
    y = point(torus(1), (0.3,))
    sub = shell_subset(torus(1), 2, cutoff=8)
    chk = lemma32_bound_check(f, y, sub, 2.0, cutoff=8)
    expect = abs(np.exp(0.6j) - 1.0)
    assert abs(chk.lhs - expect) < 1e-12
    assert abs(chk.head_term - expect) < 1e-12
    assert chk.tail_term < 3e-8
    assert abs(chk.lhs - chk.head_term) < 1e-9


def test_lemma32_rejects_labels_beyond_dual():
    rule = haar_quadrature(torus(1), 9)
    f = sample(rule, lambda p: 1.0)
    sub = shell_subset(torus(1), 6, cutoff=6)
    with pytest.raises(ValueError):
        lemma32_bound_check(f, point(torus(1), (0.2,)), sub, 2.0, cutoff=4)


# -- escape certificates on synthetic witness trails -------------------------


def _fake_unbounded_family(n=6):
    rule = haar_quadrature(cyclic(4))
    members = [sample(rule, lambda p: 1.0, name=f"m{i}") for i in range(n)]
    return FamilySpec(members, name="fake", param_space="unbounded")


def test_escape_certificate_fires_on_monotone_outward_trail():
    fam = _fake_unbounded_family(6)
    cert = _escape_certificate(fam, [0, 1, 2, 3, 4, 5], "decay")
    assert cert is not None
    assert cert["side"] == "decay"
    assert cert["member_index"] == 5
    assert cert["witness_trail"] == [0, 1, 2, 3, 4, 5]
    # quantized mesh: members may share a step, movement still counts
    assert _escape_certificate(fam, [0, 0, 1, 1, 2, 2], "decay") is not None


def test_escape_certificate_fires_when_witnesses_vanish():
    fam = _fake_unbounded_family(6)
    cert = _escape_certificate(fam, [0, 1, 2, None, None, None], "equicontinuity")
    assert cert is not None
    assert cert["witness_trail"][-1] is None


def test_escape_certificate_stays_quiet():
    fam = _fake_unbounded_family(6)
    # stalled: every member already inside the same subset
    assert _escape_certificate(fam, [2, 2, 2, 2, 2, 2], "decay") is None
    # witnesses coming back inward
    assert _escape_certificate(fam, [4, 3, 2, 1, 0, 0], "decay") is None
    # not enough total movement
    assert _escape_certificate(fam, [0, 0, 0, 0, 0, 1], "decay") is None
    # compact parameter boxes never certify escape
    compact = FamilySpec(list(fam.members), name="box", param_space="compact")
    assert _escape_certificate(compact, [0, 1, 2, 3, 4, 5], "decay") is None
    # too short to call a trend
    short = FamilySpec(list(fam.members[:3]), name="s", param_space="unbounded")
    assert _escape_certificate(short, [0, 1, 2], "decay") is None


# -- verdicts ----------------------------------------------------------------


def test_verdict_scaled_constants_precompact():
    rule = haar_quadrature(torus(1), 9)
    fam = builtin_family("scaled_constants", rule)
    v = pego_verdict(fam, 0.1, seed=0)
    assert v.conclusion == "precompact"
    assert v.boundedness.bounded
    assert v.uniform_decay.flag and v.equicontinuous.flag
    assert v.uniform_decay.witness is not None
    assert v.config["epsilon"] == 0.1


def test_builtin_random_band_limited_is_a_renamed_matrix_entry_span():
    """The ``random_band_limited`` kind draws the members of
    ``matrix_entry_span`` at the same seed and carries its own name; a seed
    argument overrides the params seed."""
    rule = haar_quadrature(torus(1), 9)
    fam = builtin_family("random_band_limited", rule, {"shell": 2})
    assert fam.name == "random_band_limited(shell=2)"
    span = builtin_family("matrix_entry_span", rule, {"shell": 2})
    assert len(fam.members) == len(span.members) == 10
    for a, b in zip(fam.members, span.members):
        assert np.array_equal(a.values, b.values)
    other = builtin_family("random_band_limited", rule, {"shell": 2}, seed=5)
    assert not np.array_equal(other.members[0].values, fam.members[0].values)


def test_verdict_growing_constants_unbounded():
    rule = haar_quadrature(torus(1), 9)
    fam = builtin_family("growing_constants", rule)
    v = pego_verdict(fam, 0.1)
    assert v.conclusion == "not_precompact_unbounded"
    # spectrally trivial members: both equivalence criteria still hold
    assert v.uniform_decay.flag and v.equicontinuous.flag
    assert v.boundedness.trend == "increasing"


def test_verdict_character_ladder_fails_both_criteria():
    rule = haar_quadrature(torus(1), 33)
    fam = builtin_family("character_ladder", rule)
    v = pego_verdict(fam, 0.5)
    assert v.conclusion == "not_precompact_no_decay"
    assert not v.uniform_decay.flag and not v.equicontinuous.flag
    assert v.uniform_decay.certificate is not None
    assert v.equicontinuous.certificate is not None
    assert v.uniform_decay.certificate["side"] == "decay"


def test_verdict_refuses_incoherent_resolution():
    """A truncated ladder whose trailing members blur together on the mesh:
    the two criteria disagree and the verdict must refuse, not guess."""
    rule = haar_quadrature(torus(1), 33)
    fam = builtin_family("character_ladder", rule, params={"count": 10})
    with pytest.raises(CoherenceError) as err:
        pego_verdict(fam, 0.5)
    assert err.value.decay_profile is not None
    assert err.value.continuity_profile is not None


def test_verdict_epsilon_validation():
    rule = haar_quadrature(cyclic(4))
    fam = builtin_family("scaled_constants", rule)
    with pytest.raises(ValueError):
        pego_verdict(fam, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_epsilon_is_refused_before_any_profile(monkeypatch, bad):
    """NaN passes an ``eps <= 0`` test and inf reads as "precompact"; both
    are refused before the profiles are computed."""
    from pego import compactness

    def no_profiles(*args):
        raise AssertionError("profiles computed for a non-finite epsilon")

    monkeypatch.setattr(compactness, "_spectrum", no_profiles)
    fam = builtin_family("scaled_constants", haar_quadrature(cyclic(4)))
    with pytest.raises(ValueError, match="finite"):
        compactness.pego_verdicts(fam, [0.5, bad])
    with pytest.raises(ValueError, match="finite"):
        epsilon_net(fam, bad)


# -- epsilon nets ------------------------------------------------------------


def test_epsilon_net_covers_span_family():
    rule = haar_quadrature(dihedral(3))
    fam = builtin_family("matrix_entry_span", rule, params={"shell": 3, "count": 12}, seed=2)
    net = epsilon_net(fam, 1.0)
    assert net.cover_verified
    assert net.distances.max() <= 1.0 + 1e-12
    assert net.assignments.shape == (12,)
    assert net.assignments.max() < len(net.centers)
    # centers decode to honest coefficient sets on the witness subset
    c0 = net.center_coefficients[0]
    assert set(c0.labels) == set(net.subset.labels)
    # every member is within epsilon of its center in the full L2 metric
    coeffs = forward_batch(fam.members, net.subset.labels)
    for j, c in enumerate(coeffs):
        cen = net.center_coefficients[net.assignments[j]]
        head = sum(
            lab.dim * np.sum(np.abs(c[lab] - cen[lab]) ** 2) for lab in net.subset
        )
        assert math.sqrt(head) <= 1.0 + 1e-9


def test_epsilon_net_over_a_given_filtration():
    """Handed the default shell filtration explicitly, the net transforms
    against its witness step and finds the default net."""
    rule = haar_quadrature(dihedral(3))
    fam = builtin_family("matrix_entry_span", rule, params={"shell": 3, "count": 12}, seed=2)
    want = epsilon_net(fam, 1.0)
    net = epsilon_net(fam, 1.0, filtration=DualFiltration.shells(rule.group))
    assert net.cover_verified
    assert net.subset.labels == want.subset.labels
    assert np.array_equal(net.assignments, want.assignments)
    npt.assert_allclose(net.centers, want.centers, rtol=0, atol=0)
    npt.assert_allclose(net.distances, want.distances, rtol=0, atol=1e-15)


def test_epsilon_net_snaps_exact_zeros_to_zero_centers():
    """Coordinates that vanish in exact arithmetic (here the imaginary parts
    of heat-kernel coefficients) get center coordinate 0, whatever the sign
    of their roundoff."""
    rule = haar_quadrature(dihedral(9))
    fam = builtin_family("heat_kernel", rule)
    net = epsilon_net(fam, 0.5)
    assert net.cover_verified
    vecs = np.stack([
        _embed_coefficients(c) for c in forward_batch(fam.members, net.subset.labels)
    ])
    zero = np.all(np.abs(vecs) < 1e-12, axis=0)
    assert zero.sum() > 0 and not zero.all()
    assert np.all(net.centers[:, zero] == 0.0)


def test_epsilon_net_of_large_coefficients_keeps_its_cells_in_range():
    """Members of size 1e100 give cell indices far beyond int64: the net
    warns of no cast and its centers are finite and within one cell of
    their members, up to the float spacing at that size."""
    rule = haar_quadrature(cyclic(4))
    fam = builtin_family("scaled_constants", rule, params={"r": 1e100})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        net = epsilon_net(fam, 0.5)
    assert [str(w.message) for w in caught] == []
    vecs = np.stack([
        _embed_coefficients(c) for c in forward_batch(fam.members, net.subset.labels)
    ])
    assert np.all(np.isfinite(net.centers))
    npt.assert_allclose(net.centers[net.assignments], vecs, rtol=1e-15, atol=net.cell)


def test_epsilon_net_refuses_ladder():
    rule = haar_quadrature(torus(1), 33)
    fam = builtin_family("character_ladder", rule)
    with pytest.raises(NotPrecompactError) as err:
        epsilon_net(fam, 0.5)
    assert err.value.verdict is not None
    assert err.value.verdict.conclusion == "not_precompact_no_decay"
    assert "certificate" in str(err.value)


def test_family_spec_validation():
    rule = haar_quadrature(cyclic(4))
    other = haar_quadrature(cyclic(5))
    f = sample(rule, lambda p: 1.0)
    g = sample(other, lambda p: 1.0)
    with pytest.raises(ValueError):
        FamilySpec([], name="empty")
    with pytest.raises(GroupMismatchError):
        FamilySpec([f, g], name="mixed")
    with pytest.raises(ValueError):
        FamilySpec([f], name="bad_space", param_space="open")
