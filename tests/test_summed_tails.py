"""p = 2 tails summed from the label masses, against a ``math.fsum`` oracle.

A p = 2 tail outside a subset A is sqrt(beyond + the masses of the coverage
outside A), where beyond is ||f||^2 minus the full head under one roundoff
floor.  The oracle sums each complement exactly with ``math.fsum`` and
takes beyond as ||f||^2 minus the fsum of every mass, floored the same way.
Tails far below ||f|| (1e-6 and less on heat kernels) must keep their
digits: a tail taken as sqrt(||f||^2 - head) reads 0 or a few digits there.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from pego import (
    DualFiltration,
    builtin_family,
    enumerate_dual,
    forward_batch,
    forward_to_cutoff,
    haar_quadrature,
    lemma32_bound_checks,
    lp_function_norm,
    plancherel_residual,
    point,
    safe_band,
    shell_subset,
    su2,
    tail_decay_profile,
    torus,
)
from pego.irreps import DualSubset

# (group, resolution) of the heat-kernel families, ten members each
HEAT = {"torus:2": (torus(2), 17), "torus:1": (torus(1), 33), "su2": (su2(), 6)}


def _heat(name):
    group, res = HEAT[name]
    return builtin_family("heat_kernel", haar_quadrature(group, res), {"count": 10})


def _oracle_tail(f, coeffs, subset):
    """sqrt(fsum of the masses of ``coeffs`` outside ``subset`` + beyond),
    beyond = ||f||^2 - fsum of all masses, read as 0 within the floor."""
    masses = coeffs.label_masses()
    mass = lp_function_norm(f, 2) ** 2
    diff = mass - math.fsum(masses)
    beyond = 0.0 if abs(diff) <= 1e-12 * max(mass, 1.0) else max(diff, 0.0)
    inside = set(subset)
    return math.sqrt(math.fsum(
        [x for lab, x in zip(coeffs.labels, masses) if lab not in inside] + [beyond]))


def _oracle_table(family, profile):
    """The (steps, members) oracle tails of ``profile``'s steps, against the
    coverage of its top step."""
    coeffs = forward_batch(family.members, profile.steps[-1].subset.labels)
    return np.array([[_oracle_tail(f, c, step.subset) for f, c in zip(family.members, coeffs)]
                     for step in profile.steps])


def _custom_span():
    """The hand-ordered filtration and matrix-entry span of
    ``test_tail_profile_equals_per_step_plancherel_residual``."""
    g = torus(1)
    rule = haar_quadrature(g, 17)
    labs = {lab.name: lab for lab in enumerate_dual(g, 8)}
    order = ["triv", "torus:[5]", "torus:[-2]", "torus:[1]", "torus:[-7]", "torus:[3]"]
    filtration = DualFiltration(tuple(
        DualSubset.from_labels(g, [labs[n] for n in order[:k]]) for k in (1, 2, 4, 6)))
    return builtin_family("matrix_entry_span", rule, {"shell": 8, "count": 5}), filtration


def _custom_heat():
    """heat_kernel on torus:1 res 33 along shells whose labels are taken in
    reverse canonical order, so no step is a prefix of the canonical dual."""
    family = _heat("torus:1")
    g = family.group
    dual = enumerate_dual(g, safe_band(family.rule))
    filtration = DualFiltration(tuple(
        DualSubset.from_labels(g, [lab for lab in reversed(dual) if lab.shell <= s])
        for s in range(max(lab.shell for lab in dual) + 1)))
    return family, filtration


CASES = {
    **{f"heat-{name}": (lambda name=name: (_heat(name), None)) for name in HEAT},
    "custom-span": _custom_span,
    "custom-heat": _custom_heat,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_decay_profile_tails_match_fsum_oracle(case):
    family, filtration = CASES[case]()
    profile = tail_decay_profile(family, filtration)
    got = np.stack([step.per_member for step in profile.steps])
    want = _oracle_table(family, profile)
    npt.assert_allclose(got, want, rtol=1e-13, atol=0)
    assert np.array_equal(got > 0, want > 0)


def test_heat_t2_member_witnesses_read_the_summed_tails():
    family = _heat("torus:2")
    profile = tail_decay_profile(family)
    want = _oracle_table(family, profile)
    summed = [int(np.flatnonzero(col < 1e-7)[0]) for col in want.T]
    assert summed == [4, 4, 4, 4, 5, 6, 6, 8, 8, 8]
    assert profile.member_witness_indices(1e-7) == summed


def test_lemma32_tail_term_is_twice_the_summed_tail():
    family = _heat("torus:2")
    group = family.group
    band = safe_band(family.rule)
    subsets = [shell_subset(group, s, cutoff=band) for s in range(1, 9)]
    y = point(group, (0.01, -0.02))
    for f in family.members[::3]:
        fc = forward_to_cutoff(f)
        checks = lemma32_bound_checks(f, [(y, subset, 2.0) for subset in subsets])
        for subset, check in zip(subsets, checks):
            want = 2.0 * _oracle_tail(f, fc, subset)
            assert check.tail_term == pytest.approx(want, rel=1e-13, abs=0)
            assert check.tail_term == 2.0 * plancherel_residual(f, fc, subset)
