"""The spectral L2 continuity moduli against a per-pair oracle.

``compactness._spectral_moduli`` reads ||R_y f - f||_2 from a family's
coefficients, one product per dimension block.  The oracle here is the
per-pair form: for every member and every y it applies pi(y) - I to each
coefficient of an independent ``forward_batch`` and squares the entries.
Both must agree to roundoff on groups whose duals mix dimensions, plain and
under a basis twist, in batches, and exactly at the identity wherever pi(e)
is exactly I.  The spectrum's mass table and beyond masses are each
member's own, bit for bit.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from pego import (
    FamilySpec,
    basis_twist,
    coords_of,
    cyclic,
    dihedral,
    enumerate_dual,
    forward_batch,
    haar_quadrature,
    identity,
    product,
    random_band_limited_function,
    safe_band,
    shell_subset,
    su2,
    torus,
)
from pego import compactness
from pego.compactness import _spectral_moduli, _spectrum, default_mesh
from pego.groups import _ball_pool, _rows
from pego.irreps import _blocks_at
from pego.norms import beyond_cutoff_mass

# (group, resolution): one block of characters (cyclic, torus), characters
# and 2-dim irreps (dihedral), one block per spin (su2), mixed products
GROUPS = {
    "cyclic:5": (cyclic(5), 1),
    "torus:2": (torus(2), 17),
    "dihedral:9": (dihedral(9), 1),
    "su2": (su2(), 6),
    "product(torus:1,su2)": (product(torus(1), su2()), 4),
    "product(su2,cyclic:3)": (product(su2(), cyclic(3)), 4),
}


def _oracle_moduli(family, labels, ys):
    """The per-pair moduli: for each member (rows) and each y (columns) the
    sum over labels of dim ||(pi(y) - I) coeff(pi)||_F^2 plus four times the
    mass beyond the cutoff, square-rooted, with every member's coefficients
    against ``labels`` from one ``forward_batch``."""
    coeffs = forward_batch(family.members, labels)
    table = coeffs[0].table
    beyond = np.array([beyond_cutoff_mass(f, c) for f, c in zip(family.members, coeffs)])
    acc = np.zeros((len(coeffs), _rows(ys)))
    for b, (d, mats) in enumerate(zip(table.dims, _blocks_at(table.block_labels, ys))):
        act = mats - np.eye(d)  # (ys, n_b, d, d)
        for i, c in enumerate(coeffs):
            for k in range(_rows(ys)):
                moved = act[k] @ c.blocks[b]  # (n_b, d, d)
                acc[i, k] += d * np.sum(np.abs(moved) ** 2)
    return np.sqrt(acc + 4.0 * beyond[:, None])


def _band(rule):
    band = safe_band(rule)
    return max(lab.shell for lab in enumerate_dual(rule.group)) if band is None else band


def _family(name, members=4):
    """Seeded random members, half band-limited at the rule's band and half
    beyond it."""
    group, res = GROUPS[name]
    rule = haar_quadrature(group, res)
    band = _band(rule)
    fs = [random_band_limited_function(rule, band + (k % 2), seed=10 + k, name=f"m{k}")
          for k in range(members)]
    return FamilySpec(fs, name=name)


def _pool(group):
    pool, _ = _ball_pool(group, default_mesh(group), 3, seed=1)
    return pool


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_spectral_moduli_match_per_pair_oracle(name, twisted):
    family = _family(name)
    group = family.group
    twist = basis_twist(group, safe_band(family.rule), seed=4) if twisted else contextlib.nullcontext()
    with twist:
        spectrum = _spectrum(family)
        ys = _pool(group)
        got = _spectral_moduli(spectrum, ys)
        want = _oracle_moduli(family, spectrum.table.labels, ys)
    assert got.shape == (len(family), _rows(ys))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_spectral_moduli_in_member_batches(name, monkeypatch):
    # a bound below one member's product forces one member per batch
    family = _family(name, members=7)
    spectrum = _spectrum(family)
    ys = _pool(family.group)
    whole = _spectral_moduli(spectrum, ys)
    monkeypatch.setattr(compactness, "_ACTION_BLOCK_VALUES", 8)
    batched = _spectral_moduli(spectrum, ys)
    want = _oracle_moduli(family, spectrum.table.labels, ys)
    np.testing.assert_allclose(batched, want, rtol=1e-13, atol=0)
    np.testing.assert_allclose(batched, whole, rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_spectral_moduli_at_identity_read_twice_the_beyond_tail(name):
    # transformed one shell short of the band, so every member has mass
    # beyond the transformed labels
    family = _family(name)
    group = family.group
    spectrum = _spectrum(family, shell_subset(group, _band(family.rule) - 1).labels)
    table = spectrum.table
    e = coords_of(group, [identity(group)])
    beyond = np.sqrt(spectrum.beyond)
    got = _spectral_moduli(spectrum, e)[:, 0]
    assert np.all(beyond > 0)
    exact = all(np.array_equal(m[0], np.broadcast_to(np.eye(m.shape[-1]), m.shape[1:]))
                for m in _blocks_at(table.block_labels, e))
    if exact:
        # pi(e) - I is exactly 0, so only the beyond term is left
        assert np.array_equal(got, 2.0 * beyond)
    else:
        # the su2 D-matrices at e are I to roundoff only
        assert group.family in ("su2", "product")
        np.testing.assert_allclose(got, 2.0 * beyond, rtol=0, atol=1e-14)
    want = _oracle_moduli(family, table.labels, e)[:, 0]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_spectrum_masses_are_each_members_own_bitwise(name, twisted):
    """The (members, labels) mass table, read from the family's blocks, is
    each member's ``label_masses`` bit for bit, and its beyond masses are
    ``beyond_cutoff_mass``; on products the blocks' layout decides this."""
    family = _family(name, members=5)
    twist = (basis_twist(family.group, safe_band(family.rule), seed=4) if twisted
             else contextlib.nullcontext())
    with twist:
        spectrum = _spectrum(family)
        coeffs = forward_batch(family.members, spectrum.table.labels)
    for f, c, masses, beyond in zip(family.members, coeffs, spectrum.label_mass,
                                    spectrum.beyond):
        assert np.array_equal(masses, c.label_masses())
        assert beyond == beyond_cutoff_mass(f, c)


def _moduli_peak(family, ys):
    spectrum = _spectrum(family)
    tracemalloc.start()
    try:
        _spectral_moduli(spectrum, ys)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectral_moduli_memory_does_not_grow_with_members_points_labels():
    # torus:2 res 17: 289 characters; 48 members x 200 points x 289 labels
    # would be 44 MB of complex products, capped at 16 MB in batches
    group = torus(2)
    rule = haar_quadrature(group, 17)
    fs = [random_band_limited_function(rule, 8, seed=k) for k in range(48)]
    ys = np.random.default_rng(0).uniform(0, 2 * np.pi, (200, 2))
    labels = len(enumerate_dual(group, safe_band(rule)))
    # what any evaluation must hold: the (points, labels) characters and a
    # (points, labels) work array, and the (members, labels) masses
    floor = 16 * len(ys) * labels * 2 + 8 * len(fs) * labels
    few = _moduli_peak(FamilySpec(fs[:2], name="few"), ys)
    many = _moduli_peak(FamilySpec(fs, name="many"), ys)
    assert many <= 2 * floor
    assert many - few <= 8 * 46 * labels + 8 * 46 * len(ys) * 2
