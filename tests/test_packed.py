"""The packed coefficient layout against per-label oracles.

Coefficients live in one (n_b, d, d) block per irrep dimension.  These tests
pin the layout itself (views, dict round trips, batches) and check every
packed kernel against a loop over labels written here, plain and inside a
basis twist, on groups whose duals mix dimensions.
"""

import contextlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from pego import (
    DualFiltration,
    DualSubset,
    FourierCoefficients,
    NeighborhoodSpec,
    basis_twist,
    coords_of,
    cyclic,
    dihedral,
    enumerate_dual,
    forward,
    forward_batch,
    forward_to_cutoff,
    haar_quadrature,
    inverse_batch,
    inverse_transform,
    lp_oplus_norm,
    product,
    random_band_limited_function,
    safe_band,
    sample_ball,
    shell_subset,
    su2,
    torus,
)
from pego.compactness import _embed_coefficients, _unembed_centers
from pego.families import matrix_entry_span
from pego.fourier import slot_table
from pego.irreps import _blocks_at, irrep_matrices

# (group, resolution): duals with one block (torus), two blocks (dihedral),
# one block per spin (su2) and interleaved dimensions (products)
GROUPS = {
    "torus:2": (torus(2), 9),
    "dihedral:9": (dihedral(9), 1),
    "su2": (su2(), 4),
    "product(torus:1,su2)": (product(torus(1), su2()), 5),
    "product(su2,cyclic:3)": (product(su2(), cyclic(3)), 3),
}


def _band(rule):
    band = safe_band(rule)
    return max(lab.shell for lab in enumerate_dual(rule.group)) if band is None else band


def _coefficients(name, twisted, count=3):
    group, res = GROUPS[name]
    rule = haar_quadrature(group, res)
    band = _band(rule)
    fs = [random_band_limited_function(rule, band, seed=11 + k) for k in range(count)]
    twist = basis_twist(group, band, seed=5) if twisted else contextlib.nullcontext()
    with twist:
        coeffs = forward_batch(fs, enumerate_dual(group, band))
    return group, coeffs


def _subsets(coeffs):
    labels = coeffs.labels
    mixed = labels[::-2] + labels[1::4]  # neither sorted nor a prefix
    return [labels, labels[: max(1, len(labels) // 3)], mixed, ()]


def _oracle_schatten(mat, p):
    sv = np.linalg.svd(mat, compute_uv=False)
    return sv[0] if p == math.inf else np.sum(sv**p) ** (1.0 / p)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_packed_norms_match_per_label_oracle(name, twisted):
    _, batch = _coefficients(name, twisted)
    for c in batch:
        for sub in _subsets(c):
            head = sum(lab.dim * np.sum(np.abs(c[lab]) ** 2) for lab in sub)
            assert abs(c.head_mass(sub) - head) <= 1e-13
            for p in (1.0, 4.0 / 3.0, math.inf):
                per = [_oracle_schatten(c[lab], p) for lab in sub]
                if not sub:
                    want = 0.0
                elif p == math.inf:
                    want = max(per)
                else:
                    want = sum(lab.dim * v**p for lab, v in zip(sub, per)) ** (1.0 / p)
                rep = lp_oplus_norm(c, p, sub)
                assert abs(rep.value - want) <= 1e-13
                assert rep.subset_names == tuple(lab.name for lab in sub)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_embedding_is_a_plancherel_isometry_and_unembeds(name, twisted):
    group, batch = _coefficients(name, twisted)
    a, b = batch[0], batch[1]
    va, vb = _embed_coefficients(a), _embed_coefficients(b)
    # block after block, label by label within a block: sqrt(dim) * coeff,
    # real then imaginary
    want = [part.ravel() for labs in a.table.block_labels for lab in labs
            for part in (math.sqrt(lab.dim) * a[lab].real, math.sqrt(lab.dim) * a[lab].imag)]
    npt.assert_allclose(va, np.concatenate(want), rtol=0, atol=1e-13)
    inner = sum(lab.dim * np.vdot(a[lab], b[lab]).real for lab in a.labels)
    assert abs(va @ vb - inner) <= 1e-13
    assert abs(va @ va - a.head_mass(a.labels)) <= 1e-13
    for back, orig in zip(_unembed_centers(np.stack([va, vb]), DualSubset(group, a.labels), group),
                          (a, b)):
        assert back.labels == a.labels
        for lab in a.labels:
            npt.assert_allclose(back[lab], orig[lab], rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_entries_are_views_into_their_blocks(name):
    _, (c, *_) = _coefficients(name, False)
    slots = set()
    for lab in c.labels:
        b, pos = c.table.slot(lab)
        assert c.blocks[b].shape[1:] == (lab.dim, lab.dim)
        assert np.shares_memory(c[lab], c.blocks[b])
        npt.assert_array_equal(c[lab], c.blocks[b][pos])
        slots.add((b, pos))
    assert len(slots) == len(c.labels) == sum(len(block) for block in c.blocks)
    lab = c.labels[-1]
    c[lab][...] = 7.0
    b, pos = c.table.slot(lab)
    assert np.all(c.blocks[b][pos] == 7.0)


def test_dict_construction_round_trips():
    group, (c, *_) = _coefficients("product(torus:1,su2)", False)
    again = FourierCoefficients(group, c.labels, {lab: c[lab].copy() for lab in c.labels})
    assert again.labels == c.labels and again.table is c.table
    for x, y in zip(again.blocks, c.blocks):
        npt.assert_array_equal(x, y)
    lab = c.labels[-1]
    with pytest.raises(ValueError, match="disagree"):
        FourierCoefficients(group, c.labels[:-1], {lab: c[lab] for lab in c.labels})
    with pytest.raises(ValueError, match="shape"):
        FourierCoefficients(group, (lab,), {lab: np.zeros((lab.dim + 1, lab.dim + 1))})
    with pytest.raises(ValueError, match="shapes"):
        FourierCoefficients.from_blocks(group, c.table, c.blocks[:-1])


@pytest.mark.parametrize("name", ["torus:2", "dihedral:9", "su2"])
def test_batch_yields_one_view_per_function(name):
    group, res = GROUPS[name]
    rule = haar_quadrature(group, res)
    dual = enumerate_dual(group, safe_band(rule))
    fs = [random_band_limited_function(rule, _band(rule), seed=k) for k in range(3)]
    batch = forward_batch(fs, dual)
    for b in range(len(batch[0].blocks)):
        # views [k] of one (m, n_b, d, d) array
        whole = batch[0].blocks[b].base
        assert whole.shape[0] == 3 and all(c.blocks[b].base is whole for c in batch)
    for f, c in zip(fs, batch):
        alone = forward(f, dual)
        for x, y in zip(c.blocks, alone.blocks):
            npt.assert_allclose(x, y, rtol=0, atol=1e-15)


def test_shell_filtration_is_built_once_from_prefixes():
    group = torus(2)
    filt = DualFiltration.shells(group, 4)
    assert DualFiltration.shells(group, 4) is filt
    dual = enumerate_dual(group, 4)
    for s, step in enumerate(filt):
        want = DualSubset.from_labels(group, [lab for lab in dual if lab.shell <= s])
        assert step == want


def test_coverage_misses_are_refused():
    rule = haar_quadrature(torus(1), 9)
    c = forward_to_cutoff(random_band_limited_function(rule, 2), 2)
    outside = enumerate_dual(torus(1), 3)[-1]
    assert outside not in c
    with pytest.raises(ValueError, match="outside computed coverage"):
        c.head_mass([outside])
    with pytest.raises(KeyError):
        c[outside]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_inverse_batch_matches_one_set_at_a_time(name):
    group, res = GROUPS[name]
    rule = haar_quadrature(group, res)
    _, batch = _coefficients(name, False)
    together = inverse_batch(batch, rule)
    for c, f in zip(batch, together):
        npt.assert_allclose(f.values, inverse_transform(c, rule).values, rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="different labels"):
        inverse_batch([batch[0], forward(together[0], batch[0].labels[:1])], rule)


def _dict_draw(subset, rng):
    """One dict entry per label in subset order, two (d, d) draws each, and
    the mass summed label by label."""
    entries = {}
    mass = 0.0
    for lab in subset:
        d = lab.dim
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        entries[lab] = m
        mass += d * float(np.sum(np.abs(m) ** 2))
    return entries, mass


def _random_band_limited_oracle(rule, band, rng, norm):
    """A dict draw on the shells <= band, rescaled to ``norm``."""
    subset = shell_subset(rule.group, band)
    entries, mass = _dict_draw(subset, rng)
    scale = norm / math.sqrt(mass)
    entries = {lab: m * scale for lab, m in entries.items()}
    return inverse_transform(FourierCoefficients(rule.group, tuple(subset), entries), rule)


def _matrix_entry_span_oracle(rule, shell, bound, count, seed):
    """Per member a dict draw on the shells <= shell, then a uniform radius
    in [0.2, 1] * bound to rescale to."""
    subset = shell_subset(rule.group, shell)
    rng = np.random.default_rng(seed)
    coeffs = []
    for _ in range(count):
        entries, mass = _dict_draw(subset, rng)
        radius = bound * float(rng.uniform(0.2, 1.0))
        scale = radius / math.sqrt(mass) if mass > 0 else 0.0
        entries = {lab: m * scale for lab, m in entries.items()}
        coeffs.append(FourierCoefficients(rule.group, tuple(subset), entries))
    return inverse_batch(coeffs, rule)


@pytest.mark.parametrize("name", sorted(GROUPS) + ["su2 res 16"])
def test_random_draws_match_the_dict_oracle_bitwise(name):
    group, res = (su2(), 16) if name == "su2 res 16" else GROUPS[name]
    rule = haar_quadrature(group, res)
    band = _band(rule)
    span = matrix_entry_span(rule, shell=band, bound=1.7, count=3, seed=23)
    want = _matrix_entry_span_oracle(rule, band, 1.7, 3, 23)
    for f, g in zip(span.members, want, strict=True):
        assert np.array_equal(f.values, g.values)
    got = random_band_limited_function(rule, band, seed=23, norm=1.3)
    want = _random_band_limited_oracle(rule, band, np.random.default_rng(23), 1.3)
    assert np.array_equal(got.values, want.values)
    # a caller's generator is left where the oracle's draws leave it
    mine, theirs = np.random.default_rng(4), np.random.default_rng(4)
    got = random_band_limited_function(rule, band, seed=mine, norm=0.7)
    want = _random_band_limited_oracle(rule, band, theirs, 0.7)
    assert np.array_equal(got.values, want.values)
    assert mine.normal() == theirs.normal()


_TWIST_GROUPS = {
    "cyclic:5": (cyclic(5), 1),
    "dihedral:9": (dihedral(9), 1),
    "torus:2": (torus(2), 9),
    "su2": (su2(), 4),
    "product(torus:1,su2)": (product(torus(1), su2()), 3),
}


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("name", sorted(_TWIST_GROUPS))
def test_blocks_at_matches_irrep_matrices_per_label(name, twisted):
    group, res = _TWIST_GROUPS[name]
    rule = haar_quadrature(group, res)
    band = _band(rule)
    table = slot_table(tuple(enumerate_dual(group, band)))
    radius = 1.5 if group.is_finite else 1.0
    points = [rule.nodes[1], *sample_ball(group, NeighborhoodSpec(radius, 4), seed=3)]
    twist = basis_twist(group, band, seed=5) if twisted else contextlib.nullcontext()
    with twist:
        got = _blocks_at(table.block_labels, coords_of(group, points))
        for lab in table.labels:
            b, pos = table.slot(lab)
            assert got[b].shape == (len(points), len(table.block_labels[b]), lab.dim, lab.dim)
            assert np.array_equal(got[b][:, pos], irrep_matrices(lab, points))
