"""Batched right translation against oracles that never touch the
coefficient-side action: pointwise synthesis at the translated nodes, and
Lemma 3.1's supremum taken one node at a time."""

import contextlib

import numpy as np
import numpy.testing as npt
import pytest

from pego import (
    GroupMismatchError,
    NeighborhoodSpec,
    basis_twist,
    coords_of,
    cyclic,
    dihedral,
    dirac_net_element,
    enumerate_dual,
    evaluate_at,
    forward_to_cutoff,
    haar_quadrature,
    identity,
    inverse as group_inverse,
    lemma31_bound_check,
    lp_function_norm,
    multiply,
    product,
    random_band_limited_function,
    safe_band,
    sample_ball,
    su2,
    torus,
    translate,
)
from pego import fourier
from pego.fourier import translate_values
from pego.compactness import _TRANSLATE_BLOCK_VALUES

GROUPS = {
    "su2": (su2(), 4),
    "product(torus:1,su2)": (product(torus(1), su2()), 3),
    "product(su2,cyclic:3)": (product(su2(), cyclic(3)), 3),
    "dihedral:9": (dihedral(9), 1),
    "torus:2": (torus(2), 11),
}


def _band(rule):
    band = safe_band(rule)
    return max(lab.shell for lab in enumerate_dual(rule.group)) if band is None else band


def _elements(rule):
    """Nodes of the rule (re-indexed where the grid allows) interleaved with
    seeded ball samples, which lie off the grid on continuous groups."""
    rng = np.random.default_rng(5)
    nodes = [rule.nodes[int(i)] for i in rng.integers(len(rule), size=3)]
    ball = sample_ball(rule.group, NeighborhoodSpec(1.0, 3), seed=2)
    return nodes[:2] + ball + nodes[2:]


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_translate_values_matches_pointwise_synthesis(name, twisted):
    group, res = GROUPS[name]
    rule = haar_quadrature(group, res)
    band = _band(rule)
    ys = _elements(rule)
    with basis_twist(group, band, seed=9) if twisted else contextlib.nullcontext():
        f = random_band_limited_function(rule, band, seed=4)
        coeffs = forward_to_cutoff(f)
        moved = translate_values(f, ys)
        assert moved.shape == (len(ys), len(rule))
        for y, row in zip(ys, moved):
            want = evaluate_at(coeffs, [multiply(x, y) for x in rule.nodes])
            npt.assert_allclose(row, want, rtol=0, atol=1e-12)
            # a batch of one synthesizes through a matrix-vector product
            npt.assert_allclose(translate(f, y).values, row, rtol=0, atol=1e-14)


def test_translate_values_edge_cases():
    rule = haar_quadrature(su2(), 4)
    f = random_band_limited_function(rule, 4, seed=1)
    assert translate_values(f, []).shape == (0, len(rule))
    with pytest.raises(GroupMismatchError):
        translate_values(f, [rule.nodes[0], identity(torus(1))])


def _lemma31_case():
    rule = haar_quadrature(product(torus(1), su2()), 5)
    f = random_band_limited_function(rule, 2, seed=3)
    return rule, f


def test_lemma31_rhs_matches_a_per_node_loop_over_several_blocks():
    rule, f = _lemma31_case()
    e_u = dirac_net_element(rule.group, 1.0, rule)
    support = np.nonzero(np.abs(e_u.values) > 0)[0]
    assert support.size == 54 > _TRANSLATE_BLOCK_VALUES // len(rule)
    for p in (1.0, 2.0):
        chk = lemma31_bound_check(f, 1.0, p, cutoff=2)
        assert chk.support_size == 54
        worst = 0.0
        for t in support:
            moved = translate(f, group_inverse(rule.nodes[int(t)]))
            worst = max(worst, lp_function_norm(f - moved, p))
        assert abs(chk.rhs - 2.0 * worst) <= 1e-13


def test_lemma31_transforms_f_once_per_block_not_per_node(monkeypatch):
    rule, f = _lemma31_case()
    calls = []
    real = fourier._forward_blocks

    def counted(r, vals, table):
        if r is rule and np.array_equal(np.asarray(vals)[0], f.values):
            calls.append(r)
        return real(r, vals, table)

    monkeypatch.setattr(fourier, "_forward_blocks", counted)
    chk = lemma31_bound_check(f, 1.0, 2.0, cutoff=2)
    per_block = _TRANSLATE_BLOCK_VALUES // len(rule)
    blocks = -(-chk.support_size // per_block)
    assert 1 <= len(calls) <= blocks < chk.support_size



@pytest.mark.parametrize("name", list(GROUPS))
def test_pairwise_translates_are_each_rows_own_translate(name):
    """Row k of a pairwise ``_translate_values`` (an (m, N) array of samples
    with one element per row) is ``translate`` of sample k by element k, bit
    for bit, though one batch of elements mixes re-indexed grid nodes and
    off-grid elements."""
    group, res = GROUPS[name]
    rule = haar_quadrature(group, res)
    ys = _elements(rule)
    fs = [random_band_limited_function(rule, _band(rule), seed=40 + k) for k in range(len(ys))]
    vals = np.stack([f.values for f in fs])
    coeffs = fourier.forward_batch(fs, enumerate_dual(group, safe_band(rule)))
    blocks = [np.stack(parts) for parts in zip(*(c.blocks for c in coeffs))]
    coords = coords_of(group, ys)
    for table, blks in ((None, None), (coeffs[0].table, blocks)):
        got = fourier._translate_values(rule, vals, coords, table, blks)
        for k, (f, y) in enumerate(zip(fs, ys)):
            assert np.array_equal(got[k], translate(f, y).values)
