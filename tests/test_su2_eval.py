"""Off-grid su2 evaluation and translation through the Euler-angle
trigonometric tensor, and the memory of the su2 grid transforms.

``evaluate_at`` on su2 builds no D-matrix.  The oracle here is the matrix
path it replaced, written out in the tests: ``_synthesize`` fed the block
matrices of one ``irreps._blocks_at`` request.  The su2 right action of
``translate``, ``translate_spectral`` and ``translate_values`` is checked
against pi(y) @ C from ``irrep_matrices``, one label at a time.  Points of
another group are refused by every off-grid reader.  The empty point list
is covered, su2 included, by
``tests/test_irreps.py::test_empty_point_list_gives_empty_stacks``.
"""

import contextlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pego import (
    FourierCoefficients,
    GroupMismatchError,
    IrrepLabel,
    basis_twist,
    coords_of,
    cyclic,
    enumerate_dual,
    evaluate_at,
    forward_batch,
    forward_to_cutoff,
    haar_quadrature,
    inverse_transform,
    multiply,
    point,
    random_band_limited_function,
    su2,
    torus,
    translate,
    translate_spectral,
)
from pego import _wigner
from pego.fourier import _synthesize, translate_values
from pego.irreps import _blocks_at, irrep_matrices

G = su2()


def _oracle(coeffs, points):
    """The matrix path: sum over labels of dim tr(C D(x)), from whole D-matrices."""
    mats = _blocks_at(coeffs.table.block_labels, coords_of(G, points))
    blocks = [b[None] for b in coeffs.blocks]
    return _synthesize(coeffs.table, blocks, 1, len(points), mats)[0]


def _coeffs(labels, seed, group=G):
    """Complex-normal coefficients scaled to unit L2 norm."""
    rng = np.random.default_rng(seed)
    entries = {lab: rng.normal(size=(lab.dim, lab.dim)) + 1j * rng.normal(size=(lab.dim, lab.dim))
               for lab in labels}
    mass = sum(lab.dim * np.sum(np.abs(m) ** 2) for lab, m in entries.items())
    return FourierCoefficients(group, labels, {lab: m / np.sqrt(mass) for lab, m in entries.items()})


def _random_points(rng, count):
    qs = rng.normal(size=(count, 4))
    return [point(G, tuple(q / np.linalg.norm(q))) for q in qs]


def _fiber_points():
    """beta = 0 (b = 0) and beta = pi (a = 0) quaternions, and +-identity."""
    out = []
    for t in (0.0, 0.4, 1.9, -2.7):
        out.append(point(G, (np.cos(t), 0.0, 0.0, np.sin(t))))
        out.append(point(G, (0.0, np.cos(t), np.sin(t), 0.0)))
    return out + [point(G, (1.0, 0.0, 0.0, 0.0)), point(G, (-1.0, 0.0, 0.0, 0.0))]


def _spins(*two_ls):
    return tuple(IrrepLabel(G, (t,), t + 1) for t in two_ls)


LABEL_SETS = {
    "band6": tuple(enumerate_dual(G, 6)),
    "integer": _spins(0, 2, 4, 8),
    "half-integer": _spins(1, 3, 5),
    "gaps-3-7-10": _spins(3, 7, 10),
    "unsorted": _spins(10, 3, 0, 7),
    "trivial": _spins(0),
    "band16": tuple(enumerate_dual(G, 16)),
}


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("name", sorted(LABEL_SETS))
def test_evaluate_at_matches_the_matrix_path(name, twisted):
    labels = LABEL_SETS[name]
    coeffs = _coeffs(labels, seed=len(labels))
    points = _random_points(np.random.default_rng(7), 40) + _fiber_points()
    with basis_twist(G, cutoff=16, seed=3) if twisted else contextlib.nullcontext():
        got = evaluate_at(coeffs, points)
        want = _oracle(coeffs, points)
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_evaluate_at_builds_no_d_matrix(monkeypatch):
    coeffs = _coeffs(LABEL_SETS["band6"], seed=1)
    points = _random_points(np.random.default_rng(2), 5) + _fiber_points()
    want = _oracle(coeffs, points)

    def refuse(*args):
        raise AssertionError("wigner_D called")

    monkeypatch.setattr(_wigner, "wigner_D", refuse)
    npt.assert_allclose(evaluate_at(coeffs, points), want, rtol=0, atol=1e-12)


def _moved_oracle(coeffs, y):
    """pi(y) @ C per label, from the whole D-matrices of ``irrep_matrices``."""
    return FourierCoefficients(G, coeffs.labels, {
        lab: irrep_matrices(lab, [y])[0] @ coeffs[lab] for lab in coeffs.labels})


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_right_translation_matches_pi_y_times_coefficients(twisted):
    """``translate``, ``translate_spectral`` and ``translate_values`` at
    off-grid elements (the fibers and +-identity included) against pi(y) @ C
    taken label by label; a batch of elements equals one call per element,
    bit for bit."""
    rule = haar_quadrature(G, 6)
    f = random_band_limited_function(rule, 6, seed=4)
    ys = _random_points(np.random.default_rng(5), 4) + _fiber_points()
    with basis_twist(G, cutoff=6, seed=3) if twisted else contextlib.nullcontext():
        coeffs = forward_to_cutoff(f)
        moved = [_moved_oracle(coeffs, y) for y in ys]
        want = np.array([inverse_transform(c, rule).values for c in moved])
        spectral = [translate_spectral(coeffs, y) for y in ys]
        batch = translate_values(f, ys)
        single = [translate(f, y).values for y in ys]
    for got, c in zip(spectral, moved):
        for a, b in zip(got.blocks, c.blocks):
            npt.assert_allclose(a, b, rtol=0, atol=1e-13)
    npt.assert_allclose(batch, want, rtol=0, atol=1e-13)
    for row, one in zip(batch, single):
        assert np.array_equal(row, one)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 9), st.booleans())
def test_evaluate_at_translates_like_translate_spectral(seed, fiber, on_fiber):
    """f(p y) = (R_y f)(p), with R_y f taken on the coefficient side."""
    rng = np.random.default_rng(seed)
    coeffs = _coeffs(tuple(enumerate_dual(G, 5)), seed)
    p, y = _random_points(rng, 2)
    if on_fiber:
        p = _fiber_points()[fiber]
    got = evaluate_at(coeffs, [multiply(p, y)])
    want = evaluate_at(translate_spectral(coeffs, y), [p])
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)


# The traced peak of ``evaluate_at`` at 9,117 points; it walks the points in
# fixed blocks, so the peak does not grow with the point count.  The whole
# D-matrix path took 294 MB here.
EVALUATE_PEAK_CAP = 16e6


def test_evaluate_at_quarter_of_res16_matches_inverse_in_bounded_memory():
    rule = haar_quadrature(G, 16)
    f = random_band_limited_function(rule, 16, seed=3)
    coeffs = forward_to_cutoff(f)
    idx = np.arange(0, len(rule), 4)
    points = rule.nodes_at(idx)
    assert len(points) == 9117
    tracemalloc.start()
    try:
        got = evaluate_at(coeffs, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    npt.assert_allclose(got, f.values[idx], rtol=0, atol=1e-12)
    assert peak < EVALUATE_PEAK_CAP


# One forward_batch of three band-16 functions on su2 res 16.  At band 4 the
# traced peak stays below the values of one function, so no weighted,
# stacked or squared copy of the samples is made; at band 16 it is the
# kernel's two (m, n_a or n_b, n_b or K, K) arrays, 1.78 MB (3.5 MB with
# weighted and stacked copies).
FORWARD_PEAK_CAPS = ((4, 583_440), (16, 2.0e6))


def test_su2_forward_batch_makes_no_copy_of_the_samples():
    rule = haar_quadrature(G, 16)
    assert len(rule) * 16 == FORWARD_PEAK_CAPS[0][1]
    fs = [random_band_limited_function(rule, 16, seed=k) for k in range(3)]
    for band, cap in FORWARD_PEAK_CAPS:
        dual = enumerate_dual(G, band)
        forward_batch(fs, dual)  # the rule's phases and d-matrices are kept on it
        tracemalloc.start()
        try:
            forward_batch(fs, dual)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cap, (band, peak)


def test_points_of_another_group_are_refused():
    su2_coeffs = _coeffs(LABEL_SETS["band6"], seed=1)
    with pytest.raises(GroupMismatchError):
        evaluate_at(su2_coeffs, [point(torus(4), (0.1, 0.2, 0.3, 0.4))])
    circle = torus(1)
    circle_coeffs = _coeffs(tuple(enumerate_dual(circle, 3)), seed=2, group=circle)
    with pytest.raises(GroupMismatchError):
        evaluate_at(circle_coeffs, [point(cyclic(5), (2,))])
    with pytest.raises(GroupMismatchError):
        translate_spectral(su2_coeffs, point(torus(4), (0.1, 0.2, 0.3, 0.4)))
