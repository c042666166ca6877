"""The sample suites of ``pego verify`` check every sample at every
exponent in one batch: one synthesis of all samples and one transform of
all of them shared by every exponent and direction; Lemma 3.1 adds one
Dirac transform per distinct ball radius and, like Lemma 3.2, one sweep of
the translates of every (sample, element) pair; identities reuses its
first transform for the translates and the spectral convolutions.  The
samples are taken in chunks whose memory does not grow with their count.
The oracles here are the suites' exponent-outer loops, which check one
(exponent, sample) at a time through the single-check functions; the
batched suites must give the same check lists, and every batch entry must
equal its single check field by field."""

import contextlib
import dataclasses
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pego.cli as cli
from pego import (
    ExponentPair,
    NeighborhoodSpec,
    basis_twist,
    enumerate_dual,
    hausdorff_young_check,
    hausdorff_young_checks,
    haar_quadrature,
    lemma31_bound_check,
    lemma31_bound_checks,
    lemma32_bound_check,
    lemma32_bound_checks,
    parse_group,
    random_band_limited_function,
    shell_subset,
)
from pego import compactness, fourier


def _verify_groups():
    """(group, cutoff, resolution) of the verify workload in bench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_verify_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.VERIFY_GROUPS


VERIFY_GROUPS = _verify_groups()


# -- oracles: the exponent-outer loops ----------------------------------------

def _oracle_hausdorff_young(rule, cutoff, samples, seed, p_values):
    checks = []
    for p in p_values:
        pair = ExponentPair.of(p)
        worst_fwd = -math.inf
        worst_rev = -math.inf
        worst_eq = 0.0
        for k in range(samples):
            f = random_band_limited_function(rule, cutoff, seed=seed + 31 * k)
            for direction in ("forward", "reverse"):
                chk = hausdorff_young_check(f, pair, direction=direction, cutoff=cutoff)
                margin = chk.lhs - chk.rhs
                if direction == "forward":
                    worst_fwd = max(worst_fwd, margin)
                else:
                    worst_rev = max(worst_rev, margin)
                if p == 2.0:
                    worst_eq = max(worst_eq, abs(margin))
        ptag = f"p={p:g}"
        checks.append({"name": f"forward_{ptag}", "lhs": float(worst_fwd),
                       "rhs": cli._IDENTITY_TOL,
                       "satisfied": bool(worst_fwd <= cli._IDENTITY_TOL)})
        checks.append({"name": f"reverse_{ptag}", "lhs": float(worst_rev),
                       "rhs": cli._IDENTITY_TOL,
                       "satisfied": bool(worst_rev <= cli._IDENTITY_TOL)})
        if p == 2.0:
            checks.append({"name": "equality_p=2", "lhs": float(worst_eq),
                           "rhs": cli._IDENTITY_TOL,
                           "satisfied": bool(worst_eq <= cli._IDENTITY_TOL)})
    return checks


def _oracle_lemma31(rule, cutoff, samples, seed, p_values):
    radii = cli._BALL_RADII[rule.group.family]
    checks = []
    for p in p_values:
        pair = ExponentPair.of(p)
        worst = -math.inf
        all_ok = True
        for k in range(samples):
            f = random_band_limited_function(rule, cutoff, seed=seed + 13 * k)
            delta = radii[k % len(radii)]
            chk = lemma31_bound_check(f, NeighborhoodSpec(delta, 8), pair, cutoff=cutoff)
            worst = max(worst, chk.tail - chk.rhs)
            all_ok = all_ok and chk.satisfied
        checks.append({"name": f"tail_le_2sup_p={p:g}", "lhs": float(worst),
                       "rhs": cli._LEMMA_SLACK,
                       "satisfied": bool(all_ok and worst <= cli._LEMMA_SLACK)})
    return checks


def _oracle_lemma32(rule, cutoff, samples, seed, p_values):
    rng = np.random.default_rng(seed)
    max_shell = max(lab.shell for lab in enumerate_dual(rule.group, cutoff))
    checks = []
    for p in p_values:
        pair = ExponentPair.of(p)
        worst = -math.inf
        all_ok = True
        for k in range(samples):
            f = random_band_limited_function(rule, cutoff, seed=seed + 7 * k)
            y = cli._random_nodes(rule, 1, rng)[0]
            shell = min(1 + k % 2, max_shell)
            A = shell_subset(rule.group, shell, cutoff=cutoff)
            chk = lemma32_bound_check(f, y, A, pair, cutoff=cutoff)
            worst = max(worst, chk.lhs - (chk.head_term + chk.tail_term))
            all_ok = all_ok and chk.satisfied
        checks.append({"name": f"lhs_le_head_plus_tail_p={p:g}",
                       "lhs": float(worst), "rhs": cli._LEMMA_SLACK,
                       "satisfied": bool(all_ok and worst <= cli._LEMMA_SLACK)})
    return checks


SUITES = {
    "hausdorff_young": (cli._suite_hausdorff_young, _oracle_hausdorff_young,
                        [1.0, 4.0 / 3.0, 2.0]),
    "lemma31": (cli._suite_lemma31, _oracle_lemma31, [1.0, 2.0]),
    "lemma32": (cli._suite_lemma32, _oracle_lemma32, [1.0, 2.0]),
}


def _rule(group, cutoff, res):
    return cli._default_rule(parse_group(group), res, cutoff)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("group, cutoff, res", VERIFY_GROUPS)
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_batched_suites_equal_the_exponent_outer_oracle(suite, group, cutoff, res, seed):
    batched, oracle, p_values = SUITES[suite]
    rule, cutoff = _rule(group, cutoff, res)
    assert batched(rule, cutoff, 3, seed, p_values) == oracle(rule, cutoff, 3, seed, p_values)


@pytest.mark.parametrize("group, cutoff, res", VERIFY_GROUPS)
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_batched_suites_equal_the_oracle_at_one_explicit_exponent(suite, group, cutoff, res):
    batched, oracle, _ = SUITES[suite]
    rule, cutoff = _rule(group, cutoff, res)
    assert batched(rule, cutoff, 3, 1, [1.5]) == oracle(rule, cutoff, 3, 1, [1.5])


# -- batch entries against single checks --------------------------------------

def _same_fields(a, b):
    assert type(a) is type(b)
    for fld in dataclasses.fields(a):
        assert getattr(a, fld.name) == getattr(b, fld.name), fld.name


@pytest.mark.parametrize("group, cutoff, res", VERIFY_GROUPS)
def test_each_batch_entry_equals_its_single_check(group, cutoff, res):
    rule, cutoff = _rule(group, cutoff, res)
    f = random_band_limited_function(rule, cutoff, seed=5)
    ps = [1.0, 1.5, ExponentPair.of(4.0 / 3.0), 2.0]

    cases = [(ExponentPair.of(p), d) for p in ps for d in ("reverse", "forward")]
    for (pair, direction), chk in zip(cases, hausdorff_young_checks(f, cases, cutoff)):
        _same_fields(chk, hausdorff_young_check(f, pair, direction, cutoff))

    ball = cli._BALL_RADII[rule.group.family][-1]
    for p, chk in zip(ps, lemma31_bound_checks(f, ball, ps, cutoff)):
        _same_fields(chk, lemma31_bound_check(f, ball, p, cutoff))

    rng = np.random.default_rng(9)
    ys = cli._random_nodes(rule, len(ps), rng)
    max_shell = max(lab.shell for lab in enumerate_dual(rule.group, cutoff))
    subsets = [shell_subset(rule.group, min(s, max_shell), cutoff=cutoff) for s in (1, 2)]
    cases = [(y, subsets[k % 2], p) for k, (y, p) in enumerate(zip(ys, ps))]
    for (y, subset, p), chk in zip(cases, lemma32_bound_checks(f, cases, cutoff)):
        _same_fields(chk, lemma32_bound_check(f, y, subset, p, cutoff))


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("group, cutoff, res", VERIFY_GROUPS)
def test_each_lemma31_batch_row_equals_its_single_checks(group, cutoff, res, twisted):
    """Rows in balls of mixed radii share one forward pass, one Dirac
    transform per radius and one sweep of translates, at the workload's
    cutoff and, on the continuous groups, one shell below it, where the
    sweep takes a band pass of its own; plain and under basis_twist."""
    rule, cutoff = _rule(group, cutoff, res)
    radii = cli._BALL_RADII[rule.group.family]
    balls = [radii[k % len(radii)] for k in range(4)]
    balls[-1] = NeighborhoodSpec(balls[-1], 8)
    vals = np.stack([random_band_limited_function(rule, cutoff, seed=20 + k).values
                     for k in range(len(balls))])
    ps = [1.0, 1.5, 2.0]
    cutoffs = [cutoff] if rule.group.is_finite else [cutoff, cutoff - 1]
    twist = basis_twist(rule.group, cutoff, seed=6) if twisted else contextlib.nullcontext()
    with twist:
        for cut in cutoffs:
            rows = compactness._lemma31_batch(rule, vals, balls, ps, cut)
            assert len(rows) == len(balls)
            for v, ball, row in zip(vals, balls, rows):
                f = fourier.SampledFunction(rule, v)
                for got, want in zip(row, lemma31_bound_checks(f, ball, ps, cut), strict=True):
                    _same_fields(got, want)


def test_batches_validate_before_work():
    rule = haar_quadrature(parse_group("torus:1"), 9)
    f = random_band_limited_function(rule, 2, seed=0)
    with pytest.raises(ValueError, match="direction"):
        hausdorff_young_checks(f, [(2.0, "forward"), (1.5, "sideways")])
    with pytest.raises(ValueError, match="exponent"):
        lemma31_bound_checks(f, 0.5, [2.0, 3.0])
    far = shell_subset(rule.group, 4)
    with pytest.raises(ValueError, match="beyond the computed dual"):
        lemma32_bound_checks(f, [(rule.nodes[1], shell_subset(rule.group, 1), 2.0),
                                 (rule.nodes[2], far, 2.0)], cutoff=2)
    assert hausdorff_young_checks(f, []) == []
    assert lemma32_bound_checks(f, []) == []


# -- work counts ----------------------------------------------------------------

def _count(monkeypatch, name):
    """Record the arguments of every call of ``fourier.<name>``, also where
    ``pego.cli`` calls it by the name it imported."""
    calls = []
    real = getattr(fourier, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (fourier, cli):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted)
    return calls


def _product_case():
    rule, cutoff = _rule("product(torus:1,su2)", 2, 5)
    return rule, cutoff, random_band_limited_function(rule, cutoff, seed=3)


@pytest.mark.parametrize("cutoff, f_transforms", [(2, 1), (1, 2)])
def test_lemma31_batch_transforms_f_once_for_its_whole_sweep(monkeypatch, cutoff, f_transforms):
    """At the alias-free band (2 here) the sweep reuses the transform that
    gives the tail; below it, the sweep makes one transform of its own.
    Either way no block of the sweep transforms f again."""
    rule, _, f = _product_case()
    monkeypatch.setattr(compactness, "_TRANSLATE_BLOCK_VALUES", 4 * len(rule))
    forwards = _count(monkeypatch, "_forward_blocks")
    blocks = _count(monkeypatch, "_translate_values")
    chks = lemma31_bound_checks(f, 1.0, [1.0, 1.5, 2.0], cutoff=cutoff)
    assert len(blocks) == -(-chks[0].support_size // 4) >= 3
    mine = [np.asarray(vals) for r, vals, _ in forwards if r is rule]
    assert sum(np.array_equal(vals[0], f.values) for vals in mine) == f_transforms
    assert len(mine) == f_transforms + 1  # and the Dirac element, once


@pytest.mark.parametrize("cutoff", [2, 1])
def test_lemma32_batch_takes_its_translates_in_bounded_blocks(monkeypatch, cutoff):
    """Lemma 3.2's translates go through Lemma 3.1's bounded sweep, at the
    alias-free band (2 here) and below it; each batch entry still equals
    its single check."""
    rule, _, f = _product_case()
    monkeypatch.setattr(compactness, "_TRANSLATE_BLOCK_VALUES", 4 * len(rule))
    ys = cli._random_nodes(rule, 10, np.random.default_rng(4))
    subsets = [shell_subset(rule.group, s, cutoff=cutoff) for s in (0, 1)]
    ps = [1.0, 1.5, 2.0]
    cases = [(y, subsets[k % 2], ps[k % 3]) for k, y in enumerate(ys)]
    blocks = _count(monkeypatch, "_translate_values")
    chks = lemma32_bound_checks(f, cases, cutoff)
    assert len(blocks) == math.ceil(10 / 4)
    for (y, subset, p), chk in zip(cases, chks):
        _same_fields(chk, lemma32_bound_check(f, y, subset, p, cutoff))


def _on(rule, calls):
    """The recorded calls made on ``rule`` itself, not on a product's factor rules."""
    return sum(args[0] is rule for args in calls)


def test_lemma31_suite_transforms_its_samples_once_and_each_radius_once(monkeypatch):
    """One synthesis of all three samples, and besides it one of each block
    of the translates of every (sample, ball node) pair; one forward pass
    of the samples, which the sweep shares at the alias-free band, and one
    of the Dirac element per distinct radius (two here)."""
    rule, cutoff, _ = _product_case()
    syntheses = _count(monkeypatch, "_inverse_blocks")
    forwards = _count(monkeypatch, "_forward_blocks")
    sweeps = _count(monkeypatch, "_translate_values")
    cli._suite_lemma31(rule, cutoff, 3, 7, [1.0, 1.5, 2.0])
    radii = cli._BALL_RADII["product"]
    assert _on(rule, syntheses) == 1 + len(sweeps)
    assert _on(rule, forwards) == 1 + len({radii[k % len(radii)] for k in range(3)}) == 3


@pytest.mark.parametrize("group, cutoff, res, passes", [
    ("su2", 4, 4, 2), ("product(torus:1,su2)", 2, 5, 2),
    ("su2", 4, 6, 3), ("product(torus:1,su2)", 2, 7, 3)])
def test_identities_suite_reuses_its_first_forward_pass(monkeypatch, group, cutoff, res, passes):
    """The translates and the spectral convolutions read the samples' first
    transform at the alias-free band (the workload's cutoffs), or one band
    pass of their own below it; besides that, one pass transforms the
    convolutions, translates and linear combinations, and nothing calls
    ``forward_batch``.  Two samples are one chunk on every rule here."""
    rule, cutoff = _rule(group, cutoff, res)
    forwards = _count(monkeypatch, "_forward_blocks")
    batches = _count(monkeypatch, "forward_batch")
    cli._suite_identities(rule, cutoff, 2, 7)
    assert (_on(rule, forwards), len(batches)) == (passes, 0)


def test_lemma32_and_hausdorff_young_suites_share_work_across_exponents(monkeypatch):
    """Each suite synthesizes its three samples in one pass and transforms
    them in one.  Lemma 3.2 takes the nine (sample, element) translates in
    one sweep block (9 x 6930 sampled values fit in one), which makes the
    one other synthesis; Hausdorff-Young makes none."""
    rule, cutoff, _ = _product_case()
    syntheses = _count(monkeypatch, "_inverse_blocks")
    forwards = _count(monkeypatch, "_forward_blocks")
    translates = _count(monkeypatch, "_translate_values")
    cli._suite_lemma32(rule, cutoff, 3, 7, [1.0, 1.5, 2.0])
    assert (_on(rule, syntheses), _on(rule, forwards), len(translates)) == (2, 1, 1)
    syntheses.clear()
    forwards.clear()
    cli._suite_hausdorff_young(rule, cutoff, 3, 7, [1.0, 4.0 / 3.0, 2.0])
    assert (_on(rule, syntheses), _on(rule, forwards)) == (1, 1)


# -- sample counts ----------------------------------------------------------------

@pytest.mark.parametrize("suite", ["identities", "hausdorff_young", "lemma31", "lemma32"])
def test_a_suites_traced_peak_does_not_grow_with_its_samples(suite):
    """Samples are taken in chunks of at most _TRANSLATE_BLOCK_VALUES
    sampled values (9 samples of product(torus:1,su2) at res 5), so the
    traced peak at 64 samples stays within twice the peak at 8, which is
    one chunk (a chunk's samples outlive the synthesis of the next); when
    every sample was one batch it grew about eightfold."""
    rule, cutoff, _ = _product_case()
    run = getattr(cli, f"_suite_{suite}")
    extra = () if suite == "identities" else ([1.0, 2.0],)
    run(rule, cutoff, 1, 0, *extra)  # caches filled outside the traced runs
    peaks = []
    for samples in (8, 64):
        tracemalloc.start()
        try:
            run(rule, cutoff, samples, 0, *extra)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


@pytest.mark.parametrize("suite", ["identities", "hausdorff_young", "lemma31", "lemma32"])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_verify_refuses_fewer_than_one_sample(tmp_path, capsys, suite, samples):
    """Zero samples made identities pass vacuously and the inequality suites
    report a worst margin of -inf, which the JSON writer then refused."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", suite, "--samples", samples, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
