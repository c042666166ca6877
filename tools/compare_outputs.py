"""Compare the CLI outputs of two pego checkouts.

    python3 tools/compare_outputs.py OLD NEW

OLD and NEW are the roots of two checkouts (each with ``src/pego``).  In
each tree, one child process runs through ``pego.cli.main``:

* ``diagnose`` on the seven audit families of ``bench/workloads.py``, one
  run per family and epsilon, with the audit's ball samples and seed 1;
* ``verify`` on its four groups x five suites x seeds 1 and 2, with the
  verify workload's cutoffs, resolutions and samples; then, at seed 1, the
  three inequality suites (hausdorff_young, lemma31, lemma32) with
  ``--p 1.5`` on su2 and product(torus:1,su2), where each sample is checked
  at one exponent, and the four sample suites (identities and the three
  inequality suites) on the four groups with ``--samples 1`` and with
  ``--samples 7``, batches of one sample and of more than the workload's;
  last, identities and lemma31 at a cutoff below the alias-free band
  (``BELOW_BAND``), where each suite takes a band pass of its own;
* the two commands of acceptance criterion 10 (``verify --suite schur`` on
  dihedral:3 and ``diagnose`` of a dihedral:3 matrix-entry span);
* the finite-product case: ``verify`` of the five suites on the groups of
  ``FINITE_PRODUCTS`` at seeds 1 and 2, with the verify workload's sample
  count and the default cutoff and resolution;
* the transform case: ``transform`` on the verify groups (the verify
  workload's cutoffs and resolutions) and on ``FINITE_PRODUCTS`` (the
  defaults) of a ``const:``, a ``char:`` and an ``entry:`` spec
  (``_transform_specs``), then of a ``file:`` spec reading the function CSV
  that the ``entry:`` run wrote, each in both formats;
* a library section, which no CLI command reaches: ``fourier.evaluate_at``
  of seeded unit-norm coefficients at seeded off-grid points, plus the
  beta = 0 and beta = pi fibers and +-identity of su2, for su2 at bands
  4, 8, 12 and 16, and for product(torus:1,su2) and dihedral:9 as controls
  on the matrix path; then group-law cases on su2, torus:2, dihedral:9 and
  product(torus:1,su2): ``groups.sample_ball`` coordinates and distances to
  the identity, ``multiply``, ``inverse`` and ``distance`` over seeded point
  pairs, and ``fourier.translate_values`` of a seeded function at the ball
  points; last, the su2 transforms at res 16: ``fourier.forward_batch`` of
  seeded band-16 functions at bands 16 and 4, and
  ``fourier.translate_values`` at seeded off-grid elements, the beta = pi
  fiber and -identity; and the irrep-matrix case: ``irreps.irrep_blocks``
  of the su2 spins 0 to 16 at seeded off-grid points, the beta = 0 and
  beta = pi fibers and +-identity, and at a batch of elements repeating
  a few betas, and of product(torus:1,su2) to band 4 at its seeded points;
  then the stack case: ``irreps.irrep_stack`` of every label of the dual
  of each verify group, on that group's verify rule, and on the two
  hand-built rules of ``HAND_BUILT_RULES`` (an su2 rule and a
  product(torus:1,su2) rule whose nodes are the canonical rule's times a
  fixed element, built through ``QuadratureRule`` with no kind, so their
  stacks are evaluated at the nodes' coordinates without grid structure);
  then the continuity
  case: ``compactness.equicontinuity_profile`` of the seven audit families
  (default mesh, the audit's ball samples, seed 1), one array of
  per-member moduli per family; last, the batched translate case:
  ``fourier.translate_values`` of a seeded function on product(torus:1,
  cyclic:3) at its grid nodes interleaved with seeded off-grid elements,
  which splits one batch between node re-indexing and the spectral path,
  and on torus:2 at grid nodes only, which re-indexes the whole batch;
  last, the lemma case: ``compactness.lemma31_bound_checks`` and
  ``compactness.lemma32_bound_checks`` of a seeded function on torus:2 at
  res 11 and on product(torus:1,su2) at res 5, each at the rule's
  alias-free band and one shell below it (where no CLI run reaches the
  lemmas), Lemma 3.2 over 12 seeded cases of grid nodes interleaved with
  off-grid elements, seeded head shells and cycled exponents (on the
  product that is two blocks of translates), one row of every numeric
  field per check; last, the twisted case: on su2, dihedral:9,
  product(torus:1,su2) and the hand-built product rule of
  ``HAND_BUILT_RULES``, ``fourier.forward_batch`` and
  ``fourier.inverse_batch`` of seeded samples and coefficients,
  ``fourier.translate_values`` and ``fourier.evaluate_at`` at seeded
  points and ``irreps.irrep_blocks`` of the dual at those points, each
  under ``irreps.basis_twist`` of the group and of each of its factors;
  last, the convolution case: ``fourier.convolve`` of two seeded complex
  samples, not band-limited, by "auto" and by "direct" on cyclic:16,
  dihedral:9, torus:1 at res 12 and 17 and torus:2 at res 11 and 24, and by
  "spectral" on su2 at res 4; last, the finite-product library case:
  ``fourier.forward_batch`` of two seeded complex samples on
  product(cyclic:8,dihedral:8) against its full dual, ``fourier.inverse_batch``
  of those coefficients, and ``fourier.convolve`` of the two by "auto" and by
  "direct"; last, the net case: ``compactness.epsilon_net`` of each
  precompact audit family at each of the audit's ``NET_EPSILONS`` (the
  audit's ball samples, seed 1), twice on one family object, so the second
  net reads the transform the family keeps, then once with the shell
  filtration passed explicitly; the centers, assignments and distances of
  every net; last, the p = 1.5 decay case: ``compactness.tail_decay_profile``
  of the seven audit families at p = 1.5 (which no CLI run reaches), one
  (steps, members) array of tails per family; last, the p = 1.5 continuity
  case: ``compactness.equicontinuity_profile`` of the seven audit families
  at p = 1.5 (default mesh, the audit's ball samples, seed 1), one
  (members, mesh) array of moduli per family.
  Only public functions are called, so both trees run every case.

The workload definitions are read from the ``bench/workloads.py`` beside
this script and are not changed.  The report says whether the diagnose
conclusions, the verify verdicts and the exit codes are equal, how many
output files are byte-identical, and the largest gap between corresponding
numbers (JSON numbers and CSV cells) with the file it occurs in, and then
the largest gap per top-level JSON key and per CSV file name, across the
runs that write that file, with the file and key path it occurs at (a
count stands for the keys and files holding numbers without a gap); for the library
section, the largest gap between the two trees' values per case.
The exit code is 0 when conclusions, verdicts, exit codes and the
non-numeric content of every file agree, no library gap exceeds
``LIBRARY_TOL`` and no number of the finite-product cases, in files or in
the library, moves by more than ``FINITE_PRODUCT_TOL``; 1 otherwise.
"""

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
DIAGNOSE_SEED = 1
# (suite, group name, verify options set or overridden) run at seed 1 on top
# of the grid
VERIFY_EXTRA = tuple((suite, group, {"--p": "1.5"})
                     for suite in ("hausdorff_young", "lemma31", "lemma32")
                     for group in ("su2", "product(torus:1,su2)"))
# The suites that draw samples, run at seed 1 on every verify group with
# each of these sample counts, after ``VERIFY_EXTRA``.
SAMPLE_SUITES = ("identities", "hausdorff_young", "lemma31", "lemma32")
SAMPLE_COUNTS = ("1", "7")
# (suite, group name, options) of the below-band runs at seed 1, after the
# sample-count runs: su2 at res 6 (band 6) and product(torus:1,su2) at res 7
# (band 3), each with the workload's cutoff.
BELOW_BAND = tuple((suite, group, {"--resolution": res, "--cutoff": cutoff})
                   for suite in ("identities", "lemma31")
                   for group, res, cutoff in (("su2", "6", "4"),
                                              ("product(torus:1,su2)", "7", "2")))
CRITERION10_FAMILY = {"group": "dihedral:3", "kind": "matrix_entry_span",
                      "params": {"shell": 3, "count": 8}}
# (case name, group, cutoff) of the library section; 64 random points each.
LIBRARY_CASES = (("su2-b4", "su2", 4), ("su2-b8", "su2", 8), ("su2-b12", "su2", 12),
                 ("su2-b16", "su2", 16), ("product(torus:1,su2)-b4", "product(torus:1,su2)", 4),
                 ("dihedral:9", "dihedral:9", None))
# (case name, group, resolution, band) of the group-law cases, appended
# after the evaluate_at cases so those keep their random streams.
LAW_CASES = (("law-su2", "su2", 3, 3), ("law-torus:2", "torus:2", 5, 2),
             ("law-dihedral:9", "dihedral:9", 1, 2),
             ("law-product(torus:1,su2)", "product(torus:1,su2)", 3, 2))
LAW_BALL = (1.2, 12)  # radius and sample count of the ball
# The su2 transform case, appended last: resolution, the bands of its
# forward_batch, its function count and the random elements it translates by.
SPECTRAL_RES = 16
SPECTRAL_BANDS = (16, 4)
SPECTRAL_FUNCTIONS = 3
SPECTRAL_ELEMENTS = 5
# The irrep-matrix case, appended after the su2 transform case: the su2 and
# product bands, and the betas and elements per beta of its repeated batch.
IRREP_BANDS = (("su2", 16), ("product(torus:1,su2)", 4))
IRREP_REPEATS = (4, 5)
# The hand-built rules of the stack case, appended after the verify groups:
# (group, resolution, cutoff, raw coordinates of the element that shifts the
# canonical rule's nodes).
_QUATERNION = (0.6, -0.2, 0.7, 0.3316624790355399)
HAND_BUILT_RULES = (("su2", 4, 4, _QUATERNION),
                    ("product(torus:1,su2)", 3, 3, ((0.4,), _QUATERNION)))
# The batched translate case, appended last: (case name, group, resolution,
# band, node stride); every stride-th node is an element, and on a product
# with a torus factor each is followed by a seeded off-grid element.
TRANSLATE_CASES = (("translate-mixed-product(torus:1,cyclic:3)", "product(torus:1,cyclic:3)",
                    5, 2, 2),
                   ("translate-grid-torus:2", "torus:2", 11, 4, 7))
# The lemma case, appended last: (group, resolution) of each rule, the ball
# radius of Lemma 3.1, the exponents (cycled over Lemma 3.2's cases) and
# Lemma 3.2's case count.
LEMMA_RULES = (("torus:2", 11), ("product(torus:1,su2)", 5))
LEMMA_RADIUS = 1.0
LEMMA_PAIRS = (1.0, 1.5, 2.0)
LEMMA32_CASES = 12
# The twisted case, appended last: (group, resolution, cutoff, shift) per
# rule, the shift as in ``HAND_BUILT_RULES`` (None: the canonical rule), the
# seed of every twist and the number of elements each rule translates by.
TWIST_RULES = (("su2", 4, 4, None), ("dihedral:9", 1, None, None),
               ("product(torus:1,su2)", 5, 2, None), HAND_BUILT_RULES[1])
TWIST_SEED = 8
TWIST_ELEMENTS = 6
# The convolution case, appended last: (group, resolution, methods) per rule.
CONVOLVE_CASES = tuple((group, res, ("auto", "direct")) for group, res in (
    ("cyclic:16", 1), ("dihedral:9", 1), ("torus:1", 12), ("torus:1", 17),
    ("torus:2", 11), ("torus:2", 24))) + (("su2", 4, ("spectral",)),)
# The finite-product case: the groups of its verify runs, and the group of
# its library arrays, appended last.
FINITE_PRODUCTS = ("product(cyclic:3,dihedral:3)", "product(cyclic:4,dihedral:6)")
FINITE_PRODUCT_LIBRARY = "product(cyclic:8,dihedral:8)"
# The file the transform case's file: runs read, relative to the case
# directory, where the function CSV of the entry: run is copied.
TRANSFORM_FILE = "function.csv"
LIBRARY_POINTS = 64
LIBRARY_SEED = 12
LIBRARY_TOL = 1e-12
FINITE_PRODUCT_TOL = 1e-13


def _cases(workloads):
    """(section, case name, argv without --out, input), where the input is a
    family document, the case name of the ``transform`` run whose function
    CSV a ``file:`` spec reads, or None."""
    out = []
    for name, doc, _, epsilons in workloads.AUDIT_FAMILIES:
        for eps in epsilons:
            argv = ["diagnose", "--epsilon", repr(eps), "--ball-samples",
                    str(workloads.AUDIT_BALL_SAMPLES), "--seed", str(DIAGNOSE_SEED)]
            out.append(("diagnose", f"{name}-eps{eps}", argv,
                        dict(doc, name=name, seed=DIAGNOSE_SEED)))
    def verify_argv(suite, group, seed, extra=None):
        cutoff, res = next((c, r) for g, c, r in workloads.VERIFY_GROUPS if g == group)
        opts = {"--suite": suite, "--group": group, "--resolution": str(res),
                "--samples": str(workloads.VERIFY_SAMPLES), "--seed": str(seed)}
        if cutoff is not None:
            opts["--cutoff"] = str(cutoff)
        opts.update(extra or {})
        return ["verify", *(x for kv in opts.items() for x in kv)]

    for group, _, _ in workloads.VERIFY_GROUPS:
        for suite in workloads.VERIFY_SUITES:
            for seed in SEEDS:
                out.append(("verify", f"{suite}-{group}-s{seed}",
                            verify_argv(suite, group, seed), None))
    sample_runs = tuple((suite, group, {"--samples": count}) for count in SAMPLE_COUNTS
                        for group, _, _ in workloads.VERIFY_GROUPS for suite in SAMPLE_SUITES)
    for suite, group, extra in VERIFY_EXTRA + sample_runs + BELOW_BAND:
        out.append(("verify", f"{suite}-{group}-s1" + "".join(k + v for k, v in extra.items()),
                    verify_argv(suite, group, 1, extra), None))
    out.append(("criterion10", "verify", ["verify", "--suite", "schur", "--group",
                                          "dihedral:3", "--samples", "10", "--seed", "0"],
                None))
    out.append(("criterion10", "diagnose", ["diagnose", "--seed", "7"], CRITERION10_FAMILY))
    for group in FINITE_PRODUCTS:
        for suite in workloads.VERIFY_SUITES:
            for seed in SEEDS:
                out.append(("finite-product", f"{suite}-{group}-s{seed}",
                            ["verify", "--suite", suite, "--group", group, "--samples",
                             str(workloads.VERIFY_SAMPLES), "--seed", str(seed)], None))
    for group, cutoff, res in (workloads.VERIFY_GROUPS
                               + tuple((g, None, None) for g in FINITE_PRODUCTS)):
        opts = ["--group", group]
        opts += ["--cutoff", str(cutoff)] if cutoff is not None else []
        opts += ["--resolution", str(res)] if res is not None else []
        specs = _transform_specs(group, cutoff) + (("file", f"file:{TRANSFORM_FILE}"),)
        for kind, spec in specs:
            for fmt in ("json", "csv"):
                source = f"{group}-entry-csv" if kind == "file" else None
                out.append(("transform", f"{group}-{kind}-{fmt}",
                            ["transform", *opts, "--f", spec, "--format", fmt], source))
    return out


def _transform_specs(group_name, cutoff):
    """The (kind, spec) pairs of the transform case on a group: a constant,
    the character of the last label of the dual to shell 2 (at most the
    cutoff), and entry (d, 1) of the first label of the largest dimension."""
    from pego import groups, irreps

    group = groups.parse_group(group_name)
    labels = irreps.enumerate_dual(group, 2 if cutoff is None else min(cutoff, 2))
    top = max(labels, key=lambda lab: lab.dim)
    return (("const", "const:0.5-0.25j"), ("char", f"char:{labels[-1].name}"),
            ("entry", f"entry:{top.name}:{top.dim}:1"))


def run_tree(tree, out_dir):
    """Child mode: run every case with ``tree``'s pego, outputs under ``out_dir``."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in either tree or in bench/
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    codes = run_cases(out_dir, workloads)
    with open(os.path.join(out_dir, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, sort_keys=True)
    _run_library(out_dir, workloads)


def run_cases(out_dir, workloads):
    """Run every CLI case with the imported pego, outputs under ``out_dir``;
    return the exit codes by case."""
    from pego import cli

    codes = {}
    for section, name, argv, given in _cases(workloads):
        case_dir = os.path.join(out_dir, section, _slug(name))
        os.makedirs(case_dir)
        if isinstance(given, dict):
            path = os.path.join(case_dir, "family.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(given, fh)
            argv = argv + ["--family", path]
        elif given is not None:  # the file: spec reads a CSV by a path the same in both trees
            (written,) = Path(out_dir, section, _slug(given)).glob("*_function.csv")
            shutil.copyfile(written, os.path.join(case_dir, TRANSFORM_FILE))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                contextlib.chdir(case_dir):
            codes[f"{section}/{_slug(name)}"] = cli.main(argv + ["--out", case_dir])
    return codes


def _run_library(out_dir, workloads):
    """The library section: ``evaluate_at`` per case, then the group-law,
    su2 transform, irrep-matrix, stack, continuity, batched translate, lemma,
    twisted, convolution, finite-product, net, p = 1.5 decay and p = 1.5
    continuity cases, into ``library.npz``."""
    from pego import fourier, groups

    values = {}
    for name, group_name, cutoff in LIBRARY_CASES:
        group = groups.parse_group(group_name)
        rng = np.random.default_rng([LIBRARY_SEED, len(values)])
        values[name] = fourier.evaluate_at(_library_coeffs(group, cutoff, rng),
                                           _library_points(group, rng))
    for name, group_name, res, band in LAW_CASES:
        group = groups.parse_group(group_name)
        rng = np.random.default_rng([LIBRARY_SEED, len(values)])
        for part, vals in _law_values(group, res, band, rng).items():
            values[f"{name}-{part}"] = vals
    rng = np.random.default_rng([LIBRARY_SEED, len(values)])
    for part, vals in _spectral_values(rng).items():
        values[f"spectral-su2-{part}"] = vals
    rng = np.random.default_rng([LIBRARY_SEED, len(values)])
    for part, vals in _irrep_values(rng).items():
        values[f"irrep-{part}"] = vals
    for group_name, cutoff, res in workloads.VERIFY_GROUPS:
        values[f"stack-{group_name}"] = _stack_values(group_name, cutoff, res)
    for group_name, res, cutoff, shift in HAND_BUILT_RULES:
        values[f"stack-{group_name}-hand-built"] = _stack_values(group_name, cutoff, res, shift)
    for name, doc, _, _ in workloads.AUDIT_FAMILIES:
        values[f"continuity-{name}"] = _continuity_values(
            dict(doc, name=name, seed=DIAGNOSE_SEED), workloads.AUDIT_BALL_SAMPLES)
    rng = np.random.default_rng([LIBRARY_SEED, len(values)])
    for name, group_name, res, band, stride in TRANSLATE_CASES:
        values[name] = _translate_values(group_name, res, band, stride, rng)
    rng = np.random.default_rng([LIBRARY_SEED, len(values)])
    for group_name, res in LEMMA_RULES:
        for part, vals in _lemma_values(group_name, res, rng).items():
            values[f"lemma-{group_name}-{part}"] = vals
    rng = np.random.default_rng([LIBRARY_SEED, len(values)])
    for group_name, res, cutoff, shift in TWIST_RULES:
        rule_name = group_name + ("-hand-built" if shift else "")
        for part, vals in _twisted_values(group_name, res, cutoff, shift, rng).items():
            values[f"twist-{rule_name}-{part}"] = vals
    rng = np.random.default_rng([LIBRARY_SEED, len(values)])
    for group_name, res, methods in CONVOLVE_CASES:
        for method, vals in _convolve_values(group_name, res, methods, rng).items():
            values[f"convolve-{group_name}-res{res}-{method}"] = vals
    rng = np.random.default_rng([LIBRARY_SEED, len(values)])
    for part, vals in _finite_product_values(rng).items():
        values[f"finite-product-{part}"] = vals
    for name, doc, expected, _ in workloads.AUDIT_FAMILIES:
        if expected == "precompact":
            for part, vals in _net_values(dict(doc, name=name, seed=DIAGNOSE_SEED),
                                          workloads).items():
                values[f"net-{name}-{part}"] = vals
    for name, doc, _, _ in workloads.AUDIT_FAMILIES:
        values[f"decay-p1.5-{name}"] = _decay_values(dict(doc, name=name, seed=DIAGNOSE_SEED))
    for name, doc, _, _ in workloads.AUDIT_FAMILIES:
        values[f"continuity-p1.5-{name}"] = _continuity_values(
            dict(doc, name=name, seed=DIAGNOSE_SEED), workloads.AUDIT_BALL_SAMPLES, p=1.5)
    np.savez(os.path.join(out_dir, "library.npz"), **values)


def _spectral_values(rng):
    """The su2 transform case: the coefficients of seeded band-limited
    functions at each of ``SPECTRAL_BANDS`` (one row per function) and the
    translates of the first one by seeded off-grid elements,
    a beta = pi fiber point and -identity."""
    from pego import fourier, groups, irreps

    group = groups.su2()
    rule = groups.haar_quadrature(group, SPECTRAL_RES)
    fs = [fourier.random_band_limited_function(rule, SPECTRAL_RES, seed=int(rng.integers(1000)))
          for _ in range(SPECTRAL_FUNCTIONS)]
    out = {}
    for band in SPECTRAL_BANDS:
        coeffs = fourier.forward_batch(fs, irreps.enumerate_dual(group, band))
        out[f"forward-b{band}"] = np.array([np.concatenate([b.ravel() for b in c.blocks])
                                            for c in coeffs])
    points = _library_points(group, rng)
    ys = points[:SPECTRAL_ELEMENTS] + [points[-3], points[-1]]
    out["translate"] = fourier.translate_values(fs[0], ys)
    return out


def _irrep_values(rng):
    """The irrep-matrix case: per group of ``IRREP_BANDS``, the matrices of
    every block of its dual (``fourier.slot_table``) at its seeded points,
    one row per point; on su2 also at a batch of quaternions (w, x, y, z)
    with seeded signs, some read as (z, y, x, w): all share the beta
    2 atan2(|(x, y)|, |(w, z)|) of their seeded point."""
    from pego import fourier, groups, irreps

    out = {}
    for name, band in IRREP_BANDS:
        group = groups.parse_group(name)
        table = fourier.slot_table(tuple(irreps.enumerate_dual(group, band)))
        batches = {name: _library_points(group, rng)}
        if group.family == "su2":
            betas, each = IRREP_REPEATS
            qs = rng.normal(size=(betas, 1, 4)) * rng.choice((-1.0, 1.0), size=(betas, each, 4))
            qs[:, 1::2] = qs[:, 1::2, ::-1]
            qs /= np.linalg.norm(qs, axis=2, keepdims=True)
            batches[f"{name}-repeated-beta"] = [groups.point(group, tuple(q))
                                                for q in qs.reshape(-1, 4)]
        for key, points in batches.items():
            blocks = irreps.irrep_blocks(table.block_labels, points)
            out[key] = np.concatenate([b.reshape(len(points), -1) for b in blocks], axis=1)
    return out


def _stack_values(group_name, cutoff, res, shift=None):
    """The stack case of one rule: ``irreps.irrep_stack`` of every label of
    the group's dual, one row per node, on the canonical rule at ``res`` or,
    given ``shift``, on the hand-built rule whose nodes are the canonical
    nodes times the point with coordinates ``shift``."""
    from pego import irreps

    rule = _rule(group_name, res, shift)
    return np.concatenate([irreps.irrep_stack(lab, rule).reshape(len(rule), -1)
                           for lab in irreps.enumerate_dual(rule.group, cutoff)], axis=1)


def _rule(group_name, res, shift=None):
    """The canonical rule of a group at ``res`` or, given ``shift``, the
    hand-built rule whose nodes are the canonical nodes times the point with
    coordinates ``shift``, built with no kind."""
    from pego import groups

    group = groups.parse_group(group_name)
    rule = groups.haar_quadrature(group, res)
    if shift is None:
        return rule
    y = groups.point(group, shift)
    nodes = [groups.multiply(x, y) for x in rule.nodes]
    return groups.QuadratureRule(group, groups.coords_of(group, nodes), rule.weights,
                                 rule.exactness_degree, res)


def _twisted_values(group_name, res, cutoff, shift, rng):
    """The twisted case of one rule: under ``basis_twist`` of the group and
    of each factor, the forward transforms of two seeded sample arrays, the
    synthesis of seeded coefficients on the dual to ``cutoff``, the
    translates of the first samples by the first ``TWIST_ELEMENTS`` seeded
    points, the values of the coefficients at the seeded points and the
    dual's block matrices there."""
    from pego import fourier, irreps

    rule = _rule(group_name, res, shift)
    group = rule.group
    fs = [fourier.SampledFunction(rule, v) for v in rng.normal(size=(2, len(rule), 2)) @ [1, 1j]]
    coeffs = _library_coeffs(group, cutoff, rng)
    points = _library_points(group, rng)
    out = {}
    for k, target in enumerate((group,) + group.factors):
        name = "group" if k == 0 else f"factor{k - 1}"
        with irreps.basis_twist(target, cutoff, seed=TWIST_SEED):
            out[f"{name}-forward"] = np.array([np.concatenate([b.ravel() for b in c.blocks])
                                               for c in fourier.forward_batch(fs, coeffs.labels)])
            out[f"{name}-inverse"] = fourier.inverse_batch([coeffs], rule)[0].values
            out[f"{name}-translate"] = fourier.translate_values(fs[0], points[:TWIST_ELEMENTS])
            out[f"{name}-evaluate_at"] = fourier.evaluate_at(coeffs, points)
            blocks = irreps.irrep_blocks(coeffs.table.block_labels, points)
            out[f"{name}-irrep_blocks"] = np.concatenate(
                [b.reshape(len(points), -1) for b in blocks], axis=1)
    return out


def _continuity_values(doc, ball_samples, p=2.0):
    """The continuity case of one audit family at exponent ``p``: the
    (members, mesh) moduli of ``compactness.equicontinuity_profile`` at the
    default mesh."""
    from pego import compactness, serialize

    family, _ = serialize.family_from_json(doc)
    profile = compactness.equicontinuity_profile(family, ball_samples=ball_samples, p=p,
                                                 seed=DIAGNOSE_SEED)
    return profile.per_member


def _decay_values(doc):
    """The p = 1.5 decay case of one audit family: the (steps, members)
    tails of ``compactness.tail_decay_profile`` at the default filtration."""
    from pego import compactness, serialize

    family, _ = serialize.family_from_json(doc)
    profile = compactness.tail_decay_profile(family, p=1.5)
    return np.stack([step.per_member for step in profile.steps])


def _net_values(doc, workloads):
    """The net case of one precompact audit family: per epsilon of
    ``NET_EPSILONS``, the centers, assignments and distances of
    ``compactness.epsilon_net`` run twice on one family object ("first",
    "again") and once with the shell filtration passed explicitly
    ("shells")."""
    from pego import compactness, fourier, serialize

    family, rule = serialize.family_from_json(doc)
    shells = compactness.DualFiltration.shells(rule.group, fourier.safe_band(rule))
    out = {}
    for eps in workloads.NET_EPSILONS:
        for run, filtration in (("first", None), ("again", None), ("shells", shells)):
            net = compactness.epsilon_net(family, eps, filtration,
                                          ball_samples=workloads.AUDIT_BALL_SAMPLES,
                                          seed=DIAGNOSE_SEED)
            out[f"eps{eps}-{run}-centers"] = net.centers
            out[f"eps{eps}-{run}-assignments"] = net.assignments
            out[f"eps{eps}-{run}-distances"] = net.distances
    return out


def _translate_values(group_name, res, band, stride, rng):
    """One batched translate case: ``fourier.translate_values`` of a seeded
    band-limited function at every ``stride``-th node of the rule at
    ``res``; on product(torus:1, cyclic:3) each node is followed by a seeded
    off-grid element (a uniform torus angle, a seeded residue)."""
    from pego import fourier, groups

    group = groups.parse_group(group_name)
    rule = groups.haar_quadrature(group, res)
    f = fourier.random_band_limited_function(rule, band, seed=int(rng.integers(1000)))
    ys = list(rule.nodes[::stride])
    if group.family == "product":
        off = [groups.point(group, ((a,), (int(k),)))
               for a, k in zip(rng.uniform(0, 2 * math.pi, len(ys)), rng.integers(3, size=len(ys)))]
        ys = [y for pair in zip(ys, off) for y in pair]
    return fourier.translate_values(f, ys)


def _lemma_values(group_name, res, rng):
    """The lemma case of one rule: at the alias-free band b and at b - 1,
    the checks of ``lemma31_bound_checks`` over the ball of ``LEMMA_RADIUS``
    at every exponent of ``LEMMA_PAIRS`` and of ``lemma32_bound_checks`` over
    ``LEMMA32_CASES`` seeded cases, one row per check of its int, float and
    bool fields in field order."""
    from pego import compactness, fourier, groups, irreps

    group = groups.parse_group(group_name)
    rule = groups.haar_quadrature(group, res)
    band = fourier.safe_band(rule)
    f = fourier.random_band_limited_function(rule, band, seed=int(rng.integers(1000)))
    nodes = rule.nodes_at(rng.integers(len(rule), size=LEMMA32_CASES // 2))
    off = _library_points(group, rng)[:LEMMA32_CASES // 2]
    ys = [y for pair in zip(nodes, off) for y in pair]
    shells = rng.integers(band, size=LEMMA32_CASES)

    def rows(checks):
        return np.array([[float(v) for v in vars(c).values()
                          if isinstance(v, (int, float))] for c in checks])

    out = {}
    for cutoff in (band, band - 1):
        cases = [(y, irreps.shell_subset(group, int(min(s, cutoff)), cutoff=cutoff),
                  LEMMA_PAIRS[k % len(LEMMA_PAIRS)])
                 for k, (y, s) in enumerate(zip(ys, shells))]
        out[f"31-b{cutoff}"] = rows(compactness.lemma31_bound_checks(
            f, LEMMA_RADIUS, LEMMA_PAIRS, cutoff=cutoff))
        out[f"32-b{cutoff}"] = rows(compactness.lemma32_bound_checks(f, cases, cutoff=cutoff))
    return out


def _convolve_values(group_name, res, methods, rng):
    """One convolution case: ``fourier.convolve`` of two seeded complex
    samples, not band-limited, on the rule at ``res``, by each method."""
    from pego import fourier, groups

    rule = groups.haar_quadrature(groups.parse_group(group_name), res)
    f, g = (fourier.SampledFunction(rule, [1, 1j] @ rng.normal(size=(2, len(rule))))
            for _ in range(2))
    return {method: fourier.convolve(f, g, method=method).values for method in methods}


def _finite_product_values(rng):
    """The finite-product library case: on ``FINITE_PRODUCT_LIBRARY``, the
    coefficients of two seeded complex samples against the full dual (one
    row per function), their synthesis, and their convolution by "auto" and
    by "direct"."""
    from pego import fourier, groups, irreps

    group = groups.parse_group(FINITE_PRODUCT_LIBRARY)
    rule = groups.haar_quadrature(group)
    f, g = (fourier.SampledFunction(rule, [1, 1j] @ rng.normal(size=(2, len(rule))))
            for _ in range(2))
    coeffs = fourier.forward_batch([f, g], irreps.enumerate_dual(group))
    out = {"forward": np.array([np.concatenate([b.ravel() for b in c.blocks]) for c in coeffs]),
           "inverse": np.array([h.values for h in fourier.inverse_batch(coeffs, rule)])}
    for method in ("auto", "direct"):
        out[f"convolve-{method}"] = fourier.convolve(f, g, method=method).values
    return out


def _law_values(group, res, band, rng):
    """One group-law case: the ball's coordinates and distances to e, per
    seeded pair (a, b) the coordinates of a*b and a^-1 and d(a, b), and the
    translates of a seeded band-limited function by the ball points."""
    from pego import fourier, groups

    ball = groups.sample_ball(group, groups.NeighborhoodSpec(*LAW_BALL),
                              seed=int(rng.integers(1000)))
    e = groups.identity(group)
    pairs = list(zip(_library_points(group, rng), _library_points(group, rng)))
    rule = groups.haar_quadrature(group, res)
    f = fourier.random_band_limited_function(rule, band, seed=int(rng.integers(1000)))
    return {
        "ball": np.array([_flat(p) for p in ball]),
        "ball-distance": np.array([groups.distance(e, p) for p in ball]),
        "multiply-inverse": np.array([_flat(groups.multiply(a, b)) + _flat(groups.inverse(a))
                                      for a, b in pairs]),
        "distance": np.array([groups.distance(a, b) for a, b in pairs]),
        "translate": fourier.translate_values(f, ball),
    }


def _flat(p):
    """A point's coordinates as one list of floats, product factors in order."""
    if p.group.family == "product":
        return [c for comp in p.coords for c in _flat(comp)]
    return [float(c) for c in p.coords]


def _library_coeffs(group, cutoff, rng):
    """Complex-normal coefficients on the dual to ``cutoff``, unit L2 norm."""
    from pego import fourier, irreps

    labels = irreps.enumerate_dual(group, cutoff)
    entries = {lab: rng.normal(size=(lab.dim, lab.dim)) + 1j * rng.normal(size=(lab.dim, lab.dim))
               for lab in labels}
    mass = sum(lab.dim * float((abs(m) ** 2).sum()) for lab, m in entries.items())
    return fourier.FourierCoefficients(group, labels,
                                       {lab: m / math.sqrt(mass) for lab, m in entries.items()})


def _library_points(group, rng):
    """``LIBRARY_POINTS`` random points of ``group``, then on su2 (and on an
    su2 factor) the beta = 0 and beta = pi fibers and +-identity."""
    from pego import groups

    if group.family == "product":
        comps = [_library_points(f, rng) for f in group.factors]
        count = max(len(c) for c in comps)
        return [groups.point(group, tuple(c[k % len(c)] for c in comps)) for k in range(count)]
    if group.family == "dihedral":
        return [groups.point(group, (int(r), int(s)))
                for r, s in zip(rng.integers(group.n, size=LIBRARY_POINTS),
                                rng.integers(2, size=LIBRARY_POINTS))]
    if group.family == "torus":
        return [groups.point(group, tuple(a)) for a in rng.uniform(0, 2 * math.pi,
                                                                   (LIBRARY_POINTS, group.n))]
    qs = rng.normal(size=(LIBRARY_POINTS, 4))
    qs = [tuple(q) for q in qs / np.linalg.norm(qs, axis=1, keepdims=True)]
    for t in (0.0, 0.4, 1.9, -2.7):
        qs += [(math.cos(t), 0.0, 0.0, math.sin(t)), (0.0, math.cos(t), math.sin(t), 0.0)]
    qs += [(1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0)]
    return [groups.point(group, q) for q in qs]


def _slug(text):
    return "".join(c if c.isalnum() or c in "-." else "_" for c in text)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _gap(a, b, where, acc, path=()):
    """Walk two parsed documents of the file ``where`` together.  Per group
    (``_group``), the largest numeric gap and the file and key path where it
    occurs go into ``acc["gaps"]``; a structural or textual difference goes
    into ``acc["other"]``."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        if a != b:
            acc["other"].append(where)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                acc["other"].append(where)
            return
        gap = abs(a - b)
        group = _group(where, path)
        if gap > acc["gaps"].setdefault(group, (0.0, None))[0]:
            acc["gaps"][group] = (gap, f"{where} {_key_path(path)}")
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            acc["other"].append(where)
        for k in a.keys() & b.keys():
            _gap(a[k], b[k], where, acc, path + (k,))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            acc["other"].append(where)
        for i, (x, y) in enumerate(zip(a, b)):
            _gap(x, y, where, acc, path + (i,))
    elif a != b:
        acc["other"].append(where)


def _group(where, path):
    """The group a number of the file ``where`` at key ``path`` counts
    toward: the file's name and its top-level key for a JSON object, the
    file's name for a CSV file.  A group spans the runs of every case that
    writes that file name."""
    name = Path(where).name
    return f"{name}:{path[0]}" if path and isinstance(path[0], str) else name


def _key_path(path):
    """A key path as text: ``verdicts[0].uniform_decay``, or ``[row][col]``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _parse(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return [[_number(c) if _number(c) is not None else c for c in line.split(",")]
            for line in text.splitlines()]


def _verdicts(path, section):
    doc = json.loads(path.read_text(encoding="utf-8"))
    if section == "verify":
        return doc["all_passed"]
    return [v["conclusion"] for v in doc["verdicts"]]


def compare(old_dir, new_dir):
    """Print the comparison of two output trees; return True when they agree."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    ok = True
    codes = [json.loads((d / "exit_codes.json").read_text()) for d in (old_dir, new_dir)]
    if codes[0] != codes[1]:
        ok = False
        print("exit codes differ:", {k: (codes[0].get(k), codes[1].get(k))
                                      for k in codes[0].keys() | codes[1].keys()
                                      if codes[0].get(k) != codes[1].get(k)})
    inputs = ("family.json", TRANSFORM_FILE)
    for section in ("diagnose", "verify", "criterion10", "finite-product", "transform"):
        files = sorted(p.relative_to(old_dir) for p in (old_dir / section).rglob("*")
                       if p.is_file() and p.name not in inputs)
        new_files = sorted(p.relative_to(new_dir) for p in (new_dir / section).rglob("*")
                           if p.is_file() and p.name not in inputs)
        if files != new_files:
            ok = False
            print(f"{section}: output file names differ")
        acc = {"gaps": {}, "other": []}
        same_bytes = 0
        same_verdicts = True
        runs = 0
        for rel in files:
            a, b = old_dir / rel, new_dir / rel
            if not b.exists():
                continue
            same_bytes += a.read_bytes() == b.read_bytes()
            _gap(_parse(a), _parse(b), str(rel), acc)
            if rel.suffix == ".json" and rel.name.startswith(("verify_", "diagnose_")):
                runs += 1
                kind = "verify" if rel.name.startswith("verify_") else "diagnose"
                same_verdicts &= _verdicts(a, kind) == _verdicts(b, kind)
            runs += rel.suffix == ".json" and rel.name.startswith("transform_")
        ok = ok and same_verdicts and not acc["other"]
        gap, where = max(acc["gaps"].values(), key=lambda g: g[0], default=(0.0, None))
        if section == "finite-product":
            ok = ok and gap <= FINITE_PRODUCT_TOL
        print(f"{section}: {runs} runs, conclusions equal: {same_verdicts}, "
              f"files byte-identical {same_bytes}/{len(files)}, "
              f"largest numeric gap {gap:.3e}" + (f" ({where})" if where else ""))
        moved = sorted(g for g, (gap, _) in acc["gaps"].items() if gap > 0)
        for group in moved:
            gap, where = acc["gaps"][group]
            print(f"  {group}: largest gap {gap:.3e} ({where})")
        print(f"  {len(acc['gaps']) - len(moved)} other top-level keys and CSV files "
              "holding numbers: no gap")
        for where in sorted(set(acc["other"])):
            print(f"  non-numeric difference in {where}")
    return _compare_library(old_dir, new_dir) and ok


def _compare_library(old_dir, new_dir):
    """Print the largest gap of the evaluate_at cases, of the group-law
    cases, of the su2 transform case, of the irrep-matrix case, of the
    stack case, of the continuity case, of the batched translate case, of
    the lemma case, of the twisted case, of the convolution case, of the
    finite-product case, of the net case, of the p = 1.5 decay case and of
    the p = 1.5 continuity case of the library section; True
    when all are within
    LIBRARY_TOL and the finite-product ones within FINITE_PRODUCT_TOL."""
    with np.load(old_dir / "library.npz") as old, np.load(new_dir / "library.npz") as new:
        if sorted(old.files) != sorted(new.files):
            print("library: case names differ")
            return False
        gaps = {name: _array_gap(old[name], new[name]) for name in old.files}
    kinds = {"law-": "group-law and translate", "spectral-": "su2 res 16 transform",
             "irrep-": "irrep-matrix", "stack-": "irrep-stack",
             "continuity-p1.5-": "p = 1.5 continuity", "continuity-": "continuity",
             "translate-": "batched translate", "lemma-": "lemma check",
             "twist-": "twisted", "convolve-": "convolution",
             "finite-product-": "finite-product", "net-": "epsilon-net",
             "decay-p1.5-": "p = 1.5 decay"}
    kind_of = {n: next((k for p, k in kinds.items() if n.startswith(p)), "evaluate_at")
               for n in gaps}
    parts = []
    for kind in ("evaluate_at", *kinds.values()):
        names = [n for n in gaps if kind_of[n] == kind]
        name = max(names, key=gaps.get)
        parts.append(f"{len(names)} {kind} arrays, largest gap {gaps[name]:.3e} ({name})")
    print(f"library: {'; '.join(parts)}; tolerance {LIBRARY_TOL:.0e}, "
          f"finite-product {FINITE_PRODUCT_TOL:.0e}")
    return all(gap <= (FINITE_PRODUCT_TOL if kind_of[n] == "finite-product" else LIBRARY_TOL)
               for n, gap in gaps.items())  # a NaN gap fails


def _array_gap(a, b):
    """The largest |a - b| over two arrays of one shape; equal entries, the
    infinite exponents of the lemma case included, have gap 0."""
    with np.errstate(invalid="ignore"):
        return float(np.max(np.where(a == b, 0.0, np.abs(a - b)), initial=0.0))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="root of the first checkout")
    ap.add_argument("new", help="root of the second checkout")
    ap.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run:  # child mode: OLD is the tree, NEW the output directory
        run_tree(args.old, args.new)
        return 0
    with tempfile.TemporaryDirectory(prefix="pego_compare_") as tmp:
        dirs = []
        for side, tree in (("old", args.old), ("new", args.new)):
            out = os.path.join(tmp, side)
            subprocess.run([sys.executable, __file__, "--run", tree, out], check=True)
            dirs.append(out)
        return 0 if compare(*dirs) else 1


if __name__ == "__main__":
    sys.exit(main())
