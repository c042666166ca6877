"""Command-line front end: transform, verify, diagnose, report.

Exit codes: 0 success, 1 verify-suite property failure (or an incoherent
diagnosis), 2 malformed input or an input or output file that cannot be
read, parsed or written (``file:`` and family member specs included), 3
insufficient resolution.  ``main`` alone maps a failure to its code and one
``error:`` line.  A negative precompactness verdict is data and exits 0.

Identical arguments and seeds produce byte-identical output files; outputs
embed the fully resolved configuration and never contain timestamps or
absolute paths.  The default output directory is $PEGO_OUTPUT_DIR or ".".
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import compactness
from . import serialize as ser
from .compactness import (
    CoherenceError,
    _lemma31_batch,
    _lemma32_batch,
    pego_verdicts,
)
from .fourier import (
    FourierCoefficients,
    SampledFunction,
    _convolve_blocks,
    _cutoff_dual,
    _direct_convolution,
    _forward_blocks,
    _inverse_blocks,
    _permutes,
    _random_band_limited,
    _right_action,
    _translate_values,
    convolve,
    forward_to_cutoff,
    safe_band,
    slot_table,
)
from .groups import (
    ResolutionError,
    coords_of,
    haar_quadrature,
    parse_group,
)
from .irreps import _blocks_at, enumerate_dual, shell_subset
from .norms import (
    ExponentPair,
    _hausdorff_young_batch,
    lp_function_norm,
    lp_oplus_norm,
    lp_value_norms,
    plancherel_residual,
)

_IDENTITY_TOL = 1e-10
_LEMMA_SLACK = 1e-8
_SCHUR_BLOCK_NODES = 1024  # bounds the Schur suite's entry copies to 1024 x sum(dim^2) values

_DEFAULT_CUTOFF = {"torus": 8, "su2": 4}

_BALL_RADII = {"cyclic": [0.5, 1.0], "dihedral": [0.5, 1.0],
               "torus": [0.2, 0.5, 1.0], "su2": [0.8, 1.2],
               "product": [0.5, 1.0]}


def _default_rule(group, resolution, cutoff):
    """Resolve (rule, cutoff) so the cutoff is alias-free for the rule.  A
    finite group's rule does not depend on the cutoff, so it is built first,
    and ``haar_quadrature`` refuses a group beyond the node budget before
    the dual is enumerated for the default cutoff."""
    if group.is_finite:
        rule = haar_quadrature(group, resolution=1 if resolution is None else resolution)
        if cutoff is None:
            cutoff = max(lab.shell for lab in enumerate_dual(group, None))
        return rule, cutoff
    if cutoff is None:
        cutoff = _DEFAULT_CUTOFF.get(group.family, 4)
    if resolution is None:
        # an su2 rule needs resolution >= 1
        resolution = max(cutoff, 1) if group.family == "su2" else 2 * cutoff + 1
    return haar_quadrature(group, resolution=resolution), cutoff


def _out_dir(args):
    out = args.out or os.environ.get("PEGO_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _say(lines):
    """Print ``lines`` and flush.  If the reader has closed stdout, point its
    descriptor at the null device: the command still returns its own status
    and the flush at exit writes nothing.  Commands write their files first."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _slug(text):
    return "".join(c if c.isalnum() else "_" for c in text).strip("_")


def _config(rule, **extra):
    cfg = {
        "group": rule.group.name,
        "resolution": rule.resolution,
        "exactness_degree": rule.exactness_degree,
    }
    cfg.update(extra)
    return cfg


def _random_nodes(rule, count, rng):
    return rule.nodes_at(rng.integers(0, len(rule), size=count))


# -- transform ----------------------------------------------------------------

def cmd_transform(args):
    group = parse_group(args.group)
    rule, cutoff = _default_rule(group, args.resolution, args.cutoff)
    f = ser.parse_function_spec(args.f, rule)
    coeffs = forward_to_cutoff(f, cutoff=cutoff)
    l2 = lp_function_norm(f, 2)
    rep2 = lp_oplus_norm(coeffs, 2)
    resid = plancherel_residual(f, coeffs, coeffs.labels)
    doc = {
        "schema_version": ser.SCHEMA_VERSION,
        "type": "transform_result",
        "config": _config(rule, cutoff=cutoff, f=args.f, seed=args.seed),
        "coefficients": dict(ser.coefficients_to_json(coeffs), cutoff=cutoff,
                             l2_mass_total=float(np.sum(rule.weights * np.abs(f.values) ** 2))),
        "norms": {
            "l2_function": float(l2),
            "l2_oplus_within_cutoff": ser.norm_report_to_json(rep2),
            "plancherel_residual_beyond_cutoff": float(resid),
        },
    }
    out = _out_dir(args)
    base = os.path.join(out, f"transform_{_slug(args.f)}")
    _write(base + ".json", ser.dumps(doc))
    if args.format == "csv":
        _write(base + "_function.csv", ser.function_to_csv(f))
    lines = []
    for lab in coeffs.labels:
        fro = float(np.linalg.norm(coeffs[lab]))
        if fro > 1e-12:
            lines.append(f"{lab.name}  d={lab.dim}  fro={fro:.12g}")
    if not lines:
        lines.append("all coefficients below 1e-12 within the cutoff")
    _say(lines + [f"wrote {base}.json"])
    return 0


# -- verify -------------------------------------------------------------------

def _max_gap(blocks, others):
    """Largest entry of |x - y| over paired coefficient blocks."""
    return max(float(np.max(np.abs(x - y))) for x, y in zip(blocks, others))


def _checks(rows, rhs):
    """One check dict per name of the per-sample ``(name, margin, ok)``
    rows, in first-seen order: lhs is the name's worst margin, and the check
    is satisfied when every sample's ok holds and lhs <= rhs."""
    worst = {}
    for name, margin, ok in rows:
        lhs, all_ok = worst.get(name, (-math.inf, True))
        worst[name] = (max(lhs, margin), all_ok and ok)
    return [{"name": name, "lhs": float(lhs), "rhs": rhs,
             "satisfied": bool(ok and lhs <= rhs)}
            for name, (lhs, ok) in worst.items()]


def _sample_chunks(rule, samples):
    """The sample indices of a suite in chunks of at most
    ``compactness._TRANSLATE_BLOCK_VALUES`` sampled values, at least one
    sample each, so the memory a batch takes does not grow with
    ``--samples``; a sample's numbers do not depend on its chunk."""
    per = max(1, compactness._TRANSLATE_BLOCK_VALUES // len(rule))
    return [range(lo, min(lo + per, samples)) for lo in range(0, samples, per)]


def _suite_identities(rule, cutoff, samples, seed):
    """The transform identities on each sample pair (f, g), with the
    elements and weights of all samples drawn first, a chunk of samples
    at a time (``_identity_rows``)."""
    rng = np.random.default_rng(seed)
    ys, weights = [], []
    for _ in range(samples):
        ys += _random_nodes(rule, 1, rng)
        weights.append(rng.standard_normal(2))
    rows = []
    for chunk in _sample_chunks(rule, samples):
        # the f samples, then the g samples
        seeds = [seed + 17 * k + j for j in (1, 2) for k in chunk]
        rows += _identity_rows(rule, cutoff, seeds, [ys[k] for k in chunk],
                               [weights[k] for k in chunk])
    return _checks(rows, _IDENTITY_TOL)


def _identity_rows(rule, cutoff, seeds, ys, weights):
    """The identity rows of the sample pairs (f_k, g_k) drawn from the seeds
    (the f seeds, then the g seeds) with translate elements ``ys`` and
    linear weights ``weights``.  All samples are synthesized in one pass
    and transformed in one.  Their roundtrip is one synthesis; the
    translates are one pairwise ``fourier._translate_values``, and on
    spectral rules the convolutions one ``_convolve_blocks``, both on the
    transform at the alias-free band: the first pass when the cutoff is the
    band, else one band pass of all samples, taken only when it is needed.
    The convolutions, translates and linear combinations share a second
    forward pass."""
    m = len(ys)
    table = slot_table(tuple(_cutoff_dual(rule, cutoff)))
    values = _random_band_limited(rule, cutoff, seeds)
    coeffs = _forward_blocks(rule, values, table)
    fblocks, gblocks = [b[:m] for b in coeffs], [b[m:] for b in coeffs]
    fv, gv = values[:m], values[m:]
    back = _inverse_blocks(rule, table, fblocks, m)
    l2s = lp_value_norms(rule.weights, fv, 2)
    coords = coords_of(rule.group, ys)
    direct = _direct_convolution(rule)
    band_table = fband = gband = None
    if not direct or not _permutes(rule, coords).all():
        band_table = slot_table(tuple(_cutoff_dual(rule)))
        band = coeffs if band_table is table else _forward_blocks(rule, values, band_table)
        fband, gband = [b[:m] for b in band], [b[m:] for b in band]
    moved = _translate_values(rule, fv, coords, band_table, fband)
    if direct:
        convs = [convolve(SampledFunction(rule, f), SampledFunction(rule, g)).values
                 for f, g in zip(fv, gv)]
    else:
        convs = _convolve_blocks(rule, band_table, fband, gband)
    second = np.concatenate([
        convs,
        moved,
        [f * complex(a) + g * complex(b) for f, g, (a, b) in zip(fv, gv, weights)],
    ])
    hbl, tbl, cbl = zip(*(np.split(b, 3) for b in _forward_blocks(rule, second, table)))
    ts = _right_action(table, fblocks, coords)
    rows = []
    for k, (a, b) in enumerate(weights):
        fc, gc, hc, tc, tsk, combc = ([blk[k] for blk in part] for part in (
            fblocks, gblocks, hbl, tbl, ts, cbl))
        mass = FourierCoefficients.from_blocks(rule.group, table, fc).head_mass(table.labels)
        l2 = float(l2s[k])
        base = rule.integrate(fv[k])
        left = rule.integrate(moved[k])
        rows += [
            ("roundtrip", float(np.max(np.abs(back[k] - fv[k]))), True),
            ("plancherel_rel", abs(mass - l2 ** 2) / l2 ** 2, True),
            ("convolution", _max_gap(hc, [gb @ fb for gb, fb in zip(gc, fc)]), True),
            ("translation", _max_gap(tc, tsk), True),
            ("linearity", _max_gap(combc, [a * fb + b * gb for fb, gb in zip(fc, gc)]), True),
            ("haar_invariance", abs(left - base), True),
        ]
    return rows


# The three inequality suites take their samples a chunk at a time
# (``_sample_chunks``) and synthesize a chunk in one pass
# (``fourier._random_band_limited``).  Each then checks every sample of the
# chunk at every exponent in one batch: one forward pass of the samples,
# for Lemma 3.2 and Lemma 3.1 one sweep of translates of every (sample,
# element) pair, and for Lemma 3.1 one Dirac element, transform and set A
# per distinct ball radius.  A sample's numbers do not depend on its batch,
# and every sample gives one (name, margin, ok) row per exponent, which
# ``_checks`` reduces to the worst margin of each name in sample order.

def _suite_hausdorff_young(rule, cutoff, samples, seed, p_values):
    cases = [(ExponentPair.of(p), direction) for p in p_values
             for direction in ("forward", "reverse")]
    rows = []
    for chunk in _sample_chunks(rule, samples):
        vals = _random_band_limited(rule, cutoff, [seed + 31 * k for k in chunk])
        for chks in _hausdorff_young_batch(rule, vals, cases, cutoff=cutoff):
            for p, fwd, rev in zip(p_values, chks[::2], chks[1::2]):
                m_fwd, m_rev = fwd.lhs - fwd.rhs, rev.lhs - rev.rhs
                rows += [(f"forward_p={p:g}", m_fwd, True), (f"reverse_p={p:g}", m_rev, True)]
                if p == 2.0:
                    rows.append(("equality_p=2", max(abs(m_fwd), abs(m_rev)), True))
    return _checks(rows, _IDENTITY_TOL)


def _suite_lemma31(rule, cutoff, samples, seed, p_values):
    radii = _BALL_RADII[rule.group.family]
    pairs = [ExponentPair.of(p) for p in p_values]
    rows = []
    for chunk in _sample_chunks(rule, samples):
        vals = _random_band_limited(rule, cutoff, [seed + 13 * k for k in chunk])
        balls = [radii[k % len(radii)] for k in chunk]
        for chks in _lemma31_batch(rule, vals, balls, pairs, cutoff=cutoff):
            rows += [(f"tail_le_2sup_p={p:g}", chk.tail - chk.rhs, chk.satisfied)
                     for p, chk in zip(p_values, chks)]
    return _checks(rows, _LEMMA_SLACK)


def _suite_lemma32(rule, cutoff, samples, seed, p_values):
    rng = np.random.default_rng(seed)
    max_shell = max(lab.shell for lab in enumerate_dual(rule.group, cutoff))
    pairs = [ExponentPair.of(p) for p in p_values]
    # the elements are drawn exponent by exponent, sample by sample
    ys = [[_random_nodes(rule, 1, rng)[0] for _ in range(samples)] for _ in pairs]
    rows = []
    for chunk in _sample_chunks(rule, samples):
        vals = _random_band_limited(rule, cutoff, [seed + 7 * k for k in chunk])
        cases = []
        for k in chunk:
            A = shell_subset(rule.group, min(1 + k % 2, max_shell), cutoff=cutoff)
            cases.append([(ys[i][k], A, pair) for i, pair in enumerate(pairs)])
        for chks in _lemma32_batch(rule, vals, cases, cutoff=cutoff):
            rows += [(f"lhs_le_head_plus_tail_p={p:g}",
                      chk.lhs - (chk.head_term + chk.tail_term), chk.satisfied)
                     for p, chk in zip(p_values, chks)]
    return _checks(rows, _LEMMA_SLACK)


def _schur_gram_gap(rule, dims, views):
    """Every matrix entry of every label is one column of E, the blocks'
    (n, n_b*d*d) views side by side, and Schur says E^T W conj(E) =
    diag(1/dim).  E is multiplied a block of nodes at a time, so no full
    copy of it is ever made."""
    want = np.concatenate([np.full(v.shape[1], 1.0 / d) for d, v in zip(dims, views)])
    gram = np.zeros((len(want), len(want)), dtype=complex)
    for lo in range(0, len(rule), _SCHUR_BLOCK_NODES):
        rows = slice(lo, lo + _SCHUR_BLOCK_NODES)
        block = np.concatenate([v[rows] for v in views], axis=1)
        gram += (block.T * rule.weights[rows]) @ block.conj()
    return float(np.max(np.abs(gram - np.diag(want))))


def _schur_cell_gap(rule, table, views):
    """Column c = pos*d*d + i*d + j of a block's view is pi(t)[i, j] for the
    label at pos, whose transform is 1/dim at cell [j, i] of pi: with the
    coefficient blocks transposed and flattened like the views, 1/d at
    column c of its own block and 0 elsewhere.  The columns reach
    ``fourier._forward_blocks`` as one value array per batch of at most
    _SCHUR_BLOCK_NODES * sum(dim^2) values, the gram's bound."""
    per_batch = max(1, _SCHUR_BLOCK_NODES * sum(v.shape[1] for v in views) // len(rule))
    gap = 0.0
    for b, (d, view) in enumerate(zip(table.dims, views)):
        for lo in range(0, view.shape[1], per_batch):
            vals = np.ascontiguousarray(view[:, lo:lo + per_batch].T)
            got = [c.transpose(0, 1, 3, 2).reshape(len(vals), -1)
                   for c in _forward_blocks(rule, vals, table)]
            got[b][np.arange(len(vals)), lo + np.arange(len(vals))] -= 1.0 / d
            gap = max(gap, *(float(np.max(np.abs(g))) for g in got))
    return gap


def _suite_schur(rule, cutoff, samples, seed):
    band = safe_band(rule)
    if band is not None and cutoff > band:
        raise ResolutionError(
            f"cutoff {cutoff} exceeds alias-free band {band} of {rule.rule_id}")
    table = slot_table(tuple(enumerate_dual(rule.group, cutoff)))
    views = [b.reshape(len(rule), -1) for b in _blocks_at(table.block_labels, rule)]
    gram = _schur_gram_gap(rule, table.dims, views)
    single = _schur_cell_gap(rule, table, views)
    return _checks([("gram_block_pattern", gram, True),
                    ("entry_transform_single_cell", single, True)], _IDENTITY_TOL)


def cmd_verify(args):
    group = parse_group(args.group)
    rule, cutoff = _default_rule(group, args.resolution, args.cutoff)
    p_values = [args.p] if args.p is not None else None
    if args.suite == "identities":
        checks = _suite_identities(rule, cutoff, args.samples, args.seed)
    elif args.suite == "hausdorff_young":
        checks = _suite_hausdorff_young(rule, cutoff, args.samples, args.seed,
                                        p_values or [1.0, 4.0 / 3.0, 2.0])
    elif args.suite == "lemma31":
        checks = _suite_lemma31(rule, cutoff, args.samples, args.seed,
                                p_values or [1.0, 2.0])
    elif args.suite == "lemma32":
        checks = _suite_lemma32(rule, cutoff, args.samples, args.seed,
                                p_values or [1.0, 2.0])
    else:
        checks = _suite_schur(rule, cutoff, args.samples, args.seed)
    all_ok = all(c["satisfied"] for c in checks)
    doc = {
        "schema_version": ser.SCHEMA_VERSION,
        "type": "verify_result",
        "suite": args.suite,
        "config": _config(rule, cutoff=cutoff, seed=args.seed,
                          samples=args.samples, p=args.p,
                          tolerances={"identity": _IDENTITY_TOL,
                                      "lemma_slack": _LEMMA_SLACK}),
        "checks": checks,
        "all_passed": all_ok,
    }
    out = _out_dir(args)
    path = os.path.join(out, f"verify_{args.suite}.json")
    _write(path, ser.dumps(doc))
    _say([f"{'PASS' if chk['satisfied'] else 'FAIL'} {chk['name']}: "
          f"lhs={chk['lhs']:.12e} rhs={chk['rhs']:.12e}" for chk in checks]
         + [f"wrote {path}"])
    return 0 if all_ok else 1


# -- diagnose -----------------------------------------------------------------

def cmd_diagnose(args):
    doc = ser.read_input(args.family)
    family, rule = ser.family_from_json(doc)
    epsilons = args.epsilon or [0.5, 0.1, 0.01]
    # one pair of profiles, shared by every epsilon's verdict
    verdicts = pego_verdicts(family, epsilons, ball_samples=args.ball_samples,
                             seed=args.seed)
    last = verdicts[-1]
    outdoc = {
        "schema_version": ser.SCHEMA_VERSION,
        "type": "diagnose_result",
        "family": family.name,
        "family_definition": doc,
        "config": _config(rule, seed=args.seed, ball_samples=args.ball_samples,
                          epsilons=[float(e) for e in epsilons]),
        "verdicts": [ser.verdict_to_json(v) for v in verdicts],
        "decay_profile": ser.decay_profile_to_json(last.decay_profile),
        "continuity_profile": ser.continuity_profile_to_json(
            last.continuity_profile),
    }
    out = _out_dir(args)
    base = os.path.join(out, f"diagnose_{_slug(family.name)}")
    _write(base + ".json", ser.dumps(outdoc))
    _write(base + "_decay.csv",
           ser.decay_profile_csv(last.decay_profile))
    _write(base + "_equicontinuity.csv",
           ser.continuity_profile_csv(last.continuity_profile))
    _say([f"family={family.name} epsilon={eps:g} -> {v.conclusion}"
          for eps, v in zip(epsilons, verdicts)] + [f"wrote {base}.json"])
    return 0


# -- report -------------------------------------------------------------------

_DECAY_HEAD = ("family", "step", "shell", "sup_tail")
_EQUI_HEAD = ("family", "delta", "omega")


def _rows_from_input(path):
    """Extract (decay_rows, equi_rows) from a diagnose JSON or merged CSV,
    each row a tuple of field strings.  In a diagnose JSON the family is a
    string, both profiles are objects, a decay step is an object whose
    step and shell are integers and whose sup_tail is a number, and the
    continuity deltas and omegas are lists of numbers of one length; any
    other document is a FormatError that names the key."""
    doc = ser.read_input(path)
    if isinstance(doc, dict):
        what = f"diagnose document {path!r}"

        def typed(obj, key, kind, *default):
            value = obj.get(key, *default) if default else ser.field(obj, key, what)
            return ser.expect(value, kind, f"{what}: {key!r}")

        fam = typed(doc, "family", "a string", "unknown")
        steps = typed(doc, "decay_profile", "an object", {}).get("steps", [])
        if not isinstance(steps, list) or not all(isinstance(s, dict) for s in steps):
            raise ser.FormatError(f"{what}: decay steps must be a list of objects")
        decay = [(fam, str(typed(s, "step", "an integer")), str(typed(s, "shell", "an integer")),
                  repr(float(typed(s, "sup_tail", "a number"))))
                 for s in steps]
        cont = typed(doc, "continuity_profile", "an object", {"deltas": [], "omegas": []})
        deltas, omegas = (typed(cont, key, "a list of numbers") for key in ("deltas", "omegas"))
        if len(deltas) != len(omegas):
            raise ser.FormatError(f"{what}: 'deltas' and 'omegas' must be lists of one length")
        equi = [(fam, repr(float(d)), repr(float(w))) for d, w in zip(deltas, omegas)]
        return decay, equi
    head, rows = ser.report_from_csv(doc)
    if head in ((), _DECAY_HEAD):
        return rows, []
    if head == _EQUI_HEAD:
        return [], rows
    raise ser.FormatError(f"unrecognized report input {path!r}")


def cmd_report(args):
    if not args.inputs:
        raise ser.FormatError("no inputs given")
    decay_rows, equi_rows = [], []
    for path in args.inputs:
        d, e = _rows_from_input(path)
        decay_rows.extend(d)
        equi_rows.extend(e)
    decay_rows = sorted(set(decay_rows), key=lambda r: (r[0], int(r[1])))
    equi_rows = sorted(set(equi_rows), key=lambda r: (r[0], -float(r[1])))
    out = _out_dir(args)
    wrote = []
    for name, head, rows in (("report_decay.csv", _DECAY_HEAD, decay_rows),
                             ("report_equicontinuity.csv", _EQUI_HEAD, equi_rows)):
        if rows:
            path = os.path.join(out, name)
            _write(path, ser.report_csv(head, rows))
            wrote.append(path)
    if not wrote:
        raise ser.FormatError("inputs contained no profile rows")
    _say(f"wrote {path}" for path in wrote)
    return 0


# -- entry point ---------------------------------------------------------------

def _int_at_least(low):
    """An argparse type: an integer >= ``low``.  A suite over no samples
    would pass vacuously or report a worst margin of -inf, and a negative
    cutoff leaves an empty dual, so every transform would be empty.  Text
    that is no integer makes ``int`` raise, which argparse reports as an
    "invalid int value", the type named by ``__name__``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="pego",
        description="Fourier analysis and precompactness diagnostics on "
                    "concrete compact groups.")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="Fourier-transform a function spec")
    t.add_argument("--group", required=True)
    t.add_argument("--f", required=True, metavar="SPEC",
                   help="const:C | char:K | entry:LABEL:I:J | file:PATH")
    t.add_argument("--resolution", type=int)
    t.add_argument("--cutoff", type=_int_at_least(0))
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--format", choices=["json", "csv"], default="json")
    t.add_argument("--out")

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("--suite", required=True,
                   choices=["identities", "hausdorff_young", "lemma31",
                            "lemma32", "schur"])
    v.add_argument("--group", default="dihedral:3")
    v.add_argument("--resolution", type=int)
    v.add_argument("--cutoff", type=_int_at_least(0))
    v.add_argument("--p", type=float)
    v.add_argument("--samples", type=_int_at_least(1), default=25)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out")

    d = sub.add_parser("diagnose", help="precompactness verdict for a family file")
    d.add_argument("--family", required=True, metavar="FILE")
    d.add_argument("--epsilon", type=float, action="append")
    d.add_argument("--ball-samples", type=int, default=8)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out")

    r = sub.add_parser("report", help="merge diagnose outputs into plot tables")
    r.add_argument("inputs", nargs="*", metavar="FILE")
    r.add_argument("--out")
    return ap


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process."""
    return _build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so a rebinding of cmd_<command> is honored
        return globals()[f"cmd_{args.command}"](args)
    except ResolutionError as exc:
        print(f"error: resolution insufficient: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoherenceError as exc:
        print(f"error: incoherent diagnosis: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
