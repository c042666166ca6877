"""Command-line front end: transform, verify, diagnose, report.

Exit codes: 0 success, 1 verify-suite property failure (or an incoherent
diagnosis), 2 malformed input or missing file, 3 insufficient resolution.
A negative precompactness verdict is data, not an error, and exits 0.

Identical arguments and seeds produce byte-identical output files; outputs
embed the fully resolved configuration and never contain timestamps or
absolute paths.  The default output directory is $PEGO_OUTPUT_DIR or ".".
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import serialize as ser
from .compactness import (
    CoherenceError,
    lemma31_bound_check,
    lemma32_bound_check,
    pego_verdict,
)
from .fourier import (
    convolve,
    forward_to_cutoff,
    inverse,
    random_band_limited_function,
    translate,
    translate_spectral,
)
from .groups import (
    GroupMismatchError,
    NeighborhoodSpec,
    ResolutionError,
    haar_quadrature,
    parse_group,
)
from .irreps import enumerate_dual, irrep_stack, shell_subset
from .norms import (
    ExponentPair,
    hausdorff_young_check,
    lp_function_norm,
    lp_oplus_norm,
    plancherel_residual,
)

_IDENTITY_TOL = 1e-10
_LEMMA_SLACK = 1e-8
_SCHUR_BLOCK_NODES = 1024  # bounds the Schur suite's entry copies to 1024 x sum(dim^2)

_DEFAULT_CUTOFF = {"torus": 8, "su2": 4}

_BALL_RADII = {"cyclic": [0.5, 1.0], "dihedral": [0.5, 1.0],
               "torus": [0.2, 0.5, 1.0], "su2": [0.8, 1.2],
               "product": [0.5, 1.0]}


def _default_rule(group, resolution, cutoff):
    """Resolve (rule, cutoff) so the cutoff is alias-free for the rule."""
    if cutoff is None:
        if group.is_finite:
            cutoff = max(lab.shell for lab in enumerate_dual(group, None))
        else:
            cutoff = _DEFAULT_CUTOFF.get(group.family, 4)
    if resolution is None:
        if group.family == "su2":
            resolution = cutoff
        elif not group.is_finite:
            resolution = 2 * cutoff + 1
        else:
            resolution = 1
    rule = haar_quadrature(group, resolution=resolution)
    return rule, cutoff


def _out_dir(args):
    out = args.out or os.environ.get("PEGO_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    idx = rng.integers(0, len(rule.nodes), size=count)
    return [rule.nodes[int(i)] for i in idx]


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
        "coefficients": ser.coefficients_to_json(coeffs),
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
    shown = 0
    for lab in coeffs.labels:
        fro = float(np.linalg.norm(coeffs[lab]))
        if fro > 1e-12:
            print(f"{lab.name}  d={lab.dim}  fro={fro:.12g}")
            shown += 1
    if shown == 0:
        print("all coefficients below 1e-12 within the cutoff")
    print(f"wrote {base}.json")
    return 0


# -- verify -------------------------------------------------------------------

def _suite_identities(rule, cutoff, samples, seed):
    band = cutoff
    group = rule.group
    rng = np.random.default_rng(seed)
    checks = []
    worst = {k: 0.0 for k in ("roundtrip", "plancherel_rel", "convolution",
                              "translation", "linearity", "haar_invariance")}
    for k in range(samples):
        f = random_band_limited_function(rule, band, seed=seed + 17 * k + 1)
        g = random_band_limited_function(rule, band, seed=seed + 17 * k + 2)
        fc = forward_to_cutoff(f, cutoff=cutoff)
        gc = forward_to_cutoff(g, cutoff=cutoff)
        back = inverse(fc, rule)
        worst["roundtrip"] = max(worst["roundtrip"],
                                 float(np.max(np.abs(back.values - f.values))))
        mass = sum(lab.dim * np.sum(np.abs(fc[lab]) ** 2) for lab in fc.labels)
        l2 = lp_function_norm(f, 2)
        worst["plancherel_rel"] = max(worst["plancherel_rel"],
                                      abs(mass - l2 ** 2) / l2 ** 2)
        hc = forward_to_cutoff(convolve(f, g), cutoff=cutoff)
        worst["convolution"] = max(worst["convolution"], max(
            float(np.max(np.abs(hc[lab] - gc[lab] @ fc[lab]))) for lab in fc.labels))
        y = _random_nodes(rule, 1, rng)[0]
        tc = forward_to_cutoff(translate(f, y), cutoff=cutoff)
        ts = translate_spectral(fc, y)
        worst["translation"] = max(worst["translation"], max(
            float(np.max(np.abs(tc[lab] - ts[lab]))) for lab in fc.labels))
        a, b = rng.standard_normal(2)
        combc = forward_to_cutoff(f * a + g * b, cutoff=cutoff)
        worst["linearity"] = max(worst["linearity"], max(
            float(np.max(np.abs(combc[lab] - (a * fc[lab] + b * gc[lab]))))
            for lab in fc.labels))
        base = rule.integrate(f.values)
        left = rule.integrate(translate(f, y).values)
        worst["haar_invariance"] = max(worst["haar_invariance"],
                                       abs(left - base))
    for name, err in worst.items():
        checks.append({"name": name, "lhs": float(err), "rhs": _IDENTITY_TOL,
                       "satisfied": bool(err <= _IDENTITY_TOL)})
    return checks


def _suite_hausdorff_young(rule, cutoff, samples, seed, p_values):
    checks = []
    for p in p_values:
        pair = ExponentPair.of(p)
        worst_fwd = -math.inf
        worst_rev = -math.inf
        worst_eq = 0.0
        for k in range(samples):
            f = random_band_limited_function(rule, cutoff, seed=seed + 31 * k)
            for direction in ("forward", "reverse"):
                chk = hausdorff_young_check(f, pair, direction=direction,
                                            cutoff=cutoff)
                margin = chk.lhs - chk.rhs
                if direction == "forward":
                    worst_fwd = max(worst_fwd, margin)
                else:
                    worst_rev = max(worst_rev, margin)
                if p == 2.0:
                    worst_eq = max(worst_eq, abs(margin))
        ptag = f"p={p:g}"
        checks.append({"name": f"forward_{ptag}", "lhs": float(worst_fwd),
                       "rhs": _IDENTITY_TOL,
                       "satisfied": bool(worst_fwd <= _IDENTITY_TOL)})
        checks.append({"name": f"reverse_{ptag}", "lhs": float(worst_rev),
                       "rhs": _IDENTITY_TOL,
                       "satisfied": bool(worst_rev <= _IDENTITY_TOL)})
        if p == 2.0:
            checks.append({"name": "equality_p=2", "lhs": float(worst_eq),
                           "rhs": _IDENTITY_TOL,
                           "satisfied": bool(worst_eq <= _IDENTITY_TOL)})
    return checks


def _suite_lemma31(rule, cutoff, samples, seed, p_values):
    radii = _BALL_RADII[rule.group.family]
    checks = []
    for p in p_values:
        pair = ExponentPair.of(p)
        worst = -math.inf
        all_ok = True
        for k in range(samples):
            f = random_band_limited_function(rule, cutoff, seed=seed + 13 * k)
            delta = radii[k % len(radii)]
            chk = lemma31_bound_check(
                f, NeighborhoodSpec(delta, 8), pair, cutoff=cutoff)
            worst = max(worst, chk.tail - chk.rhs)
            all_ok = all_ok and chk.satisfied
        checks.append({"name": f"tail_le_2sup_p={p:g}", "lhs": float(worst),
                       "rhs": _LEMMA_SLACK,
                       "satisfied": bool(all_ok and worst <= _LEMMA_SLACK)})
    return checks


def _suite_lemma32(rule, cutoff, samples, seed, p_values):
    rng = np.random.default_rng(seed)
    max_shell = max(lab.shell for lab in enumerate_dual(rule.group, cutoff))
    checks = []
    for p in p_values:
        pair = ExponentPair.of(p)
        worst = -math.inf
        all_ok = True
        for k in range(samples):
            f = random_band_limited_function(rule, cutoff, seed=seed + 7 * k)
            y = _random_nodes(rule, 1, rng)[0]
            shell = min(1 + k % 2, max_shell)
            A = shell_subset(rule.group, shell, cutoff=cutoff)
            chk = lemma32_bound_check(f, y, A, pair, cutoff=cutoff)
            worst = max(worst, chk.lhs - (chk.head_term + chk.tail_term))
            all_ok = all_ok and chk.satisfied
        checks.append({"name": f"lhs_le_head_plus_tail_p={p:g}",
                       "lhs": float(worst), "rhs": _LEMMA_SLACK,
                       "satisfied": bool(all_ok and worst <= _LEMMA_SLACK)})
    return checks


def _suite_schur(rule, cutoff, samples, seed):
    labels = enumerate_dual(rule.group, cutoff)
    stacks = [irrep_stack(lab, rule) for lab in labels]
    # Every matrix entry of every label is one column of E, and Schur says
    # E^T W conj(E) = diag(1/dim).  E is built and multiplied a block of
    # nodes at a time, so no full copy of the stacks is ever made.
    want = np.concatenate([np.full(lab.dim ** 2, 1.0 / lab.dim) for lab in labels])
    gram = np.zeros((len(want), len(want)), dtype=complex)
    for lo in range(0, len(rule), _SCHUR_BLOCK_NODES):
        rows = slice(lo, lo + _SCHUR_BLOCK_NODES)
        block = np.concatenate([s[rows].reshape(-1, s.shape[1] ** 2) for s in stacks], axis=1)
        gram += (block.T * rule.weights[rows]) @ block.conj()
    worst = float(np.max(np.abs(gram - np.diag(want))))
    single = 0.0
    for lab in labels:
        d = lab.dim
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                fn = ser.parse_function_spec(f"entry:{lab.name}:{i}:{j}", rule)
                coeffs = forward_to_cutoff(fn, cutoff=cutoff)
                for sig in coeffs.labels:
                    m = coeffs[sig]
                    if sig == lab:
                        want = np.zeros((d, d), dtype=complex)
                        want[j - 1, i - 1] = 1.0 / d
                        single = max(single, float(np.max(np.abs(m - want))))
                    else:
                        single = max(single, float(np.max(np.abs(m))))
    return [
        {"name": "gram_block_pattern", "lhs": worst, "rhs": _IDENTITY_TOL,
         "satisfied": bool(worst <= _IDENTITY_TOL)},
        {"name": "entry_transform_single_cell", "lhs": single,
         "rhs": _IDENTITY_TOL, "satisfied": bool(single <= _IDENTITY_TOL)},
    ]


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
    for chk in checks:
        tag = "PASS" if chk["satisfied"] else "FAIL"
        print(f"{tag} {chk['name']}: lhs={chk['lhs']:.12e} rhs={chk['rhs']:.12e}")
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
    print(f"wrote {path}")
    return 0 if all_ok else 1


# -- diagnose -----------------------------------------------------------------

def cmd_diagnose(args):
    try:
        with open(args.family, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read family file: {exc}", file=sys.stderr)
        return 2
    family, rule = ser.family_from_json(doc)
    epsilons = args.epsilon or [0.5, 0.1, 0.01]
    verdicts = []
    for eps in epsilons:
        v = pego_verdict(family, eps, ball_samples=args.ball_samples,
                         seed=args.seed)
        verdicts.append(v)
        print(f"family={family.name} epsilon={eps:g} -> {v.conclusion}")
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
    print(f"wrote {base}.json")
    return 0


# -- report -------------------------------------------------------------------

def _rows_from_input(path):
    """Extract (decay_rows, equi_rows) from a diagnose JSON or merged CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        fam = doc.get("family", "unknown")
        decay = [
            f"{fam},{s['step']},{s['shell']},{float(s['sup_tail'])!r}"
            for s in doc.get("decay_profile", {}).get("steps", [])
        ]
        cont = doc.get("continuity_profile", {})
        equi = [
            f"{fam},{float(d)!r},{float(w)!r}"
            for d, w in zip(cont.get("deltas", []), cont.get("omegas", []))
        ]
        return decay, equi
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return [], []
    head = lines[0]
    if head == "family,step,shell,sup_tail":
        return lines[1:], []
    if head == "family,delta,omega":
        return [], lines[1:]
    raise ser.FormatError(f"unrecognized report input {path!r}")


def cmd_report(args):
    if not args.inputs:
        print("error: no inputs given", file=sys.stderr)
        return 2
    decay_rows, equi_rows = [], []
    for path in args.inputs:
        try:
            d, e = _rows_from_input(path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        decay_rows.extend(d)
        equi_rows.extend(e)
    decay_rows = sorted(set(decay_rows),
                        key=lambda r: (r.split(",")[0], int(r.split(",")[1])))
    equi_rows = sorted(set(equi_rows),
                       key=lambda r: (r.split(",")[0], -float(r.split(",")[1])))
    out = _out_dir(args)
    wrote = []
    if decay_rows:
        path = os.path.join(out, "report_decay.csv")
        _write(path, "family,step,shell,sup_tail\n" + "\n".join(decay_rows) + "\n")
        wrote.append(path)
    if equi_rows:
        path = os.path.join(out, "report_equicontinuity.csv")
        _write(path, "family,delta,omega\n" + "\n".join(equi_rows) + "\n")
        wrote.append(path)
    if not wrote:
        print("error: inputs contained no profile rows", file=sys.stderr)
        return 2
    for path in wrote:
        print(f"wrote {path}")
    return 0


# -- entry point ---------------------------------------------------------------

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
    t.add_argument("--cutoff", type=int)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--format", choices=["json", "csv"], default="json")
    t.add_argument("--out")
    t.set_defaults(func=cmd_transform)

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("--suite", required=True,
                   choices=["identities", "hausdorff_young", "lemma31",
                            "lemma32", "schur"])
    v.add_argument("--group", default="dihedral:3")
    v.add_argument("--resolution", type=int)
    v.add_argument("--cutoff", type=int)
    v.add_argument("--p", type=float)
    v.add_argument("--samples", type=int, default=25)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("diagnose", help="precompactness verdict for a family file")
    d.add_argument("--family", required=True, metavar="FILE")
    d.add_argument("--epsilon", type=float, action="append")
    d.add_argument("--ball-samples", type=int, default=8)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out")
    d.set_defaults(func=cmd_diagnose)

    r = sub.add_parser("report", help="merge diagnose outputs into plot tables")
    r.add_argument("inputs", nargs="*", metavar="FILE")
    r.add_argument("--out")
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResolutionError as exc:
        print(f"error: resolution insufficient: {exc}", file=sys.stderr)
        return 3
    except (ser.FormatError, GroupMismatchError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoherenceError as exc:
        print(f"error: incoherent diagnosis: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
