"""Compare the CLI outputs of two pego checkouts.

    python3 tools/compare_outputs.py OLD NEW

OLD and NEW are the roots of two checkouts (each with ``src/pego``).  In
each tree, one child process runs through ``pego.cli.main``:

* ``diagnose`` on the seven audit families of ``bench/workloads.py``, one
  run per family and epsilon, with the audit's ball samples and seed 1;
* ``verify`` on its four groups x five suites x seeds 1 and 2, with the
  verify workload's cutoffs, resolutions and samples;
* the two commands of acceptance criterion 10 (``verify --suite schur`` on
  dihedral:3 and ``diagnose`` of a dihedral:3 matrix-entry span).

The workload definitions are read from the ``bench/workloads.py`` beside
this script and are not changed.  The report says whether the diagnose
conclusions, the verify verdicts and the exit codes are equal, how many
output files are byte-identical, and the largest gap between corresponding
numbers (JSON numbers and CSV cells) with the file it occurs in.  The exit
code is 0 when conclusions, verdicts, exit codes and the non-numeric content
of every file agree, 1 otherwise.
"""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
DIAGNOSE_SEED = 1
CRITERION10_FAMILY = {"group": "dihedral:3", "kind": "matrix_entry_span",
                      "params": {"shell": 3, "count": 8}}


def _cases(workloads):
    """(section, case name, argv without --out, family document or None)."""
    out = []
    for name, doc, _, epsilons in workloads.AUDIT_FAMILIES:
        for eps in epsilons:
            argv = ["diagnose", "--epsilon", repr(eps), "--ball-samples",
                    str(workloads.AUDIT_BALL_SAMPLES), "--seed", str(DIAGNOSE_SEED)]
            out.append(("diagnose", f"{name}-eps{eps}", argv,
                        dict(doc, name=name, seed=DIAGNOSE_SEED)))
    for group, cutoff, res in workloads.VERIFY_GROUPS:
        for suite in workloads.VERIFY_SUITES:
            for seed in SEEDS:
                argv = ["verify", "--suite", suite, "--group", group, "--resolution",
                        str(res), "--samples", str(workloads.VERIFY_SAMPLES),
                        "--seed", str(seed)]
                if cutoff is not None:
                    argv += ["--cutoff", str(cutoff)]
                out.append(("verify", f"{suite}-{group}-s{seed}", argv, None))
    out.append(("criterion10", "verify", ["verify", "--suite", "schur", "--group",
                                          "dihedral:3", "--samples", "10", "--seed", "0"],
                None))
    out.append(("criterion10", "diagnose", ["diagnose", "--seed", "7"], CRITERION10_FAMILY))
    return out


def run_tree(tree, out_dir):
    """Child mode: run every case with ``tree``'s pego, outputs under ``out_dir``."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in either tree or in bench/
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from pego import cli

    codes = {}
    for section, name, argv, family in _cases(workloads):
        case_dir = os.path.join(out_dir, section, _slug(name))
        os.makedirs(case_dir)
        if family is not None:
            path = os.path.join(case_dir, "family.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(family, fh)
            argv = argv + ["--family", path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[f"{section}/{_slug(name)}"] = cli.main(argv + ["--out", case_dir])
    with open(os.path.join(out_dir, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, sort_keys=True)


def _slug(text):
    return "".join(c if c.isalnum() or c in "-." else "_" for c in text)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _gap(a, b, where, acc):
    """Walk two parsed documents together: the largest numeric gap goes into
    ``acc["gap"]``, a structural or textual difference into ``acc["other"]``."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        if a != b:
            acc["other"].append(where)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                acc["other"].append(where)
            return
        gap = abs(a - b)
        if gap > acc["gap"][0]:
            acc["gap"] = (gap, where)
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            acc["other"].append(where)
        for k in a.keys() & b.keys():
            _gap(a[k], b[k], where, acc)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            acc["other"].append(where)
        for x, y in zip(a, b):
            _gap(x, y, where, acc)
    elif a != b:
        acc["other"].append(where)


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
    for section in ("diagnose", "verify", "criterion10"):
        files = sorted(p.relative_to(old_dir) for p in (old_dir / section).rglob("*")
                       if p.is_file() and p.name != "family.json")
        new_files = sorted(p.relative_to(new_dir) for p in (new_dir / section).rglob("*")
                           if p.is_file() and p.name != "family.json")
        if files != new_files:
            ok = False
            print(f"{section}: output file names differ")
        acc = {"gap": (0.0, None), "other": []}
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
        ok = ok and same_verdicts and not acc["other"]
        gap, where = acc["gap"]
        print(f"{section}: {runs} runs, conclusions equal: {same_verdicts}, "
              f"files byte-identical {same_bytes}/{len(files)}, "
              f"largest numeric gap {gap:.3e}" + (f" ({where})" if where else ""))
        for where in sorted(set(acc["other"])):
            print(f"  non-numeric difference in {where}")
    return ok


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
