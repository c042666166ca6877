"""Command-line interface: outputs, exit codes, determinism.

Each command is driven in process through cli.main(argv) with --out pointed
at a temp directory, so the tests see both the printed summary and the
files byte for byte.  Only the closed-stdout tests start a child process.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pego.cli as cli
from pego import serialize as ser


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_transform_pure_character(tmp_path, capsys):
    rc, out, _ = run(
        capsys, "transform", "--group", "torus:1", "--f", "char:3", "--out", str(tmp_path)
    )
    assert rc == 0
    assert "torus:[3]  d=1  fro=1" in out
    doc = json.loads((tmp_path / "transform_char_3.json").read_text())
    assert doc["type"] == "transform_result"
    assert doc["coefficients"]["entries"]["torus:[3]"] == [[[1.0, pytest.approx(0.0, abs=1e-12)]]]
    assert doc["norms"]["l2_function"] == pytest.approx(1.0, abs=1e-12)
    assert doc["norms"]["plancherel_residual_beyond_cutoff"] < 1e-7
    assert doc["config"]["group"] == "torus:1"


@pytest.mark.parametrize("group, spec", [
    ("torus:1", "char:2"),
    ("dihedral:3", "entry:dihedral:2dim-1:1:2"),
    ("su2", "entry:wigner:2:1:3"),
    ("product(torus:1,su2)", "entry:prod(torus:[1],wigner:1):2:1"),
])
def test_transform_document_keeps_cutoff_and_mass(tmp_path, capsys, group, spec):
    """The coefficients of a transform result carry the resolved cutoff and
    ``l2_mass_total``, the quadrature sum of w |f|^2 over the written
    samples; the transform command writes both keys itself."""
    from pego import haar_quadrature, parse_group

    rc, _, err = run(capsys, "transform", "--group", group, "--f", spec, "--format", "csv",
                     "--out", str(tmp_path))
    assert rc == 0, err
    doc = json.loads(next(tmp_path.glob("transform_*.json")).read_text())
    config, coeffs = doc["config"], doc["coefficients"]
    assert coeffs["cutoff"] == config["cutoff"]
    rule = haar_quadrature(parse_group(group), config["resolution"])
    f = ser.function_from_csv(next(tmp_path.glob("transform_*_function.csv")).read_text(), rule)
    assert coeffs["l2_mass_total"] == float(np.sum(rule.weights * np.abs(f.values) ** 2))
    assert coeffs["l2_mass_total"] == pytest.approx(doc["norms"]["l2_function"] ** 2, rel=1e-15)


def test_transform_matrix_entry_and_constant(tmp_path, capsys):
    rc, out, _ = run(
        capsys, "transform", "--group", "dihedral:3",
        "--f", "entry:dihedral:2dim-1:1:1", "--out", str(tmp_path),
    )
    assert rc == 0
    assert "dihedral:2dim-1  d=2  fro=0.5" in out
    rc, out, _ = run(
        capsys, "transform", "--group", "su2", "--f", "const:1", "--out", str(tmp_path)
    )
    assert rc == 0
    assert out.splitlines()[0] == "triv  d=1  fro=1"


def test_transform_csv_function_round_trip(tmp_path, capsys):
    rc, _, _ = run(
        capsys, "transform", "--group", "torus:1", "--f", "char:3",
        "--format", "csv", "--out", str(tmp_path),
    )
    assert rc == 0
    csv_path = tmp_path / "transform_char_3_function.csv"
    assert csv_path.exists()
    sub = tmp_path / "again"
    sub.mkdir()
    rc, _, _ = run(
        capsys, "transform", "--group", "torus:1", "--f", f"file:{csv_path}",
        "--out", str(sub),
    )
    assert rc == 0
    back = json.loads(next(sub.glob("transform_*.json")).read_text())
    orig = json.loads((tmp_path / "transform_char_3.json").read_text())
    assert back["coefficients"]["entries"] == orig["coefficients"]["entries"]


def test_function_csv_of_another_group_is_refused(tmp_path, capsys):
    """A torus:1 function CSV read on cyclic:9 (as many nodes) is a format
    error, exit 2: its header names the wrong coordinates."""
    rc, _, _ = run(capsys, "transform", "--group", "torus:1", "--resolution", "9", "--cutoff", "4",
                   "--f", "char:3", "--format", "csv", "--out", str(tmp_path))
    assert rc == 0
    csv_path = tmp_path / "transform_char_3_function.csv"
    assert csv_path.read_text().splitlines()[0] == "theta1,re,im"
    sub = tmp_path / "cyclic"
    rc, out, err = run(capsys, "transform", "--group", "cyclic:9", "--f", f"file:{csv_path}",
                       "--out", str(sub))
    assert rc == 2
    assert out == ""
    assert "'theta1,re,im' is not the cyclic:9 header 'j,re,im'" in err


@pytest.mark.parametrize("suite", ["identities", "hausdorff_young", "lemma31", "lemma32", "schur"])
def test_verify_suites_pass_on_default_group(tmp_path, capsys, suite):
    rc, out, _ = run(
        capsys, "verify", "--suite", suite, "--samples", "6", "--out", str(tmp_path)
    )
    assert rc == 0
    assert "FAIL" not in out
    assert "PASS" in out
    doc = json.loads((tmp_path / f"verify_{suite}.json").read_text())
    assert doc["all_passed"] is True
    assert doc["suite"] == suite
    assert all(c["satisfied"] for c in doc["checks"])


def test_verify_su2_identities(tmp_path, capsys):
    rc, out, _ = run(
        capsys, "verify", "--suite", "identities", "--group", "su2",
        "--samples", "3", "--out", str(tmp_path),
    )
    assert rc == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("group,res,cutoff", [("torus:2", 11, 5), ("product(torus:1,su2)", 5, 2)])
def test_schur_suite_reads_its_matrices_from_one_block_request(
        tmp_path, capsys, monkeypatch, group, res, cutoff):
    """One Schur op makes one ``_blocks_at`` request at its rule, for every
    block of the dual, and no ``irrep_stack`` call: the gram and every
    matrix-entry function are cut from those blocks.  A product's factor
    requests are made at its factor rules."""
    from pego import fourier, groups, irreps

    requests, stacks = [], []
    real_blocks, real_stack = irreps._blocks_at, irreps.irrep_stack

    def blocks_at(block_labels, at):
        requests.append((block_labels, at))
        return real_blocks(block_labels, at)

    def irrep_stack(label, rule):
        stacks.append(label)
        return real_stack(label, rule)

    for module in (irreps, cli):
        monkeypatch.setattr(module, "_blocks_at", blocks_at)
    monkeypatch.setattr(irreps, "irrep_stack", irrep_stack)
    rc, out, _ = run(
        capsys, "verify", "--suite", "schur", "--group", group, "--resolution", str(res),
        "--cutoff", str(cutoff), "--out", str(tmp_path),
    )
    assert rc == 0
    assert "FAIL" not in out
    g = cli.parse_group(group)
    rule = groups.haar_quadrature(g, resolution=res)
    table = fourier.slot_table(tuple(irreps.enumerate_dual(g, cutoff)))
    assert [labels for labels, at in requests if at is rule] == [table.block_labels]
    assert all(labels[0][0].group != g for labels, at in requests if at is not rule)
    assert stacks == []


def test_schur_refuses_a_cutoff_beyond_the_band_before_any_block_request(
        tmp_path, capsys, monkeypatch):
    """A cutoff above the rule's alias-free band exits 3 before the suite
    asks for a single matrix, so an oversized request allocates nothing."""
    calls = []
    real = cli._blocks_at

    def counted(block_labels, at):
        calls.append(block_labels)
        return real(block_labels, at)

    monkeypatch.setattr(cli, "_blocks_at", counted)
    rc, _, err = run(capsys, "verify", "--suite", "schur", "--group", "su2", "--resolution", "2",
                     "--cutoff", "12", "--out", str(tmp_path))
    assert rc == 3
    assert "exceeds alias-free band 2" in err
    assert calls == []
    assert not (tmp_path / "verify_schur.json").exists()


def test_verify_failing_check_exits_1(tmp_path, capsys, monkeypatch):
    def broken(rule, cutoff, samples, seed):
        return [{"name": "planted", "lhs": 1.0, "rhs": 0.0, "satisfied": False}]

    monkeypatch.setattr(cli, "_suite_identities", broken)
    rc, out, _ = run(
        capsys, "verify", "--suite", "identities", "--out", str(tmp_path)
    )
    assert rc == 1
    assert "FAIL planted" in out
    doc = json.loads((tmp_path / "verify_identities.json").read_text())
    assert doc["all_passed"] is False


def test_checks_keep_the_worst_margin_per_name_in_first_seen_order():
    rows = [("b", -1.0, True), ("a", 0.5, True), ("b", -3.0, True),
            ("a", 2.0, True), ("c", -1.0, True), ("c", -2.0, False)]
    assert cli._checks(rows, 1.0) == [
        {"name": "b", "lhs": -1.0, "rhs": 1.0, "satisfied": True},
        {"name": "a", "lhs": 2.0, "rhs": 1.0, "satisfied": False},
        # within rhs, but one sample's own check failed
        {"name": "c", "lhs": -1.0, "rhs": 1.0, "satisfied": False},
    ]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "identities", "--group", "su2", "--samples", "1"],
    ["transform", "--group", "su2", "--f", "const:1"],
])
def test_su2_cutoff_zero_defaults_to_resolution_one(tmp_path, capsys, argv):
    """The default su2 resolution follows the cutoff but is at least 1."""
    rc, _, err = run(capsys, *argv, "--cutoff", "0", "--out", str(tmp_path))
    assert rc == 0, err
    (path,) = tmp_path.glob("*.json")
    assert json.loads(path.read_text())["config"]["resolution"] == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "identities", "--group", "torus:1", "--resolution", "3",
     "--samples", "1"],
    ["transform", "--group", "su2", "--f", "const:1", "--resolution", "2"],
    ["verify", "--suite", "lemma31", "--group", "su2", "--resolution", "2", "--samples", "1"],
])
def test_negative_cutoff_is_refused_at_parse_time(tmp_path, capsys, argv):
    """A negative cutoff leaves an empty dual: identities divided by a zero
    norm, a transform reported empty coverage and lemma31 passed vacuously."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--cutoff", "-1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--cutoff" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _family_file(tmp_path, doc, name="family.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_diagnose_scaled_constants(tmp_path, capsys):
    fam = _family_file(
        tmp_path,
        {"group": "torus:1", "resolution": 9, "kind": "scaled_constants"},
    )
    rc, out, _ = run(capsys, "diagnose", "--family", str(fam), "--out", str(tmp_path))
    assert rc == 0
    assert "precompact" in out
    doc = json.loads((tmp_path / "diagnose_scaled_constants_r_1_0.json").read_text())
    verdicts = doc["verdicts"]
    assert [v["epsilon"] for v in verdicts] == [0.5, 0.1, 0.01]
    assert all(v["conclusion"] == "precompact" for v in verdicts)
    assert (tmp_path / "diagnose_scaled_constants_r_1_0_decay.csv").exists()
    assert (tmp_path / "diagnose_scaled_constants_r_1_0_equicontinuity.csv").exists()


def test_diagnose_explicit_members_and_epsilon(tmp_path, capsys):
    fam = _family_file(
        tmp_path,
        {
            "group": "cyclic:8",
            "name": "two_chars",
            "members": ["char:1", "char:2"],
        },
    )
    rc, out, _ = run(
        capsys, "diagnose", "--family", str(fam), "--epsilon", "0.25",
        "--out", str(tmp_path),
    )
    assert rc == 0
    doc = json.loads((tmp_path / "diagnose_two_chars.json").read_text())
    assert len(doc["verdicts"]) == 1
    assert doc["verdicts"][0]["epsilon"] == 0.25


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_diagnose_non_finite_epsilon_exits_2_before_any_verdict(tmp_path, capsys, eps):
    fam = _family_file(
        tmp_path,
        {"group": "torus:2", "resolution": 9, "kind": "heat_kernel"},
    )
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc, out, err = run(
        capsys, "diagnose", "--family", str(fam), "--epsilon", eps, "--out", str(out_dir),
    )
    assert rc == 2
    assert "->" not in out
    assert "finite" in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["verify", "diagnose"])
def test_closed_stdout_keeps_the_files_and_the_status(tmp_path, command, unbuffered):
    """A reader that closes the pipe before pego prints: the command still
    writes its files and exits 0, with nothing on stderr.  Unbuffered, the
    first print meets the closed pipe; buffered, the flush does."""
    argv = {"verify": ["verify", "--suite", "schur", "--group", "dihedral:3", "--samples", "3"],
            "diagnose": ["diagnose", "--family", str(tmp_path / "family.json")]}[command]
    (tmp_path / "family.json").write_text(json.dumps(
        {"group": "cyclic:8", "name": "two_chars", "members": ["char:1", "char:2"]}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "pego.cli", *argv, "--out", str(tmp_path)],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.stderr.decode() == ""
    assert proc.returncode == 0
    written = {"verify": ["verify_schur.json"],
               "diagnose": ["diagnose_two_chars.json", "diagnose_two_chars_decay.csv",
                            "diagnose_two_chars_equicontinuity.csv"]}[command]
    assert all((tmp_path / name).is_file() for name in written)


def test_diagnose_missing_file_exits_2(tmp_path, capsys):
    rc, _, err = run(
        capsys, "diagnose", "--family", str(tmp_path / "nope.json"), "--out", str(tmp_path)
    )
    assert rc == 2
    assert "error" in err


def test_diagnose_family_without_resolution_exits_2(tmp_path, capsys):
    fam = _family_file(tmp_path, {"group": "torus:1", "kind": "scaled_constants"})
    rc, _, err = run(capsys, "diagnose", "--family", str(fam), "--out", str(tmp_path))
    assert rc == 2
    assert "resolution" in err


def test_transform_cutoff_beyond_band_exits_3(tmp_path, capsys):
    rc, _, err = run(
        capsys, "transform", "--group", "torus:1", "--resolution", "9",
        "--cutoff", "8", "--f", "char:1", "--out", str(tmp_path),
    )
    assert rc == 3
    assert "resolution" in err


def test_transform_bad_spec_exits_2(tmp_path, capsys):
    rc, _, err = run(
        capsys, "transform", "--group", "torus:1", "--f", "wavelet:3",
        "--out", str(tmp_path),
    )
    assert rc == 2
    assert "error" in err


def test_report_merges_and_is_idempotent(tmp_path, capsys):
    fam = _family_file(
        tmp_path, {"group": "torus:1", "resolution": 9, "kind": "scaled_constants"}
    )
    d1 = tmp_path / "d1"
    d1.mkdir()
    rc, _, _ = run(capsys, "diagnose", "--family", str(fam), "--out", str(d1))
    assert rc == 0
    diag = next(d1.glob("diagnose_*.json"))
    r1 = tmp_path / "r1"
    r1.mkdir()
    rc, out, _ = run(capsys, "report", str(diag), "--out", str(r1))
    assert rc == 0
    decay = (r1 / "report_decay.csv").read_text()
    equi = (r1 / "report_equicontinuity.csv").read_text()
    assert decay.splitlines()[0] == "family,step,shell,sup_tail"
    assert equi.splitlines()[0] == "family,delta,omega"
    # feeding a report back in (twice) reproduces it byte for byte
    r2 = tmp_path / "r2"
    r2.mkdir()
    rc, _, _ = run(
        capsys, "report", str(r1 / "report_decay.csv"),
        str(r1 / "report_equicontinuity.csv"),
        str(r1 / "report_decay.csv"), "--out", str(r2),
    )
    assert rc == 0
    assert (r2 / "report_decay.csv").read_text() == decay
    assert (r2 / "report_equicontinuity.csv").read_text() == equi


def test_report_keeps_a_family_name_with_a_comma(tmp_path, capsys):
    """The report rows are CSV: a family named "pair,one" is quoted once,
    read back whole, and a report of the report reproduces it byte for
    byte."""
    fam = _family_file(tmp_path, {"group": "torus:1", "resolution": 9,
                                  "kind": "scaled_constants", "name": "pair,one"})
    rc, _, _ = run(capsys, "diagnose", "--family", str(fam), "--out", str(tmp_path))
    assert rc == 0
    diag = next(tmp_path.glob("diagnose_*.json"))
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    r1.mkdir()
    r2.mkdir()
    rc, _, err = run(capsys, "report", str(diag), "--out", str(r1))
    assert rc == 0, err
    decay = (r1 / "report_decay.csv").read_text()
    equi = (r1 / "report_equicontinuity.csv").read_text()
    assert decay.splitlines()[1].startswith('"pair,one",0,')
    assert all(line.startswith('"pair,one",') for line in equi.splitlines()[1:])
    rc, _, err = run(capsys, "report", str(r1 / "report_decay.csv"),
                     str(r1 / "report_equicontinuity.csv"), str(diag), "--out", str(r2))
    assert rc == 0, err
    assert (r2 / "report_decay.csv").read_text() == decay
    assert (r2 / "report_equicontinuity.csv").read_text() == equi


def test_report_refuses_a_row_short_of_its_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("family,step,shell,sup_tail\npair,0,1\n")
    rc, _, err = run(capsys, "report", str(bad), "--out", str(tmp_path))
    assert rc == 2
    assert "differ in length" in err


def test_report_without_inputs_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, "report", "--out", str(tmp_path))
    assert rc == 2
    assert "no inputs" in err


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _reversed_function_csv(tmp_path):
    """The dihedral:3 function CSV of the values 0..5, its rows reversed:
    every row's coordinates belong to another node."""
    from pego import fourier, groups

    rule = groups.haar_quadrature(groups.parse_group("dihedral:3"), 1)
    head, *rows = ser.function_to_csv(
        fourier.SampledFunction(rule, np.arange(6.0))).splitlines(keepends=True)
    return _file(tmp_path, "reversed.csv", head + "".join(rows[::-1]))


def _torus_function_csv(tmp_path):
    """A torus:1 function CSV with as many rows as cyclic:9 has nodes."""
    from pego import fourier, groups

    rule = groups.haar_quadrature(groups.parse_group("torus:1"), 9)
    return _file(tmp_path, "torus.csv", ser.function_to_csv(fourier.constant_function(rule, 1.0)))


def _planted_failure(monkeypatch):
    monkeypatch.setattr(cli, "_suite_identities", lambda *args: [
        {"name": "planted", "lhs": 1.0, "rhs": 0.0, "satisfied": False}])


def _planted_incoherence(monkeypatch):
    from pego.compactness import CoherenceError

    def incoherent(*args, **kwargs):
        raise CoherenceError("planted")
    monkeypatch.setattr(cli, "pego_verdicts", incoherent)


_TWO_CHARS = json.dumps({"group": "cyclic:8", "members": ["char:1", "char:2"]})


def _diagnose_doc(t, doc, name="d.json"):
    """``report`` of a diagnose document: family "x" unless ``doc`` names one."""
    return ["report", _file(t, name, json.dumps(dict({"family": "x"}, **doc)))]


def _family_doc(t, doc):
    """``diagnose`` of a family document: cyclic:4, growing constants, unless
    ``doc`` says otherwise."""
    return ["diagnose", "--family", _file(t, "fam.json", json.dumps(
        dict({"group": "cyclic:4", "kind": "growing_constants"}, **doc)))]

# (argv before --out, given tmp_path; a fixture to plant; exit code; stderr fragment)
EXIT_CODES = {
    "success": (lambda t: ["transform", "--group", "cyclic:4", "--f", "const:1"],
                None, 0, ""),
    "failing_check": (lambda t: ["verify", "--suite", "identities"],
                      _planted_failure, 1, ""),
    "incoherent_diagnosis": (
        lambda t: ["diagnose", "--family", _file(t, "fam.json", _TWO_CHARS)],
        _planted_incoherence, 1, "error: incoherent diagnosis: planted"),
    "missing_function_file": (
        lambda t: ["transform", "--group", "cyclic:4", "--f", f"file:{t / 'missing.json'}"],
        None, 2, "No such file"),
    "missing_member_file": (
        lambda t: ["diagnose", "--family", _file(t, "fam.json", json.dumps(
            {"group": "cyclic:4", "members": [f"file:{t / 'missing.csv'}"]}))],
        None, 2, "No such file"),
    "out_is_a_file": (
        lambda t: ["verify", "--suite", "schur", "--group", "dihedral:3", "--samples", "1",
                   "--out", _file(t, "taken", "")],
        None, 2, "File exists"),
    "function_json_without_group": (
        lambda t: ["transform", "--group", "cyclic:4", "--f",
                   "file:" + _file(t, "f.json", '{"type": "sampled_function"}')],
        None, 2, "lacks 'group'"),
    "function_json_without_values": (
        lambda t: ["transform", "--group", "cyclic:4", "--f", "file:" + _file(
            t, "f.json", '{"type": "sampled_function", "group": "cyclic:4"}')],
        None, 2, "lacks 'values'"),
    "decay_step_without_step": (
        lambda t: ["report", _file(t, "d.json", json.dumps(
            {"family": "x", "decay_profile": {"steps": [{"shell": 1, "sup_tail": 0.5}]}}))],
        None, 2, "lacks 'step'"),
    "function_json_of_bare_values": (
        lambda t: ["transform", "--group", "cyclic:4", "--f", "file:" + _file(t, "f.json", json.dumps(
            {"type": "sampled_function", "group": "cyclic:4", "values": [1, 2, 3, 4]}))],
        None, 2, "list of [re, im] number pairs"),
    "function_json_of_scalar_values": (
        lambda t: ["transform", "--group", "cyclic:4", "--f", "file:" + _file(t, "f.json", json.dumps(
            {"type": "sampled_function", "group": "cyclic:4", "values": 7}))],
        None, 2, "list of [re, im] number pairs"),
    "decay_step_not_an_object": (
        lambda t: ["report", _file(t, "d.json", json.dumps(
            {"family": "x", "decay_profile": {"steps": [3]}}))],
        None, 2, "decay steps must be a list of objects"),
    "continuity_lists_of_unequal_length": (
        lambda t: ["report", _file(t, "d.json", json.dumps(
            {"family": "x", "continuity_profile": {"deltas": [0.5, 0.2], "omegas": [0.1]}}))],
        None, 2, "must be lists of one length"),
    "continuity_profile_without_omegas": (
        lambda t: ["report", _file(t, "d.json", json.dumps(
            {"family": "x", "continuity_profile": {"deltas": [0.5]}}))],
        None, 2, "lacks 'omegas'"),
    "function_csv_rows_off_their_nodes": (
        lambda t: ["transform", "--group", "dihedral:3", "--f",
                   f"file:{_reversed_function_csv(t)}"],
        None, 2, "csv coordinates are not the nodes"),
    "function_csv_of_another_group": (
        lambda t: ["transform", "--group", "cyclic:9", "--f",
                   f"file:{_torus_function_csv(t)}"],
        None, 2, "'theta1,re,im' is not the cyclic:9 header 'j,re,im'"),
    "function_file_of_bad_json": (
        lambda t: ["transform", "--group", "cyclic:4", "--f", "file:" + _file(t, "f.json", "{")],
        None, 2, "f.json"),
    "family_file_of_bad_json": (
        lambda t: ["diagnose", "--family", _file(t, "fam.json", "{")],
        None, 2, "fam.json"),
    "missing_family_file": (
        lambda t: ["diagnose", "--family", str(t / "missing.json")],
        None, 2, "No such file"),
    "family_without_resolution": (
        lambda t: ["diagnose", "--family", _file(
            t, "fam.json", '{"group": "torus:1", "kind": "scaled_constants"}')],
        None, 2, "resolution"),
    "unknown_function_spec": (
        lambda t: ["transform", "--group", "torus:1", "--f", "wavelet:3"],
        None, 2, "unknown function spec"),
    "missing_report_input": (
        lambda t: ["report", str(t / "missing.json")], None, 2, "No such file"),
    "report_without_inputs": (lambda t: ["report"], None, 2, "error: no inputs given"),
    "report_without_rows": (
        lambda t: ["report", _file(t, "empty.csv", "")],
        None, 2, "error: inputs contained no profile rows"),
    "report_row_short_of_its_header": (
        lambda t: ["report", _file(t, "bad.csv", "family,step,shell,sup_tail\npair,0,1\n")],
        None, 2, "differ in length"),
    "sup_tail_null": (
        lambda t: _diagnose_doc(t, {"decay_profile": {"steps": [
            {"step": 0, "shell": 1, "sup_tail": None}]}}),
        None, 2, "'sup_tail' must be a number"),
    "sup_tail_beyond_float": (
        lambda t: _diagnose_doc(t, {"decay_profile": {"steps": [
            {"step": 0, "shell": 1, "sup_tail": 10 ** 400}]}}),
        None, 2, "'sup_tail' must be a number"),
    "decay_profile_not_an_object": (
        lambda t: _diagnose_doc(t, {"decay_profile": 3}),
        None, 2, "'decay_profile' must be an object"),
    "continuity_profile_not_an_object": (
        lambda t: _diagnose_doc(t, {"continuity_profile": 3}),
        None, 2, "'continuity_profile' must be an object"),
    "delta_null": (
        lambda t: _diagnose_doc(t, {"continuity_profile": {"deltas": [None], "omegas": [0.1]}}),
        None, 2, "'deltas' must be a list of numbers"),
    "family_of_two_types": (
        lambda t: _diagnose_doc(t, {"family": 3, "decay_profile": {"steps": [
            {"step": 0, "shell": 1, "sup_tail": 0.5}]}}, "a.json")
        + _diagnose_doc(t, {"family": "b", "decay_profile": {"steps": [
            {"step": 0, "shell": 1, "sup_tail": 0.5}]}}, "b.json")[1:],
        None, 2, "'family' must be a string"),
    "family_an_object": (
        lambda t: _diagnose_doc(t, {"family": {"x": 1}, "decay_profile": {"steps": [
            {"step": 0, "shell": 1, "sup_tail": 0.5}]}}),
        None, 2, "'family' must be a string"),
    "family_members_not_strings": (
        lambda t: ["diagnose", "--family", _file(t, "fam.json", json.dumps(
            {"group": "cyclic:8", "members": [3]}))],
        None, 2, "'members' must be a list of strings"),
    "family_group_not_a_string": (
        lambda t: _family_doc(t, {"group": 3}), None, 2, "'group' must be a string"),
    "family_params_not_an_object": (
        lambda t: _family_doc(t, {"params": 3}), None, 2, "'params' must be an object"),
    "family_resolution_text": (
        lambda t: _family_doc(t, {"group": "torus:1", "resolution": "x"}),
        None, 2, "integer of at least 1"),
    "family_resolution_fraction": (
        lambda t: _family_doc(t, {"group": "torus:1", "resolution": 9.5}),
        None, 2, "integer of at least 1"),
    "family_count_text": (
        lambda t: _family_doc(t, {"params": {"count": "x"}}),
        None, 2, "'count' must be an integer"),
    "family_count_bool": (
        lambda t: _family_doc(t, {"params": {"count": True}}),
        None, 2, "'count' must be an integer"),
    "family_unknown_param": (
        lambda t: _family_doc(t, {"params": {"bogus": 1}}),
        None, 2, "takes no parameter 'bogus'"),
    "family_name_not_a_string": (
        lambda t: ["diagnose", "--family", _file(t, "fam.json", json.dumps(
            {"group": "cyclic:8", "members": ["char:1"], "name": 5}))],
        None, 2, "'name' must be a string"),
    "family_span_of_label_strings": (
        lambda t: _family_doc(t, {"kind": "matrix_entry_span",
                                  "params": {"labels": ["chi:1"], "count": 3}}),
        None, 0, ""),
    "family_norm_beyond_float": (
        lambda t: _family_doc(t, {"kind": "scaled_constants", "params": {"r": 1e308}}),
        None, 2, "family 'scaled_constants(r=1e+308)'"),
    "non_finite_epsilon": (
        lambda t: ["diagnose", "--family", _file(t, "fam.json", _TWO_CHARS), "--epsilon", "nan"],
        None, 2, "finite"),
    "family_resolution_beyond_the_node_budget": (
        lambda t: _family_doc(t, {"group": "torus:1", "resolution": 100000000}),
        None, 2, "torus:1 at resolution 100000000 needs 100000000 quadrature nodes"),
    "verify_resolution_beyond_the_node_budget": (
        lambda t: ["verify", "--suite", "identities", "--group", "su2", "--resolution", "1000"],
        None, 2, "su2 at resolution 1000 needs 8014007001 quadrature nodes"),
    "cutoff_beyond_band": (
        lambda t: ["transform", "--group", "torus:1", "--resolution", "9", "--cutoff", "8",
                   "--f", "char:1"],
        None, 3, "error: resolution insufficient"),
}


@pytest.mark.parametrize("case", EXIT_CODES)
def test_exit_code_table(tmp_path, capsys, monkeypatch, case):
    """The documented exit codes, each reached through ``cli.main``: a
    failure is one ``error:`` line on stderr, never an exception, and no
    case warns."""
    argv, plant, code, fragment = EXIT_CODES[case]
    if plant is not None:
        plant(monkeypatch)
    argv = argv(tmp_path)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, err = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert rc == code, err
    if fragment:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert fragment in err
    else:
        assert err == ""


def test_a_failure_in_a_child_process_is_one_error_line(tmp_path):
    """A missing ``file:`` spec, run as ``python -m pego.cli``: exit 2 and
    a single ``error:`` line, no traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "pego.cli", "transform", "--group", "cyclic:4",
         "--f", f"file:{tmp_path / 'missing.json'}", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "missing.json" in line


def test_verify_output_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        rc, _, _ = run(
            capsys, "verify", "--suite", "schur", "--group", "dihedral:3",
            "--samples", "5", "--out", str(out),
        )
        assert rc == 0
    assert (a / "verify_schur.json").read_bytes() == (b / "verify_schur.json").read_bytes()


def test_diagnose_output_is_deterministic(tmp_path, capsys):
    fam = _family_file(
        tmp_path,
        {"group": "dihedral:3", "kind": "matrix_entry_span",
         "params": {"shell": 3, "count": 6}},
    )
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        rc, _, _ = run(
            capsys, "diagnose", "--family", str(fam), "--seed", "7", "--out", str(d)
        )
        assert rc == 0
        outs.append(next(d.glob("diagnose_*.json")).read_bytes())
    assert outs[0] == outs[1]


def test_json_serialization_is_canonical():
    doc = {"b": 1.5, "a": [complex(1, 2).real]}
    text = ser.dumps(doc)
    assert text == '{\n  "a": [\n    1.0\n  ],\n  "b": 1.5\n}\n'
    with pytest.raises(ValueError):
        ser.dumps({"x": math.inf})


def test_function_json_round_trip():
    from pego import haar_quadrature, sample, torus

    rule = haar_quadrature(torus(1), 9)
    f = sample(rule, lambda p: np.exp(1j * p.coords[0]) + 0.25, name="probe")
    doc = ser.function_to_json(f)
    back = ser.function_from_json(doc, rule)
    np.testing.assert_allclose(back.values, f.values, atol=0)
    assert back.name == "probe"
    with pytest.raises(ser.FormatError):
        ser.function_from_json(doc, haar_quadrature(torus(1), 11))


def test_coefficients_json_round_trip():
    from pego import forward_to_cutoff, haar_quadrature, random_band_limited_function, su2

    rule = haar_quadrature(su2(), 3)
    fc = forward_to_cutoff(random_band_limited_function(rule, 2, seed=3), 3)
    doc = ser.coefficients_to_json(fc)
    assert sorted(doc) == ["entries", "group", "schema_version", "type"]
    # a transform result's coefficients carry two more keys, which are not read
    back = ser.coefficients_from_json(dict(doc, cutoff=3, l2_mass_total=1.0), su2())
    assert back.labels == fc.labels
    for lab in fc.labels:
        np.testing.assert_allclose(back[lab], fc[lab], atol=0)


def test_parser_is_built_once_and_commands_are_looked_up_per_call(tmp_path, capsys, monkeypatch):
    builds = []
    real = cli._build_parser

    def counted():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "_build_parser", counted)
    cli._parser.cache_clear()
    rc, out, _ = run(capsys, "verify", "--suite", "schur", "--out", str(tmp_path))
    assert rc == 0 and "PASS" in out
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.suite) or 0)
    rc, out, _ = run(capsys, "verify", "--suite", "lemma32", "--out", str(tmp_path))
    assert rc == 0 and out == ""
    assert seen == ["lemma32"]
    assert builds == [1]


def test_verify_refuses_a_finite_group_beyond_the_budget_before_its_dual(
        tmp_path, capsys, monkeypatch):
    """A finite group's rule does not depend on the cutoff, so it is built
    first: a group beyond the node budget exits 2 before the dual is
    enumerated for the default cutoff."""
    from pego import groups, irreps

    monkeypatch.setattr(groups, "_NODE_BUDGET", 100)

    def refused(*args, **kwargs):
        pytest.fail("the dual was enumerated")

    monkeypatch.setattr(cli, "enumerate_dual", refused)
    monkeypatch.setattr(irreps, "enumerate_dual", refused)
    rc, _, err = run(capsys, "verify", "--suite", "identities", "--group", "cyclic:200000",
                     "--out", str(tmp_path))
    assert rc == 2
    assert "cyclic:200000 at resolution 1 needs 200000 quadrature nodes" in err
