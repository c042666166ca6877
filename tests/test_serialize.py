"""``serialize.dumps`` writes the bytes of ``json.dumps`` with sorted keys,
a two-space indent and no NaN, plus a trailing newline, on every document
the CLI writes and on the corner cases of the JSON grammar; a function CSV
reads back the values it was written from."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pego import serialize as ser

ROOT = Path(__file__).resolve().parent.parent


def _reference(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


CORNER_CASES = [
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": [[], {}]},
    "",
    "héllo ☃ \U0001f600 \"q\" \\ / \n\t\x00\x1f",
    {"über": ["é", "☃"]},
    -0.0,
    [0.0, -0.0],
    1e16,
    -1e16,
    1e22,
    5e-324,
    1e-7,
    2.0**0.5,
    1.7976931348623157e308,
    123456789012345678901234567890,
    -1,
    True,
    False,
    None,
    (1, 2.5, "x"),
    [1, [2, [3, [], {}]]],
    {"z": 1, "a": [1, 2.5, None, True, False, "x"], "m": {"k": [0.1, [1e300, -2.0]]}},
    {1: "a", 3: "b", -2: "c"},
    {2.5: 1, 0.5: 2, -0.0: 3},
    {True: 1, False: 0},
    {None: 1},
    np.float64(0.1),
    [np.float64(1.5), np.float64(-0.0)],
]


@pytest.mark.parametrize("doc", CORNER_CASES, ids=range(len(CORNER_CASES)))
def test_dumps_equals_json_dumps_on_corner_cases(doc):
    assert ser.dumps(doc) == _reference(doc)


@pytest.mark.parametrize(
    "doc", [math.nan, math.inf, -math.inf, [1.0, math.nan], {"a": [[math.inf]]},
            np.float64("nan"), {math.nan: 1}, {math.inf: 1}])
def test_dumps_refuses_nan_and_infinities(doc):
    with pytest.raises(ValueError):
        _reference(doc)
    with pytest.raises(ValueError):
        ser.dumps(doc)


@pytest.mark.parametrize(
    "doc", [np.int64(1), {1, 2}, object(), [np.bool_(True)], {"a": b"x"}, {(1, 2): 3},
            {1: 1, "a": 2}, 1j])
def test_dumps_refuses_what_json_cannot_write(doc):
    with pytest.raises(TypeError):
        _reference(doc)
    with pytest.raises(TypeError):
        ser.dumps(doc)


def test_dumps_equals_json_dumps_on_every_compare_outputs_document(tmp_path):
    # the CLI cases of tools/compare_outputs.py: diagnose on the audit
    # families, the verify grid and extras, and the criterion-10 commands
    compare = _load("_compare_outputs", ROOT / "tools" / "compare_outputs.py")
    workloads = _load("_compare_workloads", ROOT / "bench" / "workloads.py")
    codes = compare.run_cases(str(tmp_path), workloads)
    assert set(codes.values()) == {0}
    paths = sorted(p for p in tmp_path.rglob("*.json") if p.name != "family.json")
    kinds = {p.name.split("_")[0] for p in paths}
    assert {"diagnose", "verify"} <= kinds
    assert len(paths) == len(codes)
    for path in paths:
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == _reference(doc), path
        assert ser.dumps(doc) == text, path


@pytest.mark.parametrize("name,res,head", [
    ("cyclic:6", 1, "j"), ("dihedral:3", 1, "r,s"), ("su2", 2, "qw,qx,qy,qz"),
    ("product(cyclic:2,dihedral:3)", 1, "g1_j,g2_r,g2_s")])
def test_function_csv_round_trips(name, res, head):
    """``function_from_csv`` reads back, bit for bit, the values that
    ``function_to_csv`` wrote under the group's coordinate header."""
    from pego import fourier, groups

    rule = groups.haar_quadrature(groups.parse_group(name), res)
    rng = np.random.default_rng(len(rule))
    f = fourier.SampledFunction(rule, rng.normal(size=(len(rule), 2)) @ [1, 1j])
    text = ser.function_to_csv(f)
    assert text.splitlines()[0] == head + ",re,im"
    assert len(text.splitlines()) == len(rule) + 1
    back = ser.function_from_csv(text, rule)
    assert np.array_equal(back.values, f.values)
