"""JSON and CSV wire formats plus the tiny function-spec language.

Conventions shared by every writer here: documents carry a ``schema_version``
field, keys are emitted sorted, complex numbers are ``[re, im]`` pairs,
matrices are row-major nested lists, groups and irrep labels appear in their
string forms, and nothing time- or path-dependent is ever written.  Identical
inputs therefore serialize to byte-identical text.
"""

import csv
import dataclasses
import inspect
import io
import json
import math
import sys

import numpy as np

from . import fourier, irreps
from .compactness import FamilySpec
from .families import FAMILY_KINDS, builtin_family
from .groups import _arrays, haar_quadrature, parse_group

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """Malformed document or function spec."""


def dumps(doc):
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2,
    allow_nan=False) + "\n"``, written by a small recursive writer instead
    of the pure-Python encoder that ``json`` falls back to when it indents:
    strings through ``json``'s C escaper, floats as ``float.__repr__``,
    parts joined once.  NaN and infinities raise ValueError, and anything
    ``json`` cannot write raises TypeError, as there.
    """
    parts = []
    _write(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


_escape = json.encoder.encode_basestring_ascii


def _float_text(x):
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


_TEXT = {
    str: _escape,
    float: _float_text,
    int: int.__repr__,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _scalar(o):
    """The JSON text of a string, None, bool, int or float; None for
    containers and other objects.  Subclasses are tested in ``json``'s
    order: str, int, float."""
    to_text = _TEXT.get(type(o))
    if to_text is not None:
        return to_text(o)
    if isinstance(o, str):
        return _escape(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    return None


def _key(k):
    """A dict key as ``json`` writes it: a string escaped, a scalar as its
    JSON text in quotes."""
    if isinstance(k, str):
        return _escape(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _scalar(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write(o, parts, newline):
    """Append the JSON text of ``o`` to ``parts``; ``newline`` is the line
    break and indent of ``o``'s own level.  Scalars inside a container are
    written in its loop, and a list of scalars is joined in one part."""
    inner = newline + "  "
    if isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        sep = "{" + inner
        for k, v in sorted(o.items()):
            head = sep + _key(k) + ": "
            text = _scalar(v)
            if text is None:
                parts.append(head)
                _write(v, parts, inner)
            else:
                parts.append(head + text)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        texts = [_scalar(item) for item in o]
        if None not in texts:
            parts.append("[" + inner + ("," + inner).join(texts) + newline + "]")
            return
        sep = "[" + inner
        for item, text in zip(o, texts):
            if text is None:
                parts.append(sep)
                _write(item, parts, inner)
            else:
                parts.append(sep + text)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        text = _scalar(o)
        if text is None:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        parts.append(text)


def _cpair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_wire(m):
    m = np.asarray(m, dtype=complex)
    return [[_cpair(z) for z in row] for row in m]


def wire_to_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def coord_columns(group, prefix=""):
    fam = group.family
    if fam == "cyclic":
        return [prefix + "j"]
    if fam == "dihedral":
        return [prefix + "r", prefix + "s"]
    if fam == "torus":
        return [prefix + f"theta{i + 1}" for i in range(group.n)]
    if fam == "su2":
        return [prefix + c for c in ("qw", "qx", "qy", "qz")]
    cols = []
    for i, factor in enumerate(group.factors):
        cols.extend(coord_columns(factor, prefix=f"{prefix}g{i + 1}_"))
    return cols


# -- sampled functions -------------------------------------------------------

def function_to_json(f):
    rule = f.rule
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "sampled_function",
        "group": rule.group.name,
        "resolution": rule.resolution,
        "name": f.name,
        "values": [_cpair(z) for z in f.values],
    }


def field(doc, key, what):
    """``doc[key]``; a missing key is a FormatError that names it."""
    try:
        return doc[key]
    except KeyError:
        raise FormatError(f"{what} lacks {key!r}") from None


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    """A float, or an int that converts to one (JSON integers are unbounded)."""
    return isinstance(x, float) or (_is_int(x) and abs(x) <= sys.float_info.max)


_KINDS = {
    "a string": lambda x: isinstance(x, str),
    "an object": lambda x: isinstance(x, dict),
    "an integer": _is_int,
    "a number": _is_number,
    "a list of strings": lambda x: isinstance(x, list) and all(isinstance(s, str) for s in x),
    "a list of numbers": lambda x: isinstance(x, list) and all(map(_is_number, x)),
}


def expect(value, kind, what):
    """``value`` if it is ``kind``, a key of ``_KINDS`` (a bool is neither
    number); else a FormatError saying that ``what`` must be ``kind``."""
    if not _KINDS[kind](value):
        raise FormatError(f"{what} must be {kind}, got {value!r}")
    return value


def function_from_json(doc, rule):
    if doc.get("type") != "sampled_function":
        raise FormatError("not a sampled_function document")
    group = field(doc, "group", "sampled_function document")
    if group != rule.group.name:
        raise FormatError(f"function group {group!r} does not match rule group {rule.group.name!r}")
    pairs = field(doc, "values", "sampled_function document")
    if not isinstance(pairs, list) or not all(_is_number_pair(z) for z in pairs):
        raise FormatError("sampled_function 'values' must be a list of [re, im] number pairs")
    vals = np.array([complex(re, im) for re, im in pairs])
    if vals.shape[0] != len(rule):
        raise FormatError(f"{vals.shape[0]} values for a rule with {len(rule)} nodes")
    return fourier.SampledFunction(rule, vals, name=doc.get("name", ""))


def _is_number_pair(z):
    return isinstance(z, list) and len(z) == 2 and all(map(_is_number, z))


def function_to_csv(f):
    """One row per node: its coordinates and the value's re and im, each
    written by ``repr`` (``report_csv``)."""
    rule = f.rule
    flat = np.hstack(_arrays(rule.coords)).astype(float)  # one column per coordinate column
    rows = [map(repr, row + [z.real, z.imag]) for row, z in zip(flat.tolist(), f.values.tolist())]
    return report_csv(coord_columns(rule.group) + ["re", "im"], rows)


def function_from_csv(text, rule):
    """The function of a ``function_to_csv`` text on ``rule``; a header of
    another group's coordinates, a row count other than the rule's node
    count, or coordinates other than the nodes' (compared exactly, as
    ``repr`` round-trips), is a FormatError."""
    head, rows = report_from_csv(text)
    want = coord_columns(rule.group) + ["re", "im"]
    if list(head) != want:
        raise FormatError(f"csv header {','.join(head)!r} is not the {rule.group.name} "
                          f"header {','.join(want)!r}")
    if len(rows) != len(rule):
        raise FormatError(f"{len(rows)} rows for a rule with {len(rule)} nodes")
    coords = np.array([r[:-2] for r in rows], dtype=float)
    if not np.array_equal(coords, np.hstack(_arrays(rule.coords)).astype(float)):
        raise FormatError(f"csv coordinates are not the nodes of {rule.rule_id}, in order")
    vals = np.array([complex(float(r[-2]), float(r[-1])) for r in rows], dtype=complex)
    return fourier.SampledFunction(rule, vals)


# -- coefficients and norms --------------------------------------------------

def coefficients_to_json(coeffs):
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "fourier_coefficients",
        "group": coeffs.group.name,
        "entries": {lab.name: matrix_to_wire(coeffs[lab]) for lab in coeffs.labels},
    }


def coefficients_from_json(doc, group):
    if doc.get("type") != "fourier_coefficients":
        raise FormatError("not a fourier_coefficients document")
    if doc["group"] != group.name:
        raise FormatError("coefficient group does not match")
    labels = tuple(
        sorted((irreps.parse_label(group, s) for s in doc["entries"]),
               key=lambda lab: lab.sort_key)
    )
    entries = {lab: wire_to_matrix(doc["entries"][lab.name]) for lab in labels}
    return fourier.FourierCoefficients(group, labels, entries)


def norm_report_to_json(report):
    return {
        "p": "inf" if math.isinf(report.p) else float(report.p),
        "subset": report.subset_names,
        "value": float(report.value),
        "truncated": bool(report.truncated),
    }


# -- profiles and verdicts ---------------------------------------------------

def decay_profile_to_json(profile):
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "decay_profile",
        "family": profile.family_name,
        "p": float(profile.p),
        "truncated": bool(profile.truncated),
        "steps": [
            {
                "step": k,
                "shell": int(s.subset.max_shell),
                "subset_size": len(s.subset),
                "sup_tail": float(s.sup_tail),
                "per_member": [float(v) for v in s.per_member],
            }
            for k, s in enumerate(profile.steps)
        ],
    }


def decay_profile_csv(profile):
    return report_csv(("step", "shell", "sup_tail"),
                      [(k, int(s.subset.max_shell), repr(s.sup_tail))
                       for k, s in enumerate(profile.steps)])


def continuity_profile_to_json(profile):
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "continuity_profile",
        "family": profile.family_name,
        "p": float(profile.p),
        "path": profile.path,
        "ball_samples": int(profile.ball_samples),
        "seed": int(profile.seed),
        "deltas": [float(d) for d in profile.deltas],
        "omegas": [float(w) for w in profile.omegas],
        "per_member": [[float(v) for v in row] for row in profile.per_member],
    }


def continuity_profile_csv(profile):
    return report_csv(("delta", "omega"),
                      [(repr(float(d)), repr(float(w)))
                       for d, w in zip(profile.deltas, profile.omegas)])


def report_csv(head, rows):
    """A ``pego report`` CSV of rows of field strings under ``head``, by the
    csv module with minimal quoting: a family name holding a comma, a quote
    or a newline reads back whole (``report_from_csv``)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([head, *rows])
    return buf.getvalue()


def report_from_csv(text):
    """The header and the rows of a ``report_csv`` text, as tuples of field
    strings, blank lines skipped."""
    rows = [tuple(r) for r in csv.reader(io.StringIO(text, newline="")) if "".join(r).strip()]
    if any(len(r) != len(rows[0]) for r in rows):
        raise FormatError("report rows and header differ in length")
    return (rows[0], rows[1:]) if rows else ((), [])


def _flag_to_json(flag):
    witness = flag.witness
    if witness is None:
        wit = None
    elif hasattr(witness, "names"):
        wit = {"labels": witness.names}
    else:
        wit = float(witness)
    return {
        "flag": bool(flag.flag),
        "witness": wit,
        "certificate": flag.certificate,
        "evidence": flag.evidence,
    }


def verdict_to_json(verdict):
    bnd = verdict.boundedness
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "pego_verdict",
        "family": verdict.family_name,
        "epsilon": float(verdict.epsilon),
        "conclusion": verdict.conclusion,
        "boundedness": {
            "sup_norm": float(bnd.sup_norm),
            "bounded": bool(bnd.bounded),
            "trend": bnd.trend,
            "evidence": bnd.evidence,
            "per_member": [float(v) for v in bnd.per_member],
        },
        "uniform_decay": _flag_to_json(verdict.uniform_decay),
        "equicontinuous": _flag_to_json(verdict.equicontinuous),
        "config": verdict.config,
    }


# -- input files, function specs and family files ----------------------------

def read_input(path):
    """The JSON document of the file at ``path`` if its text starts with
    ``{`` after whitespace, else the text, read with ``newline=""`` so the
    csv reader gets quoted newlines whole.  Bad JSON is a FormatError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if not text.lstrip().startswith("{"):
        return text
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def parse_function_spec(spec, rule):
    """Build a SampledFunction from the tiny spec language.

    const:VALUE        constant function (VALUE parsed as a complex scalar)
    char:K or LABEL    character of a label; bare integer K means the obvious
                       one-dimensional character (cyclic chi:K, torus:1 k=K)
    entry:LABEL:I:J    matrix entry function, 1-based indices
    file:PATH          sampled values from a function JSON or CSV file
    """
    group = rule.group
    head, _, rest = spec.partition(":")
    if head == "const":
        try:
            c = complex(rest)
        except ValueError as exc:
            raise FormatError(f"bad constant {rest!r}") from exc
        f = fourier.constant_function(rule, c)
        f.name = spec
        return f
    if head == "char":
        label = irreps.parse_label(group, rest)
        stack = irreps.irrep_stack(label, rule)
        vals = np.trace(stack, axis1=1, axis2=2)
        return fourier.SampledFunction(rule, vals, name=f"char:{label.name}")
    if head == "entry":
        parts = rest.rsplit(":", 2)
        if len(parts) != 3:
            raise FormatError(f"entry spec needs entry:LABEL:I:J, got {spec!r}")
        label = irreps.parse_label(group, parts[0])
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FormatError(f"bad entry indices in {spec!r}") from exc
        return fourier.matrix_entry_function(label, i, j, rule)
    if head == "file":
        doc = read_input(rest)
        return function_from_json(doc, rule) if isinstance(doc, dict) else function_from_csv(doc, rule)
    raise FormatError(f"unknown function spec {spec!r}")


# The types of the builder parameters a family document may give.
_PARAM_KINDS = {"count": "an integer", "shell": "an integer", "seed": "an integer",
                "r": "a number", "bound": "a number", "t_min": "a number", "t_max": "a number",
                "labels": "a list of strings"}


def _builder_params(kind, params, group):
    """The keyword arguments of the ``kind`` builder from a document's
    ``params``: an object whose every key the builder takes, each value of
    its type in ``_PARAM_KINDS``, and the ``labels`` strings parsed."""
    params = expect(params, "an object", "family 'params'")
    takes = list(inspect.signature(FAMILY_KINDS[kind]).parameters)[1:]
    kwargs = {}
    for key, value in params.items():
        if key not in takes:
            raise FormatError(f"family kind {kind!r} takes no parameter {key!r}; "
                              f"it takes {takes}")
        expect(value, _PARAM_KINDS[key], f"family parameter {key!r}")
        kwargs[key] = [irreps.parse_label(group, s) for s in value] if key == "labels" else value
    return kwargs


def family_from_json(doc):
    """Build (FamilySpec, QuadratureRule) from a family definition document.

    Either ``kind`` (a builtin constructor fed ``params`` and ``seed``) or
    ``members`` (a nonempty list of function specs, with an optional
    ``param_space``) must be present, along with ``group`` and, for infinite
    groups, ``resolution`` (an integer of at least 1); ``name`` names the
    family.  A key of the wrong type is a FormatError, and so is a
    ``params`` key the kind's builder does not take.
    """
    if not isinstance(doc, dict):
        raise FormatError("family document must be a JSON object")
    try:
        group = parse_group(expect(field(doc, "group", "family document"), "a string",
                                   "family 'group'"))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    resolution = doc.get("resolution")
    if resolution is None:
        if not group.is_finite:
            raise FormatError("'resolution' is required for infinite groups")
        resolution = 1
    if not _is_int(resolution) or resolution < 1:
        raise FormatError(f"family 'resolution' must be an integer of at least 1, "
                          f"got {resolution!r}")
    name = expect(doc.get("name", "custom"), "a string", "family 'name'")
    rule = haar_quadrature(group, resolution=resolution)
    if "kind" in doc:
        kind = expect(doc["kind"], "a string", "family 'kind'")
        if kind not in FAMILY_KINDS:
            raise FormatError(
                f"unknown family kind {kind!r}; known: {sorted(FAMILY_KINDS)}"
            )
        seed = doc.get("seed")
        if seed is not None:
            expect(seed, "an integer", "family 'seed'")
        params = _builder_params(kind, doc.get("params", {}), group)
        fam = builtin_family(kind, rule, params=params, seed=seed)
        if "name" in doc:
            fam = dataclasses.replace(fam, name=name)
    elif "members" in doc:
        specs = expect(doc["members"], "a list of strings", "family 'members'")
        if not specs:
            raise FormatError("family 'members' must be a nonempty list")
        members = [parse_function_spec(s, rule) for s in specs]
        fam = FamilySpec(members, name=name, param_space=doc.get("param_space", "compact"))
    else:
        raise FormatError("family document needs 'kind' or 'members'")
    return fam, rule
