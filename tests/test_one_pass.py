"""A verdict is one pass over its family: one forward transform per verdict
and per epsilon net, one pair of profiles for many epsilons, a ball pool drawn
once for all radii, and a heat-kernel family built block by block.  Each is
checked against an oracle that does the work the long way."""

import dataclasses
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pego.cli as cli
from pego import (
    GroupPoint,
    NeighborhoodSpec,
    builtin_family,
    distance,
    enumerate_dual,
    enumerate_elements,
    epsilon_net,
    haar_quadrature,
    identity,
    parse_group,
    pego_verdict,
    pego_verdicts,
    point,
    points_of,
    safe_band,
    sample_ball,
)
from pego import compactness, fourier
from pego import serialize as ser
from pego.compactness import DualFiltration
from pego.groups import _ball_pool


def _counting_forward(monkeypatch):
    """Record the function count of every forward pass: each one is a call
    of ``fourier._forward_blocks``, a product factor's pass included."""
    calls = []
    real = fourier._forward_blocks

    def counted(rule, vals, table):
        calls.append(len(vals))
        return real(rule, vals, table)

    monkeypatch.setattr(fourier, "_forward_blocks", counted)
    return calls


def _counting_from_blocks(monkeypatch):
    """Record the label count of every ``FourierCoefficients.from_blocks``
    call, the one way a per-function coefficient view is cut from blocks."""
    calls = []
    real = fourier.FourierCoefficients.from_blocks.__func__

    def counted(cls, group, table, blocks):
        calls.append(len(table.labels))
        return real(cls, group, table, blocks)

    monkeypatch.setattr(fourier.FourierCoefficients, "from_blocks", classmethod(counted))
    return calls


@pytest.mark.parametrize("group, res", [("torus:2", 9), ("su2", 4), ("dihedral:9", 1)])
def test_verdict_and_net_transform_the_family_once(monkeypatch, group, res):
    """The family keeps its transform: a verdict, verdicts at three epsilons
    and a net of one family transform it once between them."""
    rule = haar_quadrature(parse_group(group), res)
    fam = builtin_family("heat_kernel", rule, params={"count": 5})
    calls = _counting_forward(monkeypatch)
    pego_verdict(fam, 0.3, ball_samples=3, seed=2)
    pego_verdicts(fam, [0.5, 0.3, 0.1], ball_samples=3, seed=2)
    epsilon_net(fam, 0.5, ball_samples=3, seed=2)
    assert calls == [len(fam)]
    # a custom filtration transforms against its own top step as well
    filtration = DualFiltration.shells(rule.group, safe_band(rule))
    pego_verdict(fam, 0.3, filtration=filtration, ball_samples=3, seed=2)
    assert calls == [len(fam), len(fam)]


@pytest.mark.parametrize("group, res", [("torus:2", 9), ("su2", 4), ("dihedral:9", 1),
                                        ("product(torus:1,su2)", 4)])
def test_verdicts_build_no_per_member_coefficients(monkeypatch, group, res):
    """The verdicts read the family's transform as its blocks: no
    ``FourierCoefficients`` view is cut from them for any member."""
    rule = haar_quadrature(parse_group(group), res)
    fam = builtin_family("heat_kernel", rule, params={"count": 5})
    calls = _counting_from_blocks(monkeypatch)
    pego_verdicts(fam, [0.5, 0.1], ball_samples=3, seed=2)
    assert calls == []


@pytest.mark.parametrize("group, res", [("torus:2", 9), ("su2", 4), ("dihedral:9", 1),
                                        ("product(torus:1,su2)", 4)])
def test_p15_stages_read_the_family_transform_as_blocks(monkeypatch, group, res):
    """At p = 1.5 the decay and continuity profiles read the family's one
    transform: one forward pass for all members (a product's factor passes
    aside), no per-member coefficient view, and each member's translates
    from its own slice of the blocks."""
    rule = haar_quadrature(parse_group(group), res)
    fam = builtin_family("heat_kernel", rule, params={"count": 5})
    forwards = _counting_forward(monkeypatch)
    views = _counting_from_blocks(monkeypatch)
    compactness.tail_decay_profile(fam, p=1.5)
    compactness.equicontinuity_profile(fam, p=1.5, ball_samples=3, seed=2)
    assert views == []
    if not group.startswith("product"):
        assert forwards == [len(fam)]


def test_verdict_runs_through_its_public_stages(monkeypatch):
    """``pego_verdicts`` calls each public stage once and ``epsilon_net``
    calls ``pego_verdict`` once; the family they share is frozen."""
    calls = {}
    for name in ("boundedness", "tail_decay_profile", "equicontinuity_profile",
                 "pego_verdict"):
        def counted(*args, _real=getattr(compactness, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(compactness, name, counted)
    rule = haar_quadrature(parse_group("torus:2"), 9)
    fam = builtin_family("heat_kernel", rule, params={"count": 5})
    compactness.pego_verdicts(fam, [0.5, 0.3, 0.1], ball_samples=3, seed=2)
    assert calls == {"boundedness": 1, "tail_decay_profile": 1, "equicontinuity_profile": 1}
    calls.clear()
    compactness.epsilon_net(fam, 0.5, ball_samples=3, seed=2)
    assert calls["pego_verdict"] == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.name = "renamed"


def test_verdicts_share_profiles_and_match_single_verdicts():
    rule = haar_quadrature(parse_group("torus:2"), 9)
    fam = builtin_family("heat_kernel", rule, params={"count": 5})
    many = pego_verdicts(fam, [0.5, 0.2], ball_samples=3, seed=4)
    assert many[0].decay_profile is many[1].decay_profile
    for v in many:
        one = pego_verdict(fam, v.epsilon, ball_samples=3, seed=4)
        assert one.conclusion == v.conclusion
        assert one.config == v.config
        npt.assert_array_equal(one.continuity_profile.per_member, v.continuity_profile.per_member)
        for a, b in zip(one.decay_profile.steps, v.decay_profile.steps):
            npt.assert_array_equal(a.per_member, b.per_member)
    assert pego_verdicts(fam, []) == []
    with pytest.raises(ValueError):
        pego_verdicts(fam, [0.5, 0.0])


DIAGNOSE_FAMILIES = {
    "heat_t2": {"group": "torus:2", "resolution": 9, "kind": "heat_kernel",
                "params": {"count": 5}},
    "heat_su2": {"group": "su2", "resolution": 4, "kind": "heat_kernel",
                 "params": {"count": 5}},
    "span_d5": {"group": "dihedral:5", "kind": "matrix_entry_span",
                "params": {"shell": 2, "count": 5}, "seed": 3},
    "grow_t1": {"group": "torus:1", "resolution": 9, "kind": "growing_constants",
                "params": {"count": 6}},
}


def _oracle_diagnose(doc, epsilons, seed, ball_samples):
    """The files ``pego diagnose`` writes, from one ``pego_verdict`` per
    epsilon: {file suffix: text}."""
    family, rule = ser.family_from_json(doc)
    verdicts = [pego_verdict(family, eps, ball_samples=ball_samples, seed=seed)
                for eps in epsilons]
    last = verdicts[-1]
    outdoc = {
        "schema_version": ser.SCHEMA_VERSION,
        "type": "diagnose_result",
        "family": family.name,
        "family_definition": doc,
        "config": {
            "group": rule.group.name,
            "resolution": rule.resolution,
            "exactness_degree": rule.exactness_degree,
            "seed": seed,
            "ball_samples": ball_samples,
            "epsilons": [float(e) for e in epsilons],
        },
        "verdicts": [ser.verdict_to_json(v) for v in verdicts],
        "decay_profile": ser.decay_profile_to_json(last.decay_profile),
        "continuity_profile": ser.continuity_profile_to_json(last.continuity_profile),
    }
    return family.name, {
        ".json": ser.dumps(outdoc),
        "_decay.csv": ser.decay_profile_csv(last.decay_profile),
        "_equicontinuity.csv": ser.continuity_profile_csv(last.continuity_profile),
    }


@pytest.mark.parametrize("name", sorted(DIAGNOSE_FAMILIES))
def test_diagnose_with_three_epsilons_matches_per_epsilon_verdicts(tmp_path, capsys, name):
    doc = dict(DIAGNOSE_FAMILIES[name], name=name)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    epsilons = [0.5, 0.1, 0.01]  # the CLI default
    rc = cli.main(["diagnose", "--family", str(path), "--ball-samples", "3",
                   "--seed", "6", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    fam_name, want = _oracle_diagnose(doc, epsilons, 6, 3)
    for suffix, text in want.items():
        got = (tmp_path / f"diagnose_{cli._slug(fam_name)}{suffix}").read_bytes()
        assert got == text.encode("utf-8"), suffix


POOL_GROUPS = ("cyclic:5", "dihedral:9", "torus:1", "torus:2", "su2", "product(torus:1,su2)",
               "product(su2,cyclic:3)", "product(torus:1,dihedral:3)")


def _oracle_point_at(group, radius, rng):
    """A point at the given distance from e, drawn point by point: a finite
    group draws a uniform non-identity element once the radius reaches 1 (and
    nothing below it), a product splits the radius among its factors."""
    fam = group.family
    if fam in ("cyclic", "dihedral"):
        if radius < 1.0:
            return identity(group)
        elems = enumerate_elements(group)[1:]
        return elems[int(rng.integers(len(elems)))]
    if fam == "torus":
        u = _unit(rng, group.n, 0)
        return point(group, tuple(radius * float(c) for c in u))
    if fam == "su2":
        ax = _unit(rng, 3, 2)
        half = radius / 2.0
        s = math.sin(half)
        return point(group, (math.cos(half), s * ax[0], s * ax[1], s * ax[2]))
    split = np.abs(rng.normal(size=len(group.factors)))
    nrm = np.linalg.norm(split)
    split = split / nrm if nrm > 0 else np.ones(len(split)) / math.sqrt(len(split))
    return GroupPoint(group, tuple(
        _oracle_point_at(f, radius * float(s), rng) for f, s in zip(group.factors, split)
    ))


def _unit(rng, n, fallback):
    u = rng.normal(size=n)
    nrm = np.linalg.norm(u)
    if nrm == 0:
        return np.eye(n)[fallback]
    return u / nrm


def _oracle_sample_ball(group, radius, count, seed):
    """``sample_ball`` point by point, with math-module arithmetic."""
    if radius == 0.0:
        return [identity(group)]
    if group.is_finite:
        e = identity(group)
        return [p for p in enumerate_elements(group) if distance(e, p) <= radius]
    if count == 1:
        return [identity(group)]
    if group.family == "torus" and group.n == 1:
        angles = np.linspace(-radius, radius, count)
        if not np.any(np.isclose(angles, 0.0, atol=1e-15)):
            angles[np.argmin(np.abs(angles))] = 0.0
        return [point(group, (float(a),)) for a in angles]
    rng = np.random.default_rng(seed)
    return [identity(group)] + [
        _oracle_point_at(group, radius * float(t), rng) for t in np.linspace(0.0, 1.0, count)[1:]
    ]


def _flat_coords(p):
    if p.group.family == "product":
        return [c for comp in p.coords for c in _flat_coords(comp)]
    return [float(c) for c in p.coords]


def _assert_same_points(got, want):
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert p.group == q.group
        npt.assert_allclose(_flat_coords(p), _flat_coords(q), rtol=0, atol=1e-15)
        # signed zeros too: atan2 reads them when su2 points become Euler angles
        npt.assert_array_equal(np.signbit(_flat_coords(p)), np.signbit(_flat_coords(q)))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(POOL_GROUPS),
    st.lists(st.floats(1e-4, 3.0), min_size=1, max_size=5),
    st.integers(1, 6),
    st.integers(0, 10_000),
)
def test_ball_pool_is_sample_ball_at_each_radius(name, radii, count, seed):
    group = parse_group(name)
    pool, dists = _ball_pool(group, radii, count, seed)
    want = [p for r in radii for p in _oracle_sample_ball(group, r, count, seed)]
    _assert_same_points(points_of(group, pool), want)
    e = identity(group)
    npt.assert_allclose(dists, [distance(e, q) for q in want], rtol=0, atol=1e-15)
    _assert_same_points(sample_ball(group, NeighborhoodSpec(radii[0], count), seed),
                        _oracle_sample_ball(group, radii[0], count, seed))


@pytest.mark.parametrize("name", ["product(su2,cyclic:3)", "product(torus:1,dihedral:3)"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ball_pool_keeps_the_finite_factor_draw_order(name, seed):
    """The finite factor draws only where its share of the radius reaches 1,
    so the draws differ from radius to radius; both kinds of share occur
    here, and every radius matches the point-by-point sampler."""
    group = parse_group(name)
    radii = [2.5, 0.9, 1.6, 3.0]
    pool = points_of(group, _ball_pool(group, radii, 6, seed)[0])
    _assert_same_points(pool, [p for r in radii for p in _oracle_sample_ball(group, r, 6, seed)])
    k = [f.is_finite for f in group.factors].index(True)
    off_identity = [p for i, p in enumerate(pool) if i % 6]
    assert {p.coords[k] == identity(group.factors[k]) for p in off_identity} == {True, False}


def _casimir(label):
    fam = label.group.family
    if fam == "torus":
        return float(sum(k * k for k in label.index))
    if fam == "su2":
        half = label.index[0] / 2.0
        return half * (half + 1.0)
    return float(sum(_casimir(c) for c in label.index))


@pytest.mark.parametrize("group, res", [("torus:2", 17), ("su2", 6), ("product(torus:1,su2)", 4)])
def test_heat_kernel_members_match_the_per_label_construction(group, res):
    rule = haar_quadrature(parse_group(group), res)
    fam = builtin_family("heat_kernel", rule, params={"count": 6})
    dual = enumerate_dual(rule.group, safe_band(rule))
    coeffs = [
        fourier.FourierCoefficients(rule.group, dual, {
            lab: math.exp(-t * _casimir(lab)) * np.eye(lab.dim) for lab in dual
        })
        for t in np.linspace(1.0, 0.05, 6)
    ]
    for got, want in zip(fam.members, fourier.inverse_batch(coeffs, rule)):
        npt.assert_array_equal(got.values, want.values)
