"""Built-in diagnostic families with known compactness behavior.

Each constructor returns a FamilySpec sampled on a caller-supplied rule:

* ``scaled_constants``: (r/n) * 1_G for n = 1..count.  Precompact (converges
  to 0); both sampled criteria hold at every epsilon.
* ``growing_constants``: n * 1_G.  Uniform decay and equicontinuity both
  hold (every member is spectrally concentrated on the trivial irrep), yet
  the family escapes in norm, so it is not precompact.
* ``character_ladder``: e^(i n theta) on torus:1.  Bounded, but the active
  frequency escapes every finite dual subset and the modulus witness
  shrinks like 1/n: fails both criteria.
* ``matrix_entry_span``: random elements of a fixed norm ball inside the
  span of the matrix entries of finitely many irreps.  Precompact, with
  exactly zero spectral tail outside those irreps.
* ``heat_kernel``: spectrally damped kernels over a compact time box
  [t_min, t_max].  Precompact.
* ``random_band_limited``: a random bounded subset of a fixed band.
  Precompact.

A family document (``serialize.family_from_json``) keeps ``kind``,
``params``, ``seed``, ``name`` and ``param_space``: ``kind`` picks the
constructor, ``params`` and ``seed`` feed it, ``name`` renames the family,
and ``param_space`` applies to a document that lists its ``members``.  The
FamilySpec itself keeps only its members, name and param_space; the diagnose
output embeds the document whole as its record of how the family was made.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import fourier, irreps
from .compactness import FamilySpec
from .groups import ResolutionError

__all__ = [
    "builtin_family",
    "scaled_constants",
    "growing_constants",
    "character_ladder",
    "matrix_entry_span",
    "heat_kernel",
    "random_band_limited",
    "FAMILY_KINDS",
]


def scaled_constants(rule, r=1.0, count=12):
    members = []
    for n in range(1, count + 1):
        f = fourier.constant_function(rule, complex(r) / n)
        f.name = f"({r}/{n})*1"
        members.append(f)
    return FamilySpec(members, name=f"scaled_constants(r={r})", param_space="unbounded")


def growing_constants(rule, count=12):
    members = [fourier.constant_function(rule, float(n)) for n in range(1, count + 1)]
    for n, f in enumerate(members, start=1):
        f.name = f"{n}*1"
    return FamilySpec(members, name="growing_constants", param_space="unbounded")


def character_ladder(rule, count=12):
    group = rule.group
    if group.family != "torus" or group.n != 1:
        raise ValueError("character_ladder is defined on torus:1")
    band = fourier.safe_band(rule)
    if count > band:
        raise ResolutionError(
            f"ladder top frequency {count} exceeds alias-free band {band}"
        )
    angles = rule.coords[:, 0]
    members = []
    for n in range(1, count + 1):
        members.append(
            fourier.SampledFunction(rule, np.exp(1j * n * angles), name=f"e(i{n}t)")
        )
    return FamilySpec(members, name="character_ladder", param_space="unbounded")


def matrix_entry_span(rule, labels=None, shell=None, bound=1.0, count=10, seed=0):
    """Random members of the ``bound``-ball of the span of entries of a fixed
    finite set of irreps (given by labels, or every irrep with shell <= shell),
    drawn straight into the subset's packed blocks (``fourier._random_blocks``)."""
    group = rule.group
    if labels is None:
        if shell is None:
            raise ValueError("matrix_entry_span needs labels or a shell bound")
        subset = irreps.shell_subset(group, shell)
    else:
        subset = irreps.DualSubset.from_labels(group, list(labels))
    band = fourier.safe_band(rule)
    if band is not None and any(lab.shell > band for lab in subset):
        raise ResolutionError("span irreps exceed the rule's alias-free band")
    rng = np.random.default_rng(seed)
    table = fourier.slot_table(subset.labels)
    blocks = [np.empty((count, len(labs), d, d), dtype=complex)
              for d, labs in zip(table.dims, table.block_labels)]
    for k in range(count):
        drawn, mass = fourier._random_blocks(table, rng)
        radius = bound * float(rng.uniform(0.2, 1.0))
        scale = radius / math.sqrt(mass) if mass > 0 else 0.0
        for block, b in zip(blocks, drawn):
            block[k] = b * scale
    values = fourier._inverse_blocks(rule, table, blocks, count)
    members = [fourier.SampledFunction(rule, v, name=f"span[{i}]") for i, v in enumerate(values)]
    return FamilySpec(members, name=f"matrix_entry_span(bound={bound})", param_space="compact")


def _damping_weights(labels):
    """Casimir-style damping exponent of each label, as one array: |k|^2 on
    the torus, l(l+1) on su2, the sum over factors on products, and the
    squared shell on finite groups."""
    group = labels[0].group
    fam = group.family
    if fam == "torus":
        ks = np.array([lab.index for lab in labels], dtype=float)
        return np.sum(ks * ks, axis=1)
    if fam == "su2":
        half = np.array([lab.index[0] for lab in labels]) / 2.0
        return half * (half + 1.0)
    if fam == "product":
        return sum(
            _damping_weights([lab.index[k] for lab in labels])
            for k in range(len(group.factors))
        )
    return np.array([float(lab.shell) for lab in labels]) ** 2


def heat_kernel(rule, t_min=0.05, t_max=1.0, count=10):
    """Heat-damped kernels h_t with coeff(pi) = exp(-t * casimir(pi)) * I,
    t on a descending grid over the compact box [t_min, t_max]."""
    if not 0 < t_min <= t_max:
        raise ValueError("need 0 < t_min <= t_max")
    group = rule.group
    band = fourier.safe_band(rule)
    table = fourier.slot_table(tuple(irreps.enumerate_dual(group, band)))
    times = np.linspace(t_max, t_min, count)
    blocks = []
    for d, labs in zip(table.dims, table.block_labels):
        # every (time, label) exponent of the block at once; the exp is the
        # C library's, as np.exp can differ from it by an ulp, which the
        # p = 2 tails of the family would magnify to ~1e-11
        expo = -times[:, None] * _damping_weights(labs)
        damp = np.fromiter(map(math.exp, expo.ravel().tolist()), float, expo.size)
        blocks.append(damp.reshape(expo.shape)[..., None, None] * np.eye(d, dtype=complex))
    values = fourier._inverse_blocks(rule, table, blocks, count)
    members = [fourier.SampledFunction(rule, v, name=f"heat(t={t:.4g})")
               for t, v in zip(times, values)]
    return FamilySpec(members, name="heat_kernel", param_space="compact")


def random_band_limited(rule, shell=2, bound=1.0, count=10, seed=0):
    """Random bounded subset of the band of shells <= shell (precompact)."""
    span = matrix_entry_span(rule, shell=shell, bound=bound, count=count, seed=seed)
    return dataclasses.replace(span, name=f"random_band_limited(shell={shell})")


FAMILY_KINDS = {
    "scaled_constants": scaled_constants,
    "growing_constants": growing_constants,
    "character_ladder": character_ladder,
    "matrix_entry_span": matrix_entry_span,
    "heat_kernel": heat_kernel,
    "random_band_limited": random_band_limited,
}


def builtin_family(kind, rule, params=None, seed=None):
    """Construct a named diagnostic family on a rule.

    ``params`` feeds the constructor's keyword arguments; ``seed`` overrides
    a params seed for the randomized kinds.
    """
    try:
        ctor = FAMILY_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown family kind {kind!r}; choose from {sorted(FAMILY_KINDS)}"
        ) from None
    kwargs = dict(params or {})
    if seed is not None and kind in ("matrix_entry_span", "random_band_limited"):
        kwargs["seed"] = seed
    return ctor(rule, **kwargs)
