"""The benchmark's workloads: inputs made from a seed, rounds of ops, checks.

Each workload is driven by one client in a closed loop: the next op starts
when the previous one has returned.  ``cycle(c)`` gives round ``c`` of ops in
a fixed order, and only the data inside them depends on the seed.  Every run
therefore does the same mix of work, and a latency percentile lands on the
same kind of op from one run to the next.

An op is ``(kind, run, check)``.  ``run()`` calls pego, through its public
functions or ``cli.main``, and returns what pego returned.  ``check(output)``
returns None when the output is right and a message when it is not.  Checks
run as each op returns, with tracing off and outside the op's latency, so
they show up neither in the end-to-end nor in the per-layer numbers.
"""

import collections
import contextlib
import io
import json
import math
import os
import random

import numpy as np

from pego import cli, compactness, fourier, groups, irreps, serialize

Op = collections.namedtuple("Op", "kind run check")

TOL = 1e-10


def quiet_main(argv):
    """``cli.main(argv)`` with its console output captured: (exit code, text)."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = cli.main(argv)
    return code, text.getvalue()


def stack_bytes(rule, labels):
    """Bytes of the irrep stacks of ``labels`` on ``rule``: n * d * d * 16."""
    return sum(len(rule) * lab.dim * lab.dim * 16 for lab in labels)


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- audit ---------------------------------------------------------------------

# (name, family document, known conclusion, epsilons): every round diagnoses
# each family once per listed epsilon.  torus:2 at res 17 has 289 labels,
# more than the 256-entry stack cache, so its stacks are rebuilt on every
# diagnose.  character_ladder is incoherent at epsilon 0.2 and 0.1 at this
# resolution.  heat_t2 and heat_su2 get four epsilons so that, sorted by
# cost, their diagnoses span the 90th percentile and the median.
AUDIT_FAMILIES = (
    ("heat_t2", {"group": "torus:2", "resolution": 17, "kind": "heat_kernel",
                 "params": {"count": 6}}, "precompact", (0.5, 0.3, 0.2, 0.1)),
    ("span_t2", {"group": "torus:2", "resolution": 17, "kind": "matrix_entry_span",
                 "params": {"shell": 2, "count": 6}}, "precompact", (0.3, 0.1)),
    ("ladder_t1", {"group": "torus:1", "resolution": 17, "kind": "character_ladder",
                   "params": {"count": 8}}, "not_precompact_no_decay", (0.5, 0.3)),
    ("grow_d9", {"group": "dihedral:9", "kind": "growing_constants",
                 "params": {"count": 8}}, "not_precompact_unbounded", (0.3, 0.1)),
    ("span_d9", {"group": "dihedral:9", "kind": "matrix_entry_span",
                 "params": {"shell": 2, "count": 6}}, "precompact", (0.3, 0.1)),
    ("heat_su2", {"group": "su2", "resolution": 6, "kind": "heat_kernel",
                  "params": {"count": 6}}, "precompact", (0.5, 0.3, 0.2, 0.1)),
    ("heat_prod", {"group": "product(torus:1,su2)", "resolution": 4, "kind": "heat_kernel",
                   "params": {"count": 6}}, "precompact", (0.3, 0.1)),
)
AUDIT_BALL_SAMPLES = 3
NET_EPSILONS = (0.5, 0.3)


class Audit:
    """``pego diagnose`` on family files, one epsilon per op, plus epsilon nets."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.paths = {}
        self.nets = {}

    def _docs(self):
        for name, doc, expected, epsilons in AUDIT_FAMILIES:
            yield name, dict(doc, name=name, seed=self.seed), expected, epsilons

    def setup(self):
        fam_dir = os.path.join(self.workdir, "families")
        os.makedirs(fam_dir)
        for name, doc, expected, _ in self._docs():
            path = os.path.join(fam_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.paths[name] = path
            if expected == "precompact":
                self.nets[name] = serialize.family_from_json(doc)[0]

    def warmup(self):
        return [
            self._diagnose(f"warm-{name}", name, expected, epsilons[0], self.seed)
            for name, _, expected, epsilons in self._docs()
        ]

    def cycle(self, c):
        rng = random.Random(f"audit/{self.seed}/{c}")
        ops = []
        for name, _, expected, epsilons in self._docs():
            for eps in rng.sample(epsilons, len(epsilons)):
                tag = f"c{c}-{len(ops)}"
                ops.append(self._diagnose(tag, name, expected, eps, rng.randrange(10**6)))
        for name in self.nets:
            ops.append(self._net(name, rng.choice(NET_EPSILONS), rng.randrange(10**6)))
        return ops

    def _diagnose(self, tag, name, expected, eps, seed):
        out = os.path.join(self.workdir, "out", tag)
        argv = ["diagnose", "--family", self.paths[name], "--epsilon", repr(eps),
                "--ball-samples", str(AUDIT_BALL_SAMPLES), "--seed", str(seed),
                "--out", out]

        def check(result):
            code, text = result
            if code != 0:
                return f"exit {code}: {text.strip()[-300:]}"
            base = os.path.join(out, f"diagnose_{name}")
            doc = _read_json(base + ".json")
            got = [v["conclusion"] for v in doc["verdicts"]]
            if got != [expected]:
                return f"conclusion {got}, expected {expected} at epsilon {eps}"
            for suffix in ("_decay.csv", "_equicontinuity.csv"):
                if _csv_rows(base + suffix) < 1:
                    return f"empty {suffix}"
            return None

        return Op(f"diagnose.{name}", lambda: quiet_main(argv), check)

    def _net(self, name, eps, seed):
        family = self.nets[name]

        def run():
            return compactness.epsilon_net(
                family, eps, ball_samples=AUDIT_BALL_SAMPLES, seed=seed)

        def check(net):
            if not net.cover_verified:
                return "cover not verified"
            if len(net.assignments) != len(family):
                return "not every member assigned"
            if float(np.max(net.distances)) > eps + 1e-12:
                return f"member at {float(np.max(net.distances))} > epsilon {eps}"
            return None

        return Op(f"epsilon_net.{name}", run, check)

    def working_set_bytes(self):
        total = 0
        seen = set()
        for _, doc, _, _ in self._docs():
            key = (doc["group"], doc.get("resolution", 1))
            if key in seen:
                continue
            seen.add(key)
            group = groups.parse_group(key[0])
            rule = groups.haar_quadrature(group, key[1])
            total += stack_bytes(rule, irreps.enumerate_dual(group, fourier.safe_band(rule)))
        return total


# -- spectral-su2 --------------------------------------------------------------

SPECTRAL_RESOLUTION = 16
SPECTRAL_POOL = 3
EVAL_POINTS = 32
CHECK_POINTS = 6
# One round: 4 forward_batch, 4 inverse, 9 evaluate_at, 2 translate and
# 1 convolve.  Sorted by cost, evaluate_at spans the median and translate
# the 90th percentile, so neither percentile sits on a boundary between kinds.
SPECTRAL_ROUND = (
    ("forward_batch", 16), ("evaluate_at", 16), ("inverse", 16), ("evaluate_at", 16),
    ("forward_batch", 12), ("evaluate_at", 16), ("inverse", 12), ("evaluate_at", 16),
    ("translate", 16), ("evaluate_at", 16), ("forward_batch", 8), ("evaluate_at", 16),
    ("inverse", 8), ("evaluate_at", 16), ("convolve", 16), ("evaluate_at", 16),
    ("forward_batch", 4), ("inverse", 4), ("translate", 16), ("evaluate_at", 16),
)


def _max_gap(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class SpectralSU2:
    """A library session on su2 at res 16: transforms against ~1 GB of stacks."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.group = groups.su2()
        self.rule = None
        self.duals = {}
        self.coeffs = []
        self.funcs = []

    def setup(self):
        self.rule = groups.haar_quadrature(self.group, SPECTRAL_RESOLUTION)
        for _, band in SPECTRAL_ROUND:
            self.duals[band] = tuple(irreps.enumerate_dual(self.group, band))
        full = self.duals[SPECTRAL_RESOLUTION]
        rng = np.random.default_rng([self.seed])
        for _ in range(SPECTRAL_POOL):
            entries = {
                lab: rng.normal(size=(lab.dim, lab.dim))
                + 1j * rng.normal(size=(lab.dim, lab.dim))
                for lab in full
            }
            mass = sum(lab.dim * float(np.sum(np.abs(m) ** 2)) for lab, m in entries.items())
            entries = {lab: m / math.sqrt(mass) for lab, m in entries.items()}
            coeffs = fourier.FourierCoefficients(self.group, full, entries)
            self.coeffs.append(coeffs)
            self.funcs.append(fourier.inverse(coeffs, self.rule))

    def warmup(self):
        return [self._forward_batch(SPECTRAL_RESOLUTION)]

    def _point(self, rng):
        q = rng.normal(size=4)
        return groups.point(self.group, tuple(q / np.linalg.norm(q)))

    def _restrict(self, k, band):
        labels = self.duals[band]
        return fourier.FourierCoefficients(
            self.group, labels, {lab: self.coeffs[k][lab] for lab in labels})

    def _nodes(self, rng):
        return [int(i) for i in rng.choice(len(self.rule), CHECK_POINTS, replace=False)]

    def cycle(self, c):
        rng = np.random.default_rng([self.seed, c])
        makers = {
            "forward_batch": self._forward_batch,
            "inverse": lambda band: self._inverse(band, rng),
            "evaluate_at": lambda band: self._evaluate(rng),
            "translate": lambda band: self._translate(rng),
            "convolve": lambda band: self._convolve(rng),
        }
        return [makers[kind](band) for kind, band in SPECTRAL_ROUND]

    def _forward_batch(self, band):
        dual = self.duals[band]

        def check(out):
            # roundtrip: the pool was synthesized from self.coeffs
            for k, got in enumerate(out):
                if tuple(got.labels) != dual:
                    return "labels differ from the requested dual"
                gap = max(_max_gap(got[lab], self.coeffs[k][lab]) for lab in dual)
                if gap > TOL:
                    return f"roundtrip error {gap:.3e} at band {band}"
            return None

        return Op(f"forward_batch.b{band}",
                  lambda: fourier.forward_batch(self.funcs, dual), check)

    def _inverse(self, band, rng):
        coeffs = self._restrict(int(rng.integers(SPECTRAL_POOL)), band)
        nodes = self._nodes(rng)

        def check(out):
            want = fourier.evaluate_at(coeffs, [self.rule.nodes[i] for i in nodes])
            gap = _max_gap(out.values[nodes], want)
            return None if gap <= TOL else f"synthesis error {gap:.3e} at band {band}"

        return Op(f"inverse.b{band}", lambda: fourier.inverse(coeffs, self.rule), check)

    def _evaluate(self, rng):
        coeffs = self.coeffs[int(rng.integers(SPECTRAL_POOL))]
        pts = [self._point(rng) for _ in range(EVAL_POINTS)]
        y = self._point(rng)

        def check(values):
            # f(p) = (R_y f)(p y^-1), with R_y f taken on the coefficient side
            moved = fourier.translate_spectral(coeffs, y)
            yinv = groups.inverse(y)
            probe = [groups.multiply(p, yinv) for p in pts[:CHECK_POINTS]]
            gap = _max_gap(values[:CHECK_POINTS], fourier.evaluate_at(moved, probe))
            return None if gap <= TOL else f"evaluation error {gap:.3e}"

        return Op("evaluate_at", lambda: fourier.evaluate_at(coeffs, pts), check)

    def _translate(self, rng):
        k = int(rng.integers(SPECTRAL_POOL))
        y = self._point(rng)
        nodes = self._nodes(rng)

        def check(out):
            probe = [groups.multiply(self.rule.nodes[i], y) for i in nodes]
            gap = _max_gap(out.values[nodes], fourier.evaluate_at(self.coeffs[k], probe))
            return None if gap <= TOL else f"translation error {gap:.3e}"

        return Op("translate", lambda: fourier.translate(self.funcs[k], y), check)

    def _convolve(self, rng):
        a, b = (int(i) for i in rng.choice(SPECTRAL_POOL, 2, replace=False))
        dual = self.duals[SPECTRAL_RESOLUTION]

        def check(out):
            # convolution theorem: (f * g)^ = g^ f^
            got = fourier.forward(out, dual)
            gap = max(_max_gap(got[lab], self.coeffs[b][lab] @ self.coeffs[a][lab])
                      for lab in dual)
            return None if gap <= TOL else f"convolution theorem error {gap:.3e}"

        return Op("convolve", lambda: fourier.convolve(self.funcs[a], self.funcs[b]), check)

    def working_set_bytes(self):
        return stack_bytes(self.rule, self.duals[SPECTRAL_RESOLUTION])


# -- verify --------------------------------------------------------------------

# (group, cutoff, resolution): cutoffs keep every suite under a second here.
VERIFY_GROUPS = (
    ("dihedral:9", None, 1),
    ("torus:2", 5, 11),
    ("su2", 4, 4),
    ("product(torus:1,su2)", 2, 5),
)
VERIFY_SUITES = ("identities", "hausdorff_young", "lemma31", "lemma32", "schur")
# Every suite on every group, plus schur on torus:2 a second time so that,
# sorted by cost, the 90th percentile falls inside a kind of op rather than
# on the boundary between lemma31 on su2 and schur on torus:2.
VERIFY_ROUND = tuple(
    (group, suite) for group in VERIFY_GROUPS for suite in VERIFY_SUITES
) + ((VERIFY_GROUPS[1], "schur"),)
VERIFY_SAMPLES = 3


class Verify:
    """``pego verify`` over the five suites on four groups."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        pass

    def warmup(self):
        return [self._verify(f"warm-{i}", group, cutoff, res, "schur", self.seed)
                for i, (group, cutoff, res) in enumerate(VERIFY_GROUPS)]

    def cycle(self, c):
        rng = random.Random(f"verify/{self.seed}/{c}")
        ops = []
        for (group, cutoff, res), suite in VERIFY_ROUND:
            tag = f"c{c}-{len(ops)}"
            ops.append(self._verify(tag, group, cutoff, res, suite, rng.randrange(10**6)))
        return ops

    def _verify(self, tag, group, cutoff, res, suite, seed):
        out = os.path.join(self.workdir, "out", tag)
        argv = ["verify", "--suite", suite, "--group", group, "--resolution", str(res),
                "--samples", str(VERIFY_SAMPLES), "--seed", str(seed), "--out", out]
        if cutoff is not None:
            argv += ["--cutoff", str(cutoff)]

        def check(result):
            code, text = result
            if code != 0:
                return f"exit {code}: {text.strip()[-300:]}"
            doc = _read_json(os.path.join(out, f"verify_{suite}.json"))
            if doc["suite"] != suite or not doc["checks"] or doc["all_passed"] is not True:
                return f"suite {suite} on {group} did not pass"
            return None

        return Op(f"verify.{suite}.{group}", lambda: quiet_main(argv), check)

    def working_set_bytes(self):
        total = 0
        for name, cutoff, res in VERIFY_GROUPS:
            group = groups.parse_group(name)
            rule = groups.haar_quadrature(group, res)
            total += stack_bytes(rule, irreps.enumerate_dual(group, cutoff))
        return total


WORKLOADS = {"audit": Audit, "spectral-su2": SpectralSU2, "verify": Verify}
