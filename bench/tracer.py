"""Span tracer that observes pego from outside, for the benchmark's traced run.

``Tracer.install`` replaces every public function of the nine pego modules,
wherever a pego module binds it (module attributes, from-imports, the
package's re-exports and registry dicts such as ``FAMILY_KINDS``), with a
wrapper that records one span per call: name, start, end, the enclosing span
and the benchmark op it belongs to.  ``uninstall`` puts every binding back.
No file of the program is edited.

Counters are taken at the same boundaries:

* ``irreps.irrep_stack``: a returned array already seen (tracked by weak
  reference, so the tracer keeps no stack alive) is a hit, a new one a miss
  whose bytes count as built;
* ``fourier.<fn>.computed_bytes``: n*d*d*16 of every stack returned while
  that fourier function is on the span stack (computed from array sizes,
  not measured traffic);
* ``irreps.irrep_matrices.points``, ``serialize.dumps.bytes`` and
  ``cli.main.nonzero_exits``.
"""

import collections
import functools
import sys
import time
import types
import weakref

MODULES = (
    "groups",
    "irreps",
    "_wigner",
    "fourier",
    "norms",
    "compactness",
    "families",
    "serialize",
    "cli",
)


def self_time(start, end, children):
    """Duration of [start, end] minus the part of it covered by child intervals.

    Children are clipped to the parent interval and merged first, so
    overlapping children are not subtracted twice.
    """
    covered = 0.0
    run_start = run_end = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


class SeenArrays:
    """Hit/miss counting of returned arrays by identity, through weak references."""

    def __init__(self):
        self._refs = {}
        self.hits = 0
        self.misses = 0
        self.bytes_new = 0

    def observe(self, arr):
        """Count ``arr`` and return True when it was returned before and is alive."""
        key = id(arr)
        ref = self._refs.get(key)
        if ref is not None and ref() is arr:
            self.hits += 1
            return True
        self.misses += 1
        self.bytes_new += arr.nbytes
        refs = self._refs

        def forget(dead, key=key):
            if refs.get(key) is dead:
                del refs[key]

        refs[key] = weakref.ref(arr, forget)
        return False

    @property
    def hit_ratio(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = collections.Counter()
        self.stacks = SeenArrays()
        self.op = None
        self.names = set()
        self._open = []
        self._restore = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._open.append(idx)
        return rec

    def _exit(self, rec):
        self._open.pop()
        rec[2] = time.perf_counter()

    def run_op(self, op_id, name, fn):
        """Call ``fn()`` as benchmark op ``op_id`` under a root span ``name``."""
        self.op = op_id
        rec = self._enter(name)
        try:
            return fn()
        finally:
            self._exit(rec)
            self.op = None

    def open_names(self):
        return [self.spans[i][0] for i in self._open]

    # -- counters -------------------------------------------------------------

    def _after(self, name, args, result):
        opened = self.open_names()
        if opened and opened[-1] == name:
            return  # a product's factor call, counted with its product
        if name == "irreps.irrep_stack":
            self.stacks.observe(result)
            for fn in set(opened):
                if fn.startswith("fourier."):
                    self.counters[fn + ".computed_bytes"] += result.nbytes
        elif name == "irreps.irrep_matrices":
            self.counters["irreps.irrep_matrices.points"] += len(args[1])
        elif name == "serialize.dumps":
            self.counters["serialize.dumps.bytes"] += len(result.encode("utf-8"))
        elif name == "cli.main" and result != 0:
            self.counters["cli.main.nonzero_exits"] += 1

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            tracer._after(name, args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every public function of the traced modules wherever pego binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name in MODULES:
            mod = sys.modules[f"pego.{mod_name}"]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{mod_name.lstrip('_')}.{attr}"  # names start with a letter
                self.names.add(name)
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        namespaces = [
            vars(m)
            for key, m in list(sys.modules.items())
            if key == "pego" or key.startswith("pego.")
        ]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if type(obj) is dict and not attr.startswith("__"):
                    self._swap_values(obj, wrappers)
            self._swap_values(ns, wrappers)

    def _swap_values(self, table, wrappers):
        for key, obj in list(table.items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                table[key] = hit[1]
                self._restore.append((table, key, obj))

    def uninstall(self):
        while self._restore:
            table, key, obj = self._restore.pop()
            table[key] = obj

    # -- aggregation ----------------------------------------------------------

    def table(self):
        """Per span name: calls, inclusive seconds (outermost spans only), self seconds."""
        children = collections.defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[rec[3]].append((rec[1], rec[2]))
        out = {}
        for idx, (name, start, end, parent, _op) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_time(start, end, children.get(idx, ()))
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                row["s"] += end - start
        return out

    def metrics(self):
        """Flat ``<module>.<function>.<stat>`` numbers plus the counters."""
        flat = {}
        for name, row in self.table().items():
            for stat, value in row.items():
                flat[f"{name}.{stat}"] = value
        flat.update(self.counters)
        flat["irreps.irrep_stack.hit_ratio"] = self.stacks.hit_ratio
        flat["irreps.irrep_stack.bytes_built"] = self.stacks.bytes_new
        return flat
