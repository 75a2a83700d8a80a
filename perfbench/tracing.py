"""Span recording around dynlab's public functions, installed from outside.

The traced worker replaces every binding of each target function -- in every
``dynlab`` module that holds it, and on the ``Polynomial`` class for methods
-- with a wrapper that appends one span per call to flat arrays.  Nothing
inside ``src/`` is touched: the wrappers come and go through
``install``/``uninstall``.

A span is (name, start, end, parent, job).  The self time of a span is its
duration minus the durations of its direct children; since one thread runs
each job, children never overlap, so this is exactly "duration minus the part
its children cover", and recursion (``cyclotomic_poly``) and nesting
(``div_exact`` -> ``__divmod__``, ``iterate`` -> ``compose`` -> ``__mul__``)
fall out of the same rule.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time

# (module, attribute path, metric prefix, split by ring tag)
TARGETS = (
    ("dynlab.numtheory", "factorize", "numtheory.factorize", False),
    ("dynlab.numtheory", "squarefree_divisors", "numtheory.squarefree_divisors", False),
    ("dynlab.numtheory", "euler_phi", "numtheory.euler_phi", False),
    ("dynlab.numtheory", "divisors", "numtheory.divisors", False),
    ("dynlab.numtheory", "is_prime", "numtheory.is_prime", False),
    ("dynlab.polycore", "Polynomial.__mul__", "polycore.mul", True),
    ("dynlab.polycore", "Polynomial.__divmod__", "polycore.divmod", True),
    ("dynlab.polycore", "Polynomial.div_exact", "polycore.div_exact", True),
    ("dynlab.polycore", "Polynomial.compose", "polycore.compose", True),
    ("dynlab.polycore", "Polynomial.to_text", "polycore.to_text", False),
    ("dynlab.polycore", "parse_polynomial", "polycore.parse_polynomial", False),
    ("dynlab.polycore", "resultant", "polycore.resultant", False),
    ("dynlab.necklace", "fast_xn1_divides", "necklace.fast_xn1_divides", False),
    ("dynlab.necklace", "necklace_poly", "necklace.necklace_poly", False),
    ("dynlab.necklace", "dynamical_necklace", "necklace.dynamical_necklace", False),
    ("dynlab.cyclotomic", "cyclotomic_poly", "cyclotomic.cyclotomic_poly", False),
    ("dynlab.cyclotomic", "cyclotomic_candidates", "cyclotomic.cyclotomic_candidates", False),
    ("dynlab.cyclotomic", "cyclo_factor_scan", "cyclotomic.cyclo_factor_scan", False),
    ("dynlab.characters", "unit_group", "characters.unit_group", False),
    ("dynlab.characters", "covers", "characters.covers", False),
    ("dynlab.characters", "equivalence_sweep", "characters.equivalence_sweep", False),
    ("dynlab.dynatomic", "dynatomic_poly", "dynatomic.dynatomic_poly", False),
    ("dynlab.dynatomic", "generalized_dynatomic", "dynatomic.generalized_dynatomic", False),
    ("dynlab.dynatomic", "verify_relation", "dynatomic.verify_relation", False),
    ("dynlab.dynatomic", "relation_conditions", "dynatomic.relation_conditions", False),
    ("dynlab.dynatomic", "build_relation_certificate",
     "dynatomic.build_relation_certificate", False),
    ("dynlab.cli", "main", "cli.main", False),
)

RINGS = ("Q", "Fp", "Qa")

# Work done outside any measured layer; recorded as a span so that it is
# subtracted from the enclosing span's self time, never reported as a layer.
STATS_SPAN = "trace.stats"


def _coeff_bits(poly) -> int:
    tag = poly.ring.tag
    if tag == "Fp":
        return poly.ring.p.bit_length() if poly.coeffs else 0
    if tag == "Q":
        return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in poly.coeffs), default=0)
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for row in poly.coeffs for c in row), default=0)


class SpanRecorder:
    """Flat, append-only span store for one job (one process)."""

    def __init__(self, job: int):
        self.job = job
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def high(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def add_span(self, nid: int, start: float, end: float) -> None:
        """Record a finished span under the currently open span."""
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(start)
        self.end.append(end)

    def close_open(self, now: float) -> None:
        """Truncate a half-appended tail and end every still-open span."""
        n = min(len(self.name), len(self.parent), len(self.start),
                len(self.end))
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[n:]
        for i in range(n):
            if self.end[i] == 0.0:
                self.end[i] = now

    def dump(self, path: str) -> None:
        header = {"job": self.job, "names": self.names, "n": len(self.name),
                  "counters": self.counters, "maxima": self.maxima}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)


def _after_hooks(rec: SpanRecorder):
    """Counters read at the layer boundary, keyed by metric prefix."""
    stats_id = rec.name_id(STATS_SPAN)
    scan_id = rec.name_id("cyclotomic.cyclo_factor_scan")
    seen_cyclo: set[int] = set()
    clock = time.perf_counter

    def mul(args, result):
        t0 = clock()
        rec.high("polycore.mul.max_degree", result.degree)
        rec.high("polycore.mul.max_coeff_bits", _coeff_bits(result))
        rec.add_span(stats_id, t0, clock())

    def divmod_(args, result):
        rec.count("polycore.divmod.calls")
        zero = result[1].is_zero
        if zero:
            rec.count("polycore.divmod.zero_rem")
        top = rec.stack[-1]
        if top >= 0 and rec.name[top] == scan_id:
            # a trial division made by the scan itself, not by Phi_k's build
            rec.count("cyclotomic.cyclo_factor_scan.trial_divisions")
            if zero:
                rec.count("cyclotomic.cyclo_factor_scan.factor_hits")

    def to_text(args, result):
        rec.count("polycore.to_text.out_bytes", len(result.encode()))

    def cyclotomic_poly(args, result):
        if args[0] in seen_cyclo:
            rec.count("cyclotomic.cyclotomic_poly.hits")
        seen_cyclo.add(args[0])

    def candidates(args, result):
        rec.count("cyclotomic.cyclotomic_candidates.candidates", len(result))

    def covers(args, result):
        rec.count("characters.covers.characters_checked", len(result.witnesses))

    def dynatomic_poly(args, result):
        rec.high("dynatomic.dynatomic_poly.max_degree", result.degree)

    def verify_relation(args, result):
        if result.divides:
            rec.count("dynatomic.verify_relation.divides")

    return {"polycore.mul": mul, "polycore.divmod": divmod_,
            "polycore.to_text": to_text,
            "cyclotomic.cyclotomic_poly": cyclotomic_poly,
            "cyclotomic.cyclotomic_candidates": candidates,
            "characters.covers": covers,
            "dynatomic.dynatomic_poly": dynatomic_poly,
            "dynatomic.verify_relation": verify_relation}


def _make_wrapper(rec: SpanRecorder, fn, nid_of, after):
    name, parent, start, end, stack = (rec.name, rec.parent, rec.start,
                                       rec.end, rec.stack)
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        i = len(start)
        start.append(clock())
        name.append(nid_of(args))
        parent.append(stack[-1])
        end.append(0.0)
        stack.append(i)
        try:
            result = fn(*args, **kwargs)
        finally:
            end[i] = clock()
            stack.pop()
        if after is not None:
            after(args, result)
        return result

    for attr in ("cache_info", "cache_clear", "__doc__", "__name__",
                 "__qualname__", "__module__"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    wrapper.__wrapped__ = fn
    return wrapper


class Installation:
    """Wrappers installed for one recorder; ``uninstall`` puts back every
    binding that ``install`` replaced."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.replaced: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def install(self) -> "Installation":
        rec = self.rec
        hooks = _after_hooks(rec)
        importlib.import_module("dynlab.cli")  # imports every layer
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dynlab" or n.startswith("dynlab.")]
        for module_name, path, prefix, by_ring in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in path:  # a method: one binding, on the class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                places = [(cls, attr)]
            else:  # a function: every module that imported it
                original = getattr(owner, path)
                places = [(m, a) for m in modules
                          for a, v in vars(m).items() if v is original]
            nid_of = (_ring_namer(rec, prefix) if by_ring
                      else _const_namer(rec.name_id(prefix)))
            wrapper = _make_wrapper(rec, original, nid_of, hooks.get(prefix))
            self.originals[prefix] = original
            for place, attr in places:
                self.replaced.append((place, attr, original))
                setattr(place, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()

    def count_cache_use(self) -> None:
        """Hits and lookups of the two lru caches, read from cache_info()."""
        for prefix in ("numtheory.factorize", "characters.unit_group"):
            info = self.originals[prefix].cache_info()
            self.rec.count(prefix + ".cache_hits", info.hits)
            self.rec.count(prefix + ".cache_lookups", info.hits + info.misses)


def _const_namer(nid: int):
    return lambda args: nid


def _ring_namer(rec: SpanRecorder, prefix: str):
    ids = {tag: rec.name_id(f"{prefix}.{tag}") for tag in RINGS}
    return lambda args: ids[args[0].ring.tag]


# -- reading spans back --------------------------------------------------------

def load_job(path: str) -> tuple[dict[str, float], dict[str, int]]:
    """Totals of one job's span file -- ``<name>.calls``, ``<name>.self_s``
    and the counters -- and the maxima."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["n"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(handle, n)
            arrays.append(arr)
    name, parent, start, end = arrays
    dur = [e - s for s, e in zip(start, end)]
    self_time = list(dur)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            self_time[p] -= dur[i]
    names = header["names"]
    calls = [0] * len(names)
    selfs = [0.0] * len(names)
    for i in range(n):
        calls[name[i]] += 1
        selfs[name[i]] += self_time[i]
    totals = dict(header["counters"])
    for nm, c, t in zip(names, calls, selfs):
        totals[nm + ".calls"] = c
        totals[nm + ".self_s"] = t
    return totals, header["maxima"]
