"""Spans around calls into psidiff's public functions, installed from outside.

``Tracer.install`` replaces every binding of each traced function (module
globals, names imported with ``from .x import y`` and the package namespace)
and the traced methods on their classes; ``uninstall`` puts the originals
back. A span records its name, the span that caused it, the operation it
belongs to, and its start and end in ``perf_counter_ns``. Self time is a
span's duration minus the time its child spans cover. Spans stay in memory
until the run writes them out.

``contfrac.convergent_stream`` is a generator: each resumption is timed and
counted (as child time of the span that drives it), but resumptions are not
recorded as spans, since deep walks resume it hundreds of thousands of times.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from fractions import Fraction

FUNCTIONS = {
    "exact": ("refine_compare", "render_decimal"),
    "contfrac": ("convergents", "tail", "expand_quadratic"),
    "imf": ("psi", "inv_psi", "d_at", "breakpoint_profile", "sign_changes",
            "profile_to_csv", "merged_word"),
    "theorems": ("find_witness", "scan_lemma_conseq", "scan_lemma_conseq1",
                 "scan_interleave_gap", "scan_dichotomy", "check_dichotomy",
                 "construct_optimal", "verify_near_optimality"),
    "numspec": ("parse_number",),
    "cli": ("main",),
}
METHODS = (  # (module, class, method, span name)
    ("exact", "QuadExt", "sign", "exact.sign"),
    ("exact", "QuadExt", "enclosure", "exact.enclosure"),
    ("contfrac", "CFExpansion", "value", "contfrac.value"),
    ("imf", "DValue", "sign", "imf.DValue.sign"),
    ("imf", "DValue", "render", "imf.DValue.render"),
)


def _modules():
    import psidiff
    from psidiff import cli, contfrac, exact, imf, numspec, theorems

    return psidiff, {"exact": exact, "contfrac": contfrac, "imf": imf,
                     "theorems": theorems, "numspec": numspec, "cli": cli}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans = array("q")  # name, parent span, op, start_ns, end_ns per span
        self.stack: list[int] = []
        self.child_ns: list[int] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: Counter = Counter()
        self.enclosure_bits: Counter = Counter()
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []
        self._cache_start = None

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self.ids[name]

    def wrap(self, name: str, fn, note=None):
        nid = self._id(name)
        spans, stack, child_ns = self.spans, self.stack, self.child_ns
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans) // 5
            spans.extend((nid, stack[-1] if stack else -1, self.op, 0, 0))
            stack.append(sid)
            child_ns.append(0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur, child = end - start, child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
                spans[5 * sid + 3], spans[5 * sid + 4] = start, end
                calls[nid] += 1
                total_ns[nid] += dur
                self_ns[nid] += dur - child
                if note is not None:
                    note(args, result)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            return _TimedIterator(fn(*args, **kwargs), tracer, nid)

        traced.__wrapped__ = fn
        return traced

    # -- notes that turn arguments and results into counts ----------------------

    def _note_refine(self, args, result):
        if result is not None and result.value == "undecided":
            self.counts["exact.refine_compare.undecided"] += 1
        dl, dr = _exact_operand_d(args[0]), _exact_operand_d(args[1])
        if dl is not None and dr is not None and (dl == 0 or dr == 0 or dl == dr):
            self.counts["exact.refine_compare.exact"] += 1

    def _note_enclosure(self, args, result):
        self.enclosure_bits[args[1] if len(args) > 1 else 0] += 1

    def _note_dvalue_sign(self, args, result):
        d = args[0]
        b, a = d.inv_psi_beta, d.inv_psi_alpha
        if b.b == 0 or a.b == 0 or b.D == a.D:
            self.counts["imf.DValue.sign.exact"] += 1

    def _note_profile(self, args, result):
        if result is not None:
            self.counts["imf.breakpoints"] += len(result.entries)

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        package, modules = _modules()
        notes = {"exact.refine_compare": self._note_refine,
                 "imf.breakpoint_profile": self._note_profile}
        targets = [(f"{m}.{f}", getattr(modules[m], f)) for m, fns in FUNCTIONS.items() for f in fns]
        replacements = {id(fn): self.wrap(name, fn, notes.get(name)) for name, fn in targets}
        stream = modules["contfrac"].convergent_stream
        replacements[id(stream)] = self.wrap_generator("contfrac.convergent_stream", stream)
        originals = {id(fn): fn for _, fn in targets}
        originals[id(stream)] = stream
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and originals[id(value)] is value:
                    self._patch(module, attr, replacements[id(value)])
        method_notes = {"exact.enclosure": self._note_enclosure,
                        "imf.DValue.sign": self._note_dvalue_sign}
        for module, cls, method, name in METHODS:
            klass = getattr(modules[module], cls)
            self._patch(klass, method, self.wrap(name, getattr(klass, method), method_notes.get(name)))
        self._cache_start = modules["exact"].squarefree_decompose.cache_info()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        _, modules = _modules()
        info = modules["exact"].squarefree_decompose.cache_info()
        self.counts["exact.squarefree_decompose.hits"] += info.hits - self._cache_start.hits
        self.counts["exact.squarefree_decompose.misses"] += info.misses - self._cache_start.misses
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- export / merge ---------------------------------------------------------

    def export(self) -> dict:
        return {
            "names": self.names, "calls": self.calls, "total_ns": self.total_ns,
            "self_ns": self.self_ns, "counts": dict(self.counts),
            "enclosure_bits": {str(k): v for k, v in self.enclosure_bits.items()},
            "spans": self.spans.tolist(),
        }

    def merge(self, data: dict, op: int | None = None) -> None:
        """Add another tracer's export; its spans move under operation ``op`` if given."""
        remap = [self._id(name) for name in data["names"]]
        for i, nid in enumerate(remap):
            self.calls[nid] += data["calls"][i]
            self.total_ns[nid] += data["total_ns"][i]
            self.self_ns[nid] += data["self_ns"][i]
        self.counts.update(data["counts"])
        self.enclosure_bits.update({int(k): v for k, v in data["enclosure_bits"].items()})
        base = len(self.spans) // 5
        spans = data["spans"]
        for i in range(0, len(spans), 5):
            parent = spans[i + 1]
            self.spans.extend((remap[spans[i]], parent + base if parent >= 0 else -1,
                               spans[i + 2] if op is None else op, spans[i + 3], spans[i + 4]))

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of a traced name."""
        nid = self._id(name)
        return self.calls[nid], self.total_ns[nid] / 1e9, self.self_ns[nid] / 1e9

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as out:
            out.write("span,name,parent,op,start_ns,end_ns\n")
            s = self.spans
            for i in range(0, len(s), 5):
                out.write(f"{i // 5},{self.names[s[i]]},{s[i + 1]},{s[i + 2]},{s[i + 3]},{s[i + 4]}\n")


class _TimedIterator:
    __slots__ = ("gen", "tracer", "nid")

    def __init__(self, gen, tracer: Tracer, nid: int):
        self.gen, self.tracer, self.nid = gen, tracer, nid

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        start = time.perf_counter_ns()
        try:
            value = next(self.gen)
        finally:
            dur = time.perf_counter_ns() - start
            tracer.total_ns[self.nid] += dur
            tracer.self_ns[self.nid] += dur
            if tracer.child_ns:
                tracer.child_ns[-1] += dur
        tracer.counts["contfrac.convergent_stream.yielded"] += 1
        return value


def _exact_operand_d(x):
    """0 for a rational operand, D for an irrational quadratic one, None otherwise."""
    if isinstance(x, (int, Fraction)):
        return 0
    if type(x).__name__ == "QuadExt":
        return 0 if x.b == 0 else x.D
    return None
