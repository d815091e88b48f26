"""Spans and counts at afkit's module boundaries, for the traced run.

`Tracer.install` replaces public functions on the afkit modules with
wrappers. Library code looks its globals up at call time, so a wrapper on
``afkit.semantics.cf_masks`` also sees the calls ``extensions`` makes. `AF`
is a class that other modules bind by name and test with ``isinstance``, so
its ``__init__`` is wrapped instead of the name. Each call records one span
(name, start, end, parent, query id) in flat arrays; self time ("busy") is
a span's duration minus the time its child spans cover, kept per name as
the spans close.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module, attribute, span name). An entry with attribute "AF.__init__"
# wraps the constructor. Names that share a prefix before ":" are one layer
# metric split by an argument (the semantics tag of `extensions`).
TARGETS = (
    ("afkit.core", "AF.__init__", "core.AF"),
    ("afkit.core", "union_af", "core.union_af"),
    ("afkit.core", "delete", "core.delete"),
    ("afkit.core", "sccs", "core.sccs"),
    ("afkit.semantics", "cf_masks", "semantics.cf_masks"),
    ("afkit.semantics", "extensions", "semantics.extensions"),
    ("afkit.semantics", "labellings", "semantics.labellings"),
    ("afkit.kernels", "kernel", "kernels.kernel"),
    ("afkit.kernels", "decide_equivalence", "kernels.decide_equivalence"),
    ("afkit.kernels", "search_counterexample", "kernels.search_counterexample"),
    ("afkit.realizability", "analyze", "realizability.analyze"),
    ("afkit.realizability", "downward_closure", "realizability.downward_closure"),
    ("afkit.realizability", "decide_signature", "realizability.decide_signature"),
    ("afkit.realizability", "realize", "realizability.realize"),
    ("afkit.realizability", "is_compact", "realizability.classify"),
    ("afkit.realizability", "implicit_conflicts", "realizability.classify"),
    ("afkit.verifiability", "verification_class", "verifiability.verification_class"),
    ("afkit.verifiability", "verify", "verifiability.verify"),
    ("afkit.charlogic", "strong_eq_classes", "charlogic.strong_eq_classes"),
    ("afkit.charlogic", "canonical_characterization", "charlogic.canonical_characterization"),
    ("afkit.charlogic", "has_intersection_property", "charlogic.has_intersection_property"),
    ("afkit.charlogic", "galois_check", "charlogic.galois_check"),
    ("afkit.charlogic", "rho_logic", "charlogic.rho_logic"),
    ("afkit.cli", "main", "cli.main"),
    ("afkit.formats", "parse_af", "formats.parse"),
    ("afkit.formats", "parse_extension_set", "formats.parse"),
    ("afkit.formats", "parse_logic", "formats.parse"),
    ("afkit.formats", "emit_af", "formats.emit"),
    ("afkit.formats", "emit_extension_set", "formats.emit"),
    ("afkit.formats", "emit_logic", "formats.emit"),
)

_LOGIC_CALLS = (
    "charlogic.strong_eq_classes",
    "charlogic.canonical_characterization",
    "charlogic.has_intersection_property",
    "charlogic.galois_check",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self.query_id = -1
        self._stack: list[list] = []  # [span index, child time]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._in_search = 0
        self._searches = 0
        self._found = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------------

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _enter(self, label):
        nid = self._name_id.get(label)
        if nid is None:
            nid = self._name_id[label] = len(self.names)
            self.names.append(label)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        t = time.perf_counter()
        self.start.append(t)
        return idx

    def _exit(self, label):
        t = time.perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        self.busy[label] = self.busy.get(label, 0.0) + dur - child
        self.calls[label] = self.calls.get(label, 0) + 1

    def _wrap(self, label, fn):
        tracer = self

        def labelled(args):
            if label == "semantics.extensions":
                return f"{label}:{args[1]}"
            return label

        def wrapper(*args, **kwargs):
            name = labelled(args)
            if label in ("core.union_af", "core.delete") and tracer._in_search:
                tracer._count("kernels.witness.ops", 1)
            if label == "kernels.search_counterexample":
                tracer._in_search += 1
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
                if label == "kernels.search_counterexample":
                    tracer._in_search -= 1
            tracer._observe(label, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, label, args, result):
        if label == "semantics.cf_masks":
            self._count("semantics.cf_sets", len(result))
        elif label == "semantics.extensions":
            self._count("semantics.ext_sets", len(result))
        elif label == "realizability.downward_closure":
            self._count("realizability.dcl_sets", len(result))
        elif label == "realizability.realize" and result is not None:
            self._count("realizability.witness_args", result.n)
        elif label == "verifiability.verification_class":
            self._count("verifiability.entries", len(result.entries))
        elif label == "kernels.search_counterexample":
            self._searches += 1
            self._found += result.witness is not None
        if label in _LOGIC_CALLS:
            self._count("charlogic.theories", len(args[0].table))
        if label == "charlogic.galois_check":
            self._count("charlogic.interp_pairs", 4 ** len(args[0].interpretations))

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every target on every loaded afkit module that binds it."""
        modules = [m for name, m in sys.modules.items() if name == "afkit" or name.startswith("afkit.")]
        for modname, attr, label in TARGETS:
            home = sys.modules.get(modname)
            if home is None:
                continue  # the workload never imported it
            if attr == "AF.__init__":
                cls = home.AF
                orig = cls.__init__
                cls.__init__ = self._wrap(label, orig)
                self._undo.append((cls, "__init__", orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(label, orig)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self, passes):
        """Per-layer metrics per pass over the query list: calls, self time
        in ms, and work counts."""
        busy_ms = {}
        calls = {}
        for label, secs in self.busy.items():
            base = label.split(":")[0]
            busy_ms[base] = busy_ms.get(base, 0.0) + secs * 1000 / passes
            calls[base] = calls.get(base, 0) + self.calls[label]
            if base == "semantics.extensions":
                sigma = label.split(":")[1]
                busy_ms[f"semantics.{sigma}"] = secs * 1000 / passes
        out = {}
        for base, ms in busy_ms.items():
            out[f"{base}.busy_ms"] = ms
        for base, n in calls.items():
            out[f"{base}.calls"] = n // passes
        out.update((key, n // passes) for key, n in self.counts.items())
        out["kernels.witness.candidates"] = self.counts.get("kernels.witness.ops", 0) // (2 * passes)
        out["kernels.witness.found_frac"] = self._found / self._searches if self._searches else 0.0
        return out

    def write(self, path):
        """All spans, one per line: name, start, end, parent, query id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\tquery\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.7f}\t"
                    f"{self.end[i] - t0:.7f}\t{self.parent[i]}\t{self.query[i]}\n"
                )
