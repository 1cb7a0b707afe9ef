"""Span tracer for the traced run, from the benchmark's own files.

Every public function of each lpcckit layer module, plus a few named
methods, is replaced in every lpcckit module namespace that holds it by a
wrapper that records a span: name, start, end, parent span and query id.
Calls between modules are caught because each importing namespace gets the
wrapper too. Spans stay in memory in parallel arrays and are written out
when the round ends. A span's self time is its duration minus the part its
children cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

from checks import set_key

# module -> layer; kets and indexing belong to the measurements layer
MODULES = {
    "exact": "exact", "statesets": "statesets", "measurements": "measurements",
    "kets": "measurements", "indexing": "measurements", "opsolve": "opsolve",
    "protocols": "protocols", "activation": "activation", "theorems": "theorems",
    "cli": "cli", "generators": "generators",
}
METHODS = {
    ("exact", "Mat"): ("scale", "__add__", "__sub__", "conj_transpose", "is_hermitian"),
    ("indexing", "GroupIndexer"): ("apply_operator",),
}
# leaf helpers called millions of times for a few operations each: a span
# would cost more than the call, so their time stays with the caller
UNWRAPPED = {"exact.sc", "indexing.strides", "indexing.digits_of",
             "indexing.index_of", "indexing.total_dim"}
# solver and search entry points whose canonical input key is tracked
KEYED = {"opsolve.rank1_op_directions", "opsolve.enumerate_op_pvms",
         "opsolve.is_pvm_irreducible", "protocols.lpcc_search"}

QUERY = "bench.query"

# named span groups: metric prefix -> span names
GROUPS = {
    "exact.elim": {f"exact.{f}" for f in ("rref", "rank", "nullspace", "solve_linear",
                                          "vectors_rank", "in_span")},
    "exact.mat": {f"exact.Mat.{m}" for m in METHODS[("exact", "Mat")]},
    "exact.mat_vec": {"exact.mat_vec"},
    "exact.projector": {"exact.projector_onto", "exact.gram_schmidt"},
    "kets.parse_pvm": {"kets.parse_pvm"},
    "measurements.apply": {"measurements.apply"},
    "measurements.preserves": {"measurements.preserves_orthogonality"},
    "indexing.apply_operator": {"indexing.GroupIndexer.apply_operator"},
    "opsolve.rank1": {"opsolve.rank1_op_directions"},
    "opsolve.pvms": {"opsolve.enumerate_op_pvms"},
    "opsolve.irreducible": {"opsolve.is_pvm_irreducible"},
    "opsolve.constraint_matrices": {"opsolve.constraint_matrices"},
    "protocols.search": {"protocols.lpcc_search"},
    "protocols.verify": {"protocols.execute_and_verify"},
    "protocols.construct": {"protocols.lemma1_protocol", "protocols.three_product_protocol"},
    "activation.verify": {"activation.verify_activation"},
    "activation.classify": {"activation.classify"},
    "activation.nogo": {"activation.check_dim2_nogo"},
}


def _layer(span_name: str) -> str:
    if span_name == QUERY:
        return "untraced"
    return MODULES[span_name.split(".", 1)[0]]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.active = False
        self.query_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._keyed: list[tuple[int, object, object]] = []
        self._seen: set = set()
        self.keyed_calls = 0
        self.keyed_repeats = 0
        self.repeat_s = 0.0
        self.unresolved = 0
        self.pvms_returned = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.query.append(self.query_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: float, t1: float) -> None:
        self.start[i] = t0
        self.end[i] = t1
        self._stack.pop()

    def run_query(self, query_id: int, fn):
        """Run one query under a root span with tracing on."""
        self.query_id = query_id
        self.active = True
        i = self._open(QUERY)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(i, t0, time.perf_counter())
            self.active = False

    def finish_query(self) -> None:
        """Key the query's solver and search calls, after its timer stopped.

        A call repeats when a call of the same entry point on the same
        canonical input (dims, party group or partition, sorted
        leading-normalized rays) was already seen in this interpreter. Repeat time counts only
        repeats that are not nested in another repeat.
        """
        repeats: set[int] = set()
        for i, s, where in self._keyed:
            key = (self.names[self.name_id[i]], repr(where),
                   set_key(s.spec.dims, [v.entries for v in s.vectors()]))
            self.keyed_calls += 1
            if key not in self._seen:
                self._seen.add(key)
                continue
            self.keyed_repeats += 1
            repeats.add(i)
            p = self.parent[i]
            while p >= 0 and p not in repeats:
                p = self.parent[p]
            if p < 0:
                self.repeat_s += self.end[i] - self.start[i]
        self._keyed.clear()

    def _wrap(self, name: str, fn):
        keyed = name in KEYED

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self._open(name)
            if keyed:
                self._keyed.append((i, args[0], args[1]))
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i, t0, time.perf_counter())
            if name == "opsolve.rank1_op_directions":
                self.unresolved += len(out.unresolved)
            elif name == "opsolve.enumerate_op_pvms":
                self.pvms_returned += len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every lpcckit namespace that holds it."""
        mods = {m: importlib.import_module(f"lpcckit.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for m, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and f"{m}.{attr}" not in UNWRAPPED):
                    wrappers[id(obj)] = self._wrap(f"{m}.{attr}", obj)
        for (m, cls_name), methods in METHODS.items():
            cls = getattr(mods[m], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{m}.{cls_name}.{meth}", orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lpcckit" or mod_name.startswith("lpcckit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.name_id)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(n)]

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the keyed-call and
        report counters."""
        selfs = self.self_times()
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += selfs[i]
        roots = [i for i in range(len(self.name_id)) if self.parent[i] < 0]
        return {
            "spans": {name: {"calls": calls[k], "self_s": self_s[k]}
                      for k, name in enumerate(self.names)},
            "span_count": len(self.name_id),
            "root_s": sum(self.end[i] - self.start[i] for i in roots),
            "keyed_calls": self.keyed_calls,
            "keyed_repeats": self.keyed_repeats,
            "repeat_s": self.repeat_s,
            "unresolved": self.unresolved,
            "pvms_returned": self.pvms_returned,
        }

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header, then the raw arrays in order
        name_id, start, end, parent, query."""
        header = {"names": self.names, "count": len(self.name_id),
                  "arrays": [["name_id", "H"], ["start", "d"], ["end", "d"],
                             ["parent", "i"], ["query", "i"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent, self.query):
                arr.tofile(fh)


def layer_metrics(summary: dict) -> dict[str, float]:
    """Group and layer totals from one round's summary."""
    out = {f"{layer}.self_s": 0.0 for layer in [*MODULES.values(), "untraced"]}
    spans = summary["spans"]
    for prefix, names in GROUPS.items():
        out[f"{prefix}.calls"] = sum(spans[n]["calls"] for n in names if n in spans)
        out[f"{prefix}.self_s"] = sum(spans[n]["self_s"] for n in names if n in spans)
    for name, rec in spans.items():
        out[f"{_layer(name)}.self_s"] += rec["self_s"]
    return out
