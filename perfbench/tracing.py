"""Per-layer tracing of the altcox package, applied from outside it.

``Tracer.install`` replaces module attributes of the package with wrappers
that record spans; ``uninstall`` puts the originals back, so the package's
source is never touched.  The layers are the package's modules.  A name
that one module imported from another (``chains.chain_presentation``,
``cli.parse_word``, ``cli.render_word``) is a separate attribute bound to
the same function, so every attribute of every altcox module that holds a
traced function is replaced, not only the one in the defining module.

A span is ``[name, start_ns, end_ns, parent, request]``; ``parent`` is the
index of the enclosing span in ``Tracer.spans``.  Wrappers record only
inside a request (between ``begin`` and ``end``), so the benchmark's own
oracle checks stay out of the trace.  Spans hold raw clock readings and
stay in memory until ``write``.

The engine counts are computed from the core's arguments and return
values: cells allocated ``(cap+2)*ncols``, cells used ``(ndef+1)*ncols``,
cosets defined ``ndef`` (the cap when it is exceeded), index = the live
cosets of the returned union-find forest.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

# traced attributes per altcox module; "*" stands for every public
# function the module defines, "Class.method" for a method
TRACED = {
    "cli": ("main", "cmd_present", "cmd_enumerate", "cmd_order", "cmd_nf",
            "cmd_verify", "_build_presentation", "_emit", "_atomic_write"),
    "engine": ("*", "_core", "_columns"),
    "words": ("parse_word", "render_word"),
    "presentations": ("*", "GroupHom.verify"),
    "coxeter": ("*", "CoxeterMatrix.from_json"),
    "chains": ("*", "Chain.decompose", "Chain.rep_set", "Chain.enumerate_elements",
               "Chain._table", "Chain._regular_table"),
    "oracle": ("*",),
}
IO = ("cli._emit", "cli._atomic_write")
ROOT_SPAN = "request"


def _layer(name):
    return "cli.io" if name in IO else name.split(".", 1)[0]


def _public_functions(mod):
    return [n for n, f in vars(mod).items()
            if inspect.isfunction(f) and f.__module__ == mod.__name__
            and not n.startswith("_")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()  # computed engine and I/O counts since take_counts
        self.aliases = []        # other "module.attr" names bound to a traced function
        self.missing = []        # traced names this version of altcox lacks
        self._stack = []
        self._request = -1
        self._pending = []       # (ndef, parent) of completed core runs
        self._patches = []
        self._cap_exceeded = sys.modules["altcox.engine"].CapExceeded

    # -- requests -----------------------------------------------------

    def begin(self, request):
        self._request = request
        self._stack.append(len(self.spans))
        self.spans.append([ROOT_SPAN, time.perf_counter_ns(), 0, -1, request])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()
        # the index walk runs here, outside every span
        for ndef, parent in self._pending:
            live = sum(1 for c in range(1, ndef + 1) if parent[c] == c)
            self.counts["index_total"] += live
            self.counts["defined_completed"] += ndef
        self._pending.clear()

    def take_counts(self):
        counts, self.counts = self.counts, Counter()
        return counts

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1], self._request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if hook:
                    hook(span, args, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if hook:
                hook(span, args, result, None)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _core_hook(self, span, args, result, exc):
        ncols, cap = args[0], args[3]
        c = self.counts
        if result is not None:
            ndef = result[1]
            self._pending.append((ndef, result[2]))
        elif isinstance(exc, self._cap_exceeded):
            ndef = cap
            c["cap_exceeded"] += 1
        else:
            return
        c["core_calls"] += 1
        c["cosets_defined"] += ndef
        c["cells_alloc"] += (cap + 2) * ncols
        c["cells_used"] += (ndef + 1) * ncols

    def _io_hook(self, span, args, result, exc):
        if self.spans[span[3]][0] in IO:
            return  # counted by the enclosing _emit
        text = args[0] if span[0] == "cli._emit" else args[1]
        self.counts["io_bytes"] += len(text.encode())

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self):
        hooks = {"engine._core": self._core_hook,
                 "cli._emit": self._io_hook, "cli._atomic_write": self._io_hook}
        self.missing = []
        wrappers = {}  # id(original function) -> (original, traced name, wrapper)
        for short, names in TRACED.items():
            mod = sys.modules[f"altcox.{short}"]
            if "*" in names:
                names = _public_functions(mod) + [n for n in names if n != "*"]
            for name in names:
                full = f"{short}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(full)
                    continue
                if owner_name:  # a method: patch the class attribute
                    is_cm = isinstance(raw, classmethod)
                    w = self._wrap(full, raw.__func__ if is_cm else raw, hooks.get(full))
                    self._set(owner, attr, classmethod(w) if is_cm else w)
                else:
                    wrappers[id(raw)] = (raw, full, self._wrap(full, raw, hooks.get(full)))
        self.aliases = []
        for modname, mod in list(sys.modules.items()):
            if modname != "altcox" and not modname.startswith("altcox."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(mod, attr, entry[2])
                    here = f"{modname.partition('.')[2]}.{attr}"
                    if modname != "altcox" and here != entry[1]:
                        self.aliases.append(here)

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- output -------------------------------------------------------

    def write(self, path):
        with open(path, "w") as f:
            f.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "request"]}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def layer_metrics(spans, scale_by_request, counts):
    """Per-request means of the per-layer metrics over the traced requests,
    keyed by request id in ``scale_by_request``.  A span's self time is its
    duration minus its direct children's, scaled by its request's factor to
    the reference speed."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_ns, calls, layer_self, outermost = Counter(), Counter(), Counter(), Counter()
    chain_enumerations = 0
    for i, (name, start, end, parent, request) in enumerate(spans):
        own = (end - start - child[i]) * scale_by_request[request]
        layer = _layer(name)
        self_ns[name] += own
        calls[name] += 1
        layer_self[layer] += own
        parent_layer = _layer(spans[parent][0]) if parent >= 0 else None
        if parent_layer != layer:
            outermost[layer] += 1
        if name == "engine.enumerate" and parent_layer == "chains":
            chain_enumerations += 1

    n = max(len(scale_by_request), 1)
    ms = lambda ns: ns / 1e6 / n
    per = lambda k: k / n
    return {
        "engine.core_ms": ms(self_ns["engine._core"]),
        "engine.core_calls": per(calls["engine._core"]),
        "engine.standardize_ms": ms(self_ns["engine.enumerate"]),
        "engine.cosets_defined": per(counts["cosets_defined"]),
        "engine.index_total": per(counts["index_total"]),
        "engine.index_over_defined": (counts["index_total"] / counts["defined_completed"]
                                      if counts["defined_completed"] else 0.0),
        "engine.cells_alloc": per(counts["cells_alloc"]),
        "engine.cells_used": per(counts["cells_used"]),
        "engine.cap_exceeded": per(counts["cap_exceeded"]),
        "engine.encode_ms": ms(self_ns["engine._columns"]),
        "engine.schreier_ms": ms(self_ns["engine.schreier"]),
        "engine.schreier_calls": per(calls["engine.schreier"]),
        "engine.trace_ms": ms(self_ns["engine.word_in_subgroup"] + self_ns["engine.words_equal"]),
        "engine.trace_calls": per(calls["engine.word_in_subgroup"]),
        "engine.dot_ms": ms(self_ns["engine.to_dot"]),
        "presentations.build_ms": ms(layer_self["presentations"]),
        "presentations.build_calls": per(outermost["presentations"]),
        "coxeter.self_ms": ms(layer_self["coxeter"]),
        "words.parse_ms": ms(self_ns["words.parse_word"]),
        "words.render_ms": ms(self_ns["words.render_word"]),
        "chains.self_ms": ms(layer_self["chains"]),
        "chains.enumerations": per(chain_enumerations),
        "oracle.self_ms": ms(layer_self["oracle"]),
        "oracle.calls": per(outermost["oracle"]),
        "cli.self_ms": ms(layer_self["cli"]),
        "cli.io_ms": ms(layer_self["cli.io"]),
        "cli.io_bytes": per(counts["io_bytes"]),
    }
