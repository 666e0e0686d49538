"""Spans and call counts around tjl's public functions, installed from
outside the package.

A traced child calls ``Tracer().install()`` after importing ``tjl.cli`` and
before running its workload.  Coarse calls become timed spans (name, start,
end, parent span); hot primitives only bump a counter, because a span per
``Poly.__mul__`` would cost more than the multiplication.  Spans stay in
memory and the child writes them out with ``Tracer.dump()`` when it ends.

Names are patched where they are looked up: every ``tjl`` module attribute
that is the original function object is replaced, so ``from .adelic import
witness_set`` in ``tjl.spectral`` sees the wrapper too.  Methods are patched
on their class, which also covers aliases such as ``Cyc.__radd__``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute path, span name): timed calls.
SPANS = (
    ("adelic", "SplitPlace.__init__", "adelic.split_place"),
    ("adelic", "synthesize_random_adele", "adelic.synthesize_random_adele"),
    ("adelic", "factorize_adele", "adelic.factorize_adele"),
    ("cyclotomic", "Cyc.inverse", "cyclotomic.inverse"),
    ("metacyclic", "character_table", "metacyclic.character_table"),
    ("metacyclic", "Gamma.conjugacy_classes", "metacyclic.conjugacy_classes"),
    ("metacyclic", "character_inner", "metacyclic.character_inner"),
    ("metacyclic", "chi_multiplicity", "metacyclic.chi_multiplicity"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "restrict_operator", "linalg.restrict_operator"),
    ("spectral", "HomSpace.__init__", "spectral.hom_space"),
    ("spectral", "decompose", "spectral.decompose"),
    ("spectral", "verify_claim", "spectral.verify_claim"),
    ("tame", "enumerate_A_tame", "tame.enumerate_A_tame"),
)

# (module, attribute path, counter name): counted calls, no span.
COUNTS = (
    ("funcfield", "Poly.__mul__", "funcfield.poly_mul"),
    ("funcfield", "Poly.divmod", "funcfield.poly_divmod"),
    ("funcfield", "Poly.xgcd", "funcfield.poly_xgcd"),
    ("funcfield", "RatFunc.__init__", "funcfield.ratfunc_init"),
    ("adelic", "SplitPlace.embed", "adelic.embed"),
    ("quaternion", "OrderElement.__mul__", "quaternion.order_mul"),
    ("quaternion", "OrderElement.nrd", "quaternion.nrd"),
    ("quaternion", "OrderElement.inverse", "quaternion.inverse"),
    ("quaternion", "reduce_at_zero", "quaternion.reduce_at_zero"),
    ("cyclotomic", "Cyc.__mul__", "cyclotomic.mul"),
    ("cyclotomic", "Cyc.__add__", "cyclotomic.add"),
    ("cyclotomic", "Cyc.reduced", "cyclotomic.reduced"),
    ("cyclotomic", "Cyc.__eq__", "cyclotomic.eq"),
    ("metacyclic", "Irrep.character", "metacyclic.irrep_character"),
)

# The three stages of ``cmd_verify`` are inline code; their spans wrap the
# names ``tjl.cli`` calls for each stage, and only in ``tjl.cli``.
STAGES = (
    ("verify_witness_uniqueness", "cli.stage.uniqueness"),
    ("synthesize_random_adele", "cli.stage.round_trips"),
    ("factorize_adele", "cli.stage.round_trips"),
    ("_verify_one", "cli.stage.spectral"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._clock = time.perf_counter
        # targets that no longer exist, so their metrics read 0
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._clock(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self._clock()
        self._stack.pop()

    def timed(self, name: str, fn):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed_generator(self, name: str, fn):
        """One span per ``next()``: the time spent inside the generator,
        not the time its consumer holds it."""
        counts = self.counts
        yielded = name + ".yielded"

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)

            def outer():
                while True:
                    idx = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    counts[yielded] += 1
                    yield item
            return outer()
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import tjl.adelic as adelic
        import tjl.cli as cli

        self._cache = getattr(adelic, "_WITNESS_CACHE", None)
        if self._cache is None:
            self.missing.append("tjl.adelic._WITNESS_CACHE")
            self._cache = {}
        for module, path, name in SPANS:
            self._patch(module, path,
                        lambda fn, name=name: self.timed(name, fn))
        for module, path, name in COUNTS:
            self._patch(module, path,
                        lambda fn, name=name: self.counted(name, fn))
        self._patch("adelic", "_box_candidates",
                    lambda fn: self.timed_generator("adelic.box_candidates",
                                                    fn))
        self._patch("adelic", "witness_set", self._witness_set)
        self._patch("adelic", "verify_witness_uniqueness", self._uniqueness)
        self._patch("cli", "_emit", self._emit)
        for attr, name in STAGES:
            if hasattr(cli, attr):
                setattr(cli, attr, self.timed(name, getattr(cli, attr)))
            else:
                self.missing.append("tjl.cli." + attr)

    def _witness_set(self, fn):
        """Span plus hit count: a hit is a call that adds no entry to
        ``adelic._WITNESS_CACHE``."""
        timed = self.timed("adelic.witness_set", fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = len(self._cache)
            ws = timed(*args, **kwargs)
            if len(self._cache) == before:
                counts["adelic.witness_set.hits"] += 1
            else:
                counts["adelic.scan.certified"] += len(ws.witnesses)
            return ws
        return wrapper

    def _uniqueness(self, fn):
        timed = self.timed("adelic.verify_witness_uniqueness", fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            report = timed(*args, **kwargs)
            counts["adelic.scan.certified"] += report["witnesses"]
            return report
        return wrapper

    def _emit(self, fn):
        timed = self.timed("cli.emit", fn)
        counts = self.counts

        def wrapper(text, output):
            counts["cli.emit.bytes"] += len(text.encode()) + 1
            return timed(text, output)
        return wrapper

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        """Replace the function at ``tjl.<module>.<path>`` everywhere tjl
        looks it up: on its class for a method, in every tjl module for a
        function.  A target that is gone is listed in ``missing``, so a
        later refactor of tjl leaves the traced run working."""
        owner = sys.modules.get("tjl." + module)
        *cls_name, attr = path.split(".")
        if owner is not None and cls_name:
            owner = getattr(owner, cls_name[0], None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.missing.append(f"tjl.{module}.{path}")
            return
        targets = ([owner] if cls_name else
                   [m for n, m in list(sys.modules.items())
                    if n == "tjl" or n.startswith("tjl.")])
        wrapper = make_wrapper(original)
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "missing": self.missing}


def summarize(dump: dict) -> dict:
    """Per-name call counts, inclusive and self seconds, and the tree of
    self times by call path.  Self time is a span's duration minus the
    durations of its child spans."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: Counter = Counter()
    self_s: Counter = Counter()
    paths: dict[int, tuple] = {}
    tree: dict[tuple, list] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        own = dur - child_time[idx]
        total[name] += dur
        self_s[name] += own
        path = (paths[parent] if parent is not None else ()) + (name,)
        paths[idx] = path
        node = tree.setdefault(path, [0, 0.0, 0.0])
        node[0] += 1
        node[1] += dur
        node[2] += own
    return {
        "counts": dump["counts"],
        "missing": dump["missing"],
        "total_s": dict(total),
        "self_s": dict(self_s),
        "tree": _nest(tree),
    }


def _nest(flat: dict[tuple, list]) -> list[dict]:
    nodes: dict[tuple, dict] = {}
    roots: list[dict] = []
    for path in sorted(flat, key=len):
        calls, dur, own = flat[path]
        node = {"name": path[-1], "calls": calls, "total_s": dur,
                "self_s": own, "children": []}
        nodes[path] = node
        (nodes[path[:-1]]["children"] if len(path) > 1 else roots).append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda n: -n["total_s"])
    roots.sort(key=lambda n: -n["total_s"])
    return roots
