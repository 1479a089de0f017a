"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each layer, in every ``coax``
module that binds them, with wrappers that record a span (name, start, end,
parent, operation id).  The wrappers are in place only during a traced
operation; an untraced one runs the program as it is.  A layer's self time
is its span minus its child spans.  Counts are read off the values the
wrapped calls return, as they return; the tracer keeps no reference to a
value, so that nothing outlives the operation that made it.
"""

from __future__ import annotations

import time
from collections import defaultdict

import coax
from coax import cli, core, prooftree, systems, verify

LIBRARY = [coax, core, prooftree, verify, systems, cli]

# each layer's time metric is named "<layer>_ms"
TIME_METRICS = (
    "systems.build",
    "cli.emit",
    "cli.parse",
    "cli.load",
    "core.compile",
    "core.closure",
    "core.descent",
    "core.crosscheck",
    "core.relaxed",
    "prooftree.approx",
    "prooftree.tree_build",
    "prooftree.wf",
    "prooftree.graph",
    "prooftree.render",
    "verify.refute",
)
COUNT_METRICS = (
    "count.judgements",
    "count.rules",
    "count.emit_bytes",
    "count.closure_size",
    "count.generated_size",
    "count.ascend_steps",
    "count.descend_steps",
    "count.tree_nodes",
    "count.tree_depth",
)
# spans whose metric is the whole call; every other metric is a self time
INCLUSIVE = {"prooftree.approx", "prooftree.wf", "verify.refute"}
# approx_proof's self time, reported under its own name
SELF_OF = {"prooftree.tree_build": "prooftree.approx"}


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.traced = False
        # one span: [name, start, end, parent index, operation id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.fresh: set[int] = set()  # ids of systems not yet compiled
        self.seen: set[int] = set()  # systems the benchmark loaded and has run
        # (owner, attribute, original, wrapper)
        self.patches: list[tuple[object, str, object, object]] = []
        self._prepare()

    # -- the wrappers ----------------------------------------------------------------

    def _prepare(self) -> None:
        """Wrap every layer function wherever a coax module binds it."""
        self._wrap(systems.parse_graph, "systems.build")
        self._wrap(systems.build_dist, "systems.build")
        self._wrap(cli.emit_system, "cli.emit", self._count_emit)
        self._wrap(cli.parse_system_file, "cli.parse")
        self._wrap(cli.system_from_file, "cli.load", self._count_loaded)
        self._wrap(core.infer_step, "core.compile", first_call=True)
        self._wrap(core.closure_of, "core.closure", self._count_closure)
        self._wrap(core.kernel_below, "core.descent", self._count_descent)
        self._wrap(core.generated, "core.crosscheck")
        relaxed_under = {"prooftree.approx"}
        self._wrap(core.with_coaxioms_as_axioms, "core.relaxed", under=relaxed_under)
        self._wrap(core.inductive, "core.relaxed", self._count_ascent, under=relaxed_under)
        self._wrap(prooftree.approx_proof, "prooftree.approx", self._count_tree)
        self._wrap(prooftree.wf_proof_search, "prooftree.wf", self._count_tree)
        self._wrap(prooftree.proof_graph, "prooftree.graph")
        self._wrap(prooftree.unfold, "prooftree.graph", self._count_tree)
        self._wrap(verify.refute_level, "verify.refute")
        for method in ("render", "to_nested"):
            original = getattr(prooftree.PathTree, method)
            wrapper = self._wrapper(original, "prooftree.render")
            self.patches.append((prooftree.PathTree, method, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name, on_result=None, under=None, first_call=False) -> None:
        wrapper = self._wrapper(fn, name, on_result, under, first_call)
        for module in LIBRARY:
            for attr, value in vars(module).items():
                if value is fn:
                    self.patches.append((module, attr, fn, wrapper))

    def _wrapper(self, fn, name, on_result=None, under=None, first_call=False):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if first_call:
                record = id(args[0]) in self.fresh
                self.fresh.discard(id(args[0]))
            elif under is not None:
                record = bool(stack) and spans[stack[-1]][0] in under
            else:
                record = True
            if record:
                index = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
                stack.append(index)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index][1] = start
                    spans[index][2] = end
            else:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts ----------------------------------------------------------------------

    def _count_emit(self, text) -> None:
        self.counts["count.emit_bytes"] += len(text.encode())

    def _count_loaded(self, system) -> None:
        self.fresh.add(id(system))
        self.count_system(system)

    def count_system(self, system) -> None:
        self.counts["count.judgements"] += len(system.universe)
        self.counts["count.rules"] += system.rule_count

    def _count_closure(self, closure) -> None:
        self.counts["count.closure_size"] += len(closure)

    def _count_descent(self, result) -> None:
        kernel, trace = result
        self.counts["count.generated_size"] += len(kernel)
        self.counts["count.descend_steps"] += len(trace)

    def _count_ascent(self, result) -> None:
        self.counts["count.ascend_steps"] += len(result[1])

    def _count_tree(self, tree) -> None:
        if tree is not None:
            self.counts["count.tree_nodes"] += len(tree)
            self.counts["count.tree_depth"] += tree.depth

    # -- operations ----------------------------------------------------------------

    def begin(self, op: int, system, traced: bool) -> None:
        """Start one operation on ``system`` (None when the operation loads
        its own); trace it if ``traced``.  Every operation is announced, so
        that a system's first compile is known, traced or not."""
        self.op = op
        self.traced = traced
        self.fresh.clear()
        if system is not None and id(system) not in self.seen:
            self.seen.add(id(system))
            self.fresh.add(id(system))
        if not traced:
            return
        if system is not None:
            self.count_system(system)
        self.install()
        self.spans.append(["op", 0.0, 0.0, -1, op])
        self.stack.append(len(self.spans) - 1)
        self.spans[self.stack[-1]][1] = time.perf_counter()

    def end(self) -> None:
        end = time.perf_counter()
        if not self.traced:
            return
        self.uninstall()
        self.spans[self.stack.pop()][2] = end
        self.fresh.clear()

    # -- results ----------------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation self (or whole, see INCLUSIVE) times in ms, and
        per-operation counts, over ``ops`` traced operations."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[index]
        out: dict[str, float] = {}
        for layer in TIME_METRICS:
            source = SELF_OF.get(layer, layer)
            seconds = total[source] if layer in INCLUSIVE else own[source]
            out[f"{layer}_ms"] = seconds * 1e3 / ops
        for name in COUNT_METRICS:
            out[name] = self.counts[name] / ops
        return out

    def dump(self, path) -> None:
        """Spans as tab-separated lines: name, start, end (s, from the
        first span), parent line (-1 for none), operation id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start - origin:.7f}\t{end - origin:.7f}\t{parent}\t{op}\n")

