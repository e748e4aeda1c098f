"""Span tracing of groupinv's layers from outside the package.

`install` wraps each public function named in TARGETS at every name it is
bound to: the module attribute and each copy made by ``from ... import`` in
another groupinv module.  Methods are wrapped on their class.  Each call
becomes a span (name, start, end, parent span, operation id); spans are kept
in memory, up to a cap, and written out when the run ends.  Self time, call
counts and units of work are summed at the same wrappers for every call,
including those past the span cap.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

MAX_SPANS = 100_000


def _ball_vertices(args, result):
    return args[0].order


def _dd_rays(args, result):
    lines, rays = result
    return len(lines) + len(rays)


def _snf_bits(args, result):
    return max((abs(x).bit_length() for m in (result.u, result.d, result.v) for row in m for x in row),
               default=0)


# (module, attribute or Class.method, span name, unit-of-work counter)
TARGETS = [
    ("groupinv.expressions", "parse_group_expr", "expressions.parse", None),
    ("groupinv.catalog", "lookup_invariants", "catalog.lookup", None),
    ("groupinv.spheres", "SphereSet.__init__", "spheres.normal_form", None),
    ("groupinv.spheres", "SphereSet.cardinality", "spheres.cardinality", None),
    ("groupinv.spheres", "join", "spheres.join", None),
    ("groupinv.spheres", "union", "spheres.union", None),
    ("groupinv.cones", "extreme_rays", "cones.dd", _dd_rays),
    ("groupinv.rinf", "decide", "rinf.decide", None),
    ("groupinv.rinf", "decide_main", "rinf.rule", None),
    ("groupinv.rinf", "decide_gk", "rinf.rule", None),
    ("groupinv.rinf", "decide_product", "rinf.rule", None),
    ("groupinv.rinf", "decide_free_product", "rinf.rule", None),
    ("groupinv.ballprobe", "enumerate_ball", "ballprobe.enumerate", None),
    ("groupinv.ballprobe", "halfspace_subgraph", "ballprobe.sublevel", _ball_vertices),
    ("groupinv.ballprobe", "cone_subgraph", "ballprobe.sublevel", _ball_vertices),
    ("groupinv.ballprobe", "connectivity_probe", "ballprobe.probe", None),
    ("groupinv.unionfind", "UnionFind.union", "unionfind.union", None),
    ("groupinv.unionfind", "UnionFind.find", "unionfind.find", None),
    ("groupinv.abelian", "smith_normal_form", "abelian.snf", _snf_bits),
    ("groupinv.abelian", "FiniteGroupTable.__post_init__", "abelian.table_validate", None),
    ("groupinv.abelian", "brute_force_twisted_classes", "abelian.brute_force", None),
    ("groupinv.abelian", "matrix_rank", "abelian.rank", None),
]

# per-layer metrics: name, unit, better, and how each is read from the totals
LAYER_METRICS = [
    ("expressions.parse_ms", "ms", "lower", lambda t: t.ms("expressions.parse")),
    ("expressions.parse_calls", "count", "lower", lambda t: t.count("expressions.parse")),
    ("catalog.lookup_ms", "ms", "lower", lambda t: t.ms("catalog.lookup")),
    ("catalog.lookup_calls", "count", "lower", lambda t: t.count("catalog.lookup")),
    ("catalog.lookup_distinct_ratio", "ratio", "higher", lambda t: t.distinct_ratio()),
    ("spheres.normal_form_ms", "ms", "lower", lambda t: t.ms("spheres.normal_form")),
    ("spheres.normal_form_calls", "count", "lower", lambda t: t.count("spheres.normal_form")),
    ("spheres.join_calls", "count", "lower", lambda t: t.count("spheres.join")),
    ("spheres.union_calls", "count", "lower", lambda t: t.count("spheres.union")),
    ("spheres.cardinality_ms", "ms", "lower", lambda t: t.ms("spheres.cardinality")),
    ("spheres.cardinality_calls", "count", "lower", lambda t: t.count("spheres.cardinality")),
    ("cones.dd_ms", "ms", "lower", lambda t: t.ms("cones.dd")),
    ("cones.dd_calls", "count", "lower", lambda t: t.count("cones.dd")),
    ("cones.dd_rays", "count", "lower", lambda t: t.work_per_op("cones.dd")),
    ("rinf.decide_ms", "ms", "lower", lambda t: t.ms("rinf.decide", "rinf.rule")),
    ("rinf.decide_calls", "count", "lower", lambda t: t.count("rinf.decide")),
    ("rinf.rule_calls", "count", "lower", lambda t: t.count("rinf.rule")),
    ("ballprobe.enumerate_ms", "ms", "lower", lambda t: t.ms("ballprobe.enumerate")),
    ("ballprobe.sublevel_ms", "ms", "lower", lambda t: t.ms("ballprobe.sublevel")),
    ("ballprobe.sublevel_calls", "count", "lower", lambda t: t.count("ballprobe.sublevel")),
    ("ballprobe.vertex_tests", "count", "lower", lambda t: t.work_per_op("ballprobe.sublevel")),
    ("ballprobe.probe_ms", "ms", "lower", lambda t: t.ms("ballprobe.probe")),
    ("unionfind.ms", "ms", "lower", lambda t: t.ms("unionfind.union", "unionfind.find")),
    ("unionfind.unions", "count", "lower", lambda t: t.count("unionfind.union")),
    ("unionfind.finds", "count", "lower", lambda t: t.count("unionfind.find")),
    ("abelian.snf_ms", "ms", "lower", lambda t: t.ms("abelian.snf")),
    ("abelian.snf_calls", "count", "lower", lambda t: t.count("abelian.snf")),
    ("abelian.snf_max_bits", "bits", "lower", lambda t: t.work_per_call("abelian.snf")),
    ("abelian.table_validate_ms", "ms", "lower", lambda t: t.ms("abelian.table_validate")),
    ("abelian.brute_force_ms", "ms", "lower", lambda t: t.ms("abelian.brute_force")),
    ("abelian.rank_calls", "count", "lower", lambda t: t.count("abelian.rank")),
    ("cli.import_ms", "ms", "lower", lambda t: t.import_ms()),
    ("cli.output_bytes", "bytes", "lower", lambda t: t.output_bytes()),
]


class Tracer:
    """Spans and per-layer totals for one traced run (one thread)."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.spans: list[tuple] = []
        self.span_count = 0
        self.ops = 0
        self.op_id = 0
        self.paused = False
        self.distinct_nodes = 0
        self._op_nodes: set = set()
        self._stack: list[list] = []  # [child seconds, span id]
        self.import_s: list[float] = []
        self.output_bytes_seen: list[int] = []
        self._restore: list[tuple] = []

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.distinct_nodes += len(self._op_nodes)
        self._op_nodes = set()
        self.op_id = op_id
        self.ops += 1

    def finish(self) -> None:
        self.distinct_nodes += len(self._op_nodes)
        self._op_nodes = set()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str, work=None):
        tracer = self
        stack = self._stack
        self_s, calls, counted = self.self_s, self.calls, self.work
        distinct = name == "catalog.lookup"

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            entry = perf_counter()
            if distinct:
                tracer._op_nodes.add(args[0])
            span_id = tracer.span_count
            tracer.span_count += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            result, done = None, False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf_counter()
                stack.pop()
                self_s[name] += end - start - frame[0]
                calls[name] += 1
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((span_id, parent, tracer.op_id, name, start, end))
                if done and work is not None:
                    counted[name] += work(args, result)
                if stack:
                    # the wrapper's own bookkeeping is charged to no layer
                    stack[-1][0] += perf_counter() - entry
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target at every name it is bound to in loaded groupinv modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "groupinv" or n.startswith("groupinv."))]
        for module_name, attr, name, work in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, name, work))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- child processes --------------------------------------------------

    def to_json_dict(self) -> dict:
        self.finish()
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "work": dict(self.work),
                "distinct_nodes": self.distinct_nodes, "span_count": self.span_count,
                "spans": self.spans}

    def merge_child(self, data: dict, op_id: int) -> None:
        """Add a traced child process's totals and spans as one operation."""
        for k, v in data["self_s"].items():
            self.self_s[k] += v
        self.calls.update(data["calls"])
        self.work.update(data["work"])
        self.distinct_nodes += data["distinct_nodes"]
        self.import_s.append(data["import_s"])
        base = self.span_count
        for span_id, parent, _, name, start, end in data["spans"]:
            if len(self.spans) < self.max_spans:
                self.spans.append((base + span_id, base + parent if parent >= 0 else -1,
                                   op_id, name, start, end))
        self.span_count += data["span_count"]

    # -- metrics ----------------------------------------------------------

    def ms(self, *names: str) -> float:
        return 1000.0 * sum(self.self_s.get(n, 0.0) for n in names) / max(self.ops, 1)

    def count(self, name: str) -> float:
        return self.calls.get(name, 0) / max(self.ops, 1)

    def work_per_op(self, name: str) -> float:
        return self.work.get(name, 0) / max(self.ops, 1)

    def work_per_call(self, name: str) -> float:
        return self.work.get(name, 0) / max(self.calls.get(name, 0), 1)

    def distinct_ratio(self) -> float:
        return self.distinct_nodes / max(self.calls.get("catalog.lookup", 0), 1)

    def import_ms(self) -> float:
        return 1000.0 * sum(self.import_s) / len(self.import_s) if self.import_s else 0.0

    def output_bytes(self) -> float:
        seen = self.output_bytes_seen
        return sum(seen) / len(seen) if seen else 0.0

    def layer_metrics(self) -> dict:
        self.finish()
        return {name: {"value": round(fn(self), 6), "unit": unit}
                for name, unit, _, fn in LAYER_METRICS}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,op,name,start_us,end_us\n")
            for span_id, parent, op, name, start, end in self.spans:
                fh.write("%d,%d,%d,%s,%.1f,%.1f\n" % (span_id, parent, op, name, start * 1e6, end * 1e6))
