"""Spans around the calls into each layer of the package, from outside it.

``Tracer.install`` replaces the layer functions at the module attributes
the pipelines call them through (``posskc.logical.condition``,
``posskc.pkb.entails_clause``, ``posskc.nnf.condition`` inside
``entails_clause``, ...) with wrappers that record a span: name, start,
end, parent span, query id and the sizes the call handled.  Spans stay in
memory; ``uninstall`` puts the original functions back.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

METHODS = ("pf", "logical", "pkb")


def _dag_in(args, result) -> dict:
    return {"nodes_in": len(args[0].nodes)}


def _compiled(args, result) -> dict:
    cnf = args[0]
    out = {"cnf_vars": cnf.num_vars, "cnf_clauses": cnf.num_clauses}
    if result is not None:
        out["dag_nodes"] = len(result.nodes)
        out["dag_edges"] = result.edge_count()
    return out


def _strata(args, result) -> dict:
    return {"strata_visited": result[1], "strata_available": len(args[0].level_vars)}


HOOKS = (
    # (module, attribute, span name, size recorder)
    ("posskc.circuits", "encode_pf", "encode.pf", None),
    ("posskc.circuits", "compile_cnf", "compiler.pf", _compiled),
    ("posskc.circuits", "pi_evaluate", "nnf.pi_evaluate", _dag_in),
    ("posskc.circuits", "PfPipeline.query", "query.pf", None),
    ("posskc.logical", "encode_logical", "encode.logical", None),
    ("posskc.logical", "compile_cnf", "compiler.logical", _compiled),
    ("posskc.logical", "condition", "nnf.condition", _dag_in),
    ("posskc.logical", "forget", "nnf.forget", _dag_in),
    ("posskc.logical", "pi_evaluate", "nnf.pi_evaluate", _dag_in),
    ("posskc.logical", "LogicalPipeline.query", "query.logical", None),
    ("posskc.pkb", "to_possibilistic_base", "encode.pkb", None),
    ("posskc.pkb", "encode_pkb", "encode.pkb", None),
    ("posskc.pkb", "compile_cnf", "compiler.pkb", _compiled),
    ("posskc.pkb", "condition", "nnf.condition", _dag_in),
    ("posskc.pkb", "entails_clause", "nnf.entails", None),
    ("posskc.pkb", "is_consistent", "nnf.consistent", None),
    ("posskc.pkb", "PkbPipeline.query_detail", "query.pkb", _strata),
    ("posskc.nnf", "condition", "nnf.condition", _dag_in),
    ("posskc.nnf", "is_consistent", "nnf.consistent", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "sizes", "error")

    def __init__(self, name, parent, query):
        self.name = name
        self.parent = parent
        self.query = query
        self.sizes = None
        self.error = None

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "query": self.query,
            "sizes": self.sizes,
            "error": self.error,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list = []
        self.query_id: int | None = None

    def call(self, name: str, fn, *args, sizes=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; sizes(args, result) adds counts."""
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, self.query_id)
        self._open.append(len(self.spans))
        self.spans.append(span)
        result = None
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._open.pop()
            if sizes is not None:
                span.sizes = sizes(args, result)

    def install(self) -> None:
        for module_name, attr, name, sizes in HOOKS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, sizes))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, sizes):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, sizes=sizes, **kwargs)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.as_dict(i)) + "\n")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals over the spans: self times, calls and sizes."""
    child_time = [0.0] * len(spans)
    root_query = [None] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
            root_query[i] = root_query[s.parent]
        if s.name.startswith("query."):
            root_query[i] = s.name
    totals: dict = {}
    nnf_calls: dict = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.name, {"calls": 0, "ms": 0.0, "budget_fail": 0})
        t["calls"] += 1
        t["ms"] += (s.end - s.start - child_time[i]) * 1000.0
        t["budget_fail"] += s.error == "CompileBudgetError"
        for key, value in (s.sizes or {}).items():
            t[key] = t.get(key, 0) + value
        if s.name.startswith("nnf.") and root_query[i] is not None:
            nnf_calls[root_query[i]] = nnf_calls.get(root_query[i], 0) + 1

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    m: dict = {
        "network.parse_ms": get("network.parse", "ms"),
        "network.entries": get("network.parse", "entries"),
    }
    for meth in METHODS:
        m[f"encode.ms.{meth}"] = get(f"encode.{meth}", "ms")
        m[f"encode.cnf_vars.{meth}"] = get(f"compiler.{meth}", "cnf_vars")
        m[f"encode.cnf_clauses.{meth}"] = get(f"compiler.{meth}", "cnf_clauses")
        m[f"compiler.ms.{meth}"] = get(f"compiler.{meth}", "ms")
        m[f"compiler.budget_fail.{meth}"] = get(f"compiler.{meth}", "budget_fail")
        m[f"compiler.dag_nodes.{meth}"] = get(f"compiler.{meth}", "dag_nodes")
        m[f"compiler.dag_edges.{meth}"] = get(f"compiler.{meth}", "dag_edges")
    for op, keys in (
        ("condition", ("calls", "ms", "nodes_in")),
        ("forget", ("calls", "ms", "nodes_in")),
        ("entails", ("calls", "ms")),
        ("consistent", ("calls", "ms")),
        ("pi_evaluate", ("calls", "ms", "nodes_in")),
    ):
        for key in keys:
            m[f"nnf.{op}.{key}"] = get(f"nnf.{op}", key)
    for meth in METHODS:
        queries = get(f"query.{meth}", "calls")
        m[f"query.self_ms.{meth}"] = get(f"query.{meth}", "ms")
        m[f"query.nnf_calls_per_query.{meth}"] = (
            nnf_calls.get(f"query.{meth}", 0) / queries if queries else 0.0
        )
    visited = get("query.pkb", "strata_visited")
    available = get("query.pkb", "strata_available")
    m["pkb.strata_visited"] = visited
    m["pkb.strata_frac"] = visited / available if available else 0.0
    return m
