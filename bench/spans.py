"""In-memory tracing of mbsheaf from outside the package.

The tracer replaces module attributes and RationalMatrix methods with
wrappers for the life of one worker process; nothing in ``src/mbsheaf``
changes.  A name is wrapped in every mbsheaf namespace that binds it,
because callers look names up in their own module (``cli`` calls its
imported ``check_mbs``, ``support_check`` calls ``cousin.stalk_complex``).

Every call becomes a node ``{id, parent, name, calls, total_s, ...}``.
Span wrappers make one node per call, with its start and end.  Kernel
wrappers (the RationalMatrix methods, ``rref_fp``, the sheaf composites)
run far too often for that, so their calls are aggregated into one node
per (parent node, name) holding the count and summed time.  A node's
layer is its name up to the first dot.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

clock = time.perf_counter

# (defining module, attribute, span name); a span per call.
SPANS = (
    ("mbsheaf.coxeter", "build_coxeter", "coxeter.build"),
    ("mbsheaf.xi", "enumerate_xi", "xi.build"),
    ("mbsheaf.f1", "build_e1", "f1.build_e1"),
    ("mbsheaf.f1", "build_e1v", "f1.build_e1v"),
    ("mbsheaf.fq", "build_eq", "fq.build_eq"),
    ("mbsheaf.fq", "b_invariant_sub", "fq.b_invariant"),
    ("mbsheaf.fq", "hecke_generators", "fq.hecke"),
    ("mbsheaf.fq", "orbit_point_checks", "fq.point_checks"),
    ("mbsheaf.sheaf", "check_mbs", "sheaf.check_mbs"),
    ("mbsheaf.sheaf", "dual", "sheaf.dual"),
    ("mbsheaf.cousin", "support_check", "cousin.support"),
    ("mbsheaf.cousin", "coperversity_check", "cousin.coperversity"),
    ("mbsheaf.cousin", "constructibility_check", "cousin.constructibility"),
    ("mbsheaf.cousin", "stalk_complex", "cousin.stalk_complex"),
    ("mbsheaf.io", "mbs_to_json", "io.emit"),
    ("mbsheaf.io", "check_dump", "io.emit"),
    ("mbsheaf.io", "dumps", "io.emit"),
    ("mbsheaf.io", "mbs_from_json", "io.parse"),
    ("mbsheaf.io", "loads", "io.parse"),
)

# (defining module, attribute, kernel name); aggregated per parent node.
KERNELS = (
    ("mbsheaf.sheaf", "compose_prime", "sheaf.compose"),
    ("mbsheaf.sheaf", "compose_second", "sheaf.compose"),
    ("mbsheaf.fq", "rref_fp", "fq.rref_fp"),
    ("mbsheaf.fq", "in_span_fp", "fq.in_span_fp"),
    ("mbsheaf.fq", "nullspace_fp", "fq.nullspace_fp"),
    ("mbsheaf.linalg", "column_space_basis", "linalg.column_space_basis"),
)

# RationalMatrix methods, wrapped on the class so that calls through
# ``self`` inside linalg (rank -> rref, solve -> rref) are seen too.
MATRIX_KERNELS = (
    ("__matmul__", "linalg.matmul"),
    ("__add__", "linalg.add"),
    ("__sub__", "linalg.sub"),
    ("__neg__", "linalg.neg"),
    ("__eq__", "linalg.eq"),
    ("scale", "linalg.scale"),
    ("transpose", "linalg.transpose"),
    ("apply", "linalg.apply"),
    ("rref", "linalg.rref"),
    ("rank", "linalg.rank"),
    ("inverse", "linalg.inverse"),
    ("solve", "linalg.solve"),
    ("is_invertible", "linalg.is_invertible"),
)

LAYERS = ("coxeter", "faces", "xi", "f1", "fq", "io", "sheaf", "cousin", "linalg", "cli")

# Per-layer metrics reported by a traced run: (name, unit, node name, kind).
# kind "s" sums the time of the nodes of that name not nested in another
# of the same name, "calls" sums their call counts, "bytes" sums the JSON
# text the layer emitted or parsed, "self" is the layer's self time.
# cousin.support_s includes the support check that coperversity_check
# runs on the dual.
LAYER_METRICS = (
    ("coxeter.build_s", "s", "coxeter.build", "s"),
    ("faces.build_s", "s", "faces.build", "s"),
    ("xi.build_s", "s", "xi.build", "s"),
    ("f1.build_e1_s", "s", "f1.build_e1", "s"),
    ("f1.build_e1v_s", "s", "f1.build_e1v", "s"),
    ("fq.build_eq_s", "s", "fq.build_eq", "s"),
    ("fq.b_invariant_s", "s", "fq.b_invariant", "s"),
    ("fq.hecke_s", "s", "fq.hecke", "s"),
    ("fq.point_checks_s", "s", "fq.point_checks", "s"),
    ("fq.rref_fp_calls", "count", "fq.rref_fp", "calls"),
    ("fq.rref_fp_s", "s", "fq.rref_fp", "s"),
    ("sheaf.check_mbs_s", "s", "sheaf.check_mbs", "s"),
    ("sheaf.compose_calls", "count", "sheaf.compose", "calls"),
    ("cousin.support_s", "s", "cousin.support", "s"),
    ("cousin.coperversity_s", "s", "cousin.coperversity", "s"),
    ("cousin.constructibility_s", "s", "cousin.constructibility", "s"),
    ("cousin.stalk_complex_calls", "count", "cousin.stalk_complex", "calls"),
    ("linalg.matmul_calls", "count", "linalg.matmul", "calls"),
    ("linalg.matmul_s", "s", "linalg.matmul", "s"),
    ("linalg.add_calls", "count", "linalg.add", "calls"),
    ("linalg.rref_calls", "count", "linalg.rref", "calls"),
    ("linalg.rref_s", "s", "linalg.rref", "s"),
    ("io.emit_s", "s", "io.emit", "s"),
    ("io.parse_s", "s", "io.parse", "s"),
    ("io.bytes", "B", "io", "bytes"),
    ("cli.example_s", "s", "cli.example", "s"),
    ("cli.check_s", "s", "cli.check", "s"),
) + tuple((f"{layer}.self_s", "s", layer, "self") for layer in LAYERS)


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """Span and kernel nodes of one run, kept in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.nodes = []
        self._kernel_nodes = {}
        self._stack = []
        self._undo = []
        self._root = self._new_node(None, "bench.cycle", start=clock())
        self._stack.append(self._root)

    def _new_node(self, parent, name, start=None):
        node = {"id": len(self.nodes), "parent": parent, "name": name,
                "calls": 0, "total_s": 0.0, "bytes": 0, "run": self.run_id}
        if start is not None:
            node["start"] = start
        self.nodes.append(node)
        return node["id"]

    def close(self):
        """End the root span; call once, after the traced work."""
        root = self.nodes[self._root]
        root["end"] = clock()
        root["calls"] = 1
        root["total_s"] = root["end"] - root["start"]
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a new span node and return its result."""
        node = self.nodes[self._new_node(self._stack[-1], name, start=clock())]
        self._stack.append(node["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            node["end"] = clock()
            node["calls"] = 1
            node["total_s"] = node["end"] - node["start"]

    def kernel(self, name, fn, *args, **kwargs):
        """Call fn, adding its count and time to the (parent, name) node."""
        parent = self._stack[-1]
        nid = self._kernel_nodes.get((parent, name))
        if nid is None:
            nid = self._kernel_nodes[(parent, name)] = self._new_node(parent, name)
        node = self.nodes[nid]
        self._stack.append(nid)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            node["total_s"] += clock() - start
            node["calls"] += 1
            self._stack.pop()

    def add_bytes(self, n):
        self.nodes[self._stack[-1]]["bytes"] += n

    # -- installation ------------------------------------------------------

    def _bind_everywhere(self, original, replacement, only=None):
        for modname, mod in list(sys.modules.items()):
            if not (modname == "mbsheaf" or modname.startswith("mbsheaf.")):
                continue
            if only is not None and modname != only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append(functools.partial(setattr, mod, attr, original))

    def install(self):
        """Wrap every traced name in the imported mbsheaf modules."""
        for modname, attr, name in SPANS:
            original = getattr(importlib.import_module(modname), attr)
            self._bind_everywhere(original, self._span_wrapper(name, original))
        for modname, attr, name in KERNELS:
            original = getattr(importlib.import_module(modname), attr)
            self._bind_everywhere(original, self._kernel_wrapper(name, original))
        # FaceComplex is replaced only where enumerate_xi looks it up, so
        # faces keeps its class; its lazy action table is forced in the span.
        face_cls = sys.modules["mbsheaf.faces"].FaceComplex
        self._bind_everywhere(face_cls, self._faces_wrapper(face_cls), only="mbsheaf.xi")
        matrix = sys.modules["mbsheaf.linalg"].RationalMatrix
        for attr, name in MATRIX_KERNELS:
            original = matrix.__dict__[attr]
            setattr(matrix, attr, self._kernel_wrapper(name, original))
            self._undo.append(functools.partial(setattr, matrix, attr, original))

    def _span_wrapper(self, name, fn):
        if name == "coxeter.build":
            def call(*args, **kwargs):
                datum = fn(*args, **kwargs)
                datum.tables  # lazy group tables belong to the datum layer
                return datum
        elif fn.__name__ == "dumps":
            def call(*args, **kwargs):
                text = fn(*args, **kwargs)
                self.add_bytes(len(text))
                return text
        elif fn.__name__ == "loads":
            def call(text, *args, **kwargs):
                self.add_bytes(len(text))
                return fn(text, *args, **kwargs)
        else:
            call = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, call, *args, **kwargs)
        return wrapper

    def _kernel_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.kernel(name, fn, *args, **kwargs)
        return wrapper

    def _faces_wrapper(self, cls):
        def build(datum):
            cx = cls(datum)
            cx.action  # lazy W-action table belongs to the faces layer
            return cx

        def wrapper(datum):
            return self.span("faces.build", build, datum)
        return wrapper


# -- analysis of a node list ----------------------------------------------------

def self_times(nodes):
    """Self time per layer: each node's time minus the time of its children."""
    child_total = {}
    for node in nodes:
        if node["parent"] is not None:
            child_total[node["parent"]] = child_total.get(node["parent"], 0.0) + node["total_s"]
    out = {}
    for node in nodes:
        layer = layer_of(node["name"])
        out[layer] = out.get(layer, 0.0) + node["total_s"] - child_total.get(node["id"], 0.0)
    return out


def layer_metrics(nodes):
    """Every LAYER_METRICS value for one traced cycle."""
    by_id = {node["id"]: node for node in nodes}

    def nested_in_same_name(node):
        parent = node["parent"]
        while parent is not None:
            if by_id[parent]["name"] == node["name"]:
                return True
            parent = by_id[parent]["parent"]
        return False

    selfs = self_times(nodes)
    out = {}
    for metric, _unit, target, kind in LAYER_METRICS:
        if kind == "self":
            out[metric] = selfs.get(target, 0.0)
        elif kind == "bytes":
            out[metric] = sum(n["bytes"] for n in nodes if layer_of(n["name"]) == target)
        elif kind == "calls":
            out[metric] = sum(n["calls"] for n in nodes if n["name"] == target)
        else:
            out[metric] = sum(n["total_s"] for n in nodes
                              if n["name"] == target and not nested_in_same_name(n))
    return out
