"""Span tracing around the program's public functions.

`Tracer.install` replaces every public function of the traced modules with
a wrapper, under each name that callers look it up by: the defining module,
every sibling module that imported the name (``finder.connectivity_cut``),
and the package.  It also wraps the methods of the classes those modules
define (``graphs.Graph.__post_init__``, ``graphs.Cycle.arc``), so that the
time spent building and validating graphs, paths and cycles is charged to
their layer rather than to the caller.  A wrapper records one span per
call (per resumption, for generator functions): its name, the operation it
belongs to, its parent span, and its start and end times.  Spans stay in
memory in flat arrays and are written out by `Tracer.dump`;
`Tracer.layer_metrics` turns them into the per-layer figures.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans add up to the time covered by the outermost
spans, and the rest of a traced round is the benchmark's own time.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter
from functools import cached_property

# Oracle enumerations that are exponential in the input.  Entered under a
# finder span they are a fallback; entered without one, a cross-check.
ENUMERATIONS = frozenset(
    {
        "oracle.cycle_spectrum",
        "oracle.xy_path_lengths",
        "oracle.bondy_vince_search",
        "oracle.find_consecutive_even_pair_bf",
    }
)

# constant-time methods left unwrapped (see Tracer._install_methods)
ACCESSORS = frozenset(
    {"has_edge", "degree", "index_of", "successor", "arc_length", "original_of", "is_k5"}
)

# per-call figures taken from a wrapped function's arguments or result
_COUNTED_SIZES = {
    "graphs.induced_subgraph": lambda args, result: result[0].n,
    **{name: (lambda args, result: args[0].n) for name in ENUMERATIONS},
}


def install_on_program() -> "Tracer":
    """A tracer installed on the six modules of evencycles."""
    import evencycles
    from evencycles import cli, codecs, finder, generators, graphs, oracle

    layers = {"graphs": graphs, "finder": finder, "oracle": oracle,
              "generators": generators, "codecs": codecs, "cli": cli}
    tracer = Tracer(evencycles, layers)
    tracer.install()
    return tracer


class Tracer:
    def __init__(self, package, layers):
        self.package = package
        self.layers = layers  # {"graphs": module, ...}
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("H")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size: dict = {}  # span index -> figure from _COUNTED_SIZES
        self.yielded = Counter()  # generator function name -> items yielded
        self.stack: list = []
        self.current_op = -1

    # -- recording ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(-1.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def end_op(self, when: float):
        """Close spans left open by an exception that unwound past them."""
        for idx in self.stack:
            if self.end[idx] < 0:
                self.end[idx] = when
        self.stack.clear()
        self.current_op = -1

    def _wrap(self, qualname: str, fn):
        nid = self._name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        open_, close = self._open, self._close
        size = _COUNTED_SIZES.get(qualname)
        sizes = self.size

        if inspect.isgeneratorfunction(fn):
            yielded = self.yielded

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yielded[qualname] += 1
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if size is not None:
                sizes[idx] = size(args, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of each layer wherever it is bound, and
        the methods of the classes each layer defines."""
        modules = [self.package, *self.layers.values()]
        for layer, mod in self.layers.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_methods(f"{layer}.{attr}", obj)
                elif inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for other in modules:
                        if getattr(other, attr, None) is obj:
                            setattr(other, attr, wrapper)

    def _install_methods(self, prefix: str, cls):
        """Wrap the public methods, static methods, cached properties and
        ``__post_init__`` of `cls`.  Plain properties and the ACCESSORS stay
        unwrapped: they are constant-time, called millions of times a round,
        and a span would cost more than the call."""
        for attr, obj in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr in ACCESSORS or (attr.startswith("_") and attr != "__post_init__"
                                     and not isinstance(obj, cached_property)):
                continue
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, cached_property):
                wrapped = cached_property(self._wrap(name, obj.func))
                wrapped.__set_name__(cls, attr)
                setattr(cls, attr, wrapped)
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(name, obj))

    # -- output -------------------------------------------------------------

    def dump(self, path: str, upto: int):
        """Write spans [0, upto): a JSON header line, then the raw arrays."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "count": upto,
                "arrays": ["name:H", "op:i", "parent:i", "start:d", "end:d"],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.op, self.parent, self.start, self.end):
                arr[:upto].tofile(fh)

    def layer_metrics(self, upto: int, rounds: int, ops_s: float) -> dict:
        """Per-layer figures per round, as {name: (value, unit)}, from the spans
        [0, upto) recorded inside operations; `ops_s` is the summed operation
        time of all `rounds` rounds."""
        names, parent = self.names, self.parent
        layer_of = [n.split(".", 1)[0] for n in names]
        nid_of = {n: i for i, n in enumerate(names)}
        finder_ids = {i for i, lay in enumerate(layer_of) if lay == "finder"}
        enum_ids = {nid_of[n] for n in ENUMERATIONS if n in nid_of}
        validate_id = nid_of.get("oracle.validate", -1)
        paths_id = nid_of.get("finder.two_paths_diff_two", -1)

        op = self.op
        child_time = [0.0] * upto
        for i in range(upto):
            if op[i] < 0:
                continue
            p = parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]

        calls = Counter()
        total_s = Counter()
        self_s = Counter()
        layer_self = Counter()
        fallback_calls = fallback_max_n = paths_top = 0
        fallback_self = check_self = 0.0
        # flags inherited from the ancestors; parents precede their children
        under_finder = bytearray(upto)
        under_validate = bytearray(upto)
        under_enum = bytearray(upto)
        under_paths = bytearray(upto)
        for i in range(upto):
            if op[i] < 0:
                continue
            nid = self.name[i]
            duration = self.end[i] - self.start[i]
            own = duration - child_time[i]
            calls[nid] += 1
            total_s[nid] += duration
            self_s[nid] += own
            layer_self[layer_of[nid]] += own
            p = parent[i]
            if p >= 0:
                pn = self.name[p]
                under_finder[i] = under_finder[p] or pn in finder_ids
                under_validate[i] = under_validate[p] or pn == validate_id
                under_enum[i] = under_enum[p] or pn in enum_ids
                under_paths[i] = under_paths[p] or pn == paths_id
            if nid == paths_id and not under_paths[i]:
                paths_top += 1
            if layer_of[nid] != "oracle" or nid == validate_id or under_validate[i]:
                continue
            if not under_finder[i]:
                check_self += own
            elif nid in enum_ids or under_enum[i]:
                fallback_self += own
                if not under_enum[i]:
                    fallback_calls += 1
                    fallback_max_n = max(fallback_max_n, self.size.get(i, 0))

        def c(name):
            return calls[nid_of[name]] if name in nid_of else 0

        def s(name, table=self_s):
            return table[nid_of[name]] if name in nid_of else 0.0

        ops = len(set(op[:upto]) - {-1})
        sub_id = nid_of.get("graphs.induced_subgraph", -1)
        out = {f"{lay}.self_s": layer_self[lay] for lay in self.layers}
        for name in (
            "graphs.connectivity_cut",
            "graphs.induced_subgraph",
            "graphs.blocks",
            "graphs.contract",
            "graphs.disjoint_paths",
            "graphs.fan",
            "graphs.Graph.__post_init__",
            "finder.main_theorem",
            "finder.three_connected_pair",
            "finder.two_paths_diff_two",
            "finder.stabilize_even_cycle",
            "finder.pair_from_disjoint_odd_even",
            "finder.pair_from_two_disjoint_odd",
            "finder.pair_from_shared_vertex",
            "oracle.validate",
            "generators.canonical_columns",
        ):
            out[f"{name}.calls"] = c(name)
            out[f"{name}.self_s"] = s(name)
        out.update(
            {
                "graphs.connectivity_cut.total_s": s("graphs.connectivity_cut", total_s),
                "graphs.components.calls": c("graphs.components"),
                "graphs.induced_subgraph.vertices_out": sum(
                    v
                    for i, v in self.size.items()
                    if i < upto and op[i] >= 0 and self.name[i] == sub_id
                ),
                "graphs.shortest_odd_cycle.self_s": s("graphs.shortest_odd_cycle"),
                "graphs.is_bipartite.self_s": s("graphs.is_bipartite"),
                "finder.two_paths_diff_two.calls_per_op": (
                    c("finder.two_paths_diff_two") / paths_top if paths_top else 0.0
                ),
                "oracle.validate.calls_per_op": c("oracle.validate") / ops if ops else 0.0,
                "oracle.fallback.calls": fallback_calls,
                "oracle.fallback.self_s": fallback_self,
                "oracle.fallback.max_n": fallback_max_n,
                "oracle.simple_cycles.yielded": self.yielded["oracle.simple_cycles"],
                "oracle.check.self_s": check_self,
                "codecs.decode_graph6.calls": c("codecs.decode_graph6"),
                "codecs.encode_graph6.calls": c("codecs.encode_graph6"),
                "trace.ops_s": ops_s,
                "bench.self_s": ops_s - sum(layer_self.values()),
            }
        )
        return {name: _per_round(name, value, rounds) for name, value in out.items()}


def _per_round(name: str, value, rounds: int) -> tuple:
    if name.endswith(("_per_op", ".max_n")):
        return value, "calls/op" if name.endswith("_per_op") else "vertices"
    if name.endswith("_s"):
        return value / rounds, "s"
    count = value / rounds
    return (int(count) if count.is_integer() else count), "count"
