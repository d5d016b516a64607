"""Outside-in layer trace of the ``opuc`` package.

``Tracer.install`` replaces each layer's module-level public functions, by
attribute, in every ``opuc`` module that holds them, so calls between layers
and within a layer both pass through a wrapper.  Each wrapper records a span
(name, start, end, parent span, op) in memory.  A span's self time is its
duration minus the time covered by its child spans.  ``uninstall`` puts the
original functions back.

A few private functions are traced too, each for one named metric:
``cauchy._transform`` (one second-kind transform), and the three suite
functions of ``cli``.  ``Matrix2C`` operations are counted, not timed, because
one takes about a microsecond and a span would mostly measure itself.
"""

from __future__ import annotations

import collections
import csv
import gzip
import importlib
import inspect
import re
import sys
from time import perf_counter

import numpy as np

LAYERS = ("szego", "cauchy", "weights", "moments", "rh", "structure", "painleve")
PRIVATE = {"cauchy": ("_transform",),
           "cli": ("_suite_rh", "_suite_structure", "_suite_painleve")}
MATRIX2_OPS = ("__matmul__", "__add__", "__sub__", "__neg__", "scale", "det",
               "trace", "inv", "frobenius")
# second-kind entry points whose (function, table, n, z) repeat within an op
CAUCHY_KEYED = ("cauchy_G", "cauchy_Gstar", "cauchy_derivatives",
                "cauchy_second_derivatives", "cauchy_eval")
_QUAD_SOURCE = re.compile(r"quadrature\((\d+)\)")

OP = "op"
WRITE = "cli.write"

# per-layer metric name -> unit
PER_LAYER = {
    "szego.phi_pair.calls": "count",
    "szego.phi_pair.self_s": "s",
    "szego.phi_pair.repeat_frac": "frac",
    "szego.verblunsky.calls": "count",
    "szego.verblunsky.self_s": "s",
    "cauchy.transforms": "count",
    "cauchy.self_s": "s",
    "cauchy.repeat_frac": "frac",
    "cauchy.failed": "count",
    "weights.calls": "count",
    "weights.self_s": "s",
    "weights.node_evals": "count",
    "moments.calls": "count",
    "moments.self_s": "s",
    "moments.quad_nodes": "count",
    "moments.failed": "count",
    "rh.assemble_Y.calls": "count",
    "rh.structure_matrix.calls": "count",
    "rh.self_s": "s",
    "structure.calls": "count",
    "structure.self_s": "s",
    "structure.fd_M_evals": "count",
    "matrix2.ops": "count",
    "painleve.calls": "count",
    "painleve.self_s": "s",
    "cli.suite.rh_s": "s",
    "cli.suite.structure_s": "s",
    "cli.suite.painleve_s": "s",
    "cli.write_s": "s",
}
# metrics that must repeat exactly for the same seed
COUNTERS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "frac"))


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters of the traced ops, kept in memory until ``write``."""

    def __init__(self):
        self.names: list[str] = [OP]
        self.layers: list[str] = [OP]
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.self_s: collections.Counter = collections.Counter()
        self.total_s: collections.Counter = collections.Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._op = -1
        self._fd_depth = 0
        self._seen: set = set()
        self._patches: list[tuple] = []
        self._t0 = perf_counter()

    # -- ops ----------------------------------------------------------------

    def begin_op(self) -> None:
        self._op += 1
        self._seen = set()
        self._stack = [[self._new_id(), 0, 0.0, perf_counter()]]

    def end_op(self) -> None:
        sid, fid, child, t0 = self._stack.pop()
        t1 = perf_counter()
        self._record(sid, -1, fid, t0, t1, t1 - t0 - child, False)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _record(self, sid, parent, fid, t0, t1, self_t, raised) -> None:
        self.spans.append((sid, parent, self._op, fid, t0 - self._t0, t1 - self._t0,
                           self_t, raised))
        self.self_s[fid] += self_t
        self.total_s[fid] += t1 - t0

    # -- wrappers -----------------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.layers.append(_layer(name))
        return len(self.names) - 1

    def span(self, name: str, fn, before=None, after=None, on_result=None):
        """Wrap fn so that each call records a span named ``name``."""
        fid = self._register(name)
        layer = self.layers[fid]
        layers = self.layers
        counts = self.counts
        calls_key = name + ".calls"
        layer_calls_key = layer + ".calls"
        layer_failed_key = layer + ".failed"
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            entering = layers[parent[1]] != layer
            counts[calls_key] += 1
            if entering:
                counts[layer_calls_key] += 1
            if before is not None:
                before(args, kwargs)
            frame = [tracer._new_id(), fid, 0.0, 0.0]
            stack.append(frame)
            raised = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = perf_counter()
                stack.pop()
                parent[2] += t1 - t0
                tracer._record(frame[0], parent[0], fid, t0, t1, t1 - t0 - frame[2], raised)
                if raised and entering:
                    counts[layer_failed_key] += 1
                if after is not None:
                    after()
            if entering and on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-function hooks -------------------------------------------------

    def _hooks(self, name: str, fn) -> dict:
        pos = {p: i for i, p in enumerate(inspect.signature(fn).parameters)}

        def arg(args, kwargs, key):
            i = pos[key]
            return args[i] if i < len(args) else kwargs[key]

        def repeat(counter, key):
            self.counts[counter + ".keys"] += 1
            if key in self._seen:
                self.counts[counter + ".repeats"] += 1
            else:
                self._seen.add(key)

        if name == "szego.phi_pair":
            return {"before": lambda a, k: repeat(
                "szego.phi_pair", ("phi_pair", id(arg(a, k, "v")), arg(a, k, "n")))}
        if name.startswith("cauchy.") and name.split(".")[1] in CAUCHY_KEYED:
            return {"before": lambda a, k: repeat(
                "cauchy", (name, id(arg(a, k, "v")), arg(a, k, "n"),
                           complex(arg(a, k, "z"))))}
        if name == "weights.weight_values":
            def node_evals(a, k):
                self.counts["weights.node_evals"] += int(np.size(arg(a, k, "theta")))
            return {"before": node_evals}
        if name == "structure.structure_matrix_deriv_fd":
            def enter(a, k):
                self._fd_depth += 1

            def leave():
                self._fd_depth -= 1
            return {"before": enter, "after": leave}
        if name == "rh.structure_matrix_numeric":
            def fd_eval(a, k):
                if self._fd_depth:
                    self.counts["structure.fd_M_evals"] += 1
            return {"before": fd_eval}
        if name.startswith("moments."):
            def quad_nodes(table):
                match = _QUAD_SOURCE.fullmatch(getattr(table, "source", ""))
                if match:
                    self.counts["moments.quad_nodes"] += int(match.group(1))
            return {"on_result": quad_nodes}
        return {}

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        package = "opuc"
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets[obj] = f"{layer}.{attr}"
        for layer, attrs in PRIVATE.items():
            module = importlib.import_module(f"{package}.{layer}")
            for attr in attrs:
                if hasattr(module, attr):
                    targets[getattr(module, attr)] = f"{layer}.{attr.lstrip('_')}"
        wrapped = {fn: self.span(name, fn, **self._hooks(name, fn))
                   for fn, name in targets.items()}
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])

        matrix = importlib.import_module(f"{package}.matrix2").Matrix2C
        for attr in MATRIX2_OPS:
            self._patch(matrix, attr, self.counted("matrix2.ops", getattr(matrix, attr)))

        cli = importlib.import_module(f"{package}.cli")
        table = importlib.import_module(f"{package}.moments").MomentTable
        self._patch(table, "to_csv", self.span(WRITE, table.to_csv))
        self._patch(cli, "json", _Proxy(cli.json, dumps=self.span(WRITE, cli.json.dumps)))
        self._patch(cli, "csv", _Proxy(cli.csv, writer=self._csv_writer(cli.csv.writer)))
        return self

    def _csv_writer(self, make_writer):
        writerow = self.span(WRITE, lambda w, row: w.writerow(row))
        writerows = self.span(WRITE, lambda w, rows: w.writerows(rows))

        def writer(*args, **kwargs):
            w = make_writer(*args, **kwargs)
            return _Proxy(w, writerow=lambda row: writerow(w, row),
                          writerows=lambda rows: writerows(w, rows))
        return writer

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def _by_name(self, table: collections.Counter) -> collections.Counter:
        out = collections.Counter()
        for fid, value in table.items():
            out[self.names[fid]] += value
        return out

    def metrics(self) -> dict[str, float]:
        c = self.counts
        self_by = self._by_name(self.self_s)
        total_by = self._by_name(self.total_s)
        layer_self = collections.Counter()
        for name, value in self_by.items():
            layer_self[_layer(name)] += value

        def frac(counter):
            keys = c[counter + ".keys"]
            return c[counter + ".repeats"] / keys if keys else 0.0

        values = {
            "szego.phi_pair.calls": c["szego.phi_pair.calls"],
            "szego.phi_pair.self_s": self_by["szego.phi_pair"],
            "szego.phi_pair.repeat_frac": frac("szego.phi_pair"),
            "szego.verblunsky.calls": c["szego.verblunsky_from_moments.calls"],
            "szego.verblunsky.self_s": self_by["szego.verblunsky_from_moments"],
            "cauchy.transforms": c["cauchy.transform.calls"],
            "cauchy.self_s": layer_self["cauchy"],
            "cauchy.repeat_frac": frac("cauchy"),
            "cauchy.failed": c["cauchy.failed"],
            "weights.calls": c["weights.calls"],
            "weights.self_s": layer_self["weights"],
            "weights.node_evals": c["weights.node_evals"],
            "moments.calls": c["moments.calls"],
            "moments.self_s": layer_self["moments"],
            "moments.quad_nodes": c["moments.quad_nodes"],
            "moments.failed": c["moments.failed"],
            "rh.assemble_Y.calls": c["rh.assemble_Y.calls"],
            "rh.structure_matrix.calls": c["rh.structure_matrix_numeric.calls"],
            "rh.self_s": layer_self["rh"],
            "structure.calls": c["structure.calls"],
            "structure.self_s": layer_self["structure"],
            "structure.fd_M_evals": c["structure.fd_M_evals"],
            "matrix2.ops": c["matrix2.ops"],
            "painleve.calls": c["painleve.calls"],
            "painleve.self_s": layer_self["painleve"],
            "cli.suite.rh_s": total_by["cli.suite_rh"],
            "cli.suite.structure_s": total_by["cli.suite_structure"],
            "cli.suite.painleve_s": total_by["cli.suite_painleve"],
            "cli.write_s": total_by[WRITE],
        }
        assert values.keys() == PER_LAYER.keys()
        return values

    def top(self, limit: int = 12) -> list[tuple[str, int, float, float]]:
        """(name, calls, self seconds, total seconds) by self time."""
        calls = collections.Counter()
        for span in self.spans:
            calls[self.names[span[3]]] += 1
        self_by = self._by_name(self.self_s)
        total_by = self._by_name(self.total_s)
        ranked = sorted(self_by, key=self_by.get, reverse=True)[:limit]
        return [(n, calls[n], self_by[n], total_by[n]) for n in ranked]

    def write(self, path) -> None:
        """All spans as gzipped CSV, times in seconds from the tracer's start."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "op", "name", "start_s", "end_s",
                          "self_s", "raised"])
            for sid, parent, op, fid, t0, t1, self_t, raised in self.spans:
                out.writerow([sid, parent, op, self.names[fid], f"{t0:.7f}",
                              f"{t1:.7f}", f"{self_t:.7f}", int(raised)])


class _Proxy:
    """An object that answers with its overrides first, then with ``target``."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)
