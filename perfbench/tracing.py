"""Per-layer tracing from outside the program.

`install` wraps every public module-level function of the layer modules
(including `lru_cache` wrappers) and puts each wrapper wherever a caller
looks the name up: the defining module, every module that imported the name
with `from ... import`, and every function default argument that captured it
(as `cochain.cohomology_dims` captures `rank_fn=rank`).

Each call records a span (id, parent id, job, name, start, end) in memory,
and aggregates calls, total time and self time (span time minus the time of
child spans).  A few functions also record counts: matrix cells and nonzeros,
grid candidates and accepted operators, and how many calls repeat arguments
already seen in the pass.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("linalg", "algebra", "operators", "cochain", "deformation", "extensions", "bundles", "cli")

# Helpers called once per vector entry or per basis pair.  A wrapper costs
# about a microsecond, several times their own cost, so tracing them would
# distort every other number; their time stays in their callers' self time.
UNTRACED = {
    "linalg": {"frac", "format_rational", "parse_rational", "vector", "zero_vector", "unit_vector",
               "vec_add", "vec_sub", "vec_scale", "is_zero_vector"},
    "algebra": {"bilinear_eval", "bilinear_tensor", "zero_bilinear_tensor", "bilinear_tensor_is_zero"},
    "cochain": {"all_tuples", "space_dim", "nla_space_dim"},
}

# Functions whose calls are checked for arguments already seen in the pass.
REPEAT_TRACKED = {"cochain.delta_matrix", "cochain.phi_matrix"}


def _nnz(m) -> int:
    return sum(1 for row in m.data for v in row if v)


def _count_matrix_arg(stat, bound, result):
    m = bound.args[0]
    stat["cells"] += m.rows * m.cols
    stat["nnz"] += _nnz(m)


def _count_matrix_result(stat, bound, result):
    stat["cells"] += result.rows * result.cols
    stat["nnz"] += _nnz(result)


def _count_grid(stat, bound, result):
    bound.apply_defaults()
    a = bound.arguments
    stat["candidates"] += (a["hi"] - a["lo"] + 1) ** (a["alg"].dim ** 2)
    stat["accepted"] += len(result)


# qualified name -> (counter, the counts it keeps)
COUNTERS = {
    "linalg.rank": (_count_matrix_arg, ("cells", "nnz")),
    "cochain.coboundary_matrix": (_count_matrix_result, ("cells", "nnz")),
    "operators.search_operators_grid": (_count_grid, ("candidates", "accepted")),
}


class Tracer:
    """Spans and per-function aggregates of one pass over the job list."""

    def __init__(self):
        self.stats = {}  # qualified name -> {"calls", "total_s", "self_s", ...counts}
        self.spans = []  # (id, parent id, job, name, start, end)
        self.job = -1
        self._stack = []  # [span id, child time] per open span

    def wrap(self, qualname: str, fn):
        stat = self.stats.setdefault(qualname, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        counter, keys = COUNTERS.get(qualname, (None, ()))
        stat.update(dict.fromkeys(keys, 0))
        signature = inspect.signature(fn) if counter else None
        seen = set() if qualname in REPEAT_TRACKED else None
        if seen is not None:
            stat["repeats"] = 0
        stack, spans, tracer = self._stack, self.spans, self

        def traced(*args, **kwargs):
            entered = perf_counter()
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    stat["repeats"] += 1
                else:
                    seen.add(key)
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            spans.append(None)
            stack.append(frame)
            try:
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    dt = end - start
                    stat["calls"] += 1
                    stat["total_s"] += dt
                    stat["self_s"] += dt - frame[1]
                    spans[span_id] = (span_id, parent, tracer.job, qualname, start, end)
                if counter is not None:
                    counter(stat, signature.bind(*args, **kwargs), result)
                return result
            finally:
                # The parent is charged this call's whole cost, bookkeeping
                # included, as child time: the tracer's own work counts in
                # neither the parent's self time nor this call's.
                if stack:
                    stack[-1][1] += perf_counter() - entered

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced


def install() -> Tracer:
    """Wrap the public functions of every layer module; return the tracer."""
    tracer = Tracer()
    wrappers = {}  # id(original) -> wrapper
    for layer in LAYERS:
        mod = sys.modules[f"nijleib.{layer}"]
        skip = UNTRACED.get(layer, set())
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or attr in skip or not callable(value) or isinstance(value, type):
                continue
            if getattr(value, "__module__", None) == mod.__name__:
                wrappers[id(value)] = tracer.wrap(f"{layer}.{attr}", value)
    # Rebind every name that refers to an original, in every module of the
    # package, and every default argument that captured one.
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nijleib" or mod_name.startswith("nijleib.")):
            continue
        for attr, value in list(vars(mod).items()):
            if _wrapper_for(value, wrappers) is not value:
                setattr(mod, attr, wrappers[id(value)])
            fn = _function_of(value, mod_name)
            if fn is not None:
                _patch_defaults(fn, wrappers)
    return tracer


def _wrapper_for(value, wrappers):
    w = wrappers.get(id(value))
    return w if w is not None and w.__wrapped__ is value else value


def _function_of(value, mod_name: str):
    """The plain function behind a module attribute defined in that module."""
    target = getattr(value, "__wrapped__", value)
    if inspect.isfunction(target) and target.__module__ == mod_name:
        return target
    return None


def _patch_defaults(fn, wrappers) -> None:
    if fn.__defaults__:
        fn.__defaults__ = tuple(_wrapper_for(v, wrappers) for v in fn.__defaults__)
    if fn.__kwdefaults__:
        fn.__kwdefaults__ = {k: _wrapper_for(v, wrappers) for k, v in fn.__kwdefaults__.items()}
