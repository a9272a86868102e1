"""In-memory spans around the program's public functions.

A span is named `<layer>.<function>` after the package module that defines
the function (`oracle.spmp_solve`).  It is recorded by replacing the function
at every name the package holds it under: the package's modules are scanned
for attributes that are the very function object (so `trainer.spmp_solve`,
imported from `oracle`, is traced too), calls between modules are seen, and
the program is not changed.  A task method such as `tasks.decode` is traced
on every class of `tasks` that defines it; a click command such as
`cli.bench` is traced through its callback.  A span name that matches no
function of the package is an error, never a layer that reads 0.

Spans keep a link to the span that was open when they started; a layer's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
from collections import defaultdict
import numpy as np

import maxminsp
from hostspeed import clock

# oracle.spmp_solve spans are also counted by the span that called them
_SOLVE_ROLES = {"trainer.gbcfw_train": "block", "trainer.dual_gap": "certify"}
_FIELDS = ("calls", "s", "self_s", "rows", "us_per_call")


def _rows(args, kwargs):
    V = args[0] if args else kwargs["V"]
    return int(np.atleast_2d(V).shape[0])


# spans that also count the rows of their first argument
_ROW_COUNTERS = {"oracle.spmp_solve_batch_simplex": _rows}


def span_of(metric: str) -> str:
    """The traced function behind a per-layer metric `<span>[.<role>].<field>`."""
    span, field = metric.rsplit(".", 1)
    if field not in _FIELDS:
        raise LookupError(f"per-layer metric {metric}: unknown field {field!r}")
    layer, _, rest = span.partition(".")
    function = rest.split(".")[0]
    if rest not in (function, *(f"{function}.{role}" for role in _SOLVE_ROLES.values())):
        raise LookupError(f"per-layer metric {metric}: unknown span {span!r}")
    return f"{layer}.{function}"


def _modules() -> list:
    found = [maxminsp]
    for info in pkgutil.iter_modules(maxminsp.__path__):
        if not info.name.startswith("_"):
            found.append(importlib.import_module(f"maxminsp.{info.name}"))
    return found


def targets(spans) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, row counter) for every name a span's function has."""
    modules = _modules()
    out = []
    for span in sorted(set(spans)):
        layer, attr = span.split(".")
        home = next((m for m in modules if m.__name__ == f"maxminsp.{layer}"), None)
        if home is None:
            raise LookupError(f"span {span}: the package has no module {layer}")
        original = vars(home).get(attr)
        if original is None:
            # a method, traced on every class of the layer that defines it
            owners = [(cls, attr) for cls in vars(home).values()
                      if isinstance(cls, type) and cls.__module__ == home.__name__ and attr in vars(cls)]
        elif callable(getattr(original, "callback", None)):
            owners = [(original, "callback")]
        else:
            owners = [(m, name) for m in modules for name, value in vars(m).items() if value is original]
        if not owners:
            raise LookupError(f"span {span}: no function {attr} in maxminsp.{layer}")
        out += [(owner, name, span, _ROW_COUNTERS.get(span)) for owner, name in owners]
    return out


class Tracer:
    """Records (name, start, end, parent index, rows) for each traced call."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, rows=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                spans[idx] = (name, t0, t1, parent, rows(args, kwargs) if rows else 0)

        return traced

    @contextlib.contextmanager
    def installed(self, spans):
        """Trace the named spans' functions while the block runs; restore them after."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, rows in targets(spans):
                stack.enter_context(patched(owner, attr, self.wrap(name, getattr(owner, attr), rows)))
            yield self


@contextlib.contextmanager
def patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def aggregate(spans: list) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, rows.

    `oracle.spmp_solve` is also counted as `.block` under
    `trainer.gbcfw_train` and as `.certify` under `trainer.dual_gap`.
    """
    child_time = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
    for i, (name, t0, t1, parent, rows) in enumerate(spans):
        keys = [name]
        if name == "oracle.spmp_solve" and parent >= 0 and spans[parent][0] in _SOLVE_ROLES:
            keys.append(f"{name}.{_SOLVE_ROLES[spans[parent][0]]}")
        for key in keys:
            a = agg[key]
            a["calls"] += 1
            a["s"] += t1 - t0
            a["self_s"] += t1 - t0 - child_time[i]
            a["rows"] += rows
    return dict(agg)
