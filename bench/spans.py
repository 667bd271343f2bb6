"""Spans around the public functions of every sphcodes module.

The tracer replaces each traced function in every module namespace that
binds it (``atlas`` imports ``kl_bound`` by name, ``__init__`` re-exports
most of the API), wraps ``__init__`` for traced classes and the class
attribute for traced methods.  Nothing under ``src/`` changes; ``restore``
puts the originals back.

A span has an id, a name, a start, an end and a parent id; each task's
spans descend from its ``cli.main`` span.  Spans are kept in memory:
every call is aggregated per (function, parent function), and calls of the
non-hot functions are also kept one by one, up to ``MAX_SPANS``.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

TRACED = (
    "geometry.orthonormal_complement",
    "geometry.project_and_normalize",
    "geometry.min_angle",
    "geometry.pairwise_cos",
    "geometry.angle_between",
    "spherical.SphericalCode",
    "spherical.merge_close_points",
    "spherical.spoil1",
    "spherical.spoil1_lambda",
    "spherical.spoil2",
    "spherical.spoil3",
    "spherical.find_balanced_line",
    "spherical.composite_spoil_up",
    "spherical.composite_spoil_down",
    "spherical.load_spherical_code",
    "spherical.dump_spherical_code",
    "bounds.kl_bound",
    "bounds.CutoffRegion.contains",
    "bounds.ControllingRegions",
    "bounds.ControllingRegions.lower_boundary",
    "bounds.simplex_code",
    "binary.embed_binary",
    "atlas.atlas_build",
    "atlas.default_seeds",
    "atlas.dump_atlas",
    "packings.enumerate_quadratic",
    "packings.theta_lattice",
    "packings.kissing_configuration",
    "packings.shell_code",
    "packings.touching_packing",
    "cli.main",
)

# Called up to millions of times per task: aggregated, never kept one by one.
HOT = frozenset({
    "geometry.orthonormal_complement",
    "geometry.project_and_normalize",
    "geometry.min_angle",
    "geometry.pairwise_cos",
    "geometry.angle_between",
    "spherical.SphericalCode",
    "bounds.kl_bound",
    "bounds.CutoffRegion.contains",
    "bounds.ControllingRegions",
    "bounds.ControllingRegions.lower_boundary",
})

MAX_SPANS = 50_000


class Tracer:
    """Patches the traced functions and records their spans."""

    def __init__(self):
        self.table: dict[tuple[str, str | None], list] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.yielded: dict[str, int] = {}
        self._stack: list[list] = []  # open frames: [name, start, child_s, id]
        self._ids = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    def _enter(self, name: str, span_id: int) -> list:
        frame = [name, perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> tuple[float, float]:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        if self._stack:
            self._stack[-1][2] += dur
        return end, dur

    def _record(self, name, parent, dur, child, error, start, end, span_id):
        key = (name, parent[0] if parent else None)
        row = self.table.setdefault(key, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        row[3] += error
        if name in HOT:
            return
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent[3] if parent else None, name,
                               start, end))
        else:
            self.dropped += 1

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                # The span covers the time spent inside the generator, slice by
                # slice; the consumer's self time excludes those slices.
                inner = fn(*args, **kwargs)
                owner = tracer._stack[-1] if tracer._stack else None
                span_id = tracer._new_id()
                busy = child = 0.0
                start = end = None
                error = 0
                try:
                    while True:
                        frame = tracer._enter(name, span_id)
                        if start is None:
                            start = frame[1]
                        try:
                            item = next(inner)
                        except StopIteration:
                            break
                        except BaseException:
                            error = 1
                            raise
                        finally:
                            end, dur = tracer._exit(frame)
                            busy += dur
                            child += frame[2]
                        tracer.yielded[name] = tracer.yielded.get(name, 0) + 1
                        yield item
                finally:
                    inner.close()
                    tracer._record(name, owner, busy, child, error, start, end,
                                   span_id)
            return traced_gen

        def traced(*args, **kwargs):
            frame = tracer._enter(name, tracer._new_id())
            error = 0
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                end, dur = tracer._exit(frame)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer._record(name, parent, dur, frame[2], error, frame[1], end,
                               frame[3])
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every function in ``TRACED`` wherever the package binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sphcodes" or n.startswith("sphcodes."))]
        for qual in TRACED:
            mod_name, attr = qual.split(".", 1)
            mod = importlib.import_module(f"sphcodes.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(qual, vars(cls)[meth]))
                continue
            obj = getattr(mod, attr)
            if isinstance(obj, type):
                self._patch(obj, "__init__", self._wrap(qual, vars(obj)["__init__"]))
                continue
            wrapper = self._wrap(qual, obj)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is obj:
                        self._patch(m, key, wrapper)
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``<module>.<function>.{calls,self_s,errors}`` for every traced name."""
        out: dict[str, tuple[float, str]] = {}
        for qual in TRACED:
            rows = [row for (name, _), row in self.table.items() if name == qual]
            out[f"{qual}.calls"] = (sum(r[0] for r in rows), "count")
            out[f"{qual}.self_s"] = (sum((r[2] for r in rows), 0.0), "s")
            out[f"{qual}.errors"] = (sum(r[3] for r in rows), "count")
        name = "packings.enumerate_quadratic"
        points = self.yielded.get(name, 0)
        busy = out[f"{name}.self_s"][0]
        out[f"{name}.points"] = (points, "count")
        out[f"{name}.points_per_s"] = (points / busy if busy > 0 else 0.0, "1/s")
        return out

    def write(self, path: Path, header: dict) -> None:
        table = [{"name": name, "parent": parent, "calls": r[0], "total_s": r[1],
                  "self_s": r[2], "errors": r[3]}
                 for (name, parent), r in sorted(self.table.items(),
                                                 key=lambda kv: -kv[1][2])]
        spans = [dict(zip(("id", "parent", "name", "start", "end"), s))
                 for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "table": table, "spans": spans,
                                    "dropped_spans": self.dropped}) + "\n")
