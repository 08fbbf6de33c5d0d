"""Spans around the library's layer entry points, recorded from outside.

The benchmark's traced run installs a :class:`Tracer`, which replaces
each public layer entry point with a wrapper that records one span per
call: name, layer, start, end, the enclosing span on the same thread,
and the request being served.  Names bound at import time are wrapped
where they are bound — the Sinkhorn kernels inside ``engine.restarts``,
``engine.batched``, ``engine.mixed`` and ``engine.partial``, for
example — so the library itself carries no tracing code.  Spans stay
in memory until :meth:`Tracer.write` dumps them at the end of the run.

An entry point missing from the tree (renamed or deleted by a later
change) is skipped and listed in :attr:`Tracer.missing`; its layer's
counters then read zero.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict


def _sinkhorn_stats(args, kwargs, out) -> dict:
    """One balanced projection: iterations, cap hit, bytes computed."""
    n, m = args[0].shape
    max_iter = kwargs.get("max_iter", 50)
    return _projections(
        [out.n_iterations], [out.converged], max_iter, n * m * 8
    )


def _sinkhorn_batched_stats(args, kwargs, out) -> dict:
    """A stacked projection: one record per slice."""
    _, n, m = args[0].shape
    max_iter = kwargs.get("max_iter", 50)
    return _projections(
        [r.n_iterations for r in out], [r.converged for r in out],
        max_iter, n * m * 8,
    )


def _sinkhorn_workspace_stats(args, kwargs, out) -> dict:
    """The workspace kernel reports one iteration count for the stack.

    A slice frozen early did fewer iterations than that count, so the
    iterations recorded here are an upper bound for converged slices.
    """
    workspace, slices = args[0], int(args[1])
    max_iter = kwargs.get("max_iter", 50)
    tol = kwargs.get("tol", 0.0)
    iterations, errors, _ = out
    converged = [tol > 0 and float(err) < tol for err in errors[:slices]]
    _, n, m = workspace.log_kernel.shape
    return _projections(
        [iterations] * slices, converged, max_iter,
        n * m * workspace.dtype.itemsize,
    )


def _projections(iterations, converged, max_iter, matrix_bytes) -> dict:
    # bytes are computed from the array sizes, not measured: the exp
    # pass touches the kernel about three times, then every iteration
    # streams it through two matrix-vector products
    return {
        "projections": len(iterations),
        "inner_iters": int(sum(iterations)),
        "cap_hits": sum(
            1 for its, ok in zip(iterations, converged)
            if not ok and its >= max_iter
        ),
        "bytes_computed": sum(matrix_bytes * (2 * its + 3) for its in iterations),
    }


#: (module, attribute path, layer, span name, result extractor)
ENTRY_POINTS = [
    ("repro.engine.pipeline", "prepare_problem", "plan", "plan.prepare", None),
    ("repro.serve.service", "prepare_problem", "plan", "plan.prepare", None),
    ("repro.engine.planning", "PlanCache.bases_for", "plan", "plan.bases_for", None),
    ("repro.engine.planning", "build_bases", "plan", "plan.build_bases", None),
    ("repro.serve.service", "solve_coalesced", "solve", "solve.coalesced", None),
    ("repro.engine.restarts", "sinkhorn_log_kernel_fast", "ot.sinkhorn",
     "ot.sinkhorn.serial", _sinkhorn_stats),
    ("repro.engine.partial", "sinkhorn_log_kernel_fast", "ot.sinkhorn",
     "ot.sinkhorn.serial", _sinkhorn_stats),
    ("repro.engine.batched", "sinkhorn_log_kernel_fast_batched", "ot.sinkhorn",
     "ot.sinkhorn.batched", _sinkhorn_batched_stats),
    ("repro.engine.mixed", "sinkhorn_log_kernel_fast_workspace", "ot.sinkhorn",
     "ot.sinkhorn.workspace", _sinkhorn_workspace_stats),
    ("repro.engine.partial", "sinkhorn_unbalanced_log_kernel", "ot.unbalanced",
     "ot.unbalanced", _sinkhorn_stats),
    ("repro.engine.pipeline", "decode_plan", "decode", "decode.plan", None),
    ("repro.engine.decode", "Decoder.decode", "decode", "decode.decoder", None),
    ("repro.engine.pipeline", "evaluate_alignment", "evaluate", "evaluate", None),
    ("repro.serve.service", "evaluate_alignment", "evaluate", "evaluate", None),
    ("repro.scale.aligner", "kway_partition", "scale", "scale.partition", None),
    ("repro.scale.aligner", "assign_target", "scale", "scale.partition", None),
    ("repro.scale.aligner", "run_blocks", "scale", "scale.blocks", None),
    ("repro.scale.aligner", "repair_plan", "scale", "scale.repair", None),
]


class Tracer:
    """In-memory span recorder over wrapped layer entry points."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.request: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every entry point, plus each solver backend's ``solve``."""
        for module_name, path, layer, name, extract in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                self.wrap(owner, attr, layer, name, extract)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
        from repro.engine import available_backends, get_backend

        for backend in available_backends():
            cls = type(get_backend(backend))
            if "solve" in vars(cls):
                self.wrap(cls, "solve", "solve", f"solve.{backend}", None)
        return self

    def uninstall(self) -> None:
        """Put every original entry point back, newest patch first."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def wrap(self, owner, attr: str, layer: str, name: str, extract) -> None:
        owned = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = {
                "id": next(tracer._ids),
                "name": name,
                "layer": layer,
                "parent": stack[-1]["id"] if stack else None,
                "thread": threading.get_ident(),
                "request": tracer.request,
                "start": time.perf_counter(),
            }
            stack.append(span)
            try:
                out = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if extract is not None:
                # a method's self is not part of the kernel signature
                call_args = args[1:] if isinstance(owner, type) else args
                span.update(extract(call_args, kwargs, out))
            return out

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, owned))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def layer_totals(self) -> dict[str, dict]:
        """Per layer: outermost-span count and busy time, and self time.

        ``busy_s`` sums the spans of a layer that no span of the same
        layer encloses, so a nested call is not counted twice.
        ``self_s`` is each span's duration minus the time its direct
        children cover, summed over the layer.
        """
        by_id = {span["id"]: span for span in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            duration = span["end"] - span["start"]
            entry = totals[span["layer"]]
            entry["self_s"] += duration - child_time[span["id"]]
            if not self._nested_in_own_layer(span, by_id):
                entry["calls"] += 1
                entry["busy_s"] += duration
        return dict(totals)

    @staticmethod
    def _nested_in_own_layer(span: dict, by_id: dict) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["layer"] == span["layer"]:
                return True
            parent = by_id.get(parent["parent"])
        return False

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def kernel_totals(self, layer: str) -> dict:
        """Summed projection counters of one Sinkhorn layer."""
        spans = [s for s in self.spans if s["layer"] == layer]
        projections = sum(s.get("projections", 0) for s in spans)
        return {
            "calls": len(spans),
            "busy_s": sum(s["end"] - s["start"] for s in spans),
            "projections": projections,
            "inner_iters": sum(s.get("inner_iters", 0) for s in spans),
            "cap_hit_frac": (
                sum(s.get("cap_hits", 0) for s in spans) / projections
                if projections else 0.0
            ),
            "bytes_computed": sum(s.get("bytes_computed", 0) for s in spans),
        }

    def plan_cache(self) -> dict:
        """Plan-cache lookups that needed no basis build, and builds."""
        by_parent: dict[int, int] = defaultdict(int)
        builds = self.named("plan.build_bases")
        for span in builds:
            if span["parent"] is not None:
                by_parent[span["parent"]] += 1
        lookups = self.named("plan.bases_for")
        hits = sum(1 for span in lookups if not by_parent[span["id"]])
        return {
            "lookups": len(lookups),
            "hit_rate": hits / len(lookups) if lookups else 0.0,
            "builds": len(builds),
            "build_s": sum(s["end"] - s["start"] for s in builds),
        }

    def write(self, path) -> None:
        """Dump the spans (times relative to the first span) as JSON."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        rows = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"missing": self.missing, "spans": rows}, handle)
