"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark only: `Tracer.install` replaces public
detgraph functions, at every module attribute a caller looks them up by, with
wrappers that open a span, call the original and close the span.  Each span
has a name, start, end, parent span and request id; the spans stay in memory
and `save` writes them when the run ends.  A target that a later refactor
removes is skipped and records zero calls.

Self time is a span's duration minus the durations of its direct children,
so the self times of all spans in a request add up to the request's wall
time; the root span of each request is named "request" and its self time is
the time no wrapped function covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from contextlib import contextmanager

ROOT = "request"

# (span name, module, attribute); "Class.method" patches the class itself
TARGETS = (
    ("cli.main", "detgraph.cli", "main"),
    ("measures.build_kernel", "detgraph.measures", "build_kernel"),
    ("linalg.orthonormalize", "detgraph.linalg", "orthonormalize"),
    ("dpp.ProjectionKernel", "detgraph.dpp", "ProjectionKernel.__init__"),
    ("dpp.sample", "detgraph.dpp", "sample"),
    ("dpp.sample_batch", "detgraph.dpp", "sample_batch"),
    ("dpp.density", "detgraph.dpp", "density"),
    ("rng.categorical", "detgraph.rng", "categorical"),
    ("rng.stream", "detgraph.rng", "stream"),
    ("oracle.compare_measure", "detgraph.oracle", "compare_measure"),
    ("oracle.compare_polynomial", "detgraph.oracle", "compare_polynomial"),
    ("oracle.enumerate_family", "detgraph.oracle", "enumerate_family"),
    ("oracle.combinatorial_weight", "detgraph.oracle", "combinatorial_weight"),
    ("oracle.tree_sum", "detgraph.oracle", "tree_sum"),
    ("oracle.psi1_sum", "detgraph.oracle", "psi1_sum"),
    ("oracle.psi2_sum", "detgraph.oracle", "psi2_sum"),
    ("oracle.connected_poly_sum", "detgraph.oracle", "connected_poly_sum"),
    ("oracle.forest_poly_sum", "detgraph.oracle", "forest_poly_sum"),
    ("oracle.matroid_basis_sums", "detgraph.oracle", "matroid_basis_sums"),
    ("matroid.partition_functions", "detgraph.matroid", "partition_functions"),
    ("polynomials.kirchhoff_T", "detgraph.polynomials", "kirchhoff_T"),
    ("polynomials.symanzik_psi1", "detgraph.polynomials", "symanzik_psi1"),
    ("polynomials.symanzik_psi2", "detgraph.polynomials", "symanzik_psi2"),
    ("polynomials.generalized_C", "detgraph.polynomials", "generalized_C"),
    ("polynomials.generalized_A", "detgraph.polynomials", "generalized_A"),
    ("polynomials.green_height_pairing", "detgraph.polynomials", "green_height_pairing"),
    ("polynomials.torus_volume", "detgraph.polynomials", "torus_volume"),
    ("polynomials.ratio_identity_connected", "detgraph.polynomials",
     "ratio_identity_connected"),
    ("polynomials.ratio_identity_forest", "detgraph.polynomials", "ratio_identity_forest"),
    ("polynomials.stability_spot_check", "detgraph.polynomials", "stability_spot_check"),
    ("polynomials.flow_with_divergence", "detgraph.polynomials", "flow_with_divergence"),
    ("measures.integral_cycle_basis_of", "detgraph.measures", "integral_cycle_basis_of"),
)


class Tracer:
    """Span recorder with per-name aggregates, active only inside `request`."""

    def __init__(self):
        self.names = [ROOT] + [t[0] for t in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.busy_s = [0.0] * n   # outermost spans of a name only
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self._depth = [0] * n
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span index, name id, start, child time]
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []
        self.family_members = 0
        self.family_subsets = 0

    # -- spans --------------------------------------------------------------

    def _open(self, sid: int) -> None:
        idx = len(self.span_start)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_request.append(self._request)
        self.span_end.append(0.0)
        self._depth[sid] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([idx, sid, start, 0.0])

    def _close(self, failed: bool) -> None:
        end = time.perf_counter()
        idx, sid, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.calls[sid] += 1
        self.self_s[sid] += dur - child
        self._depth[sid] -= 1
        if self._depth[sid] == 0:
            self.busy_s[sid] += dur
        if failed:
            self.errors[sid] += 1
        if self._stack:
            self._stack[-1][3] += dur

    @contextmanager
    def request(self, request_id: int):
        """Root span of one request; wrapped calls record only inside it."""
        self._request = request_id
        self._open(0)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(failed)
            self._request = -1

    def _wrap(self, fn, sid: int, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request < 0:
                return fn(*args, **kwargs)
            tracer._open(sid)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(failed)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "detgraph" or name.startswith("detgraph."))]
        for sid, (_, modname, attr) in enumerate(TARGETS, start=1):
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            hook = self._family_hook(original) if attr == "enumerate_family" else None
            wrapped = self._wrap(original, sid, hook)
            if path:
                self._patch(owner, leaf, wrapped, original)
                continue
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patch(mod, key, wrapped, original)

    def _patch(self, owner, key: str, new, old) -> None:
        setattr(owner, key, new)
        self._patches.append((owner, key, old))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()

    def _family_hook(self, enumerate_family):
        """Count family members against the subsets the enumeration scans."""
        signature = inspect.signature(enumerate_family)

        def hook(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            g, k, l = a["g"], a.get("k", 0), a.get("l", 0)
            n = g.num_vertices
            size = {"connected": n - 1 + k, "forest": n - 1 - k,
                    "crsf": n, "mixed": n - 1 - k + l}[a["family"]]
            self.family_members += len(result)
            if 0 <= size <= g.num_edges:
                self.family_subsets += math.comb(g.num_edges, size)
        return hook

    # -- results ------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": self.calls[i], "busy_s": self.busy_s[i],
                       "self_s": self.self_s[i], "errors": self.errors[i]}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.span_name, np.uint16),
            parent=np.array(self.span_parent, np.int64),
            request=np.array(self.span_request, np.int64),
            start=np.array(self.span_start, np.float64),
            end=np.array(self.span_end, np.float64))
