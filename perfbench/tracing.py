"""Per-layer tracing from outside the package.

The tracer replaces each layer's entry point with a wrapper, in the
namespace that calls it (for example ``achronal.currents.momentum_to_position``
is the name ``FastBackend.slice_fields`` looks up), so no file under ``src/``
changes.  Each wrapper records a span (name, start, end, parent) and adds
counts measured at the same boundary.  Spans stay in memory; ``layer_metrics``
turns them into per-layer self times and counts when the run ends.

Self time is a span's duration minus the time its direct children cover.
Every ``*_s`` metric below is a self time, so the layer times add up to the
traced time the spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span stack and counters; wrappers are installed by ``install``."""

    def __init__(self):
        self.spans = []          # [name, key, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def open(self, name, key):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, key, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][3] = time.perf_counter()

    @contextlib.contextmanager
    def region(self, key):
        """Span for a benchmark phase such as ``bench.solve``."""
        self.open(key, key)
        try:
            yield
        finally:
            self.close()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner, attr, key, observe=None, on_error=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(name, key)
            try:
                out = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer.close()
            if observe is not None:
                observe(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self):
        """Wrap every layer entry point listed in ``TARGETS``."""
        for owner_path, attr, key, observe, on_error in TARGETS:
            module_name, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            self.wrap(owner, attr, key, observe, on_error)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        child = [0.0] * len(self.spans)
        for name, key, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [(s[3] - s[2]) - c for s, c in zip(self.spans, child)]

    def dump(self):
        """Spans as JSON-ready records, times relative to the first span."""
        base = self.spans[0][2] if self.spans else 0.0
        return [{"name": n, "start": t0 - base, "end": t1 - base, "parent": p}
                for n, _, t0, t1, p in self.spans]


# ---------------------------------------------------------------------------
# observers: counts taken at the wrapped boundary
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _m2p(tr, args, kwargs, out):
    values = np.asarray(args[0])
    grid = _arg(args, kwargs, 1, "grid")
    refine = _arg(args, kwargs, 2, "refine", 1)
    transforms = int(np.prod(values.shape[:-3], dtype=np.int64))
    size = (grid.n * refine) ** 3
    tr.counts["grids.m2p_transforms"] += transforms
    tr.counts["grids.m2p_points"] += transforms * size
    # computed, not measured: 5 N log2 N floating-point operations per transform
    tr.counts["grids.m2p_fft_flop_computed"] += transforms * 5.0 * size * math.log2(size)


def _build(tr, args, kwargs, out):
    tr.maxima["currents.support_nodes"] = max(tr.maxima["currents.support_nodes"],
                                              len(out.support.eps))
    tr.maxima["currents.landmarks"] = max(tr.maxima["currents.landmarks"],
                                          out.meta.get("n_landmarks", 0))
    tr.maxima["currents.rank"] = max(tr.maxima["currents.rank"], out.rank)
    tr.maxima["currents.eig_residual_max"] = max(
        tr.maxima["currents.eig_residual_max"], out.meta.get("eig_residual_max", 0.0))


def _scalar(tr, args, kwargs, out):
    tr.counts["kernels.scalar_entries"] += np.size(out)


def _direct(tr, args, kwargs, out):
    spec = args[0]
    points = np.asarray(args[1]).size // 4
    nodes = int(np.count_nonzero(spec.packet.amplitudes))
    tr.counts["currents.eval_direct_points"] += points
    tr.counts["currents.eval_direct_node_points"] += nodes * points


def _probability(tr, args, kwargs, out):
    tr.maxima["localization.err_estimate_max"] = max(
        tr.maxima["localization.err_estimate_max"], out.error_estimate)


def _tail(tr, args, kwargs, out):
    tr.maxima["localization.window_tail_fraction"] = max(
        tr.maxima["localization.window_tail_fraction"], out)


def _quadrature(tr, args, kwargs, out):
    tr.counts["localization.time_slices"] += out[2]["slices"]


def _s_inverse(tr, args, kwargs, out):
    tr.counts["surfaces.s_inverse_points"] += np.asarray(args[1]).size // 3


def _inconclusive(tr, exc):
    from achronal.causal_logic import InconclusiveError
    if isinstance(exc, InconclusiveError):
        tr.counts["causal_logic.inconclusive"] += 1


def _saved(tr, args, kwargs, out):
    tr.counts["io.bytes_written"] += os.path.getsize(args[0])


# (owner "module[:Class]", attribute, metric key, observer, error hook)
TARGETS = [
    ("achronal.currents", "momentum_to_position", "grids.m2p", _m2p, None),
    ("achronal.currents:FastBackend", "slice_fields", "currents.slice_fields", None, None),
    ("achronal.currents", "build_fast", "currents.build_fast", _build, None),
    ("achronal.localization", "build_fast", "currents.build_fast", _build, None),
    ("achronal.currents", "_gmatrix_block", "currents.gmatrix_block", None, None),
    ("achronal.currents", "_apply_gmatrix", "currents.apply_gmatrix", None, None),
    ("achronal.kernels:CausalKernel", "scalar", "kernels.scalar", _scalar, None),
    ("achronal.currents", "eval_direct", "currents.eval_direct", _direct, None),
    ("achronal.currents", "covariance_pair", "currents.covariance_pair", None, None),
    ("achronal.localization", "probability", "localization.probability", _probability, None),
    ("achronal.localization", "probability_transformed", "localization.probability",
     _probability, None),
    ("achronal.localization", "_flux_quadrature", "localization.flux_quadrature",
     _quadrature, None),
    ("achronal.localization", "_window_tail_fraction", "localization.window_tail",
     _tail, None),
    ("achronal.localization", "flux_invariance_report", "localization.check", None, None),
    ("achronal.localization", "additivity_check", "localization.check", None, None),
    ("achronal.localization", "covariance_check", "localization.check", None, None),
    ("achronal.wavepacket", "make_packet", "wavepacket.make_packet", None, None),
    ("achronal.wavepacket", "apply_poincare", "wavepacket.apply_poincare", None, None),
    ("achronal.currents", "apply_poincare", "wavepacket.apply_poincare", None, None),
    ("achronal.surfaces:SurfaceTransformResult", "s_inverse", "surfaces.s_inverse",
     _s_inverse, None),
    ("achronal.surfaces:SurfaceTransformResult", "s_forward", "surfaces.s_forward",
     None, None),
    ("achronal.causal_logic", "completion_member", "causal_logic.completion_member",
     None, None),
    ("achronal.causal_logic", "_scan_witness", "causal_logic.scan_witness", None, None),
    ("achronal.causal_logic", "determinacy_member", "causal_logic.determinacy_member",
     None, _inconclusive),
    ("achronal.causal_logic", "completion_equals_determinacy_check", "causal_logic.check",
     None, None),
    ("achronal.causal_logic", "rcl_well_defined_check", "causal_logic.check", None, None),
    ("achronal.io", "save_field_slices", "io.save", _saved, None),
    ("achronal.io", "load_field_slices", "io.load", None, None),
]

# per-layer metric -> (kind, span key or counter); kinds:
#   calls: number of spans, self: summed self time, p50/p90: span durations,
#   count: summed counter, max: largest observed value
LAYER_METRICS = {
    "grids.m2p_calls": ("calls", "grids.m2p"),
    "grids.m2p_transforms": ("count", "grids.m2p_transforms"),
    "grids.m2p_points": ("count", "grids.m2p_points"),
    "grids.m2p_fft_flop_computed": ("count", "grids.m2p_fft_flop_computed"),
    "grids.m2p_s": ("self", "grids.m2p"),
    "currents.slice_fields_calls": ("calls", "currents.slice_fields"),
    "currents.slice_fields_s": ("self", "currents.slice_fields"),
    "currents.slice_fields_p50_s": ("p50", "currents.slice_fields"),
    "currents.slice_fields_p90_s": ("p90", "currents.slice_fields"),
    "currents.build_fast_calls": ("calls", "currents.build_fast"),
    "currents.build_fast_s": ("self", "currents.build_fast"),
    "currents.support_nodes": ("max", "currents.support_nodes"),
    "currents.landmarks": ("max", "currents.landmarks"),
    "currents.rank": ("max", "currents.rank"),
    "currents.eig_residual_max": ("max", "currents.eig_residual_max"),
    "currents.gmatrix_block_calls": ("calls", "currents.gmatrix_block"),
    "currents.gmatrix_block_s": ("self", "currents.gmatrix_block"),
    "currents.apply_gmatrix_calls": ("calls", "currents.apply_gmatrix"),
    "currents.apply_gmatrix_s": ("self", "currents.apply_gmatrix"),
    "kernels.scalar_calls": ("calls", "kernels.scalar"),
    "kernels.scalar_entries": ("count", "kernels.scalar_entries"),
    "kernels.scalar_s": ("self", "kernels.scalar"),
    "currents.eval_direct_calls": ("calls", "currents.eval_direct"),
    "currents.eval_direct_points": ("count", "currents.eval_direct_points"),
    "currents.eval_direct_node_points": ("count", "currents.eval_direct_node_points"),
    "currents.eval_direct_s": ("self", "currents.eval_direct"),
    "currents.covariance_pair_s": ("self", "currents.covariance_pair"),
    "localization.probability_calls": ("calls", "localization.probability"),
    "localization.probability_s": ("self", "localization.probability"),
    "localization.flux_quadrature_self_s": ("self", "localization.flux_quadrature"),
    "localization.time_slices": ("count", "localization.time_slices"),
    "localization.window_tail_fraction": ("max", "localization.window_tail_fraction"),
    "localization.err_estimate_max": ("max", "localization.err_estimate_max"),
    "localization.check_s": ("self", "localization.check"),
    "wavepacket.make_packet_s": ("self", "wavepacket.make_packet"),
    "wavepacket.apply_poincare_calls": ("calls", "wavepacket.apply_poincare"),
    "wavepacket.apply_poincare_s": ("self", "wavepacket.apply_poincare"),
    "surfaces.s_inverse_calls": ("calls", "surfaces.s_inverse"),
    "surfaces.s_inverse_points": ("count", "surfaces.s_inverse_points"),
    "surfaces.s_forward_calls": ("calls", "surfaces.s_forward"),
    "surfaces.s_inverse_s": ("self", "surfaces.s_inverse"),
    "causal_logic.completion_member_calls": ("calls", "causal_logic.completion_member"),
    "causal_logic.completion_member_s": ("self", "causal_logic.completion_member"),
    "causal_logic.scan_witness_calls": ("calls", "causal_logic.scan_witness"),
    "causal_logic.scan_witness_s": ("self", "causal_logic.scan_witness"),
    "causal_logic.determinacy_member_calls": ("calls", "causal_logic.determinacy_member"),
    "causal_logic.determinacy_member_s": ("self", "causal_logic.determinacy_member"),
    "causal_logic.inconclusive": ("count", "causal_logic.inconclusive"),
    "causal_logic.check_s": ("self", "causal_logic.check"),
    "io.save_s": ("self", "io.save"),
    "io.load_s": ("self", "io.load"),
    "io.bytes_written": ("count", "io.bytes_written"),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Aggregate spans and counters into the LAYER_METRICS values."""
    selfs = tracer.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    for span, own in zip(tracer.spans, selfs):
        key = span[1]
        calls[key] += 1
        self_s[key] += own
        durations[key].append(span[3] - span[2])
    out = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind == "calls":
            out[metric] = calls[key]
        elif kind == "self":
            out[metric] = self_s[key]
        elif kind in ("p50", "p90"):
            d = sorted(durations[key])
            out[metric] = _percentile(d, 0.5 if kind == "p50" else 0.9)
        elif kind == "count":
            out[metric] = tracer.counts[key]
        else:
            out[metric] = tracer.maxima[key]
    return out


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def unaccounted_fraction(tracer: Tracer, root_key: str = "bench.solve") -> float:
    """Share of the root span's time that no direct child span covers."""
    for idx, span in enumerate(tracer.spans):
        if span[1] == root_key:
            total = span[3] - span[2]
            covered = sum(s[3] - s[2] for s in tracer.spans if s[4] == idx)
            return (total - covered) / total if total > 0 else 0.0
    raise KeyError(root_key)


def exact_count_metrics():
    """Metric names whose values must repeat exactly at a fixed seed."""
    return sorted(m for m, (kind, _) in LAYER_METRICS.items()
                  if kind in ("calls", "count") or m in
                  ("currents.support_nodes", "currents.landmarks", "currents.rank"))
