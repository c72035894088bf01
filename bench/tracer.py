"""Per-layer tracing of one CLI command, installed from outside the program.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
names the program looks up at call time: the names imported into
``convpow.report`` and ``convpow.cli``, ``MeasureSpec.build``,
``convpow.spectral.integrate``, the closure ``phi_interpolator`` returns,
``convpow.maximal.fft_convolve``, and ``numpy.fft.rfft`` / ``irfft``.  A
name the program no longer has is skipped and its metrics read 0, so the
trace keeps working when a later change removes a function.

The wrappers of the layers' public functions record spans (name, start,
end, parent span, thread) in a record owned by the calling thread, so the
report's worker threads never share a list.  A span opened on a worker
thread with no open span of its own takes as parent the innermost open span
of the thread that created the tracer (the report function waiting on the
pool).  Spans stay in memory until the end of the run.  Self time of a span
is its duration minus the union of its children's intervals; a metric sums
the self times of its spans, so spans running at once on the report's two
threads can add up to more than the wall time.

Two kinds of call are timed beside the layers instead of as child spans,
so their time stays inside the self time of the layer that made them:
``fft_convolve`` (a measure kernel the maximal layer drives step by step)
and numpy.fft.  Their seconds are summed over threads and can exceed the
wall time when the report's two threads overlap.  The hot per-call counts
(phi_fn calls, integrand evaluations) use ``itertools.count``, whose
``next`` runs in C under the interpreter lock, so no count is lost.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import convpow.cli
import convpow.maximal
import convpow.report
import convpow.spectral
import convpow.zoo

# span name -> names in convpow.report whose calls it covers
REPORT_SPANS = {
    "spectral.profile": ("SpectralProfile",),
    "spectral.angular_ratio": ("angular_ratio_sup",),
    "spectral.gaussian_decay": ("gaussian_decay_rate",),
    "spectral.phi_properties": ("phi_property_report",),
    "spectral.component_ratios": ("component_ratio_report",),
    "spectral.majorant_fit": ("majorant_fit",),
    "spectral.envelope_integrals": ("envelope_integrals",),
    "spectral.aperiodicity_check": ("transform_aperiodicity_check",),
    "measure.moments": ("expectation", "moment"),
    "measure.aperiodic": ("is_strictly_aperiodic",),
    "tails.growth": ("partial_second_moment_curve", "fit_growth_curve"),
    "tails.lipschitz": ("lipschitz_exponent_estimate",),
    "kernels.kernel_table": ("kernel_table",),
    "kernels.pointwise_fit": ("pointwise_bound_fit",),
    "kernels.small_n_fit": ("small_n_regime_check",),
    "kernels.smoothness_fit": ("smoothness_difference_fit",),
    "kernels.oscillation_fit": ("oscillation_kernel_fit",),
    "maximal.maximal_function": ("maximal_function",),
    "maximal.weak_type_curve": ("weak_type_curve",),
}
# span name -> names in convpow.cli
CLI_SPANS = {
    "report": ("analyze_report", "verify_bounds_report", "maximal_report"),
    "report.validate": ("validate_report",),
}
CLI_SPAN = "cli"

# timed spans reported as "<span>_s"; the two outermost layers as "<layer>.self_s"
TIME_METRICS = {name: f"{name}_s" for name in (*REPORT_SPANS, "zoo.build",
                                                "quadrature.integrate",
                                                "report.validate")}
TIME_METRICS["report"] = "report.self_s"
TIME_METRICS[CLI_SPAN] = "cli.self_s"

COUNT_METRICS = (
    "spectral.phi_fn.calls",
    "quadrature.integrate.calls",
    "quadrature.integrand.evals",
    "kernels.kernel_table.cells",
    "kernels.kernel_table.fft_size",
    "kernels.difference_scan.samples",
    "maximal.maximal_function.calls",
    "maximal.steps",
    "measure.fft_convolve.calls",
    "numpy_fft.calls",
    "numpy_fft.points",
)


class _ThreadRecord:
    """Spans, counts and the open-span stack of one thread."""

    def __init__(self):
        self.thread = threading.current_thread().name
        self.stack = []             # ids of open spans, innermost last
        self.spans = []             # (id, name, start, end, parent)
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)   # calls timed beside the layers
        self.fft_max = 0            # largest transform length since reset


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records = []
        self._call_counters = []    # (name, itertools.count)
        self._next_id = 0
        self._origin = self._record()

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "record", None)
        if rec is None:
            rec = _ThreadRecord()
            self._local.record = rec
            with self._lock:
                self._records.append(rec)
        return rec

    def count(self, name: str, amount: int = 1) -> None:
        self._record().counts[name] += amount

    def _call_counter(self, name: str):
        counter = itertools.count()
        with self._lock:
            self._call_counters.append((name, counter))
        return counter

    @contextmanager
    def span(self, name: str):
        rec = self._record()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        # slicing copies atomically, so a concurrent pop cannot raise here
        parent = (rec.stack or self._origin.stack[-1:] or [None])[-1]
        rec.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            rec.stack.pop()
            rec.spans.append((span_id, name, start, end, parent))

    # -- wrappers ---------------------------------------------------------------
    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _fft(self, fn, inverse: bool):
        @functools.wraps(fn)
        def wrapper(a, n=None, *args, **kwargs):
            start = time.perf_counter()
            result = fn(a, n, *args, **kwargs)
            elapsed = time.perf_counter() - start
            # transform length computed from the arguments, as numpy defines it
            length = int(n) if n is not None else (
                2 * (np.shape(a)[-1] - 1) if inverse else np.shape(a)[-1])
            rec = self._record()
            rec.counts["numpy_fft.calls"] += 1
            rec.counts["numpy_fft.points"] += length
            rec.seconds["numpy_fft_s"] += elapsed
            rec.fft_max = max(rec.fft_max, length)
            return result
        return wrapper

    def _timed_beside(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            rec = self._record()
            rec.seconds[f"{name}_s"] += time.perf_counter() - start
            rec.counts[f"{name}.calls"] += 1
            return result
        return wrapper

    def _kernel_table(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._record()
            outer_max, rec.fft_max = rec.fft_max, 0
            try:
                with self.span("kernels.kernel_table"):
                    table = fn(*args, **kwargs)
                counts = rec.counts
                counts["kernels.kernel_table.fft_size"] = max(
                    counts["kernels.kernel_table.fft_size"], rec.fft_max)
                counts["kernels.kernel_table.cells"] += int(np.size(table.values))
            finally:
                rec.fft_max = max(outer_max, rec.fft_max)
            return table
        return wrapper

    def _smoothness_samples(self, fits, *args, **kwargs):
        self.count("kernels.difference_scan.samples",
                   fits.restricted.sample_count + fits.global_holder.sample_count)

    def _maximal_steps(self, signature):
        def after(result, *args, **kwargs):
            n_max = int(signature.bind(*args, **kwargs).arguments["n_max"])
            rec = self._record()
            rec.counts["maximal.maximal_function.calls"] += 1
            rec.counts["maximal.steps"] += n_max
            rec.counts["maximal.depth"] = max(rec.counts["maximal.depth"], n_max)
        return after

    def _integrate(self, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            evals = self._call_counter("quadrature.integrand.evals")

            def integrand(t):
                next(evals)
                return f(t)
            self.count("quadrature.integrate.calls")
            with self.span("quadrature.integrate"):
                return fn(integrand, *args, **kwargs)
        return wrapper

    def _phi_interpolator(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phi_fn = fn(*args, **kwargs)
            calls = self._call_counter("spectral.phi_fn.calls")

            def counted(t):
                next(calls)
                return phi_fn(t)
            return counted
        return wrapper

    def _replacements(self):
        report = convpow.report
        after = {
            "smoothness_difference_fit": self._smoothness_samples,
        }
        if hasattr(report, "maximal_function"):
            after["maximal_function"] = self._maximal_steps(
                inspect.signature(report.maximal_function))
        for span_name, names in REPORT_SPANS.items():
            for name in names:
                if not hasattr(report, name):
                    continue
                fn = getattr(report, name)
                if name == "kernel_table":
                    yield report, name, self._kernel_table(fn)
                else:
                    yield report, name, self._spanned(span_name, fn, after.get(name))
        for span_name, names in CLI_SPANS.items():
            for name in names:
                if hasattr(convpow.cli, name):
                    yield convpow.cli, name, self._spanned(span_name, getattr(convpow.cli, name))
        if hasattr(report, "phi_interpolator"):
            yield report, "phi_interpolator", self._phi_interpolator(report.phi_interpolator)
        spec_cls = convpow.zoo.MeasureSpec
        yield spec_cls, "build", self._spanned("zoo.build", spec_cls.build)
        if hasattr(convpow.spectral, "integrate"):
            yield convpow.spectral, "integrate", self._integrate(convpow.spectral.integrate)
        if hasattr(convpow.maximal, "fft_convolve"):
            yield convpow.maximal, "fft_convolve", self._timed_beside(
                "measure.fft_convolve", convpow.maximal.fft_convolve)
        yield np.fft, "rfft", self._fft(np.fft.rfft, inverse=False)
        yield np.fft, "irfft", self._fft(np.fft.irfft, inverse=True)

    @contextmanager
    def installed(self):
        """Wrap the program's call-time names; restore them on exit."""
        saved = []
        try:
            for owner, name, wrapper in list(self._replacements()):
                saved.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # -- results ----------------------------------------------------------------
    def spans(self) -> list:
        out = []
        for rec in self._records:
            out.extend({"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                        "parent": s[4], "thread": rec.thread} for s in rec.spans)
        return sorted(out, key=lambda s: s["start"])

    def counts(self) -> dict:
        total = defaultdict(int)
        with self._lock:
            drained, self._call_counters = self._call_counters, []
        for name, counter in drained:
            self._origin.counts[name] += next(counter)
        for rec in self._records:
            for name, value in rec.counts.items():
                if name in ("kernels.kernel_table.fft_size", "maximal.depth"):
                    total[name] = max(total[name], value)
                else:
                    total[name] += value
        return total

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, in seconds and counts."""
        spans = self.spans()
        children = defaultdict(list)
        for s in spans:
            children[s["parent"]].append(s)
        seconds = dict.fromkeys(TIME_METRICS.values(), 0.0)
        overlap = 0.0
        for s in spans:
            kids = [(max(k["start"], s["start"]), min(k["end"], s["end"]))
                    for k in children[s["id"]]]
            covered = _union_length(kids)
            seconds[TIME_METRICS[s["name"]]] += (s["end"] - s["start"]) - covered
            if s["name"] == "report":
                overlap += sum(b - a for a, b in kids) - covered
        counts = self.counts()
        out = dict(seconds)
        out.update({name: counts[name] for name in COUNT_METRICS})
        for name in ("measure.fft_convolve_s", "numpy_fft_s"):
            out[name] = sum(rec.seconds[name] for rec in self._records)
        out["report.parallel_overlap_s"] = overlap
        steps = counts["maximal.steps"]
        # distinct depths over steps run: each call recomputes depths 1..n_max
        out["maximal.useful_step_ratio"] = counts["maximal.depth"] / steps if steps else 0.0
        return out


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
