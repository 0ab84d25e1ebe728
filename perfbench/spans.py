"""Span recording around qkdlab's layer functions, for the traced run.

Each function in ``WRAPPED`` is replaced, under the module attribute its
callers look it up by, with a wrapper that records a span (name, start, end,
parent) in memory.  The wrapped function gets the same arguments and its
caller the same return value, so a traced run writes the same bytes as an
untraced one.  Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc

import numpy as np

# (module attribute the caller looks up, span name).  The span name is
# "<layer>.<function>"; the layer is the module that defines the function.
WRAPPED = (
    ("qkdlab.cli.main", "cli.main"),
    ("qkdlab.cli.cmd_session", "cli.cmd_session"),
    ("qkdlab.cli.cmd_tomo", "cli.cmd_tomo"),
    ("qkdlab.cli.run_session", "protocol.run_session"),
    ("qkdlab.cli.records_to_csv", "detection.records_to_csv"),
    ("qkdlab.cli.transcript_to_dict", "protocol.transcript_to_dict"),
    ("qkdlab.protocol.simulate_dwell_stream", "detection.simulate_dwell_stream"),
    ("qkdlab.protocol.sift", "protocol.sift"),
    ("qkdlab.protocol.estimate_qber", "protocol.estimate_qber"),
    ("qkdlab.protocol.reconcile", "protocol.reconcile"),
    ("qkdlab.protocol.privacy_amplify", "protocol.privacy_amplify"),
    ("qkdlab.otp.bits_to_hex", "otp.bits_to_hex"),
    ("qkdlab.cli.simulate_counts", "tomography.simulate_counts"),
    ("qkdlab.cli.run_tomography", "tomography.run_tomography"),
    ("qkdlab.tomography.reconstruct", "tomography.reconstruct"),
    ("qkdlab.tomography.bootstrap_metrics", "tomography.bootstrap_metrics"),
    ("qkdlab.tomography.tangle", "tomography.tangle"),
    ("qkdlab.tomography.von_neumann", "tomography.von_neumann"),
    ("qkdlab.qmath.nearest_physical", "qmath.nearest_physical"),
    ("qkdlab.qmath.is_density", "qmath.is_density"),
)

# Spans whose arguments and return value are kept for the counts below.
KEPT = {"protocol.run_session", "detection.simulate_dwell_stream", "protocol.sift",
        "protocol.estimate_qber", "protocol.reconcile", "protocol.privacy_amplify",
        "tomography.bootstrap_metrics"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.absent: list[str] = []   # wrapped functions that no longer exist
        self.pa_peak_alloc: list[int] = []
        self._calls: dict[str, list] = {}
        self._signatures: dict[str, inspect.Signature] = {}
        self._stack = [-1]

    def install(self):
        for target, name in WRAPPED:
            module_name, attr = target.rsplit(".", 1)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._signatures[name] = inspect.signature(fn)
            setattr(module, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        calls = self._calls.setdefault(name, []) if name in KEPT else None
        track_alloc = name == "protocol.privacy_amplify"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            if track_alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if track_alloc:
                    self.pa_peak_alloc.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if calls is not None:
                calls.append((args, kwargs, result))
            return result

        return wrapper

    def _arg(self, name, param):
        args, kwargs, _ = self._calls[name][0]
        bound = self._signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[param]

    def _result(self, name):
        return self._calls[name][0][2]

    def _called(self, name):
        return bool(self._calls.get(name))

    def summary(self) -> dict:
        """Per-span self time, total time and call count, and the counts
        taken from the kept calls' arguments and return values."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_s, total_s, calls = {}, {}, {}
        for (name, start, end, _), inner in zip(self.spans, child_s):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1

        counts, unavailable = {}, {}
        for metric, derive in self._derivations():
            try:
                counts[metric] = derive()
            except Exception as exc:  # reported per metric, never fatal
                unavailable[metric] = f"{type(exc).__name__}: {exc}"
        return {"self_s": self_s, "total_s": total_s, "calls": calls,
                "counts": counts, "unavailable": unavailable, "absent": self.absent,
                "pa_peak_alloc_bytes": max(self.pa_peak_alloc, default=0)}

    def _derivations(self):
        """(metric, function) pairs; a layer that did not run counts zero."""
        def if_called(name, fn):
            return lambda: fn() if self._called(name) else 0

        dwell, pa, rec = ("detection.simulate_dwell_stream",
                          "protocol.privacy_amplify", "protocol.reconcile")
        return (
            ("intervals", if_called(dwell, lambda: int(self._arg(dwell, "n_intervals")))),
            ("kept", if_called(dwell, lambda: sum(1 for r in self._result(dwell) if r.kept))),
            ("sifted_bits", if_called("protocol.sift",
                                      lambda: len(self._result("protocol.sift")[0]))),
            ("disclosed_bits", if_called("protocol.estimate_qber",
                                         lambda: len(self._result("protocol.estimate_qber")[3]))),
            ("leaked_bits", if_called(rec, lambda: int(self._result(rec)[1]))),
            ("residual_errors", if_called(rec, lambda: int(np.count_nonzero(
                np.asarray(self._arg(rec, "alice_bits")) != self._result(rec)[0])))),
            ("pa_in_bits", if_called(pa, lambda: len(self._arg(pa, "key_bits")))),
            ("pa_out_bits", if_called(pa, lambda: len(self._result(pa)))),
            ("aborted", if_called("protocol.run_session",
                                  lambda: bool(self._result("protocol.run_session").aborted))),
            ("replicas", if_called("tomography.bootstrap_metrics", lambda: int(
                self._arg("tomography.bootstrap_metrics", "replicas")))),
            ("clamp_events", if_called("tomography.bootstrap_metrics", lambda: int(
                self._result("tomography.bootstrap_metrics").clamp_events))),
        )
