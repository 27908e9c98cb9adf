"""Per-layer tracing from outside the library.

While a :class:`Tracer` is installed, each layer's public functions are
replaced by timing wrappers in every rinorms module namespace that holds
them (``from .x import y`` copies a name into the importing module, so
wrapping only the defining module would miss most calls).  Leaving the
``with`` block restores the originals.

A wrapped call opens a span with a name, start, end, parent span and the
current item id; spans stay in memory until :meth:`Tracer.write_spans`.  The
hot leaves, the ``stepfn`` kernels and ``lorentz_norm``, run up to millions
of times per pass, so they are kept as a count and a total (plus call times
for the kernels' medians) instead of one span per call.  Self time is a
call's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import rinorms
from rinorms import cli, harness, hardy, interp, lorentz, stepfn
from rinorms.stepfn import StepFunction

BUCKETS = ("small", "1e3", "1e4", "1e5")

# metric name -> (owner, attribute); owners are modules or the StepFunction class
TRACED = {
    "stepfn.call": (StepFunction, "__call__"),
    "stepfn.construct": (StepFunction, "__post_init__"),
    "stepfn.rearrange": (StepFunction, "rearrange"),
    "stepfn.weighted_power_integral": (stepfn, "weighted_power_integral"),
    "lorentz.lorentz_norm": (lorentz, "lorentz_norm"),
    "hardy.hardy_upper": (hardy, "hardy_upper"),
    "hardy.hardy_lower": (hardy, "hardy_lower"),
    "hardy.envelope_norm": (hardy, "envelope_norm"),
    "interp.k_upper_oracle": (interp, "k_upper_oracle"),
    "interp.k_exact_l1_linf": (interp, "k_exact_l1_linf"),
    "interp.holmstedt_k": (interp, "holmstedt_k"),
    "interp.intersection_norm": (interp, "intersection_norm"),
    "interp.functor_norm": (interp, "functor_norm"),
    "harness.generate_corpus": (harness, "generate_corpus"),
    "harness.default_check_reports": (harness, "default_check_reports"),
    "harness.verify_hardy_pointwise": (harness, "verify_hardy_pointwise"),
    "harness.verify_hardy_equivalence": (harness, "verify_hardy_equivalence"),
    "harness.verify_interpolation_identity": (harness, "verify_interpolation_identity"),
    "harness.verify_k_properties": (harness, "verify_k_properties"),
    "harness.reports_to_csv": (harness, "reports_to_csv"),
    "cli.main": (cli, "main"),
}
HOT = {
    "stepfn.call",
    "stepfn.construct",
    "stepfn.rearrange",
    "stepfn.weighted_power_integral",
    "lorentz.lorentz_norm",
}
# layers reported with calls, self time and per-bucket median call time
KERNELS = (
    "stepfn.rearrange",
    "stepfn.weighted_power_integral",
    "lorentz.lorentz_norm",
    "hardy.hardy_upper",
    "hardy.hardy_lower",
    "hardy.envelope_norm",
    "interp.k_upper_oracle",
    "interp.k_exact_l1_linf",
    "interp.holmstedt_k",
    "interp.intersection_norm",
    "interp.functor_norm",
)
MODULES = (rinorms, stepfn, lorentz, hardy, interp, harness, cli)


def bucket_of(pieces: int) -> str:
    """Size class of a function: up to 12 pieces, else the nearest decade 1e3-1e5."""
    if pieces <= 12:
        return "small"
    if pieces < 3163:
        return "1e3"
    if pieces < 31623:
        return "1e4"
    return "1e5"


class Tracer:
    """Installs the wrappers and accumulates spans, counts and self times."""

    def __init__(self):
        self.item = None
        self.bucket = "small"
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)  # (name, bucket) -> call seconds
        self.spans = []  # [name, start, end, parent, item]
        self.grid_points = 0
        self.rearrange_fast = 0
        self.rearrange_inputs = set()
        self._stack = [[0.0, -1]]  # frames: [child seconds, span index]
        self._saved = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, (owner, attr) in TRACED.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if owner is not StepFunction:
                for module in MODULES:
                    if module is not owner and getattr(module, attr, None) is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def end_item(self) -> None:
        """Drop frames left open by a call interrupted mid-bookkeeping."""
        del self._stack[1:]

    def _wrap(self, name, fn):
        stack = self._stack
        hot = name in HOT
        timed = name in KERNELS
        observe = {
            "stepfn.rearrange": self._observe_rearrange,
            "hardy.hardy_upper": self._observe_envelope,
            "hardy.hardy_lower": self._observe_envelope,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = stack[-1][1]  # a hot leaf's callees belong to the enclosing span
            if not hot:
                span = len(self.spans)
                self.spans.append([name, 0.0, 0.0, stack[-1][1], self.item])
            frame = [0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack[-1] is frame:
                    stack.pop()
                duration = end - start
                stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if not hot:
                    self.spans[span][1:3] = [start, end]
                if timed:
                    self.durations[(name, self.bucket)].append(duration)
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def _observe_rearrange(self, args, out) -> None:
        self.rearrange_fast += out is args[0]
        self.rearrange_inputs.add(hash(args[0]))

    def _observe_envelope(self, args, out) -> None:
        self.grid_points += int(out.grid.size)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        out = {}
        for name in ("stepfn.call", "stepfn.construct"):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in KERNELS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            for b in BUCKETS:
                times = self.durations.get((name, b))
                out[f"{name}.p50_us.{b}"] = statistics.median(times) * 1e6 if times else 0.0
        n = self.calls["stepfn.rearrange"]
        out["stepfn.rearrange.per_function"] = n / len(self.rearrange_inputs) if n else 0.0
        out["stepfn.rearrange.fastpath_frac"] = self.rearrange_fast / n if n else 0.0
        out["hardy.grid_points"] = self.grid_points
        out["harness.self_s"] = sum(s for k, s in self.self_s.items() if k.startswith("harness."))
        out["cli.main.self_s"] = self.self_s["cli.main"]
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,item\n")
            for name, start, end, parent, item in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{'' if item is None else item}\n")
