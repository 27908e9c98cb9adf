"""The three workloads: seeded inputs, one timed pass, and the output checks.

``scan_hardy`` and ``scan_kfun`` are the seeded verification scans users run
with ``rinorms verify``; ``large_query`` is one-shot CLI queries on step
functions with 10^3-10^5 pieces.  Each workload's cost per pass is fixed by
its parameters, not by the seed: the seed changes only the values drawn.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
# called through their modules, so that the tracer's wrappers see the calls
from rinorms import cli, harness
from rinorms.hardy import DEFAULT_GRID

from oracle import Rearranged
from tracer import bucket_of

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Relative tolerance for large_query outputs: a different summation order is
# a legitimate change there, and 10^5-term float sums move by about n * eps.
REL_TOL = 1e-9
# Per-item deadline of large_query, in reference-host seconds (see
# HostSpeed).  The slowest O(n log n) query, `hardy` at 10^5 pieces, takes
# about 1.2 s, and `kfun` at 10^3 pieces, where the quadratic K-functional
# oracle dominates, about 2.3 s; at 10^4 pieces that oracle needs minutes.
DEADLINE_S = 4.0
# Time of `_calibration_loop` on a host of reference speed; see HostSpeed.
CALIBRATION_NOMINAL_S = 3.0e-3


def _calibration_loop() -> float:
    start = perf_counter()
    acc = 0.0
    for i in range(25_000):
        acc += (i * 0.5) % 3.0
    return perf_counter() - start


class HostSpeed:
    """Scale factors that turn measured seconds into reference-host seconds.

    On a shared host the speed of the whole machine drifts by tens of
    percent over seconds to minutes, as other tenants come and go.  A fixed
    pure-Python loop, run before the first unit of work and after each one,
    slows down with it.  Unit ``j`` is scaled by ``CALIBRATION_NOMINAL_S``
    over the median loop time of the ``2 * WINDOW`` runs around it: its time
    becomes what it would take on a host where the loop takes its nominal
    time.  The loop never calls rinorms.
    """

    WINDOW = 10

    def __init__(self):
        self.loops = [_calibration_loop()]

    def mark(self) -> None:
        """Call after each unit of work."""
        self.loops.append(_calibration_loop())

    def current(self) -> float:
        """Scale factor of the host as the last ``WINDOW`` loop runs saw it."""
        return CALIBRATION_NOMINAL_S / statistics.median(self.loops[-self.WINDOW :])

    def scales(self) -> list[float]:
        w, loops = self.WINDOW, self.loops
        return [
            CALIBRATION_NOMINAL_S / statistics.median(loops[max(0, j - w + 1) : j + w + 1])
            for j in range(len(loops) - 1)
        ]


@dataclass
class PassResult:
    """One timed pass.  ``seconds`` covers only the timed calls, not the checks."""

    seconds: float
    attempted: int
    failed: int = 0
    mismatches: int = 0
    exceptions: int = 0
    misses: int = 0
    check_seconds: dict = field(default_factory=dict)
    item_seconds: list = field(default_factory=list)
    item_scales: list = field(default_factory=list)
    item_outcomes: list = field(default_factory=list)


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def _report_exception(what: str) -> None:
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _load_reference(name: str, params: dict) -> dict:
    path = reference_path(name)
    if not path.exists():
        raise SystemExit(f"no reference at {path}; record one with perfbench/record.py")
    with open(path) as fh:
        ref = json.load(fh)
    if ref["params"] != params:
        raise SystemExit(f"{path} was recorded for other parameters: {ref['params']}")
    return ref


# -- scans -------------------------------------------------------------------


class _Scan:
    """A pass is ``UNITS`` independent ``verify`` runs, unit ``j`` on the
    seeded corpus ``seed * UNITS + j``; each unit is timed on its own.

    A recorded seed must reproduce every unit's CSV byte for byte (compared
    by SHA-256 prefix), which includes the known-false ``lemma10`` row
    ``v=2.0,w=1.0`` with ``pass=False``.  Any other seed must print the
    recorded (check, config) rows, fail that row (as every recorded unit
    does), pass every other row, and print the same bytes in every pass.
    """

    name = ""
    UNITS = 100
    FALSE_ROW = ("lemma10", "v=2.0,w=1.0")

    def __init__(self, seed: int, reference: dict | None = None):
        self.seed = seed
        self.reference = reference or _load_reference(self.name, self.params())
        self.recorded = self.reference["seeds"].get(str(seed))
        self.items = self.UNITS * self.unit_items
        self._first = {}

    def unit_seed(self, j: int) -> int:
        return self.seed * self.UNITS + j

    def reference_kind(self) -> str:
        return "recorded" if self.recorded is not None else "verdicts"

    def unit_csv(self, j: int, check_seconds: dict) -> str:
        """Run unit ``j`` and return its CSV, adding each check's time to ``check_seconds``."""
        reports = []
        for check, run in self.checks(j):
            start = perf_counter()
            reports += run()
            check_seconds[check] = check_seconds.get(check, 0.0) + perf_counter() - start
        return harness.reports_to_csv(reports)

    def unit_ok(self, j: int, csv_text: str) -> bool:
        digest = digest_of(csv_text)
        if self.recorded is not None:
            return digest == self.recorded[j]
        if self._first.setdefault(j, digest) != digest:
            return False
        rows = list(csv.reader(io.StringIO(csv_text)))[1:]
        return [[r[0], r[1]] for r in rows] == self.reference["configs"] and all(
            r[-1] == str((r[0], r[1]) != self.FALSE_ROW) for r in rows
        )

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult(0.0, self.items)
        speed = HostSpeed()
        for j in range(self.UNITS):
            if tracer is not None:
                tracer.item = j
            start = perf_counter()
            try:
                csv_text = self.unit_csv(j, result.check_seconds)
            except Exception:
                _report_exception(f"{self.name} unit {j}")
                csv_text = None
            seconds = perf_counter() - start
            result.seconds += seconds
            result.item_seconds.append(seconds)
            speed.mark()
            if csv_text is None:
                result.exceptions += 1
            elif not self.unit_ok(j, csv_text):
                print(f"{self.name} seed {self.seed} unit {j}: CSV differs from the reference", file=sys.stderr)
                result.mismatches += 1
        result.failed = (result.exceptions + result.mismatches) * self.unit_items
        result.item_scales = speed.scales()
        return result


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


class ScanHardy(_Scan):
    """``verify lemma10``, ``thm11`` and ``thm15`` (13 configurations); an
    item is one corpus function through one configuration."""

    name = "scan_hardy"
    CHECKS = ("lemma10", "thm11", "thm15")
    CONFIGS = 13
    SIZE = 12

    def __init__(self, seed: int, reference: dict | None = None):
        self.size = self.SIZE
        self.unit_items = self.size * self.CONFIGS
        super().__init__(seed, reference)

    def params(self) -> dict:
        return {
            "units": self.UNITS, "size": self.size, "max_pieces": 12,
            "checks": list(self.CHECKS), "grid": repr(DEFAULT_GRID),
        }

    def generate(self, workdir: Path) -> None:
        for j in range(self.UNITS):
            harness.generate_corpus(self.unit_seed(j), self.size)

    def load(self, workdir: Path) -> None:
        """``default_check_reports`` draws its own corpus: nothing to keep."""

    def warmup(self) -> None:
        self.unit_csv(0, {})

    def checks(self, j: int):
        seed = self.unit_seed(j)
        return [(c, lambda c=c: harness.default_check_reports(c, seed, self.size)) for c in self.CHECKS]


class ScanKfun(_Scan):
    """``verify kprops``, the K-functional battery; an item is one (f, g, t) triple.

    The battery's work is set by ``n_pairs``, not by the corpus size, so each
    unit's corpus has one more member than pairs: every triple gets its own f.
    Pair ``i`` is checked at the ``i % 33``-th point of the battery's t grid
    (2^-8 to 2^8), so 33 pairs cover the whole grid in every unit.
    """

    name = "scan_kfun"
    UNITS = 40
    N_PAIRS = 33

    def __init__(self, seed: int, reference: dict | None = None):
        self.n_pairs = self.N_PAIRS
        self.size = self.n_pairs + 1
        self.unit_items = self.n_pairs
        super().__init__(seed, reference)
        self.corpora = []

    def params(self) -> dict:
        return {"units": self.UNITS, "size": self.size, "max_pieces": 12, "n_pairs": self.n_pairs}

    def generate(self, workdir: Path) -> None:
        self.load(workdir)

    def load(self, workdir: Path) -> None:
        self.corpora = [harness.generate_corpus(self.unit_seed(j), self.size) for j in range(self.UNITS)]

    def warmup(self) -> None:
        self.unit_csv(0, {})

    def checks(self, j: int):
        return [("kprops", lambda: [harness.verify_k_properties(self.corpora[j], n_pairs=self.n_pairs)])]


# -- large queries -------------------------------------------------------------


class DeadlineMiss(BaseException):
    """Raised by the interval timer.  Not an Exception, so no handler in the
    library can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineMiss


@contextlib.contextmanager
def deadline(seconds: float):
    """Interrupt the main thread after ``seconds`` of wall time."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


_COUPLE = ("--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf")
QUERIES = (
    ("rearrange", ()),
    ("norm", ("--p", "2", "--q", "1")),
    ("norm", ("--p", "2", "--q", "inf")),
    ("hardy", ("--U", "1", "--W", "1", "--p", "2", "--q", "2")),
    ("functor-norm", _COUPLE + ("--p", "2", "--q", "2", "--theta", "1")),
    ("kfun", _COUPLE + ("--theta", "1")),  # --t is drawn per function
)


def _parse(kind: str, text: str) -> dict:
    if kind == "rearrange":
        d = json.loads(text)
        return {"b": np.array(d["breakpoints"], dtype=float), "v": np.array(d["values"], dtype=float), "tail": d["tail"]}
    if kind == "norm":
        return {"value": float(text)}
    if kind == "hardy":
        lines = text.splitlines()
        last = lines[-1].split(",")
        if lines[0] != "t,value,lower,upper" or last[0] != "norm_enclosure":
            raise ValueError("unexpected hardy CSV layout")
        rows = np.array(",".join(lines[1:-1]).split(","), dtype=float).reshape(-1, 4)
        return {"rows": rows, "lo": float(last[1]), "hi": float(last[2]), "width": float(last[3])}
    if kind == "functor-norm":
        lo, hi = text.split()
        return {"lo": float(lo), "hi": float(hi)}
    return {k: float(v) for k, v in (line.split() for line in text.splitlines())}


def _close(a, b, tol: float = REL_TOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    with np.errstate(invalid="ignore"):
        return bool(np.all((a == b) | (np.abs(a - b) <= tol * np.maximum(np.abs(a), np.abs(b)))))


def _encloses(lo: float, hi: float, x: float) -> bool:
    return lo * (1.0 - REL_TOL) <= x <= hi * (1.0 + REL_TOL)


def _fingerprint(kind: str, out: dict) -> list[float]:
    """The numbers the recorded reference keeps for one output."""
    if kind == "rearrange":
        return [out["b"].size, float(out["b"].sum()), float(out["v"].sum()), out["tail"]]
    if kind == "hardy":
        rows = out["rows"]
        return [rows.shape[0], float(rows[:, 0].sum()), float(rows[:, 1].sum()), out["lo"], out["hi"], out["width"]]
    return list(out.values())


def _independent_ok(kind: str, argv, out: dict, fstar: Rearranged, t: float) -> bool:
    """Check one output against the closed forms in :mod:`oracle`."""
    if kind == "rearrange":
        return out["tail"] == fstar.tail and _close(out["b"], fstar.breakpoints) and _close(out["v"], fstar.values)
    if kind == "norm":
        exact = fstar.norm_2_1() if argv[-1] == "1" else fstar.norm_2_inf()
        return _close(out["value"], exact)
    if kind == "hardy":
        rows = out["rows"]
        values_ok = _close(rows[:, 1], fstar.double_star(rows[:, 0]))
        return values_ok and _encloses(out["lo"], out["hi"], fstar.double_star_l2())
    if kind == "functor-norm":
        return _encloses(out["lo"], out["hi"], fstar.double_star_l2())
    exact = fstar.k_l1_linf(t)
    return (
        _close(out["exact"], exact)
        and abs(out["oracle_upper"] - exact) <= 1e-9 * max(1.0, exact)
        and exact * (1.0 - REL_TOL) <= out["holmstedt"] <= 2.0 * exact * (1.0 + REL_TOL)
    )


class LargeQuery:
    """CLI queries on large step functions, each under a per-item deadline.

    ``FUNCTIONS`` fixes each position's piece count and whether ``kfun`` is
    queried on it; the seed draws breakpoint widths, values, the tail level
    and ``t``.  Odd positions are already non-increasing (``rearrange``'s
    fast path), even ones shuffled; every fourth function from position 2
    has a positive tail.  ``kfun`` runs where its quadratic oracle finishes
    (10^3 pieces) and on one 10^4-piece function, where it misses the
    deadline; a miss on every larger function would only add waits.
    """

    name = "large_query"
    # (pieces, queried with kfun)
    FUNCTIONS = (
        (100_000, False), (100_000, False), (30_000, False), (30_000, False),
        (10_000, True), (10_000, False), (10_000, False), (10_000, False),
        (1_000, True), (1_000, True), (1_000, False), (1_000, False),
    )
    # pieces of the function the warm-up queries run on
    WARMUP_PIECES = 12

    def __init__(self, seed: int, reference: dict | None = None):
        self.seed = seed
        self.reference = reference or _load_reference(self.name, self.params())
        self.recorded = self.reference["seeds"].get(str(seed))
        self.functions = []  # (path, pieces, t); the warm-up function last
        self._raw = []  # (breakpoints, values, tail) arrays, for the closed forms
        self.items = [
            (i, q)
            for i, (_, with_kfun) in enumerate(self.FUNCTIONS)
            for q, (sub, _) in enumerate(QUERIES)
            if with_kfun or sub != "kfun"
        ]
        self._checked = {}  # item -> (output digest, ok, fingerprint)
        self._fstar = {}

    def params(self) -> dict:
        return {
            "functions": [list(f) for f in self.FUNCTIONS],
            "queries": [" ".join((sub,) + args) for sub, args in QUERIES],
            "deadline_s": DEADLINE_S,
            "rel_tol": REL_TOL,
        }

    def reference_kind(self) -> str:
        return "recorded+closed_form" if self.recorded is not None else "closed_form"

    def _draw(self) -> list:
        """(breakpoints, values, tail, t) of every function, the warm-up one last."""
        rng = np.random.default_rng(self.seed)
        drawn = []
        for i, n in enumerate([n for n, _ in self.FUNCTIONS] + [self.WARMUP_PIECES]):
            widths = np.exp(rng.uniform(math.log(2.0**-10), math.log(2.0**-2), n))
            values = np.exp(rng.uniform(math.log(2.0**-8), math.log(2.0**8), n))
            if i % 2:
                values = -np.sort(-values)
            tail = float(values.min() * rng.uniform(0.1, 0.9)) if i % 4 == 2 else 0.0
            t = float(2.0 ** rng.uniform(-4.0, 4.0))
            drawn.append((np.cumsum(widths), values, tail, t))
        return drawn

    def generate(self, workdir: Path) -> None:
        """Write every function as a JSON file in ``workdir``."""
        for i, (bps, values, tail, _) in enumerate(self._draw()):
            with open(workdir / f"f{i:02d}.json", "w") as fh:
                json.dump({"breakpoints": bps.tolist(), "values": values.tolist(), "tail": tail}, fh)

    def load(self, workdir: Path) -> None:
        """Find the files ``generate`` wrote, and draw the arrays again for the closed forms."""
        drawn = self._draw()
        self.functions = [(str(workdir / f"f{i:02d}.json"), d[0].size, d[3]) for i, d in enumerate(drawn)]
        self._raw = [d[:3] for d in drawn]
        self._fstar.clear()
        self._checked.clear()

    def argv(self, item) -> list[str]:
        i, q = item
        path, _, t = self.functions[i]
        sub, args = QUERIES[q]
        argv = [sub, "--input", path, *args]
        if sub == "kfun":
            argv += ["--t", repr(t)]
        return argv

    def warmup(self) -> None:
        for q in range(len(QUERIES)):
            self.run_item((len(self.FUNCTIONS), q))

    def run_item(self, item, scale: float = 1.0):
        """Run one query with a deadline of ``DEADLINE_S / scale`` wall seconds;
        returns (seconds, output or None, outcome)."""
        buf = io.StringIO()
        start = perf_counter()
        try:
            with deadline(DEADLINE_S / scale), contextlib.redirect_stdout(buf):
                cli.main(self.argv(item))
        except DeadlineMiss:
            return perf_counter() - start, None, "miss"
        except (Exception, SystemExit):
            seconds = perf_counter() - start
            _report_exception(f"{self.name} {' '.join(self.argv(item))}")
            return seconds, None, "exception"
        return perf_counter() - start, buf.getvalue(), "ok"

    def check(self, item, text: str) -> tuple[bool, list]:
        """Verdict and fingerprint of one output; identical outputs are checked once."""
        digest = digest_of(text)
        cached = self._checked.get(item)
        if cached is not None and cached[0] == digest:
            return cached[1], cached[2]
        i, q = item
        kind = QUERIES[q][0]
        if i not in self._fstar:
            self._fstar[i] = Rearranged(*self._raw[i])
        try:
            out = _parse(kind, text)
            fp = _fingerprint(kind, out)
            ok = _independent_ok(kind, QUERIES[q][1], out, self._fstar[i], self.functions[i][2])
        except (ValueError, KeyError, IndexError):
            _report_exception(f"checking {kind} output")
            ok, fp = False, None
        if ok and self.recorded is not None:
            ref = self.recorded[self.items.index(item)]
            ok = ref is None or _close(fp, ref)
        if not ok:
            print(f"{self.name} seed {self.seed}: wrong output for {' '.join(self.argv(item))}", file=sys.stderr)
        self._checked[item] = (digest, ok, fp)
        return ok, fp

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult(0.0, len(self.items))
        speed = HostSpeed()
        deadline_scales = []
        for item in self.items:
            if tracer is not None:
                tracer.item = f"{item[0]}.{item[1]}"
                tracer.bucket = bucket_of(self.functions[item[0]][1])
            deadline_scales.append(speed.current())
            seconds, text, outcome = self.run_item(item, deadline_scales[-1])
            if tracer is not None:
                tracer.end_item()
            result.seconds += seconds
            result.item_seconds.append(seconds)
            result.item_outcomes.append(outcome)
            speed.mark()
            if outcome == "miss":
                result.misses += 1
            elif outcome == "exception":
                result.exceptions += 1
            elif not self.check(item, text)[0]:
                result.mismatches += 1
        result.failed = result.misses + result.exceptions + result.mismatches
        # a miss counts as its deadline: scale its wait by the factor that set it
        result.item_scales = [
            d if outcome == "miss" else s
            for outcome, s, d in zip(result.item_outcomes, speed.scales(), deadline_scales)
        ]
        return result

    def kfun_misses(self, result: PassResult) -> int:
        return sum(
            1
            for item, outcome in zip(self.items, result.item_outcomes)
            if outcome == "miss" and QUERIES[item[1]][0] == "kfun"
        )


WORKLOADS = {w.name: w for w in (ScanHardy, ScanKfun, LargeQuery)}
