"""Spans and counters recorded around the riskfuse layers' public functions.

The tracer replaces module attributes (and every alias of them inside the
``riskfuse`` package) with wrappers, so the program's own code stays
untouched.  Spans are kept in memory and written as JSONL when the unit
ends.  A layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) pairs wrapped with a span.  ``Class.method`` wraps a
# class attribute.  The membership kernel ``forward_batch`` is left out on
# purpose: it runs inside every ``rmse`` call and is timed by the micro
# kernels instead, where a span would cost more than the call.
TRACED = (
    ("dataset", "load_dataset"),
    ("dataset", "FeatureMapping.fit"),
    ("dematel", "aggregate_responses"),
    ("dematel", "evaluate"),
    ("anfis", "init_fis"),
    ("anfis", "subtractive_clustering"),
    ("anfis", "fit_consequents_least_squares"),
    ("anfis", "apply_parameter_scaling"),
    ("anfis", "rmse"),
    ("anfis", "mape"),
    ("anfis", "forward"),
    ("anfis", "model_to_dict"),
    ("ecsa", "optimize"),
    ("topsis", "evaluate"),
    ("topsis", "weighted_if_matrix"),
    ("topsis", "lift_crisp_weights"),
    ("topsis", "tied_groups"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "prepare_samples"),
    ("pipeline", "split_train_test"),
    ("pipeline", "cv_folds"),
    ("pipeline", "tune_anfis_with_ecsa"),
    ("pipeline", "potential_scores"),
    ("pipeline", "aggregate_risk"),
    ("reporting", "emit_report"),
)

ROOT = "bench.unit"


def _new_diagnostics(before, after, prefix: str) -> bool:
    """True when ``after`` gained a diagnostic starting with ``prefix``."""
    return any(d.startswith(prefix) for d in after.diagnostics[len(before.diagnostics):])


class Tracer:
    """Span stack plus event counters for one unit of work."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: Counter = Counter()
        self._stack = [0]
        self._next_id = 1

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result) -> None:
        """Numerical-event counters, read from the call and its result."""
        if name == "anfis.fit_consequents_least_squares":
            if _new_diagnostics(args[0], result, "rank-deficient"):
                self.counters["anfis.fit_consequents_least_squares.rank_deficient"] += 1
        elif name == "anfis.apply_parameter_scaling":
            if _new_diagnostics(args[0], result, "clamped"):
                self.counters["anfis.apply_parameter_scaling.clamped"] += 1
        elif name == "ecsa.optimize":
            history = result.fitness_history
            improving = sum(b < a for a, b in zip(history, history[1:]))
            self.counters["ecsa.optimize.improving_iters"] += improving
            self.counters["ecsa.optimize.iterations"] += len(history) - 1

    def _counting_optimize(self, optimize):
        """Count objective evaluations and objective errors of each search."""

        @functools.wraps(optimize)
        def wrapper(objective, *args, **kwargs):
            def counted(x):
                self.counters["ecsa.optimize.evaluations"] += 1
                try:
                    return objective(x)
                except Exception:
                    self.counters["ecsa.optimize.objective_errors"] += 1
                    raise

            return optimize(counted, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function and each alias the package holds."""
        package = [m for n, m in sys.modules.items() if n == "riskfuse" or n.startswith("riskfuse.")]
        for module_name, attr in TRACED:
            module = sys.modules[f"riskfuse.{module_name}"]
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, fn_name)
            name = f"{module_name}.{attr}"
            if owner_name:  # a classmethod: rebind on the class
                wrapped = classmethod(self.span(name, original.__func__))
                setattr(owner, fn_name, wrapped)
                continue
            wrapped = self.span(name, original)
            if name == "ecsa.optimize":
                wrapped = self._counting_optimize(wrapped)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def root(self, start: float, end: float) -> None:
        """Close the unit's root span; top-level layer spans are its children."""
        self.spans.append((0, -1, ROOT, start, end))

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
            handle.write(json.dumps({"run": self.run_id, "counters": dict(self.counters)}) + "\n")


def summarize(path) -> dict:
    """Per-layer numbers of one unit from its JSONL trace.

    Returns self seconds and call counts per span name, the counters, and
    coverage: the share of the root span's wall time that its direct
    children cover.
    """
    spans, counters = [], {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
            else:
                spans.append(record)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        child_time[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    root = next(s for s in spans if s["name"] == ROOT)
    for s in spans:
        if s is root:
            continue
        self_s[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        calls[s["name"]] += 1
    root_s = root["end"] - root["start"]
    coverage = child_time[root["id"]] / root_s if root_s > 0 else math.nan
    return {"self_s": dict(self_s), "calls": dict(calls), "counters": counters,
            "coverage": coverage}
