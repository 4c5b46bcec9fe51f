"""Spans recorded by the benchmark around its calls into each layer.

Untraced runs use NullTracer, whose `call` only forwards. The traced run uses
Tracer: one span per public call (name, layer, start, end, parent, op id plus
a few tags), kept in memory and turned into per-layer metrics at the end.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time

LAYERS = ("germs", "dline", "cosets", "join")


class NullTracer:
    enabled = False

    def op(self, op_id, kind):
        return contextlib.nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Collects spans, tagged by what their results say (see `_tag`); `count`
    bumps counters whose change within each span is recorded."""

    enabled = True

    def __init__(self):
        from twoorigins.germs import NumericGerm

        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._numeric_germ = NumericGerm
        self._stack: list[int] = []
        self._op = None

    def op(self, op_id, kind):
        return _OpSpan(self, op_id, kind)

    def _push(self, name, layer):
        span = {"name": name, "layer": layer, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "op": self._op}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _pop(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        before = dict(self.counters)
        span = self._push(name, name.split(".", 1)[0])
        try:
            result = fn(*args, **kwargs)
        finally:
            self._pop(span)
            span["counts"] = {k: v - before.get(k, 0) for k, v in self.counters.items()
                              if v != before.get(k, 0)}
        span.update(self._tag(name, args, result))
        return result

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _tag(self, name, args, result) -> dict:
        """The germs path (numeric when an argument or the result is a
        NumericGerm, or when in_diff has to invert numerically), whether
        compose/invert fell back, whether a certificate passed, and how often
        glue_auto halved eps."""
        out = {}
        if name.startswith("germs."):
            numeric = any(isinstance(v, self._numeric_germ) for v in (result, *args))
            if name == "germs.in_diff":
                # in_diff inverts its argument, numerically unless both sides
                # are monomials (see germs.invert)
                h = args[0]
                numeric = numeric or not (h.neg.is_monomial() and h.pos.is_monomial())
            out["path"] = "numeric" if numeric else "exact"
            if name in ("germs.compose", "germs.invert"):
                out["fallback"] = isinstance(result, self._numeric_germ)
        elif name in ("join.collapse_chain", "join.verify_ck_numeric"):
            out["passed"] = result.passed
        elif name == "join.glue_auto":
            b, c = args[0].domain
            out["halvings"] = round(math.log2((c - b) / 8.0 / result.glue.eps))
        return out


class _OpSpan:
    def __init__(self, tracer, op_id, kind):
        self.tracer, self.op_id, self.kind = tracer, op_id, kind

    def __enter__(self):
        self.tracer._op = self.op_id
        self.span = self.tracer._push(f"op.{self.kind}", "op")
        return self

    def __exit__(self, *exc):
        self.tracer._pop(self.span)
        self.tracer._op = None
        return False


def wrap(tracer, name: str, fn):
    """fn with a tracer span named `name` around every call."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return traced


def wrap_names(tracer, module, layer: str, names) -> None:
    """Route calls to these module-level functions through tracer spans.

    Used only in traced runs, so that calls the program makes itself (the
    CLI commands calling the layer functions they imported, collapse_chain
    calling glue_auto) get spans too; the spans still live in benchmark code."""
    for name in names:
        setattr(module, name, wrap(tracer, f"{layer}.{name}", getattr(module, name)))


def _ms(spans) -> float:
    return 1000.0 * sum(s["end"] - s["start"] for s in spans)


def _counted(spans, key) -> int:
    """Callable evaluations made inside outermost layer spans; checks the
    benchmark makes after an op are outside every span and not counted."""
    return sum(s.get("counts", {}).get(key, 0) for s in spans
               if s["layer"] in LAYERS
               and (s["parent"] is None or spans[s["parent"]]["layer"] not in LAYERS))


def merge(span_lists) -> list[dict]:
    """Concatenate span lists from several processes, keeping parents local."""
    out: list[dict] = []
    for spans in span_lists:
        base = len(out)
        out.extend(dict(s, parent=None if s["parent"] is None else s["parent"] + base)
                   for s in spans)
    return out


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer totals over one traced pass, keyed by BENCHMARK.json names."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def named(*names):
        return [s for n in names for s in by.get(n, [])]

    germs = [s for s in spans if s["layer"] == "germs"]
    exact = [s for s in germs if s.get("path") == "exact"]
    numeric = [s for s in germs if s.get("path") == "numeric"]
    fb = [s for s in germs if "fallback" in s]
    diffeo = named("dline.psi", "dline.diffeo_classes", "dline.build_diffeo", "dline.compose_diffeo")
    cosets = [s for s in spans if s["layer"] == "cosets"]
    collapse = named("join.collapse_chain")
    certs = [s for s in spans if "passed" in s]
    return {
        "germs.exact_ms": _ms(exact),
        "germs.exact_calls": len(exact),
        "germs.numeric_ms": _ms(numeric),
        "germs.numeric_calls": len(numeric),
        "germs.fallback_ratio": (sum(s["fallback"] for s in fb) / len(fb)) if fb else 0.0,
        "germs.callable_evals": _counted(spans, "germs.callable_evals"),
        "dline.same_structure_ms": _ms(named("dline.same_structure")),
        "dline.same_structure_calls": len(named("dline.same_structure")),
        "dline.diffeo_ms": _ms(diffeo),
        "dline.diffeo_calls": len(diffeo),
        "cosets.group_build_ms": _ms(named("cosets.group_build")),
        "cosets.double_cosets_ms": _ms(named("cosets.double_cosets")),
        "cosets.pm_double_cosets_ms": _ms(named("cosets.pm_double_cosets")),
        "cosets.classify_ms": _ms(named("cosets.classify_wa_pair", "cosets.intersection_type")),
        "cosets.calls": len(cosets),
        "join.collapse_ms": _ms(collapse),
        "join.collapse_calls": len(collapse),
        "join.glue_ms": _ms(named("join.glue_auto")),
        "join.verify_ms": _ms(named("join.verify_ck_numeric")),
        "join.transition_evals": _counted(spans, "join.transition_evals"),
        "join.cert_pass_ratio": (sum(bool(s["passed"]) for s in certs) / len(certs)) if certs else 0.0,
        "join.glue_eps_halvings": sum(s.get("halvings", 0) for s in spans),
    }

