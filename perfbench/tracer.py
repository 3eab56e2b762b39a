"""Per-layer tracing of pgquant from outside the package.

``Tracer.install`` wraps public functions of each module.  pgquant's
modules import each other by name (``from .algebra import multiply``), so a
wrapper replaces the function under every name that refers to it, in every
loaded pgquant module, and on the class for methods.  Spanned layers get a
span per call: name, start, end, parent span and the operation it belongs
to.  A span's self time is its duration minus the time its child spans
cover.  Functions that run 10^4 to 10^5 times per operation are only
counted.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (layer name, module, attribute, kind).  kind "span" times and counts,
# "count" only counts, "product" is a span that also counts term pairs in
# and terms out.
LAYERS = [
    ("algebra.multiply", "algebra", "multiply", "product"),
    ("algebra.canonicalize_q", "algebra", "canonicalize_q", "count"),
    ("algebra.conjugate", "algebra", "ParaPoly.conjugate", "span"),
    ("algebra.multiply_prescription", "algebra", "multiply_prescription", "span"),
    ("algebra.berezin_prescription_product", "algebra", "berezin_prescription_product", "span"),
    ("quantization.quantize", "quantization", "quantize", "span"),
    ("quantization.FockOperator.power", "quantization", "FockOperator.power", "count"),
    ("quantization.verify_relations", "quantization", "verify_relations", "span"),
    ("quantization.check_ordering_products", "quantization", "check_ordering_products", "span"),
    ("quantization.check_mixed_quantization", "quantization", "check_mixed_quantization", "span"),
    ("quantization.check_kfermionic", "quantization", "check_kfermionic", "span"),
    ("quantization.hermiticity_residual", "quantization", "hermiticity_residual", "span"),
    ("quantization.resolution_of_unity", "quantization", "resolution_of_unity", "span"),
    ("symbols.upper_symbol", "symbols", "upper_symbol", "span"),
    ("symbols.moyal_star", "symbols", "moyal_star", "span"),
    ("symbols.round_trip_residuals", "symbols", "round_trip_residuals", "span"),
    ("qnum.qnumber", "qnum", "qnumber", "count"),
    ("qnum.qfactorial", "qnum", "qfactorial", "count"),
    ("cli.main", "cli", "main", "span"),
]

# The per-layer metrics reported for each phase, as (layer, field).
REPORTED = [
    ("algebra.multiply", "calls"),
    ("algebra.multiply", "self_ms"),
    ("algebra.multiply", "term_pairs"),
    ("algebra.multiply", "terms_out"),
    ("algebra.canonicalize_q", "calls"),
    ("algebra.conjugate", "calls"),
    ("algebra.conjugate", "self_ms"),
    ("algebra.multiply_prescription", "calls"),
    ("algebra.multiply_prescription", "self_ms"),
    ("algebra.berezin_prescription_product", "calls"),
    ("algebra.berezin_prescription_product", "self_ms"),
    ("quantization.quantize", "calls"),
    ("quantization.quantize", "self_ms"),
    ("quantization.FockOperator.power", "calls"),
    ("quantization.verify_relations", "self_ms"),
    ("quantization.check_ordering_products", "self_ms"),
    ("quantization.check_mixed_quantization", "self_ms"),
    ("quantization.check_kfermionic", "self_ms"),
    ("quantization.hermiticity_residual", "self_ms"),
    ("quantization.resolution_of_unity", "self_ms"),
    ("symbols.upper_symbol", "calls"),
    ("symbols.upper_symbol", "self_ms"),
    ("symbols.moyal_star", "self_ms"),
    ("symbols.round_trip_residuals", "self_ms"),
    ("qnum.qnumber", "calls"),
    ("qnum.qfactorial", "calls"),
    ("cli.main", "self_ms"),
]


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = "setup"
        self.record = True  # keep spans; counts and self times are always kept
        self._stack: list[list] = []  # [span id, child seconds] per open span

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items() if name == "pgquant" or name.startswith("pgquant.")]
        for label, mod_name, attr, kind in LAYERS:
            owner = sys.modules[f"pgquant.{mod_name}"]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[fn_name]
            wrapped = self._counted(label, orig) if kind == "count" else self._spanned(label, orig, kind)
            if cls_path:
                setattr(owner, fn_name, wrapped)
                continue
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)

    def _counted(self, label, fn):
        counts = self.counts
        key = f"{label}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, label, fn, kind):
        counts, self_s, spans, stack = self.counts, self.self_s, self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[f"{label}.calls"] += 1
            if kind == "product":
                counts[f"{label}.term_pairs"] += len(args[0].terms) * len(args[1].terms)
            record = self.record
            parent = stack[-1][0] if stack else -1
            frame = [len(spans) if record else -1, 0.0]
            if record:
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self_s[label] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                if record:
                    spans[frame[0]] = (self.op, label, parent, t0, t1)
            if kind == "product":
                counts[f"{label}.terms_out"] += len(out.terms)
            return out

        return wrapper

    def snapshot(self) -> dict:
        """Current totals of every reported metric: counts, and self time in ms."""
        out = {}
        for label, field in REPORTED:
            if field == "self_ms":
                out[(label, field)] = self.self_s[label] * 1e3
            else:
                out[(label, field)] = self.counts[f"{label}.{field}"]
        return out

    def write(self, path: Path) -> None:
        """Spans as ``[op, layer, parent span index, start s, end s]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["op", "layer", "parent", "start_s", "end_s"], "spans": self.spans}, fh)
