"""Per-layer spans and counters, recorded from outside the package.

Each listed function is wrapped in the module that defines it, and the
wrapper is also bound in every package module that imported the name, so
calls from one layer into another are caught.  Methods are wrapped on their
class.  A span records its name, start, end and the span that caused it;
spans stay in memory and are written out when the run ends.  Self time is a
span's duration minus the time its child spans cover, and it is kept as the
run goes, so counter bookkeeping done after a call is charged to no span.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (layer module, attribute path): the span is named "<module>.<path>", except
# that LinearChange.__init__ is named after the class.
SPANS = [
    ("poly", "parse"), ("poly", "substitute"), ("poly", "LinearChange.__init__"),
    ("linalg", "rref"), ("linalg", "kernel_basis"), ("linalg", "inverse"),
    ("linalg", "solve"), ("linalg", "RowSpan.insert"), ("linalg", "RowSpan.canonical_rows"),
    ("apolar", "catalecticant"), ("apolar", "apolar_hilbert"), ("apolar", "apolar_ideal"),
    ("apolar", "essential_variables"),
    ("ideals", "hilbert_function"), ("ideals", "ideal_colon"), ("ideals", "ideal_equal"),
    ("ideals", "ideal_contains"), ("ideals", "graded_basis"),
    ("cubics", "classify"), ("cubics", "normalize_tangent_product"),
    ("cubics", "decompose_type_c"), ("cubics", "decompose_type_c_normal"),
    ("cubics", "decompose_binary"), ("cubics", "verify_decomposition"),
    ("cubics", "WaringDecomposition.compose"), ("cubics", "WaringDecomposition.expand"),
    ("certificates", "rank_report"), ("certificates", "avoidance_lower_bound"),
    ("certificates", "colon_refinement"), ("certificates", "tangent_plane_certificate"),
    ("cli", "main"),
]
OP = "bench.op"


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.removesuffix('.__init__')}"


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Counters:
    """Counters read from the arguments and return values of wrapped calls."""

    def __init__(self):
        self.rref_cells = 0
        self.rowspan_max_bits = 0
        self.catalecticant_cells = 0
        self.substitute_max_bits = 0
        self.normalize_found = 0
        self.witness_max_bits = 0

    def hooks(self) -> dict:
        return {
            "linalg.rref": self._rref,
            "linalg.RowSpan.insert": self._insert,
            "apolar.catalecticant": self._catalecticant,
            "poly.substitute": self._substitute,
            "cubics.normalize_tangent_product": self._normalize,
            "certificates.rank_report": self._report,
        }

    def _rref(self, args, result):
        rows = args[0]
        self.rref_cells += len(rows) * (len(rows[0]) if rows else 0)

    def _insert(self, args, result):
        if result:
            self.rowspan_max_bits = max(self.rowspan_max_bits,
                                        max(abs(v).bit_length() for v in result.values()))

    def _catalecticant(self, args, result):
        self.catalecticant_cells += len(result.row_monomials) * len(result.col_monomials)

    def _substitute(self, args, result):
        self.substitute_max_bits = max(self.substitute_max_bits,
                                       max((_bits(c) for c in result.terms.values()), default=0))

    def _normalize(self, args, result):
        self.normalize_found += 1

    def _report(self, args, result):
        if result.witness is not None:
            bits = [_bits(c) for c, _ in result.witness.terms]
            bits += [_bits(v) for _, f in result.witness.terms for v in f.coeffs]
            self.witness_max_bits = max([self.witness_max_bits] + bits)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = [span_name(m, p) for m, p in SPANS] + [OP]
        self.op_index = len(self.names) - 1
        self.calls = [0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.counters = Counters()
        # span records, one entry per span, in order of entry
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [[-1, 0.0]]  # [span id, child time] of the open spans
        self.op_time = 0.0
        self.op_covered = 0.0
        self._patches = self._build_patches()

    # -- wrapping -----------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        hooks = self.counters.hooks()
        modules = self._modules()
        patches = []
        for k, (mod_name, path) in enumerate(SPANS):
            owner = getattr(self.package, mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(k, original, hooks.get(self.names[k]))
            patches.append((owner, attr, original, wrapper))
            if not cls_path:
                patches.extend((mod, attr, original, wrapper) for mod in modules
                               if mod is not owner and mod.__dict__.get(attr) is original)
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, k, fn, hook):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, calls, self_time = self.stack, self.calls, self.self_time

        def wrapper(*args, **kwargs):
            outer = stack[-1]
            sid = len(name)
            name.append(k)
            parent.append(outer[0])
            start.append(0.0)
            end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid], end[sid] = t0, t1
                calls[k] += 1
                self_time[k] += t1 - t0 - frame[1]
                outer[1] += t1 - t0
            if hook is not None:
                hook(args, result)
                outer[1] += perf_counter() - t1
            return result

        return wrapper

    # -- the bench's own top-level span ---------------------------------------

    def run_op(self, call):
        """Run one timed operation as a top-level span."""
        sid = len(self.name)
        self.name.append(self.op_index)
        self.parent.append(-1)
        self.start.append(0.0)
        self.end.append(0.0)
        frame = [sid, 0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            result = call()
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[sid], self.end[sid] = t0, t1
            self.calls[self.op_index] += 1
            self.self_time[self.op_index] += t1 - t0 - frame[1]
            self.op_time += t1 - t0
            self.op_covered += frame[1]
        return result

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": list(self.name),
                       "parent": list(self.parent), "start": list(self.start),
                       "end": list(self.end)}, fh)
