"""Spans around the public functions of each equifit module.

The wrappers are installed from outside the package: every module
attribute that is bound to a wrapped function (including names imported
with ``from .basis import design_matrix``) is rebound to the wrapper, so a
call that one layer makes into another is recorded with its parent span.
Spans are recorded only while an op is open, so the benchmark's own output
checks never show up in the trace.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
import tracemalloc

# layer -> (module, public functions the benchmark's ops reach)
LAYERS = {
    "basis": ("equifit.basis", ("parse_basis_spec", "design_matrix", "matrix_rank_estimate")),
    "fitting": ("equifit.fitting", ("assemble_primal", "fit", "objective_value")),
    "lp": ("equifit.lp", ("solve_lp",)),
    "certificates": (
        "equifit.certificates",
        ("extract_certificate", "verify_identities", "check_active_point_count", "check_two_sided"),
    ),
    "equioscillation": ("equifit.equioscillation", ("alternation_pattern",)),
    "oracle": ("equifit.oracle", ("brute_force_fit",)),
    "cli": ("equifit.cli", ("main",)),
}
# Self time of the op span itself: instance construction and whatever the
# op does between calls into the package.
OP_LAYER = "bench"
LAYER_ORDER = (OP_LAYER,) + tuple(LAYERS)

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self.layer_of = {"op": OP_LAYER}
        # Per solve_lp call: (op id, pivots, rows, computed tableau bytes).
        self.solves = []
        # The programs solved while ``keep_programs`` is set, for measuring
        # their memory once the timed ops are done.
        self.keep_programs = False
        self.programs = []
        # Per brute_force_fit call: (op id, computed witness systems).
        self.oracle_calls = []
        self._stack = []
        self._op = None
        self._patched = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Rebind every wrapped function to its span-recording wrapper."""
        hooks = {
            "solve_lp": (None, self._after_solve),
            "brute_force_fit": (self._before_oracle, None),
        }
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                label = f"{layer}.{name}"
                self.layer_of[label] = layer
                wrapper = self._wrap(label, original, *hooks.get(name, (None, None)))
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("equifit"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, label, original, before, after):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._op is None:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span = [label, clock(), 0.0, stack[-1], self._op]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if after is not None:
                    after(args, kwargs, result, exc)

        wrapper.__wrapped__ = original
        return wrapper

    def _after_solve(self, args, kwargs, solution, exc):
        lp = args[0] if args else kwargs["lp"]
        rows, variables = lp.constraint_matrix.shape
        # Dense tableau of the two-phase simplex: free variables split into
        # two columns, one slack per row, one artificial column when some
        # right-hand side is negative, and the right-hand side itself.
        free = sum(1 for kind in lp.variable_kinds if kind == "free")
        columns = variables + free + rows + int((lp.rhs < 0).any()) + 1
        if solution is not None:
            pivots = solution.iterations
        else:
            pivots = getattr(exc, "iterations", None)
        self.solves.append((self._op, int(pivots or 0), rows, 8 * rows * columns))
        if self.keep_programs:
            self.programs.append(lp)

    def _before_oracle(self, args, kwargs):
        instance = args[0] if args else kwargs["instance"]
        n, m = instance.n, instance.m
        self.oracle_calls.append((self._op, math.comb(n, m + 1) * 2 ** (m + 1)))

    # -- ops --------------------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id])
        self._stack.append(len(self.spans) - 1)

    def end_op(self):
        index = self._stack.pop()
        self.spans[index][END] = time.perf_counter()
        self._op = None

    # -- analysis ---------------------------------------------------------

    def self_times(self, op_ids=None):
        """Seconds of self time per span label, and per-label call counts,
        over the spans of the given ops (all ops when None)."""
        spans = self.spans
        child_total = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_total[span[PARENT]] += span[END] - span[START]
        self_time = {}
        calls = {}
        for index, span in enumerate(spans):
            if op_ids is not None and span[OP] not in op_ids:
                continue
            label = span[NAME]
            self_time[label] = self_time.get(label, 0.0) + (
                span[END] - span[START] - child_total[index]
            )
            calls[label] = calls.get(label, 0) + 1
        return self_time, calls

    def op_walls(self):
        """Wall time of each op span, keyed by op id."""
        return {s[OP]: s[END] - s[START] for s in self.spans if s[NAME] == "op"}

    def dump(self, path):
        """Write every span as one CSV row."""
        with open(path, "w") as handle:
            handle.write("name,start,end,parent,op\n")
            for span in self.spans:
                handle.write(f"{span[0]},{span[1]!r},{span[2]!r},{span[3]},{span[4]}\n")


def solve_peak_bytes(lp):
    """tracemalloc peak of one untraced solve_lp call.

    tracemalloc slows every allocation (the Bland loops allocate a numpy
    scalar per comparison), so it never runs during a timed op.
    """
    from equifit.errors import EquifitError
    from equifit.lp import solve_lp

    tracemalloc.start()
    try:
        solve_lp(lp)
    except EquifitError:
        pass  # the solve raised in the timed run too; its peak still counts
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak
