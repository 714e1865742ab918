"""Spans and counters around the public entry points of every homkit
module.  ``install`` makes a wrapper for each entry point and finds every
place it is bound (module attributes and class methods); ``enable``
binds the wrappers there or puts the originals back, so a run can switch
tracing on and off between operations.  Nothing under ``src/`` is edited.

A span records its name, start, end, parent and the operation it belongs
to.  Totals are folded in as each span ends, so memory stays flat:
``busy`` adds the duration of spans not nested in a span of the same name
(so recursion is not counted twice), and ``self`` adds the duration minus
the time covered by direct child spans.  The first ``KEEP`` spans are also
kept whole and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

KEEP = 50_000


def _modules():
    """Every loaded module that may hold a binding of an entry point."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "homkit" or name.startswith("homkit.")
                                  or name in ("workloads", "generators"))]


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, busy, self]
        self.counts: Counter = Counter()
        self.stack: list[list] = []  # open spans: [child time, record index]
        self.depth: Counter = Counter()
        self.records: list[list] = []
        self.sites: list[tuple] = []  # (owner, attribute, original, wrapper)
        self.op = 0

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None, before=None):
        """Span around ``fn``; ``after(result)`` and ``before(args)`` may
        add counts or replace the arguments."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, depth, records = self.stack, self.depth, self.records

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            parent = stack[-1][1] if stack else -1
            index = len(records) if len(records) < KEEP else -1
            if index >= 0:
                records.append([self.op, name, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                took = end - start
                totals[0] += 1
                if depth[name] == 0:
                    totals[1] += took
                totals[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if index >= 0:
                    records[index][2:4] = [start, end]
            if after is not None:
                after(result)
            return result
        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] += 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation -----------------------------------------------------

    def patch_function(self, module, attr: str, make) -> None:
        """Bind the wrapper of ``module.attr`` wherever the same object is
        bound."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in _modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.sites.append((mod, key, original, wrapper))

    def patch_method(self, cls, attr: str, make) -> None:
        original = getattr(cls, attr)
        self.sites.append((cls, attr, original, make(original)))

    def enable(self, on: bool) -> None:
        """Bind the wrappers (``on``) or the original entry points."""
        for owner, attr, original, wrapper in self.sites:
            setattr(owner, attr, wrapper if on else original)

    def install(self) -> None:
        """Make every wrapper and find where it goes; ``enable(True)``
        binds them."""
        import homkit.algebra as algebra
        import homkit.cli as cli
        import homkit.dsl as dsl
        import homkit.linalg as linalg
        import homkit.matched as matched
        import homkit.operators as operators
        import homkit.reporting as reporting
        import homkit.representation as representation
        import homkit.solver as solver

        counts = self.counts
        for name in ("reporting.scan.tuples", "solver.equations",
                     "solver.status.finite", "solver.status.affine_family",
                     "solver.status.residual", "dsl.parse.bytes",
                     "dsl.serialize.bytes", "cli.exit.0", "cli.exit.1", "cli.exit.2"):
            counts[name] = 0
        span = self.wrap
        fn = self.patch_function
        method = self.patch_method

        method(linalg.Vector, "__init__",
               lambda f: self.counter("linalg.vectors_built", f))
        method(linalg.Matrix, "__matmul__", lambda f: span("linalg.matmul", f))
        method(linalg.Matrix, "apply", lambda f: span("linalg.apply", f))
        fn(linalg, "solve_linear", lambda f: span("linalg.solve_linear", f))
        fn(linalg, "_rref", lambda f: span("linalg.rref", f))

        def count_tuples(args):
            name, indices, residual = args

            def counted():
                for idx in indices:
                    counts["reporting.scan.tuples"] += 1
                    yield idx
            return name, counted(), residual
        for attr in ("scan_identity", "scan_operator_identity"):
            fn(reporting, attr, lambda f: span("reporting.scan", f, before=count_tuples))

        method(algebra.StructureTensor, "product", lambda f: span("algebra.product", f))
        fn(algebra, "check_algebra", lambda f: span("algebra.check_algebra", f))
        fn(algebra, "check_morphism", lambda f: span("algebra.check_morphism", f))

        method(representation.ActionTensor, "at", lambda f: span("representation.at", f))
        for attr in ("check_representation", "semidirect_product"):
            fn(representation, attr, lambda f, a=attr: span(f"representation.{a}", f))

        for attr in ("check_relative_rbo", "induced_algebra", "induced_representation"):
            fn(operators, attr, lambda f, a=attr: span(f"operators.{a}", f))
        for attr in ("check_matched_pair", "matched_sum"):
            fn(matched, attr, lambda f, a=attr: span(f"matched.{a}", f))

        def count_equations(system):
            counts["solver.equations"] += len(system.equations)

        def count_status(sol):
            counts[f"solver.status.{sol.status}"] += 1
        fn(solver, "generate_constraints",
           lambda f: span("solver.generate", f, after=count_equations))
        fn(solver, "solve", lambda f: span("solver.solve", f, after=count_status))
        fn(solver, "verify_solution", lambda f: span("solver.verify", f))
        fn(solver, "_reduce", lambda f: self.counter("solver.reduce.calls", f))
        method(solver.Polynomial, "__mul__",
               lambda f: self.counter("solver.poly_mul.calls", f))
        method(solver.Polynomial, "substitute",
               lambda f: self.counter("solver.substitute.calls", f))

        def parse_bytes(args):
            counts["dsl.parse.bytes"] += len(args[0])
            return args

        def serialize_bytes(text):
            counts["dsl.serialize.bytes"] += len(text)
        fn(dsl, "parse", lambda f: span("dsl.parse", f, before=parse_bytes))
        fn(dsl, "serialize", lambda f: span("dsl.serialize", f, after=serialize_bytes))

        def count_exit(code):
            counts[f"cli.exit.{code}"] += 1
        fn(cli, "main", lambda f: span("cli.main", f, after=count_exit))

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.records:
                fh.write(json.dumps({"op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
