"""The benchmark's tracer (``bench/spans.py``) binds every entry point it
names and puts every original back."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The entry points the tracer wraps, by qualified name.
TRACED = {
    "ActionTensor.at", "Matrix.__matmul__", "Matrix.apply", "Polynomial.__mul__",
    "Polynomial.substitute", "StructureTensor.product", "Vector.__init__", "_reduce", "_rref",
    "check_algebra", "check_matched_pair", "check_morphism", "check_relative_rbo",
    "check_representation", "generate_constraints", "induced_algebra",
    "induced_representation", "main", "matched_sum", "parse", "scan_identity",
    "scan_operator_identity", "semidirect_product", "serialize", "solve", "solve_linear",
    "verify_solution",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_entry_point_and_restores_the_originals():
    tracer = load_spans().Tracer()
    tracer.install()  # an AttributeError here names an entry point that is gone
    sites = tracer.sites
    assert {original.__qualname__ for _, _, original, _ in sites} == TRACED
    try:
        tracer.enable(True)
        assert all(getattr(owner, attr) is wrapper for owner, attr, _, wrapper in sites)
    finally:
        tracer.enable(False)
    assert all(getattr(owner, attr) is original for owner, attr, original, _ in sites)
