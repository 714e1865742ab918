"""The ``homkit`` namespace loads its submodules on first use, each CLI
subcommand imports only the modules it runs, and no module imports a name it
never reads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homkit

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = str(ROOT / "demos" / "fixtures.hla")

SUBMODULES = ("algebra", "errors", "kernel", "linalg", "matched", "operators",
              "representation", "reporting", "solver")
PUBLIC = [
    "ASSOCIATIVE", "ActionTensor", "AffineFamily", "AffineSolution", "CheckReport",
    "CheckResult", "Elimination", "HomAlgebra", "KindMismatchError", "LEIBNIZ",
    "MatchedPair", "Matrix", "OperatorContext", "POISSON", "ParseError",
    "PolySystem", "Polynomial", "PreconditionError", "Representation", "ShapeError",
    "SolutionSet", "SoundnessError", "StructureTensor", "UnknownNameError", "Vector",
    "Witness", "algebra", "check_algebra", "check_hom_associative",
    "check_hom_leibniz", "check_ideal", "check_matched_pair", "check_morphism",
    "check_morphism_property", "check_multiplicative", "check_nijenhuis",
    "check_poisson_compat", "check_relative_rbo", "check_representation",
    "check_rota_baxter", "eliminate_linear", "errors", "format_lincomb", "frac",
    "generate_constraints", "graph_check", "ideal_representation",
    "induced_algebra", "induced_representation", "kernel", "kernel_basis",
    "lift_operator", "linalg", "matched", "matched_sum", "nijenhuis_deform",
    "operators", "parameter_sequence", "power_twist_representation",
    "projection_context", "pullback_representation", "regular_representation",
    "reporting", "representation", "semidirect_product", "solve", "solve_linear",
    "solve_relative_rbo", "solver", "twist_representation", "verify_solution",
    "yau_twist",
]


def test_all_lists_every_public_name_in_order():
    assert homkit.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(homkit))


def test_every_name_is_the_object_its_submodule_defines():
    modules = [importlib.import_module(f"homkit.{m}") for m in SUBMODULES]
    for name in PUBLIC:
        value = getattr(homkit, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"homkit.{name}"]
            continue
        holders = [m for m in modules if hasattr(m, name)]
        assert holders, name
        assert all(getattr(m, name) is value for m in holders), name
        ns = {}
        exec(f"from homkit import {name}", ns)
        assert ns[name] is value


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from homkit import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == PUBLIC
    assert all(ns[name] is getattr(homkit, name) for name in PUBLIC)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        homkit.no_such_name
    assert not hasattr(homkit, "no_such_name")
    with pytest.raises(ImportError):
        exec("from homkit import no_such_name", {})


# Modules no CLI process loads: importing ``dataclasses``, which imports
# ``inspect``, ``ast``, ``dis`` and ``tokenize``, adds about 10 ms to a call.
STARTUP_HEAVY = {"dataclasses", "inspect"}

# Runs the CLI in-process and prints, after its output, the homkit modules,
# ``json`` and the start-up heavy modules it left in ``sys.modules``.
PROBE = """\
import sys
from homkit.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules
                    if m.startswith("homkit.") or m in ("json", "dataclasses", "inspect")))
"""


def fresh(code: str, *argv: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter, with this
    checkout's ``src`` first on the path."""
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(*argv: str) -> tuple[int, set[str]]:
    """Exit code of one CLI call and the modules it loaded."""
    code, *modules = fresh(PROBE, *argv).splitlines()[-1].split()
    return int(code), set(modules)


def test_import_homkit_loads_no_submodule():
    code = "import sys, homkit; print(*sorted(m for m in sys.modules if 'homkit' in m))"
    assert fresh(code).split() == ["homkit"]


@pytest.mark.parametrize("argv", [
    ("check", FIXTURES, "A2leib"),
    ("check-rep", FIXTURES, "A2leib", "reg"),
    ("semidirect", FIXTURES, "A2leib", "reg", "--verify"),
    ("twist", FIXTURES, "A2leib", "--by", "beta"),
], ids=lambda argv: argv[0])
def test_checks_and_light_constructions_skip_the_heavy_modules(argv):
    code, modules = loaded_by(*argv)
    assert code == 0
    assert "homkit.algebra" in modules
    assert not modules & {"homkit.solver", "homkit.matched", "homkit.operators", "json",
                          *STARTUP_HEAVY}


def test_solve_rbo_loads_the_solver_but_not_matched_pairs():
    code, modules = loaded_by("solve-rbo", FIXTURES, "A2leib")
    assert code == 0
    assert "homkit.solver" in modules
    assert not modules & {"homkit.matched", *STARTUP_HEAVY}


def test_induce_loads_the_operators_but_not_the_start_up_heavy_modules():
    code, modules = loaded_by("induce", FIXTURES, "A2leib", "--t", "T")
    assert code == 0
    assert "homkit.operators" in modules
    assert not modules & STARTUP_HEAVY


def test_import_of_the_cli_loads_no_start_up_heavy_module():
    code = "import sys, homkit.cli; print(*sorted(sys.modules))"
    assert not set(fresh(code).split()) & STARTUP_HEAVY


def unused_imports(source: str) -> list[str]:
    """The names a module imports (other than ``from __future__``) and never
    reads as a ``Name``."""
    tree, imported = ast.parse(source), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d, e\n"
    assert unused_imports(source + "d()\ne = 1\n") == ["os", "c", "e"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "homkit").glob("*.py")),
                         ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def homkit_imports(source: str) -> dict[str, set[str]]:
    """The homkit modules a module imports (``from .m import ...``,
    ``from homkit.m import ...``, ``import homkit.m``), each with the names
    it imports from that module."""
    out: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("homkit."):
                    out.setdefault(a.name.removeprefix("homkit."), set())
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module if node.level else node.module.removeprefix("homkit.")
            if node.level or module != node.module:
                out.setdefault(module, set()).update(a.name for a in node.names)
    return out


def test_homkit_imports_are_found():
    source = ("import os, homkit.solver\nfrom .linalg import a, b\n"
              "from homkit.kernel import c\nfrom os.path import d\n")
    assert homkit_imports(source) == {"solver": set(), "linalg": {"a", "b"}, "kernel": {"c"}}


# The stored form's rescale and re-key helpers, defined in ``linalg`` alone.
HELPERS = {"common_denominator", "sparse", "grouped", "transposed"}


def test_linalg_owns_the_stored_form_and_kernel_only_evaluates():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "homkit").glob("*.py")}
    imports = {name: homkit_imports(source) for name, source in sources.items()}
    assert set(imports["linalg"]) <= {"errors"}
    assert set(imports["kernel"]) <= {"linalg"}
    assert "kernel" not in imports["dsl"]
    assert {name: found for name, modules in imports.items()
            if (found := modules.get("kernel", set()) & HELPERS)} == {}

    def defined(name):
        return {n.name for n in ast.parse(sources[name]).body if isinstance(n, ast.FunctionDef)}
    assert HELPERS <= defined("linalg")
    assert not HELPERS & defined("kernel")


# Imports every homkit module, runs one check, one construction, the solver
# and a DSL round trip of each kind over six pool algebras, and prints each
# module-level list, dict or set whose identity or length changed meanwhile.
STATE_PROBE = """\
import importlib, pkgutil, sys
import homkit
modules = [homkit, *(importlib.import_module("homkit." + m.name)
                     for m in pkgutil.iter_modules(homkit.__path__))]
sys.path.insert(0, sys.argv[1])
from support import verified_algebra_pool
from homkit import (
    Matrix, check_algebra, pullback_representation, regular_representation, solve_relative_rbo,
)
from homkit.dsl import DocAlgebra, DocMap, DocRepresentation, Document, parse, serialize


def state():
    return {f"{m.__name__}.{name}": (id(v), len(v)) for m in modules
            for name, v in vars(m).items()
            if not name.startswith("__") and isinstance(v, (list, dict, set))}


before, kinds = state(), set()
for alg in verified_algebra_pool()[:6]:
    rep, kinds = regular_representation(alg), kinds | {alg.kind}
    assert check_algebra(alg).passed
    pullback_representation(Matrix.identity(alg.dim), alg, alg)
    solve_relative_rbo(alg, rep)
    doc = Document([DocAlgebra("A", alg), DocRepresentation("R", "A", rep),
                    DocMap("f", "A", "A", alg.alpha)])
    assert parse(serialize(doc)) == doc
after = state()
assert len(kinds) == 3 and len(before) > 10, (kinds, before)
print(*sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k)))
"""


def test_no_module_level_container_changes_while_homkit_runs():
    """State held between calls cannot come back unnoticed: no module-level
    container of homkit changes identity or length across its calls."""
    assert fresh(STATE_PROBE, str(ROOT / "tests")).split() == []
