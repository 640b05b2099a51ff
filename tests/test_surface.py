"""Every function, class and module-level constant in the library is read in the library.

A name that only tests reach is surface the library does not need, so it
goes, with its tests; a constant nothing reads, such as a retired limit or
cap, goes too.  The check is static: it parses ``src/loopspace`` and counts
a name as used when a module other than ``__init__`` (whose imports and
``__all__`` only export) reads it, as a bare name or as an attribute,
outside the name's own definition.  Names are matched by spelling, not by
owner.  Dunder names are exempt: the interpreter reads them.  The names
kept without a reader are listed below, each with its reason, and an entry
fails once its reason no longer holds.
"""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

import loopspace
import loopspace.cli  # noqa: F401  layer_table reads it; the package does not import it

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

PAPER = "a named specialization of the paper's loop series, checked by acceptance criteria"
TRACED = "wrapped by name by the benchmark's tracer, bench/tracing.py"

#: Names with no caller in the library, and why each stays.
UNCALLED = {
    "bott_samelson_series": PAPER,
    "bousfield_curtis_series": PAPER,
    "normalized": TRACED,
    "evaluate": TRACED,
    "fat_diagonal_betti": TRACED,
    "smash_power_betti": TRACED,
    # RationalGF reduces through gfcore._cancel, which poly_gcd calls.
    "poly_gcd": "exported in loopspace.__all__, and " + TRACED,
}


def _definitions(tree):
    """(name, node) for each def and class, and each module-level constant, of a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def _library_census():
    """(defined, called): the library's non-dunder def, class and constant
    names, and those read somewhere in the library outside their own definition."""
    modules = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "loopspace").glob("*.py"))
        if path.name != "__init__.py"
    ]
    definitions = []  # (module index, name, node)
    reads = defaultdict(list)  # name -> [(module index, line)]
    for index, tree in enumerate(modules):
        definitions += [
            (index, name, node)
            for name, node in _definitions(tree)
            if not (name.startswith("__") and name.endswith("__"))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id].append((index, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr].append((index, node.lineno))
    called = {
        name
        for index, name, node in definitions
        if any(
            not (where == index and node.lineno <= line <= node.end_lineno)
            for where, line in reads[name]
        )
    }
    return {name for _, name, _ in definitions}, called


def test_every_library_name_has_a_library_caller():
    defined, called = _library_census()
    assert sorted(defined - called - set(UNCALLED)) == []


def test_each_uncalled_name_still_has_its_reason():
    defined, called = _library_census()
    # An entry for a name that is gone or has gained a caller is stale.
    assert sorted(name for name in UNCALLED if name not in defined or name in called) == []
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {attr for _, attr, _, _ in tracing.layer_table(loopspace)}
    untraced = [name for name, reason in UNCALLED.items() if reason.endswith(TRACED) and name not in traced]
    assert untraced == []
