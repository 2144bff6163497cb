"""Every public name in ``src/repro`` has a caller outside the tests.

A public name is a top-level function or class of a module under
``src/repro``, or a method of such a class, whose name does not start
with ``_``.  It is used when a ``Name``, ``Attribute``, import alias or
string constant (``getattr`` dispatch) equal to it appears in
``src/repro``, ``benchmarks/`` or ``examples/``, outside its own
definition and outside ``__all__`` / ``_EXPORTS`` tables.  The match is
by bare name and one pass deep, so the check is a lower bound on dead
code.  A name kept on purpose goes in ``KEPT`` with its reason.
"""

import ast

from source_tree import modules

PACKAGE = "src/repro"
CALLERS = [PACKAGE, "benchmarks", "examples"]
TABLES = {"__all__", "_EXPORTS"}
DEFS = (ast.FunctionDef, ast.ClassDef)

KEPT = {
    "degraded_reads_during_catch_up": "one of the eight shipped scenarios that tier-1 and the README run",
    "forwarded_writes_during_failover": "one of the eight shipped scenarios that tier-1 and the README run",
    "inject_all": "planted-bug drill, until source mutants replace consistency/injection.py",
    "inject_withheld_repair": "planted-bug drill, until source mutants replace consistency/injection.py",
    "ExponentialLatencyModel": "the paper's asynchronous model (no delay bound), exported by repro",
    "crash_server": "the ABD / CAS twin of LDSSystem.crash_l1",
    "encode_block": "one-stripe view the coded-byte reference tables are written against",
    "decode_block": "one-stripe view the coded-byte reference tables are written against",
    "helper_symbols_block": "one-stripe view the coded-byte reference tables are written against",
    "repair_block": "one-stripe view the coded-byte reference tables are written against",
    "bucket_count": "the quantile sketch's bounded-memory claim is tested through it",
}


def _definitions():
    for path, _, tree in modules(PACKAGE):
        for node in tree.body:
            if isinstance(node, DEFS):
                members = node.body if isinstance(node, ast.ClassDef) else []
                for each in [node] + [m for m in members if isinstance(m, DEFS)]:
                    if not each.name.startswith("_"):
                        yield each.name, path, range(each.lineno, each.end_lineno + 1)


def _references():
    found = {}
    for path, _, tree in (module for top in CALLERS for module in modules(top)):
        tables = {line for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and any(getattr(target, "id", None) in TABLES for target in node.targets)
                  for line in range(node.lineno, node.end_lineno + 1)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name.rsplit(".", 1)[-1], node.asname]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            line = getattr(node, "lineno", None)  # an alias has none before 3.10
            if line not in tables:
                for name in names:
                    found.setdefault(name, []).append((path, line))
    return found


def test_every_public_name_has_a_caller():
    definitions = list(_definitions())
    references = _references()
    unused = {name for name, path, lines in definitions
              if all(where == path and line in lines for where, line in references.get(name, ()))}
    assert len(definitions) > 500, len(definitions)
    assert sorted(unused - set(KEPT)) == [], "no caller outside tests"
    assert sorted(set(KEPT) - unused) == [], "kept, but has a caller now or is gone"
