"""The determinism rules: five checks over the repo's own syntax tree.

Everything this repository proves rests on fixed-seed runs being byte
for byte identical.  Most ways to break that fail a runtime check on
the first run: the determinism tests and pinned fingerprints, the
telemetry on/off tests, the kernel's past-time ``ValueError`` and the
sanitizer.  These rules catch the bugs that pass all of them, each kept
because of a finding in this repo's history or a planted bug no runtime
check caught:

* ``ND02`` a wall-clock read;
* ``ND03`` a ``set`` iterated into an order-sensitive consumer;
* ``ND05`` a mutable default argument;
* ``RP01`` an RNG stream whose seed does not come from the root seed,
  or a live stream re-seeded;
* ``SD04`` an in-flight map of a ``cluster/`` or ``sim/`` class that
  the sanitizer cannot watch.

``src/repro``, ``examples`` and ``benchmarks`` must scan clean outright.
A deliberate exception is a comment on the flagged line (or a
``disable-file=`` comment for the module) and says why::

    wall = perf_counter()  # simlint: disable=ND02 -- host timing only

Pragmas are read from comment tokens, so pragma text in a string or a
docstring (like the line above) suppresses nothing.  A pragma without
its ``-- why`` (``E003``) or naming an unknown rule (``E002``) is itself
a finding.  Each rule's true-positive fixture under ``fixtures/`` must
produce exactly its pinned ``(rule, line, col)`` findings and its
false-positive fixture must scan clean.
"""

from __future__ import annotations

import ast
import io
import os
import re
import sys
import tokenize

import pytest

PACKAGING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "packaging")
if PACKAGING not in sys.path:
    sys.path.insert(0, PACKAGING)

from source_tree import ROOT, modules  # noqa: E402

#: A ``simlint: disable=RULE[,RULE] -- why`` (or ``disable-file=``) comment.
PRAGMA = re.compile(
    r"#\s*simlint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"(?:\s+--\s*(?P<why>.*))?"
)


def pragmas(source):
    """``(line, column, match)`` for every pragma *comment* in ``source``."""
    if "simlint" not in source:
        return
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            match = PRAGMA.search(token.string)
            if match is not None:
                yield token.start[0], token.start[1] + match.start() + 1, match


def dotted_name(node):
    """``a.b.c`` for a pure attribute chain rooted at a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_names(nodes):
    """Local names -> the dotted paths their imports bind.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from random import
    shuffle as mix`` maps ``mix`` to ``random.shuffle``.  A local variable
    that happens to be called ``random`` resolves to nothing.
    """
    names = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    names[alias.asname] = alias.name
                else:
                    # ``import numpy.random`` binds the root name only.
                    root = alias.name.split(".")[0]
                    names[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module is not None \
                and not node.level:
            # Relative imports cannot name stdlib hazards.
            for alias in node.names:
                bound = alias.asname if alias.asname is not None else alias.name
                names[bound] = f"{node.module}.{alias.name}"
    return names


def resolve(imports, node):
    """The dotted import path a call target names; None unless the chain
    is rooted at an imported name."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    canonical = imports.get(root)
    if canonical is None:
        return None
    return f"{canonical}.{rest}" if rest else canonical


# -- ND02 ----------------------------------------------------------------------

#: ``perf_counter`` is included: its one sanctioned use is wall-time
#: profiling that never feeds simulation state, under a justified pragma.
WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


def nd02(path, tree, nodes, imports):
    """Wall-clock reads: virtual time is the only clock."""
    for node in nodes:
        if isinstance(node, ast.Call):
            target = resolve(imports, node.func)
            if target in WALL_CLOCK:
                yield node, (f"{target} reads the wall clock; simulation state "
                             f"must derive from virtual time only")


# -- ND03 ----------------------------------------------------------------------

#: Set-returning set methods (the receiver must itself be a known set).
SET_COMBINATORS = {"union", "intersection", "difference",
                   "symmetric_difference", "copy"}
SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                   "MutableSet"}


def annotation_is_set(node):
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node)
    if name is None and isinstance(node, ast.Constant) \
            and isinstance(node.value, str):
        # A string annotation: its head before any subscript.
        name = node.value.split("[")[0].strip()
    return name is not None and name.split(".")[-1] in SET_ANNOTATIONS


def is_set(node, known):
    """Is ``node`` a recognisable set expression?  ``known`` holds the
    scope's set-valued names and the module's set-typed attributes and
    set-returning functions."""
    names, attrs, funcs = known
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in attrs
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
        return is_set(node.left, known) or is_set(node.right, known)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset") or func.id in funcs
        if isinstance(func, ast.Attribute):
            return (func.attr in SET_COMBINATORS and is_set(func.value, known)) \
                or func.attr in funcs
    return False


def scope_nodes(body):
    """Every node of one scope, not entering nested function scopes."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def scope_set_names(nodes, attrs, funcs):
    """Names *every* plain assignment in the scope gives a set expression
    (a mixed name is dropped rather than risk a false positive).  Two
    passes, so ``x = set(); y = x`` makes ``y`` a set too."""
    names = set()
    for _ in range(2):
        assigned = {}
        for node in nodes:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if annotation_is_set(node.annotation):
                    assigned.setdefault(node.target.id, True)
            elif isinstance(node, ast.Assign):
                value_is_set = is_set(node.value, (names, attrs, funcs))
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned[target.id] = assigned.get(target.id, True) \
                            and value_is_set
        names = {name for name, ok in assigned.items() if ok}
    return names


def nd03(path, tree, nodes, imports):
    """A set iterated by a ``for``, a list comprehension, ``list()``,
    ``tuple()`` or a string ``join``: its order follows element hashes
    and insertion history, so the event order (and the fingerprint) can
    follow it too.  A set is a display or comprehension, a ``set()`` /
    ``frozenset()`` call, a set-operator expression, a name every
    assignment in its scope gives a set, or an attribute or function the
    module annotates set-typed.  Order-free consumers (``sorted``,
    ``len``, ``sum``, ``min``, ``max``, ``any``, ``all``, ``set``) pass."""
    attrs, funcs = set(), set()
    for node in nodes:
        if isinstance(node, ast.AnnAssign) and annotation_is_set(node.annotation):
            if isinstance(node.target, ast.Attribute):
                attrs.add(node.target.attr)
            elif isinstance(node.target, ast.Name):
                attrs.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and annotation_is_set(node.returns):
            funcs.add(node.name)
    bodies = [tree.body] + [node.body for node in nodes if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for body in bodies:
        scope = list(scope_nodes(body))
        known = (scope_set_names(scope, attrs, funcs), attrs, funcs)
        for node in scope:
            if isinstance(node, ast.For) and is_set(node.iter, known):
                yield node.iter, ("iterating a set: order is hash/insertion "
                                  "dependent; wrap in sorted(...) or justify "
                                  "with a pragma")
            elif isinstance(node, ast.ListComp):
                for generator in node.generators:
                    if is_set(generator.iter, known):
                        yield generator.iter, ("list built by iterating a set "
                                               "inherits nondeterministic "
                                               "order; sort first")
            elif isinstance(node, ast.Call) and len(node.args) == 1 \
                    and is_set(node.args[0], known):
                func = node.func
                if isinstance(func, ast.Name) and func.id in ("list", "tuple"):
                    yield node, (f"{func.id}(<set>) materialises "
                                 f"nondeterministic order; use sorted(...)")
                elif isinstance(func, ast.Attribute) and func.attr == "join":
                    yield node, ("join over a set concatenates in "
                                 "nondeterministic order; sort first")


# -- ND05 ----------------------------------------------------------------------

MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "collections.defaultdict",
                 "collections.OrderedDict", "defaultdict", "OrderedDict"}


def nd05(path, tree, nodes, imports):
    """Mutable defaults: one object shared by every call carries state
    from call to call, so two same-seed runs diverge once call order
    changes."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for default in node.args.defaults + [
                d for d in node.args.kw_defaults if d is not None]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                    ast.DictComp, ast.SetComp)):
                yield default, ("mutable default is shared across calls; "
                                "default to None and build inside the body")
            elif isinstance(default, ast.Call):
                name = dotted_name(default.func)
                if name in MUTABLE_CALLS:
                    yield default, (f"{name}() default is evaluated once and "
                                    f"shared across calls; default to None")


# -- RP01 ----------------------------------------------------------------------

RNG_CONSTRUCTORS = {"random.Random", "numpy.random.default_rng",
                    "numpy.random.Generator", "numpy.random.RandomState"}


def seed_is_sanctioned(node, imports, sanctioned):
    """A ``derive_seed(...)`` call, or a name or attribute carrying a
    ``seed`` token (a seed handed in, not invented here), or a local name
    assigned one."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "derive_seed":
            return True
        canonical = resolve(imports, func)
        return canonical is not None and canonical.endswith(".derive_seed")
    if isinstance(node, ast.Name):
        return "seed" in node.id.lower() or node.id in sanctioned
    if isinstance(node, ast.Attribute):
        return "seed" in node.attr.lower()
    if isinstance(node, ast.IfExp):
        return seed_is_sanctioned(node.body, imports, sanctioned) \
            and seed_is_sanctioned(node.orelse, imports, sanctioned)
    return False


def rp01(path, tree, nodes, imports):
    """An RNG constructed from a seed that is neither a ``derive_seed``
    call nor a passed-in seed (a literal, an ad-hoc mangle, a ``hash()``)
    still replays byte for byte, so no determinism test notices that the
    root seed no longer chooses it.  ``.seed(...)`` on a live stream
    rewinds the draws of every holder.  Unseeded streams and the
    module-level global RNG are left to the determinism tests."""
    sanctioned, rng_names = set(), set()
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and seed_is_sanctioned(node.value, imports, sanctioned):
            sanctioned.add(node.targets[0].id)
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.Call) \
                and resolve(imports, value.func) in RNG_CONSTRUCTORS:
            rng_names.update(target.id if isinstance(target, ast.Name)
                             else target.attr for target in targets
                             if isinstance(target, (ast.Name, ast.Attribute)))
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        if resolve(imports, node.func) in RNG_CONSTRUCTORS:
            seed = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg in ("seed", "x")),
                None)
            if seed is not None \
                    and not seed_is_sanctioned(seed, imports, sanctioned):
                yield node, ("RNG seed is not derived from the root seed; use "
                             "derive_seed(seed, ...) or pass a seed parameter "
                             "through")
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "seed":
            canonical = resolve(imports, node.func)
            if canonical is not None and canonical.startswith(
                    ("random.", "numpy.random.")):
                continue  # the module-level global RNG
            receiver = node.func.value
            tail = receiver.id if isinstance(receiver, ast.Name) else (
                receiver.attr if isinstance(receiver, ast.Attribute) else None)
            if tail is not None and (tail in rng_names or "rng" in tail.lower()):
                yield node, ("re-seeding a live RNG stream resets the draw "
                             "sequence for every consumer; construct a fresh "
                             "stream with derive_seed(...) instead")


# -- SD04 ----------------------------------------------------------------------

def sd04(path, tree, nodes, imports):
    """A ``cluster/`` or ``sim/`` class whose ``__init__`` sets a dict
    named pending / inflight / in_flight on ``self`` without a
    ``sanitizer_watches()`` method: the sanitizer's leak check cannot
    see that map (the bug class of the replica layer's early quorum-read
    pending leak).  Observation- and checker-layer dicts drain through
    their own audited lifecycles."""
    if not {"cluster", "sim"} & set(path.split("/")):
        return
    for node in nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {item.name for item in node.body
                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        init = next((item for item in node.body if isinstance(
            item, ast.FunctionDef) and item.name == "__init__"), None)
        if "sanitizer_watches" in methods or init is None:
            continue
        for stmt in ast.walk(init):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if isinstance(value, ast.Call):
                func = value.func
                factory = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None)
                if factory not in ("dict", "defaultdict", "OrderedDict"):
                    continue
            elif not isinstance(value, ast.Dict):
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self" \
                        and any(token in target.attr.lower()
                                for token in ("pending", "inflight", "in_flight")):
                    yield stmt, (f"class {node.name} holds in-flight dict state "
                                 f"self.{target.attr} but exposes no "
                                 f"sanitizer_watches() accessor; register the "
                                 f"map so the runtime sanitizer's leak "
                                 f"detection covers it")


RULES = {"ND02": nd02, "ND03": nd03, "ND05": nd05, "RP01": rp01, "SD04": sd04}


def scan(source, path="snippet.py", tree=None):
    """Sorted ``(line, col, rule, message)`` findings of one module, less
    what its pragmas suppress, plus the pragmas' own E002 / E003.
    ``path`` is repo-relative: SD04 looks for ``cluster`` / ``sim`` in it."""
    tree = ast.parse(source, path) if tree is None else tree
    nodes = list(ast.walk(tree))
    imports = import_names(nodes)
    found, by_line, whole_file = [], {}, set()
    for line, col, match in pragmas(source):
        why = (match.group("why") or "").strip()
        for rule in sorted({r.strip() for r in match.group("rules").split(",")}):
            if rule not in RULES:
                found.append((line, col, "E002",
                              f"pragma names unknown rule {rule!r}"))
                continue
            (whole_file if match.group("scope")
             else by_line.setdefault(line, set())).add(rule)
            if not why:
                found.append((line, 1, "E003",
                              f"pragma suppressing {rule} carries no "
                              f"justification; add '-- why' or remove it"))
    for rule, check in RULES.items():
        for node, message in check(path, tree, nodes, imports):
            if rule not in whole_file and rule not in by_line.get(node.lineno, ()):
                found.append((node.lineno, node.col_offset + 1, rule, message))
    return sorted(found)


# -- the self-scan -------------------------------------------------------------

TREES = ["src/repro", "examples", "benchmarks"]


@pytest.mark.parametrize("tree", TREES)
def test_self_scan_is_clean(tree):
    found = [f"{module.path}:{line}:{col}: {rule} {message}"
             for module in modules(tree)
             for line, col, rule, message in scan(module.source, module.path,
                                                  module.tree)]
    assert found == []


def test_library_never_reads_the_wall_clock():
    # Not even a justified exception under src/repro: no module there
    # carries an ND02 pragma, so the clean self-scan covers every call.
    # benchmarks/lds_bench is the only code that reads the host clock.
    suppressing = [f"{module.path}:{line}" for module in modules("src/repro")
                   for line, _, match in pragmas(module.source)
                   if "ND02" in match.group("rules")]
    assert suppressing == []


# -- the fixtures --------------------------------------------------------------

#: fixture stem -> the exact ``(rule, line, col)`` findings of its TP fixture.
CASES = {
    "nd02": [("ND02", 7, 11), ("ND02", 8, 9), ("ND02", 9, 8)],
    "nd03": [("ND03", 5, 13), ("ND03", 8, 11), ("ND03", 9, 29),
             ("ND03", 10, 9)],
    "nd05": [("ND05", 6, 28), ("ND05", 11, 32), ("ND05", 16, 18),
             ("ND05", 20, 25)],
    "rp01": [("RP01", 9, 21), ("RP01", 10, 21), ("RP01", 13, 9)],
    "sd04": [("SD04", 11, 9), ("SD04", 12, 9), ("SD04", 13, 9),
             ("SD04", 23, 9), ("SD04", 24, 9)],
}

#: SD04 only fires inside ``cluster/`` or ``sim/``, so its fixtures live
#: under a ``cluster/`` subdirectory.
_SCOPED_SUBDIRS = {"sd04": "cluster/"}


def scan_fixture(stem, kind):
    path = f"tests/lint/fixtures/{_SCOPED_SUBDIRS.get(stem, '')}{stem}_{kind}.py"
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        return scan(handle.read(), path)


@pytest.mark.parametrize("stem", sorted(CASES))
def test_true_positive_fixture_fails_its_rule(stem):
    found = scan_fixture(stem, "tp")
    assert [(rule, line, col) for line, col, rule, _ in found] == CASES[stem]


@pytest.mark.parametrize("stem", sorted(CASES))
def test_false_positive_fixture_scans_clean(stem):
    assert scan_fixture(stem, "fp") == []


# -- pragmas -------------------------------------------------------------------

WALL_CLOCK_SOURCE = "import time\nvalue = time.time()\n"


def rules_found(source):
    return [rule for _, _, rule, _ in scan(source)]


class TestPragmas:
    def test_line_pragma_suppresses_the_named_rule(self):
        source = ("import time\n"
                  "value = time.time()"
                  "  # simlint: disable=ND02 -- calibration only\n")
        assert scan(source) == []

    def test_line_pragma_only_covers_its_own_line(self):
        source = ("import time\n"
                  "a = time.time()  # simlint: disable=ND02 -- here\n"
                  "b = time.time()\n")
        assert [(rule, line) for line, _, rule, _ in scan(source)] \
            == [("ND02", 3)]

    def test_line_pragma_does_not_cover_other_rules(self):
        source = ("import time\n"
                  "value = time.time()  # simlint: disable=ND05 -- wrong\n")
        assert rules_found(source) == ["ND02"]

    def test_file_pragma_suppresses_module_wide(self):
        source = ("# simlint: disable-file=ND02 -- calibration module\n"
                  "import time\n"
                  "a = time.time()\n"
                  "b = time.time()\n")
        assert scan(source) == []

    def test_pragma_text_in_a_string_suppresses_nothing(self):
        docstring = '"""\n# simlint: disable-file=ND02 -- x\n"""\n' \
            + WALL_CLOCK_SOURCE
        assert rules_found(docstring) == ["ND02"]
        same_line = ("import time\n"
                     "value = (time.time(), '# simlint: disable=ND02 -- x')\n")
        assert rules_found(same_line) == ["ND02"]

    def test_unknown_rule_in_pragma_is_reported(self):
        [(_, _, rule, message)] = scan("x = 1  # simlint: disable=ND99 -- typo\n")
        assert rule == "E002" and "ND99" in message

    def test_bare_pragma_fails_the_default_scan(self):
        assert rules_found("import time\n"
                           "value = time.time()  # simlint: disable=ND02\n") \
            == ["E003"]
        assert scan("import time\n"
                    "value = time.time()  # simlint: disable=ND02 -- calibration\n") \
            == []

    def test_multi_rule_pragma(self):
        source = ("import time\n"
                  "def stamp(log=[]): return log + [time.time()]"
                  "  # simlint: disable=ND02,ND05 -- drill\n")
        assert scan(source) == []
