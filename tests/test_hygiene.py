"""Source hygiene of the library, checked with the stdlib ``ast`` module.

Invariants are raised as typed exceptions, never ``assert``ed, because
``python -O`` strips asserts.  Every import is used: names that only a
string annotation or ``__all__`` mentions count as used.  A module imports
another's ``_``-prefixed names only where the allowed set below says so.
"""

import ast
import importlib.util
import pathlib

import adelic

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "adelic"
MODULES = sorted(SRC.glob("*.py"))


def _names(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            try:
                out |= _names(ast.parse(n.value, mode="eval"))
            except SyntaxError:
                pass
    return out


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for n in ast.walk(tree):
        if isinstance(n, ast.arg):
            annotations = [n.annotation]
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [n.returns]
        elif isinstance(n, ast.AnnAssign):
            annotations = [n.annotation]
        else:
            annotations = []
        for a in annotations:
            if a is not None:
                used |= _names(a)
        if isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets):
            used |= {e.value for e in n.value.elts}
    return used


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}; raise a typed error"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{name} (line {node.lineno})")
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_local_assigned_and_never_read(path):
    # a name a function stores and never loads is dead; "_"-prefixed names
    # are deliberate discards
    tree = ast.parse(path.read_text())
    dead = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, loaded = {}, set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                stored.setdefault(n.id, n.lineno)
            elif isinstance(n, ast.Name):
                loaded.add(n.id)
            elif isinstance(n, (ast.Global, ast.Nonlocal)):
                loaded.update(n.names)
        dead += [f"{name} in {fn.name} (line {line})" for name, line in stored.items()
                 if name not in loaded and not name.startswith("_")]
    assert not dead, f"{path.name}: assigned, never read: {dead}"


# (importing module, imported module, name) for every private name that one
# module of the library may import from another
ALLOWED_PRIVATE_IMPORTS = {
    ("globalfields", "localfields", "_sres"),
    ("globalfields", "localfields", "_sval"),
}


def test_private_cross_module_imports_are_allowed():
    found = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found |= {(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert found == ALLOWED_PRIVATE_IMPORTS


# the constructors of values' exact carriers that other modules may call;
# each checks and cleans its input (or takes none, or only a float remainder)
VALIDATING_CONSTRUCTORS = {"one", "prime_power", "from_rational", "of_real"}


def test_unchecked_constructor_stays_in_values():
    # PosRealExact._of wraps exponents unchecked; only values' own
    # arithmetic, whose operands already hold the invariant, may call it
    callers, named = set(), set()
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if not isinstance(n, ast.Attribute):
                continue
            if n.attr == "_of":
                callers.add(path.stem)
            elif (isinstance(n.value, ast.Name) and path.stem != "values"
                    and n.value.id in ("PosRealExact", "LogValue")):
                named.add(n.attr)
    assert callers == {"values"}
    assert named <= VALIDATING_CONSTRUCTORS, named - VALIDATING_CONSTRUCTORS


def test_benchmark_span_targets_exist():
    # the traced benchmark names library functions by string; loading its
    # span table (without installing a wrapper) resolves the CACHES entries,
    # and every SPANNED and COUNTED name must resolve as well
    spec = importlib.util.spec_from_file_location(
        "benchmark_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.SPANNED.items():
        for qual in names:
            obj = getattr(adelic, layer)
            for part in qual.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{qual}")
    missing += [key for key, (cls, attr) in spans.COUNTED.items()
                if not callable(getattr(cls, attr, None))]
    missing += [key for key, fn in spans.CACHES.items() if not hasattr(fn, "cache_info")]
    assert not missing, f"benchmark span targets missing from adelic: {missing}"


def _decorated_with(fn, names):
    for d in fn.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if (target.attr if isinstance(target, ast.Attribute) else target.id) in names:
            return True
    return False


def test_no_cache_holds_an_idele():
    # caches are keyed on fields, places and shapes, never on an idele: a
    # benchmark that cycles its input pool would then time the cache, not
    # the computation.  Every parameter of a cached function is annotated,
    # so that the check sees what it takes
    keyed, on_idele = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "Idele":
                on_idele += [f.name for f in node.body if isinstance(f, ast.FunctionDef)
                             and _decorated_with(f, ("cached_property", "lru_cache", "cache"))]
            elif (isinstance(node, ast.FunctionDef)
                    and _decorated_with(node, ("lru_cache", "cache"))):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    x for x in (a.vararg, a.kwarg) if x is not None]
                keyed += [f"{path.stem}.{node.name}({p.arg})" for p in params
                          if p.annotation is None or "Idele" in _names(p.annotation)]
    assert not keyed, f"cached on an idele, or unannotated: {keyed}"
    assert not on_idele, f"Idele caches {on_idele}"


def test_only_theta_imports_numpy():
    # numpy serves the theta sum alone; every other layer computes in exact
    # arithmetic or Python floats
    importers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                importers.add(path.stem)
    assert importers == {"theta"}
