"""The public surface: every name that `heislusin/__init__.py` imports,
and every public function and method of the package, is read outside the
tests, by another module of the package, a demo or the benchmark, so a
name that nothing calls cannot stay; and the interval-set key encoding is
named only where it is defined."""

import ast
import importlib.util
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heislusin"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def referenced_names():
    """The NAME tokens of the package's other modules, the demos and
    `bench/`: comments and strings are not tokens of this kind, and the
    name that a `def` or `class` binds is left out."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    seen = set()
    for path in files:
        prev = None
        for tok in tokens(path):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                seen.add(tok.string)
            prev = tok.string
    return seen


def tokens(path):
    return tokenize.generate_tokens(io.StringIO(path.read_text()).readline)


def name_tokens(path):
    """Every NAME token of a file, comments and strings left out."""
    return {tok.string for tok in tokens(path) if tok.type == tokenize.NAME}


def test_every_exported_name_has_a_caller_outside_the_tests():
    exported = exported_names()
    assert {"Polynomial", "lift", "build_curve"} <= exported  # the parse works
    assert sorted(exported - referenced_names()) == []


def public_functions():
    """(module, name) of every function or method that a module of the
    package defines at module or class level, dunders and _ names left out."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            found |= {(path.stem, f.name) for f in body
                      if isinstance(f, ast.FunctionDef)
                      and not f.name.startswith("_")}
    return found


def traced_names():
    """The last part of each span name in `bench/tracer.py`'s `_FUNCTIONS`:
    the benchmark wraps those functions by name."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    # read-only: no bytecode cache is written next to the benchmark
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = dont_write
    return {span.rpartition(".")[2] for span in tracer._FUNCTIONS.values()}


def test_every_public_function_has_a_caller_outside_the_tests():
    # a method is matched by its name alone, as the tokens carry no type
    defined = public_functions()
    assert {("intervalsets", "clip"), ("curves", "lift")} <= defined
    read = referenced_names() | traced_names()
    assert sorted(f for f in defined if f[1] not in read) == []


KEY_INTERNALS = {"_keys", "_of", "_merge", "_ranges", "_encode", "_decode"}


def test_only_intervalsets_names_the_key_encoding():
    # other modules build, dilate, clip and decode sets through the
    # public methods of IntervalSet, never through its key lists
    assert KEY_INTERNALS <= name_tokens(PACKAGE / "intervalsets.py")
    named = {path.name: sorted(KEY_INTERNALS & name_tokens(path))
             for path in PACKAGE.glob("*.py") if path.name != "intervalsets.py"}
    assert "counterexample.py" in named  # the glob works
    assert {name: used for name, used in named.items() if used} == {}
