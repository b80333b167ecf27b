"""The public surface: every name that `heislusin/__init__.py` imports is
read outside the tests, by another module of the package, a demo or the
benchmark, so a name that nothing calls cannot stay exported."""

import ast
import io
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
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                seen.add(tok.string)
            prev = tok.string
    return seen


def test_every_exported_name_has_a_caller_outside_the_tests():
    exported = exported_names()
    assert {"Polynomial", "lift", "build_curve"} <= exported  # the parse works
    assert sorted(exported - referenced_names()) == []
