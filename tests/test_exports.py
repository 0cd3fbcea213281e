"""Every public function and class has a caller outside the tests.

A name in vilenkin.__all__ counts as used when an ast Name, Attribute or
ImportFrom entry refers to it in the package itself (outside __init__.py)
or in demos/, perfbench/ or scripts/. A public name that only its own tests
call is dead code: delete it, or list it in ALLOWED with the reason it stays.
"""

import ast
import inspect
from pathlib import Path

import vilenkin

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {}


def _referenced_names() -> set:
    files = [p for p in (ROOT / "src" / "vilenkin").glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "perfbench", "scripts"):
        files += (ROOT / folder).rglob("*.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _public_callables() -> list:
    return [name for name in vilenkin.__all__
            if inspect.isfunction(getattr(vilenkin, name))
            or inspect.isclass(getattr(vilenkin, name))]


def test_every_public_name_has_a_caller():
    used = _referenced_names()
    dead = [name for name in _public_callables() if name not in used and name not in ALLOWED]
    assert dead == [], f"public names that nothing outside the tests uses: {dead}"


def test_allowed_names_are_public_and_unused():
    # an exception that is no longer public, or has gained a caller, is stale
    used = _referenced_names()
    for name in ALLOWED:
        assert name in _public_callables() and name not in used, name
