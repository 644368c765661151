"""Static check that no module of the package, the tests or the scripts imports a name it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lpow"


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of ``source`` that no expression reads.

    ``from __future__`` imports are directives, not names, and are skipped.
    Annotations count as reads; they stay in the syntax tree even when
    postponed.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_package_modules_read_every_import():
    # __init__.py imports names to re-export them, so it is not checked.
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 10
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_test_and_script_modules_read_every_import():
    modules = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert len(modules) >= 15
    unused = {str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_detects_unused_names():
    source = "import os\nimport os.path\nimport numpy as np\nfrom math import pi, tau\nprint(np, pi)\n"
    assert unused_imports(source) == ["os", "tau"]
    assert unused_imports("from __future__ import annotations\n") == []
