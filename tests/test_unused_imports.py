"""Every name a module in src/slapx imports is used by that module, apart
from the listed ones, each kept for a stated reason."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "slapx"

ALLOWED = {
    "vdf.is_probable_prime":
        "perfbench reads the re-export vdf.is_probable_prime",
}


def unused_imports(path: Path) -> set[str]:
    """'module.name' for each name an import binds in the module at path
    that no expression there reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return {f"{path.stem}.{name}" for name in bound - read}


def test_every_import_is_used():
    found = set().union(*(unused_imports(p) for p in sorted(SRC.glob("*.py"))))
    assert found - set(ALLOWED) == set(), "imported names never used"
    assert set(ALLOWED) - found == set(), "allowlist entries no longer needed"


def test_scan_sees_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nimport sys as system\nimport json\n"
                    "from math import pi, tau as turn, e\n\n"
                    "def f(x: e) -> float:\n    return pi + len(os.sep) + x\n")
    assert unused_imports(path) == {"m.system", "m.json", "m.turn"}
