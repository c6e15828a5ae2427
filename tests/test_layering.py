"""Package modules reach each other only through public names, and the
package needs nothing beyond the standard library and numpy."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "delaes"


def test_no_module_imports_a_private_name_from_another():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "delaes":
                continue
            offenders += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert offenders == []


def test_package_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "delaes"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {module}" for module in modules
                          if module.split(".")[0] not in allowed]
    assert offenders == []
