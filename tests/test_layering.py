"""Package modules reach each other only through public names."""
import ast
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
