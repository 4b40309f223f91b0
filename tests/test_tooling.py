import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mbfcount"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check must raise instead
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "counting.py" in paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {', '.join(found)}"
