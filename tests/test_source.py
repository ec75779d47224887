import ast
from pathlib import Path

import rotorsusy


def test_library_checks_do_not_use_assert():
    # python -O strips assert statements, and with them any check they make
    found = []
    for path in sorted(Path(rotorsusy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
