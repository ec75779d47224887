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


def test_package_exports_every_submodule_name_once():
    from rotorsusy import antikrawtchouk, eigenbases, errors, harmonics, operators, susy, verification

    for module in (errors, harmonics, operators, susy, eigenbases, antikrawtchouk, verification):
        for name in module.__all__:
            assert getattr(rotorsusy, name) is getattr(module, name), (module.__name__, name)
    assert len(rotorsusy.__all__) == len(set(rotorsusy.__all__))
    assert "__version__" in rotorsusy.__all__
