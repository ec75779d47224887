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


def test_only_spectrum_and_the_oracles_call_an_eigensolver():
    # the closed forms need none: spectrum solves its exact blocks, W comes
    # from twisted factorizations at the known grid, and verification.py
    # holds the oracles
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            word = getattr(child, "attr", None) or getattr(child, "id", None) or getattr(child, "name", None)
            if word in ("eig", "eigh", "eigvals", "eigvalsh"):
                found.add((module, scope))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, module, scope or (child.name if named else None))

    for path in sorted(Path(rotorsusy.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name, None)
    assert {site for site in found if site[0] != "verification.py"} == {("operators.py", "spectrum")}
