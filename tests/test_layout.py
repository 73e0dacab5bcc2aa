import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_uncollected_modules_define_no_test():
    # pytest collects test_*.py only, so a test written in leaves.py or
    # guards.py would never run
    helpers = sorted(path.name for path in TESTS.glob("*.py") if not path.name.startswith("test_"))
    assert helpers == ["guards.py", "leaves.py"]
    for name in helpers:
        for node in ast.walk(ast.parse((TESTS / name).read_text(), name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not node.name.startswith("test"), (name, node.name)
            if isinstance(node, ast.ClassDef):
                assert not node.name.startswith("Test"), (name, node.name)


def test_no_test_module_imports_another():
    # shared tables and helpers live in the uncollected modules
    test_modules = {path.stem for path in TESTS.glob("test_*.py")}
    for path in TESTS.glob("test_*.py"):
        imported = set(_imported_modules(ast.parse(path.read_text(), path.name)))
        assert not imported & test_modules, path.name
