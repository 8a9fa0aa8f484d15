import ast
import importlib
import re
from pathlib import Path

import pytest

from cfcert.generators import GENERATORS


@pytest.mark.parametrize(
    "module",
    ["cfcert", "cfcert.models", "cfcert.intervals", "cfcert.verifier", "cfcert.generators", "cfcert.milp"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_only_models_tells_the_logistic_family_apart():
    # Every other module reads a model through models.affine_layers, so the
    # family stays a decision of one module.
    src = Path(importlib.import_module("cfcert").__file__).parent
    pattern = re.compile(r"isinstance\([^)]*LogisticModel")
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        if path.name != "models.py" or path.parent != src
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, f"isinstance(..., LogisticModel) outside models.py: {offenders}"
    assert pattern.search((src / "models.py").read_text())


def test_only_generators_lists_the_method_names():
    # The CLI and the benchmark read their methods from generators.GENERATORS,
    # so no other module holds a collection (or a comma-joined string) that
    # names two or more of them.
    src = Path(importlib.import_module("cfcert").__file__).parent
    names = {*GENERATORS, "rnce"}

    def named(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return sum(part in names for part in node.value.split(","))
        return 0

    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "generators.py" and path.parent == src:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                count = sum(named(elt) for elt in node.elts)
            elif isinstance(node, ast.Dict):
                count = sum(named(key) for key in node.keys if key is not None)
            else:
                count = named(node)
            if count >= 2:
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert not offenders, f"method names listed outside generators.py: {offenders}"
