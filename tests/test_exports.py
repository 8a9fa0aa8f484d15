import importlib
import re
from pathlib import Path

import pytest


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
