"""Every divlab module reaches another only through its public names."""

import ast
from pathlib import Path

import pytest

import divlab

MODULES = sorted(Path(divlab.__file__).parent.glob("*.py"))


def private_names_from_other_modules(path):
    """The ``_``-prefixed names that the module imports from, or reads off,
    another divlab module, as ``module.name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = set()  # local names bound to divlab modules
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "divlab":
            continue
        for alias in node.names:
            if module in ("", "divlab"):  # from . import bitfam
                aliases.add(alias.asname or alias.name)
            if alias.name.startswith("_"):
                found.append(f"{module or '.'}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_walk_sees_every_module_and_both_forms_of_private_use(tmp_path):
    assert {p.stem for p in MODULES} >= {"bitfam", "booleanlab", "shiftlex", "cli", "verify"}
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "from .bitfam import _LOW, flip\n"
        "from divlab.bitfam import _flip\n"
        "from . import booleanlab as bl\n"
        "x = bl._is_cyclic, bl.weight_counts, _private(1)\n",
        encoding="utf-8",
    )
    want = ["bitfam._LOW", "divlab.bitfam._flip", "bl._is_cyclic"]
    assert private_names_from_other_modules(probe) == want


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert private_names_from_other_modules(path) == []
