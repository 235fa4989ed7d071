import ast
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_scripts_import_no_private_names(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dqc1sim")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{script.name} imports private names {private}"
