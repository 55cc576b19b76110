"""The brute-force oracles stay independent of the package they check."""

import ast
from pathlib import Path


def test_oracles_import_no_package_code():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert [name for name in imported if name.split(".")[0] == "mvarkit"] == []
