"""Checks on the library source itself."""

import ast
import os

from conftest import SRC


def test_no_assert_in_src():
    """python -O strips assert statements, so every check in hklat is an
    explicit raise."""
    pkg = os.path.join(SRC, "hklat")
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []
