"""Checks on the library source itself."""

import ast
import os

from conftest import SRC


def test_normalization_only_in_the_element_type():
    """snrep and pontryagin normalize entries (la.quotient, la.frac) only in
    snrep.SymElt and snrep.sym_form: every kernel reads and returns the
    element's integer form."""
    found = []
    for name in ("snrep.py", "pontryagin.py"):
        with open(os.path.join(SRC, "hklat", name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        allowed = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef) and node.name == "SymElt"
                    or isinstance(node, ast.FunctionDef)
                    and node.name == "sym_form"):
                allowed |= {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("quotient", "frac")
                    and isinstance(node.value, ast.Name) and node.value.id == "la"
                    and id(node) not in allowed):
                found.append("%s:%d" % (name, node.lineno))
            if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                found += ["%s:%d" % (name, node.lineno) for a in node.names
                          if a.name in ("quotient", "frac")]
    assert found == []


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
