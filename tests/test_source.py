"""Checks on the library source itself."""

import ast
import os

from conftest import SRC, TRUSTED_SITES


def _modules():
    """(file name, AST) of every module of the package."""
    pkg = os.path.join(SRC, "hklat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _scoped(tree, scope=None):
    """(node, innermost enclosing function or class name) for every node
    below tree."""
    for child in ast.iter_child_nodes(tree):
        yield child, scope
        inner = (child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                 else scope)
        yield from _scoped(child, inner)


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
    found = ["%s:%d" % (name, node.lineno) for name, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_lattice_cache_only_behind_memo():
    """Per-lattice constants are kept by Lattice.memo: outside lattice.py
    no module reads or writes a ._cache, except SymSpace its own."""
    found = []
    for name, tree in _modules():
        if name == "lattice.py":
            continue
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "SymSpace":
                allowed |= {id(sub) for sub in ast.walk(node)}
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_cache"
                  and id(node) not in allowed]
    assert found == []


def test_characters_kept_only_in_lattice():
    """An isometry's characters live in its _chars slot, which
    lattice._character alone reads: outside lattice.py no module names
    _chars, as an attribute or as a slot."""
    found = ["%s:%d" % (name, node.lineno) for name, tree in _modules()
             if name != "lattice.py" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "_chars"
             or isinstance(node, ast.Constant) and node.value == "_chars"]
    assert found == []


def test_power_record_set_only_by_its_builder():
    """A pure power's record is the element, so nothing may forge one: no
    module assigns .power or ._power outside SymElt.__init__ and
    SymElt._power_of."""
    found = []
    for name, tree in _modules():
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "SymElt":
                for fn in node.body:
                    if (isinstance(fn, ast.FunctionDef)
                            and fn.name in ("__init__", "_power_of")):
                        allowed |= {id(sub) for sub in ast.walk(fn)}
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("power", "_power")
                  and not isinstance(node.ctx, ast.Load)
                  and id(node) not in allowed]
    assert found == []


def test_every_import_is_read():
    """Every module-level import binding of the package is read in its
    module; __init__.py's re-exports are the package's API."""
    unread = []
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread += ["%s:%d %s" % (name, node.lineno, bound)
                   for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for bound in (a.asname or a.name.split(".")[0]
                                 for a in node.names)
                   if bound not in read]
    assert unread == []


def test_trusted_constructions_sit_in_named_sites():
    """Every trusted QIsometry construction (QIsometry._of, cls._of or
    _trusted=True) sits in a function of TRUSTED_SITES, whose entry
    contract tests/test_llv.py checks at run time."""
    sites, outside = set(), []
    for name, tree in _modules():
        for node, scope in _scoped(tree):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_of"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("QIsometry", "cls")
                    or any(k.arg == "_trusted" for k in node.keywords)):
                sites.add(scope)
                if scope not in TRUSTED_SITES:
                    outside.append("%s:%d in %s" % (name, node.lineno, scope))
    assert outside == []
    assert sites == TRUSTED_SITES


def _calls(fname):
    """(module, line, scope) of every call of fname, as an attribute
    (la.fname) or a bare name, in the package."""
    for name, tree in _modules():
        for node, scope in _scoped(tree):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if called == fname:
                    yield name, node.lineno, scope


def _qualified(tree, scope=""):
    """(node, dotted name of its enclosing classes and functions) for every
    node below tree."""
    for child in ast.iter_child_nodes(tree):
        yield child, scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + "." + child.name if scope else child.name
        yield from _qualified(child, inner)


def test_no_coords_view_scaled_in_src():
    """A LatVec is read on its integer form (nums, d): no module hands a
    .coords read to la.scaled_vec, which would scale its view back."""
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Attribute) and f.attr == "scaled_vec"
                    or isinstance(f, ast.Name) and f.id == "scaled_vec"):
                found += ["%s:%d" % (name, sub.lineno)
                          for arg in node.args for sub in ast.walk(arg)
                          if isinstance(sub, ast.Attribute)
                          and sub.attr == "coords"]
    assert found == []


# where a scalar, a coordinate list or a matrix enters from outside the
# library, the only places that may normalize one entry by entry (la.frac,
# la.vec, la.mat)
ENTRY_SITES = {
    "lattice.py": {"Lattice.__init__", "LatVec.__init__", "LatVec.__rmul__",
                   "QIsometry.__init__"},
    "mukai.py": {"MukaiVector.__init__", "MukaiVector.pair", "mukai_v",
                 "kappa", "k3_cup"},
    "llv.py": {"mu", "fm_beta_image", "normalize_fm", "sl2_check"},
    "snrep.py": {"sym_form"},
}
NORMALIZERS = ("frac", "vec", "mat")


def test_entry_normalization_only_at_the_boundary():
    """la.frac, la.vec and la.mat run only in ENTRY_SITES, each of which
    uses one, and in jsonio and cli: every kernel reads the integer forms
    of vectors and matrices."""
    sites, found = {}, []
    for name, tree in _modules():
        if name in ("linalg.py", "jsonio.py", "cli.py"):
            continue
        for node, scope in _qualified(tree):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Attribute) and f.attr in NORMALIZERS
                    and isinstance(f.value, ast.Name) and f.value.id == "la"):
                sites.setdefault(name, set()).add(scope)
                if scope not in ENTRY_SITES.get(name, ()):
                    found.append("%s:%d in %s" % (name, node.lineno, scope))
            if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                found += ["%s:%d" % (name, node.lineno) for a in node.names
                          if a.name in NORMALIZERS]
    assert found == []
    assert sites == ENTRY_SITES


def test_no_matrix_view_read_in_src():
    """Inside the library an isometry is read on its integer form: no
    module reads the Fraction view .matrix, which is for outside callers."""
    found = ["%s:%d" % (name, node.lineno) for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "matrix"]
    assert found == []


def test_no_fraction_matrix_round_trip_in_src():
    """No module calls la.mat_mul or la.mat_sub, the dense products of
    plain matrices: every product runs on integer numerators
    (la.int_mat_mul), llv.commutator's included.  And none hands a
    la.inverse result, already the integer form (nums, d), to
    la.scaled_mat."""
    found = ["%s:%d in %s" % site for fname in ("mat_mul", "mat_sub")
             for site in _calls(fname)]
    for name, tree in _modules():
        for node in ast.walk(tree):
            f = node.func if isinstance(node, ast.Call) else None
            if getattr(f, "attr", getattr(f, "id", None)) != "scaled_mat":
                continue
            found += ["%s:%d" % (name, sub.lineno)
                      for arg in node.args for sub in ast.walk(arg)
                      if isinstance(sub, ast.Call)
                      and getattr(sub.func, "attr",
                                  getattr(sub.func, "id", None)) == "inverse"]
    assert found == []


def test_sparse_columns_only_in_apply_linear():
    """Operators of the extended lattice are built as columns
    (llv.e_columns); snrep.sparse_columns, which scales a dense matrix to
    columns, serves only SymSpace.apply_linear."""
    found = ["%s:%d in %s" % site for site in _calls("sparse_columns")
             if site[0] != "snrep.py" or site[2] != "apply_linear"]
    assert found == []


def test_fractions_only_in_linalg():
    """Only linalg imports the fractions module: every other module forms
    its rationals through la (la.int_ratio, la.ratio) or keeps them as
    integer numerators over a denominator."""
    found = []
    for name, tree in _modules():
        if name == "linalg.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [node.module]
            else:
                continue
            found += ["%s:%d" % (name, node.lineno) for m in mods
                      if m.split(".")[0] == "fractions"]
    assert found == []


def test_no_elimination_in_snrep_or_pontryagin():
    """S_[n] and the Pontryagin model have bases in closed form, so snrep
    and pontryagin read coordinates and never eliminate: they call none
    of la._echelon, la.rref, la.solve, la.kernel or la.rank, and import
    none of them from linalg."""
    names = ("_echelon", "rref", "solve", "kernel", "rank")
    found = []
    for name, tree in _modules():
        if name not in ("snrep.py", "pontryagin.py"):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name) and node.value.id == "la"):
                found.append("%s:%d" % (name, node.lineno))
            if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                found += ["%s:%d" % (name, node.lineno) for a in node.names
                          if a.name in names]
    assert found == []


def test_basis_convention_only_in_snrep():
    """The S_[n] basis convention, rho_tau by tau_swap and the tagged key
    TAG + v of rho_tau Psi(v), lives in snrep alone: no other module calls
    tau_swap or defines a tagged-key constant, a module-level TAG or _TAG
    or a module-level name bound to the literal (-1,)."""
    found = ["%s:%d" % site[:2] for site in _calls("tau_swap")
             if site[0] != "snrep.py"]
    for name, tree in _modules():
        if name == "snrep.py":
            continue
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if names & {"TAG", "_TAG"} or (
                    names and value is not None and ast.unparse(value) == "(-1,)"):
                found.append("%s:%d" % (name, node.lineno))
    assert found == []


def test_products_read_no_sym_data():
    """The products of the Pontryagin model work on word coordinates by
    closed-form rules: cup, star, rho_tau and their helpers never reach
    the model's Sym^n space, self.sym."""
    with open(os.path.join(SRC, "hklat", "pontryagin.py")) as fh:
        tree = ast.parse(fh.read(), filename="pontryagin.py")
    names = {"cup", "star", "rho_tau", "_row", "_walk_size", "_pair",
             "_word_product", "_tagged_product", "_rho_tau_words", "_letter"}
    seen, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "SHModel":
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in names:
                    seen.add(fn.name)
                    found += ["%s:%d" % (fn.name, sub.lineno)
                              for sub in ast.walk(fn)
                              if isinstance(sub, ast.Attribute)
                              and sub.attr == "sym"]
    assert seen == names and found == []


def test_shelt_holds_only_word_coordinates():
    """An SHElt holds its model and its word coordinates and nothing else:
    its __slots__ are ("model", "words"), pontryagin names no _data
    attribute and no _words but SHModel's own table of words, and inside
    class SHElt only __init__ reads Sym^n data in (to_words) and only the
    data property writes it out (from_words)."""
    with open(os.path.join(SRC, "hklat", "pontryagin.py")) as fh:
        tree = ast.parse(fh.read(), filename="pontryagin.py")
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    table = {id(sub) for sub in ast.walk(classes["SHModel"])
             if isinstance(sub, ast.Attribute) and sub.attr == "_words"
             and ast.unparse(sub.value) == "self"}
    found = ["%s:%d" % (node.attr, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("_data", "_words") and id(node) not in table]
    slots, calls = None, {}
    for item in classes["SHElt"].body:
        if (isinstance(item, ast.Assign)
                and ast.unparse(item.targets[0]) == "__slots__"):
            slots = ast.literal_eval(item.value)
        if isinstance(item, ast.FunctionDef):
            for sub in ast.walk(item):
                if (isinstance(sub, ast.Attribute)
                        and sub.attr in ("to_words", "from_words")):
                    calls.setdefault(sub.attr, set()).add(item.name)
    assert slots == ("model", "words")
    assert table and found == []
    assert calls == {"to_words": {"__init__"}, "from_words": {"data"}}


def test_diagonalization_on_integers():
    """la.congruent_diagonalize runs on integers: linalg defines no ONE,
    and neither the kernel congruent_diagonalize_scaled nor its plain
    wrapper names any of Fraction, frac, ratio, mat or vec, so their only
    rationals come from quotient at the return."""
    with open(os.path.join(SRC, "hklat", "linalg.py")) as fh:
        tree = ast.parse(fh.read(), filename="linalg.py")
    defined = [t.id for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)]
    assert "ONE" not in defined
    kernel = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("congruent_diagonalize",
                                "congruent_diagonalize_scaled")]
    assert len(kernel) == 2
    names = {"Fraction", "frac", "ratio", "mat", "vec"}
    found = ["%s:%d" % (node.id, node.lineno) for fn in kernel
             for node in ast.walk(fn)
             if isinstance(node, ast.Name) and node.id in names]
    assert found == []


def test_reducer_moves_build_no_step_data():
    """The reducer's elementary moves, its Euclid and Smith phases and every
    _Reducer method they call neither build step data (_step_data) nor run
    the kernel (_step_columns): each move updates P and L or R of the open
    block as integers."""
    with open(os.path.join(SRC, "hklat", "transvect.py")) as fh:
        tree = ast.parse(fh.read(), filename="transvect.py")
    [reducer] = [node for node in tree.body if isinstance(node, ast.ClassDef)
                 and node.name == "_Reducer"]
    methods = {fn.name: fn for fn in reducer.body
               if isinstance(fn, ast.FunctionDef)}
    todo = ["op_col1", "op_col2", "op_row1", "op_row2", "_rot_rows_B",
            "_rot_cols_A", "_diagonalize", "_finish_with_unit", "_snf_to_one"]
    seen, found = set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(methods[name]):
            if isinstance(node, ast.Name) and node.id in ("_step_data",
                                                          "_step_columns"):
                found.append("%s:%d" % (name, node.lineno))
            if (isinstance(node, ast.Attribute) and node.attr in methods
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                todo.append(node.attr)
    assert "_general_move" not in seen and found == []


def test_inverse_functor_reads_no_rational_view():
    """The inverse functor stays on integer numerators: _spanning_lines,
    compose_rule_check and the power branch of SymSpace.apply_linear name
    none of .coords, apply_coords or scaled_mat_vec, which build or read
    a vector's Fraction view."""
    with open(os.path.join(SRC, "hklat", "snrep.py")) as fh:
        tree = ast.parse(fh.read(), filename="snrep.py")
    fns = {qual + "." + node.name if qual else node.name: node
           for node, qual in _qualified(tree)
           if isinstance(node, ast.FunctionDef)}
    branches = [node for node in ast.walk(fns["SymSpace.apply_linear"])
                if isinstance(node, ast.If)
                and any(isinstance(sub, ast.Name) and sub.id == "power"
                        for sub in ast.walk(node.test))]
    assert len(branches) == 1
    scopes = {"_spanning_lines": fns["_spanning_lines"],
              "compose_rule_check": fns["compose_rule_check"],
              "apply_linear power branch": ast.Module(branches[0].body, [])}
    names = ("coords", "apply_coords", "scaled_mat_vec")
    found = ["%s:%d" % (scope, node.lineno) for scope, fn in scopes.items()
             for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.Name) and node.id in names]
    assert found == []
