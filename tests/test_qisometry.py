"""Property tests of QIsometry's canonical integer form, on K3n:2 and on
its LLV space.

Words of reflections, Eichler transvections, mu, tau, extend_to_llv,
inverses and negations must keep d > 0 and gcd(d, content) = 1, match a
product of plain-Fraction reference matrices built from the textbook
formulas, and give equal isometries with equal hashes along every
construction path.  Hypothesis runs under a derandomized profile with no
example database, and each test is pinned to a seed, so tier-1 stays
deterministic.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import canonical, canonical_form, rand_anisotropic, rand_qcoords
from hklat import factor as fc
from hklat import jsonio as jio
from hklat import linalg as la
from hklat import lattice as lt
from hklat import llv
from hklat import transvect as tv

settings.register_profile(
    "hklat-pinned", derandomize=True, database=None, deadline=None,
    max_examples=10, suppress_health_check=list(HealthCheck))
PINNED = settings.get_profile("hklat-pinned")

BASE_OPS = ("reflect", "transvect", "neg", "inverse")
LLV_OPS = BASE_OPS + ("mu", "tau")
MU_SCALES = (2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


@pytest.fixture(scope="module")
def space():
    return llv.LLVSpace(lt.preset("K3n", 2))


def _ops(kinds):
    """Words of up to five (kind, seed) steps; the seed draws the step's
    vector or scale."""
    return st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 1 << 16)),
                    min_size=1, max_size=5)


# -- plain-Fraction references ---------------------------------------------


def _fmat(m):
    return [[Fraction(x) for x in row] for row in m]


def _fmul(a, b):
    bt = list(zip(*b))
    return [[sum([x * y for x, y in zip(row, col) if x and y], Fraction(0))
             for col in bt] for row in a]


def _fid(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _gv(gram, v):
    return [sum([Fraction(g) * x for g, x in zip(row, v)], Fraction(0))
            for row in gram]


def _ref_reflection(gram, u):
    """x - 2 (u, x) / (u, u) u, column by column."""
    gu = _gv(gram, u)
    uu = sum([x * y for x, y in zip(u, gu)])
    n = len(u)
    return [[Fraction(int(i == j)) - 2 * u[i] * gu[j] / uu for j in range(n)]
            for i in range(n)]


def _ref_transvection(gram, e, a):
    """E(e, a)(x) = x + (e, x) (a - (a, a)/2 e) - (a, x) e."""
    ge, ga = _gv(gram, e), _gv(gram, a)
    aa = sum([x * y for x, y in zip(a, ga)])
    n = len(e)
    return [[Fraction(int(i == j)) + ge[j] * (a[i] - aa / 2 * e[i]) - ga[j] * e[i]
             for j in range(n)] for i in range(n)]


def _ref_inverse(gram, dual, m):
    """G^-1 M^T G, with G^-1 from sympy."""
    return _fmul(_fmul(dual, [list(col) for col in zip(*m)]), _fmat(gram))


@lru_cache(maxsize=None)
def _sympy_dual(gram):
    inv = sympy.Matrix(gram).inv()
    return [[Fraction(int(x.p), int(x.q)) for x in inv.row(i)]
            for i in range(len(gram))]


# -- words --------------------------------------------------------------------


def _step(lat, kind, s, space=None):
    """One generator as (isometry, reference matrix) for the kinds of
    BASE_OPS but neg and inverse, and mu and tau on an LLV space."""
    rng = random.Random(s)
    n = lat.rank
    if kind == "reflect":
        u = rand_anisotropic(rng, lat)
        return fc.reflect(lat, u), _ref_reflection(lat.gram, _fmat([u.coords])[0])
    if kind == "transvect":
        i, j = rng.choice(lat.u_blocks)
        e = lat.basis_vec(rng.choice([i, j]))
        while True:
            a = lat.vec([rng.randint(-1, 1) for _ in range(n)])
            if not a.is_zero() and a.pair(e) == 0:
                break
        return (tv.eichler_transvection(lat, e, a),
                _ref_transvection(lat.gram, _fmat([e.coords])[0],
                                  _fmat([a.coords])[0]))
    ref = _fid(n)
    if kind == "mu":
        t = Fraction(rng.choice(MU_SCALES))
        ref[0][0], ref[n - 1][n - 1] = 1 / t, t
        return llv.mu(space, t), ref
    assert kind == "tau"
    ref = [[Fraction(0)] * n for _ in range(n)]
    ref[0][n - 1] = ref[n - 1][0] = Fraction(1)
    for i in range(1, n - 1):
        ref[i][i] = Fraction(-1)
    return llv.tau(space), ref


def _word(lat, ops, g, ref, space=None):
    """Apply the ops to (g, ref) from the left, checking the canonical
    form after every step."""
    dual = _sympy_dual(lat.gram)
    for kind, s in ops:
        if kind == "neg":
            g, ref = -g, [[-x for x in row] for row in ref]
        elif kind == "inverse":
            g, ref = g.inverse(), _ref_inverse(lat.gram, dual, ref)
        else:
            h, href = _step(lat, kind, s, space)
            g, ref = h * g, _fmul(href, ref)
        assert canonical_form(g)
    return g, ref


@seed(16001)
@PINNED
@given(base_ops=_ops(BASE_OPS), llv_ops=_ops(LLV_OPS))
def test_words_keep_the_canonical_form(space, base_ops, llv_ops):
    base = space.base
    g, ref = _word(base, base_ops, lt.QIsometry.identity(base), _fid(base.rank))
    assert canonical(g.matrix) and _fmat(g.matrix) == ref
    gl = llv.extend_to_llv(space, g)
    n = space.dim
    lref = _fid(n)
    for i in range(base.rank):
        for j in range(base.rank):
            lref[1 + i][1 + j] = ref[i][j]
    assert canonical_form(gl) and _fmat(gl.matrix) == lref
    gl, lref = _word(space.lattice, llv_ops, gl, lref, space)
    assert canonical(gl.matrix) and _fmat(gl.matrix) == lref
    assert gl.is_integral() == all(x.denominator == 1 for row in lref for x in row)


def _transvection_word(lat, ops):
    """A TransvectionWord on lat of single steps E(e, a), a random and
    orthogonal to a basis vector e of a U block, and whole reducer words."""
    word = tv.TransvectionWord(lat)
    for kind, s in ops:
        rng = random.Random(s)
        if kind == "reduce":
            x = lat.vec([rng.randint(-2, 2) for _ in range(lat.rank)])
            if not x.is_zero() and x.is_primitive():
                word = tv.TransvectionWord(
                    lat, word.steps + tv.reduce_to_canonical(lat, x).steps)
            continue
        i, j = rng.choice(lat.u_blocks)
        if rng.random() < 0.5:
            i, j = j, i
        e = [0] * lat.rank
        e[i] = 1
        a = [rng.randint(-2, 2) for _ in range(lat.rank)]
        a[j] = 0   # (e_i, a) = -a_j
        word.append(e, a)
    return word


@seed(16003)
@PINNED
@given(ops=st.lists(st.tuples(st.sampled_from(("step", "reduce")),
                              st.integers(0, 1 << 16)), min_size=1, max_size=5))
def test_word_data_isometry_and_inverse(k3, ops):
    """A word's data rebuilds from its steps, its isometry is the checked
    matrix of its column images, and its inverse undoes it."""
    w = _transvection_word(k3, ops)
    assert tv.TransvectionWord(k3, w.steps)._data == w._data
    g = w.isometry()
    cols = w.apply_columns(la.identity(k3.rank))
    assert g == lt.QIsometry(k3, la.transpose(cols)) and canonical_form(g)
    assert (w.inverse().isometry() * g).is_identity()


def _paths(g):
    """g rebuilt along every construction path."""
    lat = g.lattice
    one = lt.QIsometry.identity(lat)
    return [lt.QIsometry(lat, g.matrix),
            lt.QIsometry(lat, g.matrix, _trusted=True),
            lt.QIsometry(lat, [list(row) for row in g.matrix]),
            g * one, one * g, -(-g), g.inverse().inverse(),
            jio.isometry_from_json(jio.isometry_to_json(g), lat)]


@seed(16002)
@PINNED
@given(base_ops=_ops(BASE_OPS), llv_ops=_ops(LLV_OPS))
def test_eq_and_hash_agree_across_construction_paths(space, base_ops, llv_ops):
    base = space.base
    g, _ = _word(base, base_ops, lt.QIsometry.identity(base), _fid(base.rank))
    gl, _ = _word(space.lattice, llv_ops, llv.extend_to_llv(space, g),
                  _fid(space.dim), space)
    for h in (g, gl):
        for other in _paths(h):
            assert other == h and hash(other) == hash(h)
            assert (other.nums, other.d) == (h.nums, h.d)
            assert other.matrix == h.matrix
        assert -h != h and h * h.inverse() == lt.QIsometry.identity(h.lattice)


def test_matrix_view_carries_the_integer_form(k3n2):
    """g.matrix, at d = 1 and at d > 1, hands la.scaled_mat and la.mat_vec
    g's own form, equals and hashes like the tuple of its normalized rows,
    and a trusted constructor handed it keeps it and gives g back."""
    rng = random.Random(277)
    integral = tv.eichler_transvection(k3n2, k3n2.basis_vec(0),
                                       k3n2.basis_vec(4))
    rational = fc.reflect(k3n2, k3n2.vec([1, -3] + [0] * 21))   # norm 6
    assert integral.d == 1 and rational.d > 1
    for g in (integral, rational, -rational.inverse()):
        m = g.matrix
        rows = tuple(tuple(la.frac(Fraction(x, g.d)) for x in row)
                     for row in g.nums)
        assert la.scaled_mat(m) == (g.nums, g.d)
        assert m == rows and rows == m and hash(m) == hash(rows)
        assert {rows: 1}[m] == 1
        for _ in range(4):
            v = rand_qcoords(rng, k3n2)
            assert la.mat_vec(m, v) == g.apply_coords(v)
            assert la.mat_vec(m, v) == la.mat_vec(rows, v)
        h = lt.QIsometry(k3n2, m, _trusted=True)
        assert h == g and h.matrix is m
        assert lt.QIsometry(k3n2, m) == g and lt.QIsometry(k3n2, rows) == g
