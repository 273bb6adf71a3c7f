"""Property tests of the canonical integer forms of QIsometry, on K3n:2
and on its LLV space, and of LatVec, on K3n:2 and on a rank-4 lattice.

Words of reflections, Eichler transvections, mu, tau, extend_to_llv,
inverses and negations must keep d > 0 and gcd(d, content) = 1, match a
product of plain-Fraction reference matrices built from the textbook
formulas, and give equal isometries with equal hashes along every
construction path.  Vector arithmetic, pairing, divisibility and
primitive parts must match the plain-Fraction helpers of conftest.
Hypothesis runs under a derandomized profile with no example database,
and each test is pinned to a seed, so tier-1 stays deterministic.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
import sympy
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import (canonical, canonical_form, content, frac_divisibility,
                      frac_pair, frac_primitive_part, is_integral_vec,
                      is_zero_vec, rand_anisotropic, rand_qcoords, vec_add,
                      vec_scale, vec_sub)
from hklat import factor as fc
from hklat import jsonio as jio
from hklat import linalg as la
from hklat import lattice as lt
from hklat import llv
from hklat import transvect as tv
from hklat.errors import LatticeError, NotIntegral

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
    cols = [w.apply(k3.basis_vec(i)).coords for i in range(k3.rank)]
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


# -- LatVec ------------------------------------------------------------------

# an even rank-4 lattice with det -7 and no delta: U + [[2, 1], [1, 4]]
RANK4 = lt.preset("custom", gram=((0, -1, 0, 0), (-1, 0, 0, 0),
                                  (0, 0, 2, 1), (0, 0, 1, 4)))
SCALARS = (0, 1, -3, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 7))


def _fvec(rng, lat):
    """Random plain-Fraction coordinates (about half zero, denominators up
    to 9, not reduced to ints)."""
    return [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9)))
            if rng.random() < 0.5 else Fraction(0) for _ in range(lat.rank)]


def _vec_form(v):
    """Whether v holds the canonical form, with coords as its view."""
    return (type(v.nums) is tuple and all(type(x) is int for x in v.nums)
            and type(v.d) is int and v.d > 0 and gcd(v.d, *v.nums) == 1
            and canonical(v.coords)
            and v.coords == tuple(Fraction(x, v.d) for x in v.nums))


def _same(v, ref):
    """v is in canonical form and equals the plain-Fraction vector ref."""
    assert _vec_form(v) and v.coords == tuple(ref)


@seed(16004)
@PINNED
@given(seeds=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=4))
def test_latvec_matches_the_fraction_reference(k3n2, seeds):
    """Every LatVec operation agrees with the plain-Fraction helpers, on
    rational, integral and zero vectors, and keeps the canonical form."""
    for s in seeds:
        rng = random.Random(s)
        for lat in (k3n2, RANK4):
            fx, fy = _fvec(rng, lat), _fvec(rng, lat)
            x, y = lat.vec(fx), lat.vec(fy)
            den = lcm(*[c.denominator for c in fx])
            fz = vec_scale(den, fx)
            for v, fv in ((x, fx), (y, fy), (x - x, vec_sub(fx, fx)),
                          (den * x, fz)):
                _same(v, fv)
                _same(-v, vec_scale(-1, fv))
                _same(v + y, vec_add(fv, fy))
                _same(v - y, vec_sub(fv, fy))
                for c in SCALARS:
                    _same(c * v, vec_scale(c, fv))
                assert v.pair(y) == frac_pair(lat, fv, fy)
                assert v.pair(y) == lat.pair_coords(v.coords, y.coords)
                assert v.norm() == frac_pair(lat, fv, fv)
                assert v.is_zero() == is_zero_vec(fv)
                assert v.is_integral() == is_integral_vec(fv)
                assert v.is_primitive() == (is_integral_vec(fv)
                                            and content(fv) == 1)
                if is_zero_vec(fv):
                    with pytest.raises(LatticeError):
                        v.primitive_part()
                    with pytest.raises(LatticeError):
                        lt.divisibility(lat, v)
                    continue
                _same(v.primitive_part(), frac_primitive_part(fv))
                if is_integral_vec(fv):
                    assert lt.divisibility(lat, v) == frac_divisibility(lat, fv)
                else:
                    with pytest.raises(NotIntegral):
                        lt.divisibility(lat, v)
            # equal vectors built along different paths hash alike
            for v in ((x + y) - y, -(-x), Fraction(1, 2) * (2 * x),
                      lat.vec(x.coords), lt.LatVec(lat, fx),
                      jio.vector_from_json(jio.vector_to_json(x), lat)):
                assert v == x and hash(v) == hash(x)
                assert (v.nums, v.d) == (x.nums, x.d)
            assert (x == y) == (fx == fy) and (x + y != x) == any(fy)
