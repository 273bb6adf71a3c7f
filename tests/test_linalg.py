import random
from fractions import Fraction

import pytest
import sympy

from conftest import canonical
from hklat import lattice as lt
from hklat import linalg as la
from hklat import llv
from hklat import mukai as mk


def _rand_mat(rng, n, m, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]


def test_rref_rank_kernel_against_sympy():
    rng = random.Random(1)
    for _ in range(15):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = _rand_mat(rng, n, m)
        assert la.rank(la.mat(a)) == sympy.Matrix(a).rank()
        kb = la.kernel(la.mat(a))
        for v in kb:
            assert all(x == 0 for x in la.mat_vec(la.mat(a), v))
        assert len(kb) == m - sympy.Matrix(a).rank()


def test_det_and_inverse_against_sympy():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.randint(1, 6)
        a = _rand_mat(rng, n, n)
        d = la.det(la.mat(a))
        assert d == sympy.Matrix(a).det()
        if d != 0:
            inv = la.inverse(la.mat(a))
            assert la.mat_mul(la.mat(a), inv) == la.identity(n)


def test_solve_consistent_and_inconsistent():
    a = la.mat([[1, 2], [2, 4]])
    assert la.solve(a, (1, 2)) is not None
    assert la.solve(a, (1, 3)) is None


def test_smith_normal_form_against_sympy():
    rng = random.Random(3)
    from sympy.matrices.normalforms import smith_normal_form
    mats = []
    for _ in range(15):
        n = rng.randint(1, 5)
        mats.append(_rand_mat(rng, n, n))
    # elimination alone leaves diag(6, 2): the divisibility repair folds it
    mats.append([[6, 0], [0, 2]])
    for a in mats:
        n = len(a)
        d, u, v = la.smith_normal_form(a)
        # u a v must be the diagonal, with unimodular transforms
        prod = la.mat_mul(la.mat_mul(u, la.mat(a)), v)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (d[i] if i == j else 0)
        assert abs(la.det(u)) == 1 and abs(la.det(v)) == 1
        ref = smith_normal_form(sympy.Matrix(a))
        for i in range(n):
            assert d[i] == abs(ref[i, i])


def test_congruent_diagonalize():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(1, 6)
        b = _rand_mat(rng, n, n, 3)
        g = [[b[i][j] + b[j][i] for j in range(n)] for i in range(n)]
        p, dvals = la.congruent_diagonalize(la.mat(g))
        m = la.mat_mul(la.mat_mul(p, la.mat(g)), la.transpose(p))
        for i in range(n):
            for j in range(n):
                assert m[i][j] == (dvals[i] if i == j else 0)


def test_scalar_normalization_keeps_ints():
    assert la.frac(Fraction(6, 2)) == 3 and isinstance(la.frac(Fraction(6, 2)), int)
    assert la.frac(7) == 7 and la.frac(Fraction(1, 2)) == Fraction(1, 2)
    assert la.ratio(1, 2) == Fraction(1, 2)
    assert isinstance(la.ratio(4, 2), int)
    # int and Fraction only: no float, bool or string reaches a matrix
    k3 = lt.preset("K3")
    u = lt.preset("U")
    space = llv.LLVSpace(u)
    assert lt.LatVec(u, (1, Fraction(1, 2))).coords == (1, Fraction(1, 2))
    assert lt.Lattice(((0, -1), (-1, 0))).gram == u.gram
    assert mk.MukaiVector(Fraction(4, 2), k3.zero(), 1).r == 2
    assert llv.mu(space, Fraction(1, 2)) == llv.mu(space, 2).inverse()
    for bad in (0.5, True, "1/2"):
        with pytest.raises(TypeError):
            la.frac(bad)
        with pytest.raises(TypeError):
            lt.LatVec(u, (bad, 0))
        with pytest.raises(TypeError):
            lt.Lattice(((0, bad), (bad, 0)))
        with pytest.raises(TypeError):
            mk.MukaiVector(bad, k3.zero(), 0)
        with pytest.raises(TypeError):
            llv.mu(space, bad)


def test_primitive_part_and_content():
    v = (Fraction(2, 3), Fraction(4, 3), 2)
    assert la.primitive_part(v) == (1, 2, 3)
    assert la.content((4, 6, 10)) == 2


# -- kernel contract: seeded rational matrices against sympy -----------------

_DENS = (1, 1, 2, 3, 4, 6, 7, 9, 2**67 + 3, 3**41)   # the last two exceed 64 bits


def _rand_rational(rng, bound=20):
    if rng.random() < 0.5:
        return 0
    return la.frac(Fraction(rng.randint(-bound, bound), rng.choice(_DENS)))


def _rand_qmat(rng, n, m):
    return tuple(tuple(_rand_rational(rng) for _ in range(m)) for _ in range(n))


def _rank_deficient(rng, n, m):
    """An n x m matrix whose last row is a rational combination of the others."""
    a = [list(row) for row in _rand_qmat(rng, n, m)]
    if n > 1:
        c = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(n - 1)]
        a[-1] = [sum(ci * a[i][j] for i, ci in enumerate(c)) for j in range(m)]
    return la.mat(a)


def _sym(a):
    return sympy.Matrix(len(a), len(a[0]) if a else 0,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in a for x in row])


def _from_sym(x):
    return Fraction(int(x.p), int(x.q))


def _shapes(rng, count):
    fixed = [(1, 1), (0, 3), (3, 0), (1, 5), (5, 1)]
    return fixed + [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(count)]


def test_mat_mul_and_mat_vec_against_sympy():
    rng = random.Random(11)
    for n, m in _shapes(rng, 40):
        k = rng.randint(1, 6)
        a, b = _rand_qmat(rng, n, m), _rand_qmat(rng, m, k)
        v = tuple(_rand_rational(rng) for _ in range(m))
        ab = la.mat_mul(a, b)
        av = la.mat_vec(a, v)
        assert canonical(ab) and canonical(av)
        assert len(ab) == n and len(av) == n
        if n and m:
            ref = _sym(a) * _sym(b)
            assert ab == tuple(tuple(_from_sym(ref[i, j]) for j in range(k))
                               for i in range(n))
            refv = _sym(a) * sympy.Matrix([sympy.Rational(x.numerator, x.denominator)
                                           for x in v])
            assert av == tuple(_from_sym(refv[i]) for i in range(n))
        else:
            assert all(x == 0 for x in av)


def test_det_against_sympy():
    rng = random.Random(12)
    for trial in range(40):
        n = rng.randint(1, 7)
        a = _rank_deficient(rng, n, n) if trial % 3 == 0 else _rand_qmat(rng, n, n)
        d = la.det(a)
        assert canonical(d)
        assert d == _from_sym(_sym(a).det())
    assert la.det(((Fraction(3, 2**70),),)) == Fraction(3, 2**70)
    assert la.det(()) == 1


def test_singular_det_is_zero_and_inverse_raises():
    rng = random.Random(13)
    for n in range(2, 7):
        a = _rank_deficient(rng, n, n)
        assert la.det(a) == 0 and type(la.det(a)) is int
        with pytest.raises(ZeroDivisionError):
            la.inverse(a)
    with pytest.raises(ZeroDivisionError):
        la.inverse(((0,),))


def test_rref_values_and_pivots_against_sympy():
    rng = random.Random(14)
    for trial, (n, m) in enumerate(_shapes(rng, 40)):
        a = _rank_deficient(rng, n, m) if trial % 2 else _rand_qmat(rng, n, m)
        r, pivots, rk = la.rref(a)
        assert canonical(r)
        assert len(r) == n and rk == len(pivots)
        if not (n and m):
            assert rk == 0
            continue
        ref, ref_pivots = _sym(a).rref()
        assert pivots == tuple(ref_pivots) and rk == la.rank(a)
        assert r == tuple(tuple(_from_sym(ref[i, j]) for j in range(m))
                          for i in range(n))


def test_inverse_and_solve_against_sympy():
    rng = random.Random(15)
    for trial in range(40):
        n = rng.randint(1, 6)
        a = _rand_qmat(rng, n, n)
        if la.det(a) == 0:
            continue
        inv = la.inverse(a)
        assert canonical(inv)
        ref = _sym(a).inv()
        assert inv == tuple(tuple(_from_sym(ref[i, j]) for j in range(n))
                            for i in range(n))
        assert la.mat_mul(a, inv) == la.identity(n)
        b = tuple(_rand_rational(rng) for _ in range(n))
        x = la.solve(a, b)
        assert canonical(x) and la.mat_vec(a, x) == b
    # rank-deficient systems: consistent right-hand sides are solved,
    # others are reported as None
    for trial in range(20):
        n, m = rng.randint(2, 6), rng.randint(1, 6)
        a = _rank_deficient(rng, n, m)
        x0 = tuple(_rand_rational(rng) for _ in range(m))
        b = la.mat_vec(a, x0)
        x = la.solve(a, b)
        assert x is not None and canonical(x) and la.mat_vec(a, x) == b
        kb = la.kernel(a)
        assert canonical(kb) and len(kb) == m - la.rank(a)
        assert all(la.mat_vec(a, k) == (0,) * n for k in kb)
    assert la.solve(((0, 0),), (1,)) is None


def test_kernels_keep_ints_integral():
    a = la.mat([[Fraction(2, 4), Fraction(3, 2)], [Fraction(1, 3), Fraction(2, 3)]])
    prod = la.mat_mul(a, ((2, 0), (0, 6)))
    assert prod == ((1, 9), (Fraction(2, 3), 4))
    assert [type(x) for row in prod for x in row] == [int, int, Fraction, int]
    assert type(la.det(((2, 1), (1, 1)))) is int
    assert la.det(a) == Fraction(-1, 6)
    r, pivots, rk = la.rref(((2, 4), (1, 2)))
    assert r == ((1, 2), (0, 0)) and pivots == (0,) and rk == 1
    assert all(type(x) is int for row in r for x in row)


def test_det_mod_p_against_bareiss():
    rng = random.Random(271)
    for _ in range(25):
        n = rng.randint(1, 7)
        a = la.mat(_rand_mat(rng, n, n, bound=9))
        r = la.det_mod_p(a)
        assert 0 <= r < la.P == 32749
        assert r == la.det(a) % la.P
    singular = la.mat([[1, 2, 3], [2, 4, 6], [4, 5, 6]])
    assert la.det(singular) == 0 and la.det_mod_p(singular) == 0
    assert la.det_mod_p(()) == 1
