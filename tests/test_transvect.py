import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from conftest import (canonical, frac_pair, rand_primitive,
                      rand_primitive_norm, rand_qcoords, rand_transvection,
                      rand_vec, subprocess_env)
from hklat import factor as fc
from hklat import linalg as la
from hklat import lattice as lt
from hklat import transvect as tv
from hklat.errors import (LatticeError, NonPrimitiveLambda, NormMismatch,
                          SearchExhausted)
from test_qisometry import PINNED


def test_transvection_defining_properties(k3):
    rng = random.Random(23)
    e = k3.basis_vec(0)
    a = k3.basis_vec(5)
    E = tv.eichler_transvection(k3, e, a)
    assert E.is_integral() and E.det() == 1
    assert E.apply(e) == e
    # fixes everything orthogonal to e and a
    for _ in range(10):
        y = rand_vec(rng, k3)
        if y.pair(e) == 0 and y.pair(a) == 0:
            assert E.apply(y) == y
    nu, det, disc = lt.characters(E)
    assert (nu, det, disc) == (1, 1, 1)


def test_transvection_composition_law(k3):
    rng = random.Random(29)
    e = k3.basis_vec(1)
    for _ in range(5):
        a = rand_vec(rng, k3)
        b = rand_vec(rng, k3)
        if e.pair(a) != 0 or e.pair(b) != 0:
            continue
        Ea = tv.eichler_transvection(k3, e, a)
        Eb = tv.eichler_transvection(k3, e, b)
        Eab = tv.eichler_transvection(k3, e, a + b)
        assert (Ea * Eb).matrix == Eab.matrix


def test_transvection_rejects_bad_data(k3):
    with pytest.raises(LatticeError):
        tv.eichler_transvection(k3, k3.vec([1, -1] + [0] * 20), k3.basis_vec(5))
    with pytest.raises(LatticeError):
        tv.eichler_transvection(k3, k3.basis_vec(0), k3.basis_vec(1))


def test_reduce_to_canonical_contracts(k3):
    rng = random.Random(31)
    for _ in range(25):
        x = rand_primitive(rng, k3)
        word = tv.reduce_to_canonical(k3, x)
        g = word.isometry()
        assert g.apply(x) == tv.canonical_vector(k3, x.norm())
        assert lt.characters(g) == (1, 1, 1)


def test_reduce_canonical_is_empty_word(k3):
    for norm in (2, 4, 12, -6):
        c = tv.canonical_vector(k3, norm)
        word = tv.reduce_to_canonical(k3, c)
        assert len(word) == 0


def test_eichler_move(k3):
    rng = random.Random(37)
    for norm in (2, 4, 6, 12):
        x = rand_primitive_norm(rng, k3, norm)
        y = rand_primitive_norm(rng, k3, norm)
        word = tv.eichler_move(k3, x, y)
        assert word.apply(x) == y
        g = word.isometry()
        assert lt.characters(g) == (1, 1, 1)
    with pytest.raises(NormMismatch):
        tv.eichler_move(k3, rand_primitive_norm(rng, k3, 2),
                        rand_primitive_norm(rng, k3, 4))


def test_move_into_L(k3n2):
    rng = random.Random(41)
    # alpha = lambda + delta with (lambda,lambda) = 4 -> (alpha,alpha) = 2
    lam = k3n2.vec([1, -2] + [0] * 21)
    assert lam.norm() == 4
    alpha = lam + lt.delta_vector(k3n2)
    assert alpha.norm() == 2
    word = tv.move_into_L(k3n2, alpha)
    g = word.isometry()
    out = g.apply(alpha)
    assert out == tv.canonical_vector(k3n2, 2)
    assert out.coords[k3n2.delta_index] == 0
    assert lt.membership(g, "Gamma")[0]
    # k = 0 degenerates to a plain reduction inside L
    word0 = tv.move_into_L(k3n2, lam)
    assert word0.isometry().apply(lam) == tv.canonical_vector(k3n2, 4)
    # non-primitive L-part is rejected
    with pytest.raises(NonPrimitiveLambda):
        tv.move_into_L(k3n2, 2 * lam + lt.delta_vector(k3n2))


def test_word_inverse(k3):
    rng = random.Random(43)
    x = rand_primitive(rng, k3)
    word = tv.reduce_to_canonical(k3, x)
    inv = word.inverse()
    assert inv.apply(word.apply(x)) == x
    assert (word.isometry() * inv.isometry()).is_identity()


def test_eichler_move_divisibility_mismatch(k3n2):
    from hklat.errors import DivisibilityMismatch
    delta = lt.delta_vector(k3n2)            # norm -2, divisibility 2
    v = k3n2.vec([1, 1] + [0] * 21)          # norm -2, divisibility 1
    assert v.norm() == delta.norm()
    with pytest.raises(DivisibilityMismatch):
        tv.eichler_move(k3n2, v, delta)


def _textbook_transvection(lat, e, a, x):
    """x - (a,x) e + (e,x) a - (a,a)/2 (e,x) e, on plain Fractions."""
    ax, ex = frac_pair(lat, a, x), frac_pair(lat, e, x)
    half_aa = frac_pair(lat, a, a) / 2
    return tuple(Fraction(xi) - ax * ei + ex * ai - half_aa * ex * ei
                 for xi, ei, ai in zip(x, e, a))


def test_transvection_against_textbook_formula(k3):
    rng = random.Random(71)
    e_mixed = k3.vec([1, 0, 1] + [0] * 19)    # e1 + f1: isotropic, not a basis vector
    assert e_mixed.norm() == 0
    anisotropic_a = 0
    for e in (k3.basis_vec(1), e_mixed):
        done = 0
        while done < 4:
            a = rand_vec(rng, k3)
            if a.is_zero() or e.pair(a) != 0:
                continue
            done += 1
            anisotropic_a += a.norm() != 0
            E = tv.eichler_transvection(k3, e, a)
            assert canonical(E.matrix)
            word = tv.TransvectionWord(k3, [(e.coords, a.coords)])
            for _ in range(3):
                x = rand_qcoords(rng, k3)
                want = _textbook_transvection(k3, e.coords, a.coords, x)
                assert E.apply(k3.vec(x)).coords == want
                got = word.apply(k3.vec(x)).coords
                assert got == want and canonical(got)
    assert anisotropic_a >= 4
    # an odd lattice U + <1> + <-1>: (a,a) = 1 makes E(e,a) non-integral
    odd = lt.Lattice(((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)))
    e, a = odd.basis_vec(0), odd.basis_vec(2)
    E = tv.eichler_transvection(odd, e, a)
    assert not E.is_integral() and canonical(E.matrix)
    word = tv.TransvectionWord(odd, [(e.coords, a.coords)] * 2)
    for _ in range(3):
        x = rand_qcoords(rng, odd)
        want = _textbook_transvection(odd, e.coords, a.coords, x)
        assert E.apply(odd.vec(x)).coords == want
        want = _textbook_transvection(odd, e.coords, a.coords, want)
        got = word.apply(odd.vec(x)).coords
        assert got == want and canonical(got)


def _textbook_word(lat, word, x):
    for e, a in word.steps:
        x = _textbook_transvection(lat, e, a, x)
    return x


def test_word_isometry_matches_its_steps(k3, monkeypatch):
    rng = random.Random(79)
    word = tv.reduce_to_canonical(k3, rand_primitive(rng, k3))
    assert len(word) > 3
    for _ in range(3):
        x = rand_qcoords(rng, k3)
        want = _textbook_word(k3, word, x)
        assert word.isometry().apply(k3.vec(x)).coords == want
        assert word.apply(k3.vec(x)).coords == want
    # rational vectors with other denominators
    x = rand_qcoords(rng, k3, dens=(5, 9))
    got = word.apply(k3.vec(x)).coords
    assert got == _textbook_word(k3, word, x) and canonical(got)
    # the rewrite's f1 and f2 come from one integer pass of the inverse
    # word over (e_i, e_j)
    passes = []
    real = tv._step_columns

    def recorded(data, cols):
        xs = [list(c) for c in cols]
        scale = real(data, cols)
        passes.append((xs, [Fraction(x, scale) for c in cols for x in c]))
        return scale
    monkeypatch.setattr(fc, "_step_columns", recorded)
    u = k3.vec([1, 2, 1, -1, 1] + [0] * 17)
    assert u.norm() < 0
    fc.positive_reflection_rewrite(k3, u)
    [(xs, images)] = passes
    ginv = tv.reduce_to_canonical(k3, u).inverse()
    assert len(ginv) > 3
    i, j = k3.u_blocks[0]
    assert xs == [list(k3.basis_vec(i).nums), list(k3.basis_vec(j).nums)]
    f1, f2 = images[:k3.rank], images[k3.rank:]
    assert tuple(f1) == _textbook_word(k3, ginv, k3.basis_vec(i).coords)
    assert tuple(f2) == _textbook_word(k3, ginv, k3.basis_vec(j).coords)


# primitive, divisibility 1; its reduction takes 20 steps
_BUDGET_VECTOR = [2, 3, 5, 7, 1, 0, 1, -1] + [0] * 14


def test_reduction_budget_raises(k3, monkeypatch):
    assert len(tv.reduce_to_canonical(k3, k3.vec(_BUDGET_VECTOR))) > 3
    monkeypatch.setattr(tv, "_MAX_REDUCE_STEPS", 3)
    with pytest.raises(SearchExhausted, match="step budget"):
        tv.reduce_to_canonical(k3, k3.vec(_BUDGET_VECTOR))


_BUDGET_SCRIPT = """
import sys
from hklat import lattice as lt, transvect as tv
from hklat.errors import SearchExhausted
tv._MAX_REDUCE_STEPS = 3
k3 = lt.preset("K3")
try:
    tv.reduce_to_canonical(k3, k3.vec(%r))
except SearchExhausted as exc:
    print("raised", sys.flags.optimize, "step budget" in str(exc))
else:
    print("returned", sys.flags.optimize)
""" % (_BUDGET_VECTOR,)


def _under_O(script):
    """The stdout words of script run under python -O."""
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True, timeout=300,
                       env=subprocess_env())
    assert r.returncode == 0, r.stderr
    return r.stdout.split()


def test_reduction_budget_raises_under_O():
    assert _under_O(_BUDGET_SCRIPT) == ["raised", "1", "True"]


_FINISH_SCRIPT = """
import sys
from hklat import lattice as lt, transvect as tv
k3 = lt.preset("K3")
# x = e1 + 2 e2 gives P = [[1, 0], [0, -2]], not diag(., 1)
reducer = tv._Reducer(k3, (1, 2) + (0,) * 20)
try:
    reducer._finish_with_unit()
except AssertionError as exc:
    print("raised", sys.flags.optimize, "P22 = 1" in str(exc),
          len(reducer.word))
else:
    print("returned", sys.flags.optimize)
"""


def test_finish_with_unit_raises_under_O():
    """The reducer's invariant checks are raises, so they still run under
    python -O."""
    assert _under_O(_FINISH_SCRIPT) == ["raised", "1", "True", "0"]


def _is_move(lat, e, a):
    """Whether (e, a) is a transvection step of the reduction: e a basis
    vector of a U block, and (e, a) = 0."""
    u = {i for block in lat.u_blocks for i in block}
    return (sorted(e) == [0] * (lat.rank - 1) + [1] and e.index(1) in u
            and lat.pair_coords(e, a) == 0)


def test_reducer_steps_read_gram_rows(k3, k3n2):
    """Each reducer step is E(e_i, a) with e_i a basis vector of a U block
    and (e_i, a) = 0, as int tuples; the word rebuilt from its steps, each
    checked by the constructor, acts as the word does; eichler_move and
    inverse still round-trip."""
    rng = random.Random(83)
    general = 0
    for lat in (k3, k3n2):
        for _ in range(6):
            x = rand_primitive(rng, lat)
            if lat is k3:
                word = tv.reduce_to_canonical(lat, x)
            else:
                word = tv.move_into_L(lat, x)
            steps = word.steps
            assert len(steps) == len(word)
            for e, a in steps:
                assert type(e) is tuple and type(a) is tuple
                assert all(type(c) is int for c in e + a)
                assert _is_move(lat, e, a)
                general += sum(1 for c in a if c) > 1
            rebuilt = tv.TransvectionWord(lat, steps)
            assert rebuilt.apply(x) == word.apply(x)
            assert rebuilt.isometry() == word.isometry()
            y = word.apply(x)
            assert word.inverse().apply(y) == x
    # the Bezout and pivot moves of _kill_w are among the steps
    assert general
    for norm in (-2, 2, 4):
        x = rand_primitive_norm(rng, k3, norm)
        y = rand_primitive_norm(rng, k3, norm)
        word = tv.eichler_move(k3, x, y)
        assert word.apply(x) == y and word.inverse().apply(y) == x
        # the joined word is the joined steps, checked again
        wx, wy = tv.reduce_to_canonical(k3, x), tv.reduce_to_canonical(k3, y)
        joined = wx.steps + wy.inverse().steps
        assert word.steps == joined
        assert word.isometry() == tv.TransvectionWord(k3, joined).isometry()


@lru_cache(maxsize=None)
def _preset(name):
    kind, _, n = name.partition(":")
    return lt.preset(kind, int(n) if n else None)


def _replay(lat, steps, cols):
    """Apply steps to integer columns in place, one by one, each through
    its own _step_data; the factor on the denominator."""
    scale = 1
    for e, a in steps:
        scale *= tv._step_columns([tv._step_data(lat, e, a)], cols)
    return scale


def _replayed_isometry(lat, steps):
    cols = [list(c) for c in la.identity(lat.rank)]
    d = _replay(lat, steps, cols)
    return lt.QIsometry(lat, [[Fraction(c[r], d) for c in cols]
                              for r in range(lat.rank)])


def _assert_replays(lat, word, v):
    """word's apply, isometry and inverse are its steps, replayed one at a
    time through the checked step data."""
    steps = word.steps
    assert len(word) == len(steps)
    x = list(v.nums)
    d = v.d * _replay(lat, steps, [x])
    assert word.apply(v).coords == tuple(Fraction(c, d) for c in x)
    assert word.isometry() == _replayed_isometry(lat, steps)
    inv = word.inverse()
    inv_steps = [(e, tuple(-c for c in a)) for e, a in reversed(steps)]
    assert inv.steps == inv_steps and len(inv) == len(steps)
    assert inv.isometry() == _replayed_isometry(lat, inv_steps)
    assert inv.apply(word.apply(v)) == v


@seed(38001)
@PINNED
@given(name=st.sampled_from(("K3", "K3n:2", "K3n:5", "Kummer:2")),
       s=st.integers(0, 1 << 16))
def test_words_replay_as_their_checked_steps(name, s):
    """On K3, K3n:2, K3n:5 and Kummer:2, reduction words, move_into_L words
    and eichler_move concatenations act, invert and count as their .steps
    replayed one by one through _step_data."""
    lat = _preset(name)
    rng = random.Random(s)
    while True:
        x = rand_primitive(rng, lat, bound=3)
        if lt.divisibility(lat, x) == 1:
            break
    v = lat.vec(rand_qcoords(rng, lat))
    wx = tv.reduce_to_canonical(lat, x)
    _assert_replays(lat, wx, v)
    # y = E(x) has x's norm, divisibility and class
    y = rand_transvection(rng, lat).apply(x)
    move = tv.eichler_move(lat, x, y)
    assert move.steps == wx.steps + tv.reduce_to_canonical(lat, y).inverse().steps
    _assert_replays(lat, move, v)
    if lat.delta_index is not None:
        _assert_replays(lat, tv.move_into_L(lat, x), v)
