import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import sym_mul, sym_to_dense
from hklat import factor as fc
from hklat import lattice as lt
from hklat import llv
from hklat import pontryagin as pg
from hklat import snrep as sn
from hklat.errors import EvenDimensionalGuard, NotGraded, SolveFailure


@pytest.fixture(scope="module")
def small_model():
    base = lt.Lattice([[0, -1, 0], [-1, 0, 0], [0, 0, -2]], name="t3",
                      u_blocks=((0, 1),))
    return pg.SHModel(llv.LLVSpace(base), 2)


@pytest.fixture(scope="module")
def big_model(k3n2):
    return pg.SHModel(llv.LLVSpace(k3n2), 2)


def _rand_graded(rng, space, scale_choices=(1, 2, 3)):
    f = lt.QIsometry.identity(space.base)
    for _ in range(2):
        while True:
            v = space.base.vec([rng.randint(-2, 2)
                                for _ in range(space.base.rank)])
            if v.norm() != 0:
                break
        f = fc.reflect(space.base, v) * f
    s = rng.choice(scale_choices)
    return llv.mu(space, s) * llv.extend_to_llv(space, f)


def _assert_entries(x):
    """Values are ints or reduced Fractions with denominator > 1, never 0."""
    for c in x.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _ref_from_words(M, words):
    out = {}
    for w, c in words.items():
        for m, v in M.psi_word(tuple(sorted(w))).items():
            out[m] = out.get(m, Fraction(0)) + Fraction(c) * Fraction(v)
    return {m: c for m, c in out.items() if c}


def _ref_cup(M, x, y):
    """Plain-Fraction cup: the polynomial product of the word
    decompositions, pushed through psi_word."""
    wx, wy = M.to_words(x), M.to_words(y)
    assert _ref_from_words(M, wx) == x and _ref_from_words(M, wy) == y
    prod = {}
    for w1, c1 in wx.items():
        for w2, c2 in wy.items():
            if len(w1) + len(w2) <= 2 * M.n:
                key = tuple(sorted(w1 + w2))
                prod[key] = prod.get(key, Fraction(0)) \
                    + Fraction(c1) * Fraction(c2)
    return _ref_from_words(M, prod)


def _mixed_elements(rng, M, count):
    """Random elements and their images under a rational graded isometry,
    which spreads them over the pieces with mixed denominators."""
    out = []
    for _ in range(count):
        x = M.random_element(rng).data
        g = llv.mu(M.space, Fraction(rng.choice((2, 3)), rng.choice((1, 5))))
        g = g * _rand_graded(rng, M.space)
        out += [x, M.apply_llv(g, x)]
    return out


def test_even_dimensional_guard(k3):
    with pytest.raises(EvenDimensionalGuard):
        pg.SHModel(llv.LLVSpace(k3), 2)


def test_piece_dims(small_model, big_model):
    assert small_model._piece_dims == {-4: 1, -2: 3, 0: 6, 2: 3, 4: 1}
    assert big_model._piece_dims == {-4: 1, -2: 23, 0: 276, 2: 23, 4: 1}
    assert sum(big_model._piece_dims.values()) == 324


def test_units_and_degrees(small_model):
    M = small_model
    one, pt = M.unit_cup(), M.unit_star()
    assert one.eigenvalue() == -2 * M.n and one.degree() == 0
    assert pt.eigenvalue() == 2 * M.n and pt.degree() == 4 * M.n
    assert one.rho_tau() == pt
    lam = M.space.base.vec([0, 0, 1])
    x = M.element(M.psi([lam]))
    assert x.degree() == 2
    assert x.rho_tau().degree() == 4 * M.n - 2


def test_cup_ring(small_model):
    rng = random.Random(157)
    M = small_model
    one = M.unit_cup()
    for _ in range(25):
        x, y, z = (M.random_element(rng) for _ in range(3))
        assert one.cup(x) == x
        assert x.cup(y) == y.cup(x)
        assert x.cup(y).cup(z) == x.cup(y.cup(z))
    # cup(Psi(lam), Psi(mu)) = Psi(lam mu)
    lam = M.space.base.vec([0, 1, 1])
    mu_v = M.space.base.vec([1, 0, -1])
    lhs = M.element(M.psi([lam])).cup(M.element(M.psi([mu_v])))
    assert sn.sym_eq(lhs.data, M.psi([lam, mu_v]))
    # degree additivity on nonzero products
    x = M.element(M.psi([lam]))
    y = M.element(M.psi([mu_v]))
    xy = x.cup(y)
    if not xy.is_zero():
        assert xy.degree() == x.degree() + y.degree()


def test_star_ring(small_model):
    rng = random.Random(163)
    M = small_model
    pt = M.unit_star()
    for _ in range(25):
        x, y, z = (M.random_element(rng) for _ in range(3))
        assert x.star(pt) == x
        assert x.star(y) == y.star(x)
        assert x.star(y).star(z) == x.star(y.star(z))
    # star grading: deg(x*y) = deg x + deg y - 4n on nonzero products
    for _ in range(10):
        x, y = M.random_element(rng), M.random_element(rng)
        px = M.pieces(x.data)
        py = M.pieces(y.data)
        for jx, dx in px.items():
            for jy, dy in py.items():
                p = M.element(M.star(dx, dy))
                if not p.is_zero():
                    degx = M.degree_of_eigenvalue(jx)
                    degy = M.degree_of_eigenvalue(jy)
                    assert p.degree() == degx + degy - 4 * M.n
    # top * top lands in degree 4n
    top = M.unit_star()
    assert top.star(top).degree() == 4 * M.n


def test_rho_tau_is_ring_isomorphism(small_model):
    rng = random.Random(167)
    M = small_model
    for _ in range(15):
        x, y = M.random_element(rng), M.random_element(rng)
        assert x.cup(y).rho_tau() == x.rho_tau().star(y.rho_tau())
        assert x.rho_tau().rho_tau() == x


def test_mu_action(small_model):
    rng = random.Random(173)
    M = small_model
    one = M.unit_cup()
    assert one.mu(Fraction(2)) == Fraction(1, 4) * one   # eigenvalue -2n = -4
    x = M.random_element(rng)
    assert x.mu(1) == x
    assert x.mu(2).mu(3) == x.mu(6)
    with pytest.raises(Exception):
        x.mu(0)


def test_conjugation_check(small_model):
    rng = random.Random(179)
    M = small_model
    pairs = [(M.random_element(rng), M.random_element(rng)) for _ in range(4)]
    ok, info = pg.conjugation_check(M, llv.tau(M.space), pairs)
    assert ok and info["kind"] == -1 and info["t"] == 1
    g = _rand_graded(rng, M.space)
    ok, info = pg.conjugation_check(M, g, pairs)
    assert ok and info["kind"] == 1
    ag = llv.tau(M.space) * _rand_graded(rng, M.space)
    ok, info = pg.conjugation_check(M, ag, pairs)
    assert ok and info["kind"] == -1
    with pytest.raises(NotGraded):
        pg.conjugation_check(M, llv.b_field(M.space, M.space.base.vec([0, 0, 1])),
                             pairs)


def test_star_independent_of_reversing_isometry(small_model):
    rng = random.Random(181)
    M = small_model
    pairs = [(M.random_element(rng), M.random_element(rng)) for _ in range(3)]
    for _ in range(5):
        g = llv.tau(M.space) * _rand_graded(rng, M.space)
        for x, y in pairs:
            assert pg.star_via(M, g, x, y) == x.star(y)


def test_eta_and_proportionality(small_model):
    rng = random.Random(191)
    M = small_model
    t = llv.tau(M.space)
    et = pg.eta(M, t)
    x = M.random_element(rng)
    assert et(et(x)) == x
    ident = pg.eta(M, lt.QIsometry.identity(M.space.lattice))
    assert ident(x) == x
    # eta_tau maps degree 2 isomorphically onto degree 4n-2
    lam_elts = [M.element(M.psi_word((i,))) for i in range(M.base_rank)]
    images = [e.rho_tau() for e in lam_elts]
    for e in images:
        assert e.degree() == 4 * M.n - 2
    from hklat import linalg as la
    cols = [sym_to_dense(M.sym, e.data) for e in images]
    assert la.rank(la.mat(cols)) == M.base_rank
    # a single scalar relates the degree-2 restriction to the H2-level map
    phi = t * _rand_graded(rng, M.space)
    s = pg.proportionality_check_degree2(M, phi)
    assert s != 0


def test_big_model_fast_paths(big_model):
    rng = random.Random(193)
    M = big_model
    one, pt = M.unit_cup(), M.unit_star()
    for _ in range(5):
        x, y = M.random_element(rng), M.random_element(rng)
        assert one.cup(x) == x
        assert x.star(pt) == x
        assert x.cup(y) == y.cup(x)
        assert x.cup(y).rho_tau() == x.rho_tau().star(y.rho_tau())


def test_cup_star_match_fraction_reference(small_model, big_model):
    rng = random.Random(197)
    for M, count in ((small_model, 6), (big_model, 1)):
        elts = _mixed_elements(rng, M, count) + [{}]
        assert any(type(c) is Fraction for x in elts for c in x.values())
        for i, x in enumerate(elts):
            for y in elts[i:i + 3]:
                got = M.cup(x, y)
                assert got == _ref_cup(M, x, y)
                _assert_entries(got)
                got = M.star(x, y)
                assert got == M.rho_tau(_ref_cup(M, M.rho_tau(x), M.rho_tau(y)))
                _assert_entries(got)
        # x cup (-x') cancels against x cup x'
        x, y = elts[0], elts[1]
        neg = {m: -c for m, c in y.items()}
        assert sn.sym_add(M.cup(x, y), M.cup(x, neg)) == {}
        _assert_entries(M.from_words(M.to_words(y)))


def test_piece_solver_rejects_residue(small_model):
    # (e_3, e_3) = -2: the monomial is not in S_[n], nothing spans it
    with pytest.raises(SolveFailure):
        small_model.to_words({(3, 3): 1})


def _residue_product():
    """A fresh small model whose Psi of one non-basis product word w1 w2 is
    replaced by the residue monomial (3, 3), and the basis words w1, w2."""
    base = lt.Lattice([[0, -1, 0], [-1, 0, 0], [0, 0, -2]], name="t3",
                      u_blocks=((0, 1),))
    M = pg.SHModel(llv.LLVSpace(base), 2)
    basis = set(M._basis_words)
    for w1 in M._basis_words:
        for w2 in M._basis_words:
            p = tuple(sorted(w1 + w2))
            if len(p) <= 2 * M.n and p not in basis and M.psi_word(p):
                M._psi_memo[p] = ({(3, 3): 1}, 1)
                return M, w1, w2
    raise AssertionError("no non-basis product word")


def test_product_word_rejects_residue():
    M, w1, w2 = _residue_product()
    with pytest.raises(SolveFailure):
        M.cup(M.psi_word(w1), M.psi_word(w2))


_RESIDUE_SCRIPT = """
from hklat.errors import SolveFailure
from test_pontryagin import _residue_product
M, w1, w2 = _residue_product()
try:
    M.cup(M.psi_word(w1), M.psi_word(w2))
    print("returned")
except SolveFailure:
    print("raised", __debug__)
"""


def test_product_word_rejects_residue_under_O():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(here), "src"), here]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    r = subprocess.run([sys.executable, "-O", "-c", _RESIDUE_SCRIPT],
                       capture_output=True, text=True, timeout=120, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["raised", "False"]


def _assert_recorded(M, got, plain):
    """got, built from recorded inputs, equals plain, built from plain dict
    copies, and records the decomposition that to_words solves."""
    assert type(got) is pg.SHData and got.words is not None
    assert got == plain
    words = M.to_words(got)   # read off the record
    assert words == M.to_words(dict(got))
    _assert_entries(got)
    _assert_entries(words)


def test_recorded_products_match_record_free(small_model, big_model):
    rng = random.Random(239)
    for M, count in ((small_model, 4), (big_model, 1)):
        elts = [M.element(x).data for x in _mixed_elements(rng, M, count)]
        elts += [M.random_element(rng).data for _ in range(2)]
        for x, y, z in zip(elts, elts[1:], elts[2:]):
            for e in (x, y, z):
                M.to_words(e)   # stores the record on the SHData
                assert e.words is not None
            fx, fy, fz = dict(x), dict(y), dict(z)
            for op in (M.cup, M.star):
                _assert_recorded(M, op(op(x, y), z),
                                 op(dict(op(fx, fy)), fz))
            _assert_recorded(M, M.rho_tau(x), M.rho_tau(fx))
            assert M.rho_tau(fx).words is None
            # an SHElt keeps the record of the data it is built from
            xy = M.cup(x, y)
            assert M.element(xy).data.words == xy.words


def test_rho_tau_table(small_model, big_model):
    for M in (small_model, big_model):
        for b in M._basis_words:
            r = M._tau_coords(b)
            got = M.from_words({w: Fraction(c, r.d) for w, c in r.pairs})
            assert got == M.rho_tau(M.psi_word(b))
            _assert_entries(got)
    # on K3n:2 rho_tau sends every basis word to a multiple of one other
    assert len(big_model._tau) == 324
    assert all(len(r.pairs) == 1 for r in big_model._tau.values())


def test_changed_record_is_forgotten(small_model):
    M = small_model
    rng = random.Random(241)
    x, y = (M.random_element(rng).data for _ in range(2))
    p = M.cup(x, y)
    assert p and p.words is not None and type(dict(p)) is dict
    words = M.to_words(p)
    for m in list(p):
        p[m] = 2 * p[m]
    assert p.words is None
    assert M.to_words(p) == {w: 2 * c for w, c in words.items()}
    changes = [lambda d, m: d.__delitem__(m), lambda d, m: d.pop(m),
               lambda d, m: d.popitem(), lambda d, m: d.setdefault((0, 0), 1),
               lambda d, m: d.update({m: 1}), lambda d, m: d.__ior__({m: 1}),
               lambda d, m: d.clear()]
    for change in changes:
        p = M.cup(x, y)
        change(p, next(iter(p)))
        assert p.words is None
    p = M.cup(x, y)
    p.clear()
    assert M.to_words(p) == {} and p.words == ({}, 1)


def test_proportionality_gate(small_model, monkeypatch):
    rng = random.Random(199)
    M = small_model
    phi = llv.tau(M.space) * _rand_graded(rng, M.space)
    assert pg.proportionality_check_degree2(M, phi) != 0
    monkeypatch.setattr(M, "to_words", lambda x: {})
    with pytest.raises(SolveFailure):
        pg.proportionality_check_degree2(M, phi)


def _matching_sum(q, w):
    """Sum over the perfect matchings of the indices of w of the product of
    the pairings q[i][j] of matched indices."""
    if not w:
        return 1
    first, rest = w[0], w[1:]
    return sum(q[first][rest[k]] * _matching_sum(q, rest[:k] + rest[k + 1:])
               for k in range(len(rest)))


def test_top_piece_matches_polarized_fujiki(big_model):
    """The eigenvalue-2n piece is one-dimensional, so a cup of two length-n
    words is kappa times the polarized Fujiki form of their 2n indices,
    times Psi of the top basis word; kappa is fixed by the first nonzero
    case."""
    rng = random.Random(227)
    M = big_model
    q = M.space.base.gram
    d, n = M.base_rank, M.n
    top = M.psi_word(M._basis_words[-1])
    linked = [(i, j) for i in range(d) for j in range(i, d) if q[i][j]]

    def word():
        if rng.random() < 0.6:
            return tuple(sorted(rng.choice(linked)))
        return tuple(sorted(rng.randrange(d) for _ in range(n)))

    kappa = None
    seen = set()
    for _ in range(30):
        w1, w2 = word(), word()
        got = M.cup(M.psi_word(w1), M.psi_word(w2))
        f = _matching_sum(q, w1 + w2)
        seen.add(f == 0)
        if f and kappa is None:
            m = next(iter(top))
            kappa = Fraction(got[m]) / (f * top[m])
        if kappa is not None:
            assert got == sn.sym_scale(kappa * f, top)
        else:
            assert got == {}
    assert kappa and seen == {True, False}


def test_rows_keep_only_nonzero_products(big_model):
    M = big_model
    rng = random.Random(229)
    for _ in range(3):
        M.cup(M.random_element(rng).data, M.random_element(rng).data)
    basis = set(M._basis_words)
    assert M._rows
    for w1, row in M._rows.items():
        for w2, r in row.items():
            assert w2 in basis and len(w1) + len(w2) <= 2 * M.n
            # one object per product word p = w1 w2 with Psi(p) != 0, which
            # holds its basis-word coordinates once a cup has needed them
            p = tuple(sorted(w1 + w2))
            assert r is M._coords[p] and r.word == p
            want = M.psi_word(p)
            assert want
            if r.pairs is not None:
                got = M.from_words({b: Fraction(c, r.d) for b, c in r.pairs})
                assert got == want


def test_dense_middle_cup_matches_sym_mul(big_model):
    """A dense eigenvalue-0 x eigenvalue-0 cup, every one of the 276 x 276
    word pairs present, against the polynomial product of the word
    decompositions."""
    rng = random.Random(233)
    M = big_model
    mid = [w for w in M._basis_words if len(w) == M.n]
    assert len(mid) == M.piece_dim(0) == 276
    x = M.from_words({w: Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                  rng.choice((1, 2, 3))) for w in mid})
    y = M.from_words({w: rng.choice((-2, -1, 1, 4)) for w in mid})
    wx, wy = M.to_words(x), M.to_words(y)
    assert len(wx) == len(wy) == 276
    want = M.from_words(sym_mul(wx, wy, 2 * M.n))
    assert want and M.eigenvalue(want) == 2 * M.n
    got = M.cup(x, y)
    assert got == want
    _assert_entries(got)
