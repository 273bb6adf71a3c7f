import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

from conftest import TESTS, subprocess_env, sym_mul, sym_to_dense
from hklat import factor as fc
from hklat import lattice as lt
from hklat import llv
from hklat import pontryagin as pg
from hklat import snrep as sn
from hklat.cli import _pontryagin_suite
from hklat.errors import (EvenDimensionalGuard, LatticeError, NotGraded,
                          SolveFailure)


def _rank3_model(n, last=-2):
    base = lt.Lattice([[0, -1, 0], [-1, 0, 0], [0, 0, last]], name="t3",
                      u_blocks=((0, 1),))
    return pg.SHModel(llv.LLVSpace(base), n)


@pytest.fixture(scope="module")
def small_model():
    return _rank3_model(2)


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


def _words(M, k):
    """The sorted words of length k in the base-basis indices."""
    return list(combinations_with_replacement(range(M.base_rank), k))


def _ref_e_word(M, w, x):
    """e_{w_1} ... e_{w_k} x on Sym^n data, as plain Fractions."""
    x = sn.sym_form(x)
    for i in reversed(w):
        x = M.sym.derivation_apply(
            llv.e_columns(M.space, M.space.base.basis_vec(i)), x)
    return {m: Fraction(c) for m, c in x.items()}


def _ref_split(M, x):
    """(words, long) for Sym^n data x of the model: words {w: c} with
    sum c Psi(w) the part of x on pieces of length k <= n, read by the
    beta-free rule c_w = (n-k)! x[alpha^(n-k) m(w)] and checked, and long
    the rest of x."""
    n, bi = M.n, M.space.beta_index
    words, short, long = {}, {}, {}
    for m, c in x.items():
        k = n + M.mono_eigenvalue(m) // 2
        if k > n:
            long[m] = Fraction(c)
            continue
        short[m] = Fraction(c)
        if m[-1] != bi:
            words[tuple(i - 1 for i in m[n - k:])] = c * factorial(n - k)
    assert _ref_from_words(M, words) == short
    return words, long


def _ref_cup(M, x, y):
    """Plain-Fraction cup, independent of the model's basis: with x and y
    split into short pieces sum c_w Psi(w) and long ones, x cup y is
    sum c_w e_w(y) over x's words plus sum d_u e_u(x_long) over y's words,
    as the long pieces (length > n each) multiply to 0."""
    (wx, lx), (wy, _) = _ref_split(M, x), _ref_split(M, y)
    out = {}
    for ws, z in ((wx, y), (wy, lx)):
        for w, c in ws.items():
            for m, v in _ref_e_word(M, w, z).items():
                out[m] = out.get(m, 0) + c * v
    return {m: c for m, c in out.items() if c}


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


def test_mu_action_is_the_llv_mu(small_model):
    """mu_action(t) multiplies the eigenvalue-2j piece by t^j, which is
    Sym^n of llv.mu(t); n = 3 with t < 0 flips the sign of (p q)^n."""
    base = small_model.space.base
    rng = random.Random(281)
    for M in (small_model, pg.SHModel(llv.LLVSpace(base), 3)):
        for t in (2, -3, Fraction(-2, 5), Fraction(1, 7)):
            g = llv.mu(M.space, t)
            for _ in range(3):
                x = M.random_element(rng).data
                got = M.mu_action(t, x)
                assert got == M.apply_llv(g, x)
                assert got == {m: c * Fraction(t) ** (M.mono_eigenvalue(m) // 2)
                               for m, c in x.items()}
                _assert_entries(got)
        with pytest.raises(LatticeError):
            M.mu_action(0, x)


def test_piece_dims_match_kernel_counts():
    """The closed form dim Sym^m H^2, m = min(k, 2n - k), for eigenvalue
    2k - 2n agrees with the free monomials of kernel_basis counted by
    h-eigenvalue (the contraction keeps the eigenvalue)."""
    for name, k in (("K3n", 2), ("Kummer", 2), ("K3n", 3)):
        space = llv.LLVSpace(lt.preset(name, k))
        for n in (1, 2, 3):
            counts = {}
            for m in sn.SymSpace(space.lattice, n).kernel_basis()[1]:
                j = sum(space.h_diag[i] for i in m)
                counts[j] = counts.get(j, 0) + 1
            assert counts == pg.piece_dims(space.base.rank, n), (name, k, n)


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
                p = M.element(dx).star(M.element(dy))
                if not p.is_zero():
                    degx = M.degree_of_eigenvalue(jx)
                    degy = M.degree_of_eigenvalue(jy)
                    assert p.degree() == degx + degy - 4 * M.n
    # top * top lands in degree 4n
    top = M.unit_star()
    assert top.star(top).degree() == 4 * M.n


@pytest.mark.parametrize("which", ["Kummer:2 n=3", "rank 3 n=4",
                                   "rank 3 n=5", "rank 3 n=6"])
def test_ring_axioms_beyond_n2(which):
    """The criterion-9 identities where rho_tau relabels two short pieces
    on each side of the middle: Kummer:2 at n = 3 and a rank-3 base at
    n = 4, 5 and 6, the cup also against the Fraction reference."""
    rng = random.Random(293)
    if which == "Kummer:2 n=3":
        M = pg.SHModel(llv.LLVSpace(lt.preset("Kummer", 2)), 3)
    else:
        M = _rank3_model(int(which[-1]))
    one, pt = M.unit_cup(), M.unit_star()
    for _ in range(6):
        x, y, z = (M.random_element(rng) for _ in range(3))
        assert one.cup(x) == x and x.star(pt) == x
        assert x.cup(y) == y.cup(x) and x.star(y) == y.star(x)
        assert x.cup(y).cup(z) == x.cup(y.cup(z))
        assert x.star(y).star(z) == x.star(y.star(z))
        assert x.cup(y).rho_tau() == x.rho_tau().star(y.rho_tau())
        assert x.cup(y).data == _ref_cup(M, x.data, y.data)


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


def test_conjugation_check_rejects_a_non_ring_map(small_model, monkeypatch):
    """With the word-coordinate action doubling its images,
    (2x)(2y) = 4xy != 2xy, so the check fails for a graded and for an
    anti-graded g."""
    rng = random.Random(181)
    M = small_model
    one = M.unit_cup()
    pairs = [(one, M.random_element(rng)) for _ in range(2)]
    assert all(not x.cup(y).is_zero() for x, y in pairs)
    graded_action = M._graded_action

    def doubled(g, kind, t):
        act = graded_action(g, kind, t)
        return lambda x: 2 * act(x)
    monkeypatch.setattr(M, "_graded_action", doubled)
    for g, kind in ((_rand_graded(rng, M.space), 1),
                    (llv.tau(M.space) * _rand_graded(rng, M.space), -1)):
        ok, info = pg.conjugation_check(M, g, pairs)
        assert ok is False and info["kind"] == kind


def test_graded_action_matches_eta(small_model, big_model):
    """graded_action(g) is Sym^n(g) on word coordinates: it equals eta, the
    action on Sym^n data, for graded and anti-graded g = mu_s ext(f) and
    tau mu_s ext(f) with f rational, so t = 1/s and t = s, on rank-3
    models at n = 2, 3, 4 and on K3n:2 at n = 2, on elements born from
    data, with mixed denominators, and from words; its images are elements
    of the same model."""
    rng = random.Random(241)
    models = [(small_model, 2), (_rank3_model(3), 2), (_rank3_model(4), 2),
              (big_model, 1)]
    scales = (1, 2, Fraction(1, 2), -1, -2)
    cases, rational = 0, 0
    for M, count in models:
        elts = [M.element(x) for x in _mixed_elements(rng, M, count)]
        elts.append(elts[0].cup(elts[1]).rho_tau())
        for s in scales:
            for anti in (False, True):
                g = _rand_graded(rng, M.space, scale_choices=(s,))
                if anti:
                    g = llv.tau(M.space) * g
                assert llv.graded_type(M.space, g) == ((-1, s) if anti
                                                       else (1, 1 / Fraction(s)))
                rational += g.d > 1
                act, ref = M.graded_action(g), pg.eta(M, g)
                for x in elts:
                    got, want = act(x), ref(x)
                    assert type(got) is pg.SHElt and got.model is M
                    assert got.data == want.data
                    assert got.words == want.words
                    _assert_entries(got.words)
                    cases += 1
    assert cases == 5 * 2 * (3 * 5 + 3) and rational


def test_graded_callers_classify_once(small_model, monkeypatch):
    """conjugation_check, star_via and proportionality_check_degree2 each
    call graded_type once, on the isometry they are handed, and hand its
    (kind, t) on to the word-coordinate action."""
    rng = random.Random(283)
    M = small_model
    x, y = M.random_element(rng), M.random_element(rng)
    anti = llv.tau(M.space) * _rand_graded(rng, M.space)
    graded_type, seen = llv.graded_type, []

    def counting(space, g):
        seen.append(g)
        return graded_type(space, g)
    monkeypatch.setattr(llv, "graded_type", counting)
    for g, run in ((_rand_graded(rng, M.space),
                    lambda g: pg.conjugation_check(M, g, [(x, y)])),
                   (anti, lambda g: pg.conjugation_check(M, g, [(x, y)])),
                   (anti, lambda g: pg.star_via(M, g, x, y)),
                   (anti, lambda g: pg.proportionality_check_degree2(M, g))):
        del seen[:]
        run(g)
        assert seen == [g]


def test_graded_action_refuses_an_ungraded_isometry(small_model):
    M = small_model
    bf = llv.b_field(M.space, M.space.base.vec([0, 0, 1]))
    with pytest.raises(NotGraded):
        M.graded_action(bf)
    with pytest.raises(NotGraded):
        M.graded_action(llv.tau(M.space) * bf)


def test_word_equality_agrees_with_data_equality(small_model, big_model):
    """Elements holding word coordinates compare them: equal elements
    reached by different routes are equal by words and by data, and
    elements one word apart differ by both."""
    rng = random.Random(251)
    for M in (small_model, big_model):
        x, y = M.random_element(rng), M.random_element(rng)
        g = _rand_graded(rng, M.space)
        routes = [
            (x.cup(y), y.cup(x)),
            (x.star(y), x.rho_tau().cup(y.rho_tau()).rho_tau()),
            (M.graded_action(g)(x), pg.eta(M, g)(x)),
            (x, M.element(x.data)),
            (M.unit_star(), M.unit_cup().rho_tau()),
        ]
        for a, b in routes:
            assert a == b and b == a and a.data == b.data
            w = dict(a.words.nums)
            word = next(iter(w), ())
            w[word] = w.get(word, 0) + 1
            c = pg.SHElt(M, words=sn.SymElt.of(w, a.words.d))
            assert c != a and a != c and c.data != a.data
            # an element built from data reads its words at construction
            assert pg.SHElt(M, a.data) == a and pg.SHElt(M, c.data) != a


def test_arithmetic_refuses_another_models_element():
    """Sums and differences refuse an element of another model, as products
    do: its data lies in another Sym^n."""
    rng = random.Random(263)
    M, N = _rank3_model(2), _rank3_model(2, last=-4)
    x, y, z = M.random_element(rng), N.random_element(rng), M.random_element(rng)
    for op in (lambda: x + y, lambda: x - y, lambda: y + x, lambda: y - x):
        with pytest.raises(LatticeError):
            op()
    assert (x + z) - z == x and (x - z).model is M


def test_scalars_must_be_exact(small_model):
    """A float scalar raises TypeError, as la.frac does, instead of entering
    the model at its binary value."""
    rng = random.Random(269)
    M = small_model
    x = M.random_element(rng)
    for op in (lambda: 0.5 * x, lambda: x.mu(0.1), lambda: x.mu(2.0),
               lambda: M.mu_action(0.5, x.data),
               lambda: sn.sym_scale(0.5, x.data), lambda: True * x):
        with pytest.raises(TypeError):
            op()
    assert Fraction(1, 2) * x == x.mu(1) - Fraction(1, 2) * x
    assert x.mu(Fraction(1, 2)).mu(2) == x


def test_linear_operations_on_words_build_no_data(monkeypatch):
    """Sums, scalar multiples and is_zero stay on word coordinates: on the
    rank-3 base at n = 3 neither x.cup(y).is_zero() nor
    (x.cup(y) + x.cup(y)).cup(y) builds Sym^n data (from_words) or reads
    it back (_solve)."""
    M = _rank3_model(3)
    rng = random.Random(349)
    x, y = M.random_element(rng), M.random_element(rng)
    assert not x.cup(y).is_zero()
    calls = []
    for name in ("from_words", "_solve"):
        real = getattr(M, name)

        def counting(arg, name=name, real=real):
            calls.append(name)
            return real(arg)
        monkeypatch.setattr(M, name, counting)
    assert not x.cup(y).is_zero()
    out = (x.cup(y) + x.cup(y)).cup(y)
    assert calls == [] and out.model is M
    monkeypatch.undo()
    assert out.data == (2 * M.element(x.cup(y).data)).cup(y).data


_SCALARS = (0, 1, -1, 3, Fraction(-2, 3))


def _linear_results(x, y):
    """The data of x + y, x - y, x - x and scalar multiples of x, and
    is_zero of x, x - x, 0 x and x + y."""
    out = [(x + y).data, (x - y).data, (x - x).data]
    out += [(c * x).data for c in _SCALARS]
    out += [e.is_zero() for e in (x, x - x, 0 * x, x + y)]
    return out


def _linear_data_results(x, y):
    """_linear_results computed on the Sym^n data x and y."""
    out = [sn.sym_add(x, y), sn.sym_sub(x, y), sn.sym_sub(x, x)]
    out += [sn.sym_scale(c, x) for c in _SCALARS]
    out += [not e for e in (x, sn.sym_sub(x, x), sn.sym_scale(0, x),
                            sn.sym_add(x, y))]
    return out


def test_linear_operations_on_words_match_data(small_model, big_model):
    """+, -, scalar *, is_zero, eigenvalue and degree on word coordinates
    give what they give on Sym^n data: random elements of K3n:2 at n = 2
    and of the rank-3 base at n = 3, their homogeneous pieces (a key of
    a word of length k has eigenvalue 2k - 2n, TAG + v has 2n - 2 len(v)),
    0 (eigenvalue None) and inhomogeneous sums (LatticeError); another
    model's element and a float scalar are refused."""
    rng = random.Random(353)
    for M in (big_model, _rank3_model(3)):
        for _ in range(3):
            x, y = M.random_element(rng), M.random_element(rng)
            xy = x.cup(y)
            for a, b in ((x, y), (xy, x), (x.star(y), xy)):
                assert (_linear_results(a, b)
                        == _linear_data_results(a.data, b.data))
            pieces = {}
            for k, c in xy.words.nums.items():
                pieces.setdefault(M.key_eigenvalue(k), {})[k] = c
            elts = [pg.SHElt(M, words=sn.SymElt.of(w, xy.words.d))
                    for w in pieces.values()]
            elts += [x - x, 0 * x, M.unit_cup(), M.unit_star()]
            for e in elts:
                j = M.eigenvalue(e.data)
                assert e.eigenvalue() == j
                assert e.degree() == (None if j is None
                                      else M.degree_of_eigenvalue(j))
                assert (e.eigenvalue() is None) == e.is_zero()
            assert {e.eigenvalue() for e in elts[:len(pieces)]} == set(pieces)
            if len(pieces) > 1:
                for check in (xy.eigenvalue, xy.degree,
                              lambda: M.eigenvalue(xy.data)):
                    with pytest.raises(LatticeError, match="not homogeneous"):
                        check()
    M, N = _rank3_model(3), _rank3_model(3, last=-4)
    x, y = M.unit_cup().rho_tau(), N.unit_cup().rho_tau()
    for op in (lambda: x + y, lambda: x - y, lambda: y + x):
        with pytest.raises(LatticeError):
            op()
    for c in (0.5, True):
        with pytest.raises(TypeError):
            c * x


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


def _ref_rho_tau(M, x):
    """rho_tau on Sym^n data, the signed slot permutation of tau."""
    return sn.tau_swap(x, M.space.alpha_index, M.space.beta_index)


def test_cup_star_match_fraction_reference(small_model, big_model):
    rng = random.Random(197)
    for M, count in ((small_model, 6), (big_model, 1)):
        elts = [M.element(x) for x in _mixed_elements(rng, M, count)]
        elts.append(M.element({}))
        assert any(type(c) is Fraction for x in elts for c in x.data.values())
        # elements born from words, and the same rebuilt from their data
        born = [elts[0].cup(elts[0]), elts[0].star(elts[0]),
                elts[0].rho_tau(), M.unit_cup(), M.unit_star()]
        rebuilt = [M.element(e.data) for e in born]
        for b, r in zip(born, rebuilt):
            for y in elts[:3] + born:
                assert b.cup(y) == r.cup(y) and y.cup(b) == y.cup(r)
                assert b.star(y) == r.star(y)
            assert b.rho_tau() == r.rho_tau()
            assert b.words == r.words
            _assert_entries(M.to_words(b))
        elts += born
        for i, x in enumerate(elts):
            for y in elts[i:i + 3]:
                got = x.cup(y).data
                assert got == _ref_cup(M, x.data, y.data)
                _assert_entries(got)
                got = x.star(y).data
                assert got == _ref_rho_tau(M, _ref_cup(
                    M, _ref_rho_tau(M, x.data), _ref_rho_tau(M, y.data)))
                _assert_entries(got)
        # x cup (-x') cancels against x cup x'
        x, y = elts[0], elts[1]
        assert (x.cup(y) + x.cup(-1 * y)).is_zero()
        _assert_entries(M.from_words(M.to_words(y.data)))


def test_piece_solver_rejects_residue(small_model):
    # (e_3, e_3) = -2: the monomial is not in S_[n], nothing spans it
    with pytest.raises(SolveFailure):
        small_model.to_words({(3, 3): 1})


def test_products_reject_another_models_element(small_model, big_model):
    """Word coordinates index the basis words of one model, so products and
    to_words refuse an element of another."""
    rng = random.Random(211)
    x, y = small_model.random_element(rng), big_model.random_element(rng)
    for op in (lambda: x.cup(y), lambda: y.cup(x), lambda: x.star(y),
               lambda: big_model.rho_tau(x), lambda: big_model.to_words(x)):
        with pytest.raises(LatticeError):
            op()


_RESIDUE_SCRIPT = """
from hklat.errors import SolveFailure
from test_pontryagin import _rank3_model
try:
    _rank3_model(2).to_words({(3, 3): 1})
    print("returned")
except SolveFailure:
    print("raised", __debug__)
"""


def test_piece_solver_rejects_residue_under_O():
    """The read of Sym^n data, which products no longer take, still
    rebuilds and rejects a residue under python -O."""
    r = subprocess.run([sys.executable, "-O", "-c", _RESIDUE_SCRIPT],
                       capture_output=True, text=True, timeout=120,
                       env=subprocess_env(TESTS))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["raised", "False"]


def test_products_solve_only_their_factors(big_model, monkeypatch):
    """On a warm model, a product keeps its word coordinates: each factor
    built from data is solved once, at construction, and a chain of
    products solves nothing more, neither its factors nor its results."""
    M = big_model
    rng = random.Random(239)
    data = [M.random_element(rng).data for _ in range(3)]

    def fresh():
        return [M.element(d) for d in data]

    x, y, z = fresh()   # warms the tables
    assert not x.cup(y).is_zero() and not x.star(y).is_zero()
    x.cup(y).cup(z), x.star(y).star(z), x.cup(y).rho_tau()
    solved = []
    solve = M._solve

    def counting(data):
        solved.append(data)
        return solve(data)
    monkeypatch.setattr(M, "_solve", counting)
    for chain in (lambda x, y, z: x.cup(y).cup(z),
                  lambda x, y, z: x.star(y).star(z),
                  lambda x, y, z: x.cup(y).rho_tau()):
        del solved[:]
        x, y, z = fresh()
        assert sorted(map(id, solved)) == sorted(map(id, data))
        del solved[:]
        out = chain(x, y, z)
        assert solved == [] and out.model is M


def test_rho_tau_table(small_model, big_model):
    """rho_tau of every basis element against the slot permutation of tau
    on its data: a short word w and its tagged key (-1,) + w trade places,
    and a word of length n goes to (-1)^n times itself, at n = 2 and at
    the odd n = 3."""
    for M in (small_model, big_model, _rank3_model(3)):
        short = [w for k in range(M.n) for w in _words(M, k)]
        middle = _words(M, M.n)
        keys = short + middle + [(-1,) + w for w in short]
        assert len(keys) == sum(M._piece_dims.values())
        for b in keys:
            if b[:1] == (-1,):
                data, img = _ref_rho_tau(M, M.psi_word(b[1:])), {b[1:]: 1}
            elif b in middle:
                data, img = M.psi_word(b), {b: (-1) ** M.n}
            else:
                data, img = M.psi_word(b), {(-1,) + b: 1}
            got = pg.SHElt(M, words=sn.SymElt({b: 1})).rho_tau()
            assert got.words == img
            assert got.data == _ref_rho_tau(M, data)
            _assert_entries(got.data)


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
    """The eigenvalue-2n piece is one-dimensional, spanned by the top basis
    element rho_tau Psi() = beta^n/n!, the avatar of [pt]/n!, so a cup of
    two length-n words is kappa times the polarized Fujiki form of their 2n
    indices times it, with kappa = n!.  For the word of lam 2n times the
    form is (2n)! / (n! 2^n) q(lam)^n, so that is the Fujiki constant of
    K3^[n].  On K3n:2 at n = 2 and on a rank-3 base at n = 3, 4 and 5."""
    rng = random.Random(227)
    for M in (big_model, _rank3_model(3), _rank3_model(4), _rank3_model(5)):
        q = M.space.base.gram
        d, n = M.base_rank, M.n
        top = M.from_words({(-1,): 1})
        assert top == {(M.space.beta_index,) * n: Fraction(1, factorial(n))}
        linked = [(i, j) for i in range(d) for j in range(i, d) if q[i][j]]

        def word():
            w = ()
            while len(w) < n:
                w += (rng.choice(linked) if rng.random() < 0.6
                      else (rng.randrange(d),))
            return tuple(sorted(w[:n]))

        seen = set()
        for _ in range(30):
            w1, w2 = word(), word()
            got = M.element(M.psi_word(w1)).cup(M.element(M.psi_word(w2))).data
            f = _matching_sum(q, w1 + w2)
            seen.add(f == 0)
            assert got == sn.sym_scale(factorial(n) * f, top), (n, w1, w2)
        assert seen == {True, False}, n


def _recording_prefix_reads(M, monkeypatch):
    """The set of product keys that the letter rule's prefix recursion
    reads on M from now on: a product word p, or (tagged key, word)."""
    reads = set()
    word, tagged = M._word_product, M._tagged_product

    def word_product(p, prefix=False):
        if prefix:
            reads.add(p)
        return word(p, prefix)

    def tagged_product(a, w, prefix=False):
        if prefix:
            reads.add((a, w))
        return tagged(a, w, prefix)
    monkeypatch.setattr(M, "_word_product", word_product)
    monkeypatch.setattr(M, "_tagged_product", tagged_product)
    return reads


def _dense_words(rng, M):
    """Word coordinates on every basis key of M, with mixed denominators."""
    keys = ([w for k in range(M.n + 1) for w in _words(M, k)]
            + [(-1,) + w for k in range(M.n) for w in _words(M, k)])
    return sn.sym_form({k: Fraction(rng.choice((-3, -1, 1, 2)),
                                    rng.choice((1, 2, 3))) for k in keys})


def test_rows_keep_only_nonzero_products(big_model, monkeypatch):
    """The rows and the product memo after cups on sparse and dense
    operands.  A row entry is a nonzero product of two basis keys, of one
    of three kinds, and the memo's object for it: word x word is
    Psi(w1 w2), a basis word when it has length <= n; a tagged key
    (-1,) + v times a word w with len(w) <= len(v) is
    e_w(rho_tau Psi(v)); two tagged keys never meet.  Every nonzero memo
    entry's integer coordinates, from the closed-form rules, rebuild its
    reference on Sym^n data, and the memo holds a zero only where the
    letter rule's prefix recursion read it.  On K3n:2 at n = 2, Kummer:2
    at n = 3 and 4 and a rank-3 base at n = 5 and 6."""
    rng = random.Random(229)
    kummer = llv.LLVSpace(lt.preset("Kummer", 2))
    for M, count in ((pg.SHModel(big_model.space, 2), 3),
                     (pg.SHModel(kummer, 3), 2), (pg.SHModel(kummer, 4), 3),
                     (_rank3_model(5), 3), (_rank3_model(6), 3)):
        reads = _recording_prefix_reads(M, monkeypatch)
        for _ in range(count):
            M.random_element(rng).cup(M.random_element(rng))
        M.unit_star().cup(M.random_element(rng))
        dense = pg.SHElt(M, words=_dense_words(rng, M))
        dense.cup(M.random_element(rng))
        for _ in range(2):
            pg.SHElt(M, words=_random_words(rng, M)).cup(dense)
        assert M._rows and M._paid
        kinds = set()
        for k1, row in M._rows.items():
            for k2, r in row.items():
                t1, t2 = k1[:1] == (-1,), k2[:1] == (-1,)
                assert len(k1) - t1 <= M.n and len(k2) - t2 <= M.n
                assert not (t1 and t2)
                if t1 or t2:
                    (a, w) = (k1, k2) if t1 else (k2, k1)
                    assert len(w) <= len(a) - 1
                    assert r is M._products[(a, w)]
                    kinds.add("tagged")
                else:
                    p = tuple(sorted(k1 + k2))
                    assert r is M._products[p]
                    kinds.add("short" if len(p) <= M.n else "long")
                    if len(p) <= M.n:
                        assert r.pairs == ((p, 1),)
        assert kinds == {"short", "long", "tagged"}, M.n
        zeros = {key for key, r in M._products.items() if r is None}
        assert zeros and zeros <= reads, M.n
        for key, r in M._products.items():
            if r is None:
                continue
            if key and type(key[0]) is tuple:
                a, w = key
                want = _ref_e_word(M, w, _ref_rho_tau(M, M.psi_word(a[1:])))
            else:
                want = M.psi_word(key)
            assert want and all(type(c) is int and c for _, c in r.pairs)
            assert M.from_words(dict(r.pairs)) == want


def test_memo_after_ring_axioms_at_n4(monkeypatch):
    """Three ring-axiom triples of pontryagin verify on K3n:2 at n = 4
    leave in the product memo no zero that the prefix recursion did not
    read."""
    M = pg.SHModel(llv.LLVSpace(lt.preset("K3n", 2)), 4)
    reads = _recording_prefix_reads(M, monkeypatch)
    assert _pontryagin_suite(M, random.Random(0), 3)["ok"]
    zeros = {key for key, r in M._products.items() if r is None}
    assert zeros <= reads


def _row_cup(M, xw, yw):
    """The eager row walk: [k1] cup [k2] over every key k1 of xw and every
    entry of k1's full row, on M, a model that no other cup uses."""
    terms = []
    for k1, c1 in xw.nums.items():
        for k2, r in M._row(k1).items():
            c2 = yw.nums.get(k2)
            if c2:
                terms.append((c1 * c2, r.pairs, 1))
    return sn.sym_combine(terms, xw.d * yw.d)


@pytest.mark.parametrize("which", ["K3n:2 n=2", "Kummer:2 n=3", "rank 3 n=4",
                                   "rank 3 n=5", "rank 3 n=6"])
def test_cup_paths_match_row_walk_and_reference(which, k3n2):
    """cup equals the eager row walk and the Fraction reference whichever
    path each key of x takes: sparse operands take y's pairs, dense ones
    build rows, and later cups reuse the rows and pairs built."""
    rng = random.Random(241)
    if which == "K3n:2 n=2":
        space, n = llv.LLVSpace(k3n2), 2
    elif which == "Kummer:2 n=3":
        space, n = llv.LLVSpace(lt.preset("Kummer", 2)), 3
    else:
        space, n = _rank3_model(1).space, int(which[-1])
    M, walk = pg.SHModel(space, n), pg.SHModel(space, n)
    sparse = [_random_words(rng, M) for _ in range(2)]
    dense = _dense_words(rng, M)
    pairs = ([(a, b) for a in sparse for b in sparse]
             + [(a, dense) for a in sparse] + [(dense, a) for a in sparse]
             + [(dense, dense)])
    for xw, yw in pairs:
        x, y = pg.SHElt(M, words=xw), pg.SHElt(M, words=yw)
        got = x.cup(y)
        assert got.words == _row_cup(walk, xw, yw)
        if xw is not dense or yw is not dense:
            assert got.data == _ref_cup(M, x.data, y.data)
    assert M._rows and M._paid


def _random_words(rng, M):
    """Random word coordinates over the basis keys of M, with mixed
    denominators, built with no Sym^n data."""
    keys = ([w for k in range(M.n + 1) for w in _words(M, k)]
            + [(-1,) + w for k in range(M.n) for w in _words(M, k)])
    return sn.sym_form({rng.choice(keys): Fraction(rng.randint(-3, 3),
                                                   rng.choice((1, 2, 3)))
                        for _ in range(6)})


def test_products_on_words_take_no_sym_data(k3n2, monkeypatch):
    """cup, star, rho_tau and graded_action on word coordinates never touch
    Sym^n data: on fresh models of K3n:2 at n = 2 and a rank-3 base at
    n = 3, with SymSpace.basis_element, read and derivation_apply and
    tau_swap raising, they give what a model built and run before the
    patch gives, and its cup matches the Fraction reference."""
    rng = random.Random(307)
    cases = []
    for space, n in ((llv.LLVSpace(k3n2), 2), (_rank3_model(3).space, 3)):
        ref = pg.SHModel(space, n)
        g = _rand_graded(rng, space, scale_choices=(2,))
        anti = llv.tau(space) * _rand_graded(rng, space)
        xs = [_random_words(rng, ref) for _ in range(3)]
        x, y, z = (pg.SHElt(ref, words=w) for w in xs)
        want = [x.cup(y).cup(z), x.star(y), y.star(z), z.rho_tau(),
                ref.graded_action(g)(x), ref.graded_action(anti)(y)]
        assert x.cup(y).data == _ref_cup(ref, x.data, y.data)
        cases.append((space, n, g, anti, xs, [e.words for e in want]))

    def refuse(*args):
        raise AssertionError("Sym^n data touched")
    for name in ("basis_element", "read", "derivation_apply"):
        monkeypatch.setattr(sn.SymSpace, name, refuse)
    monkeypatch.setattr(sn, "tau_swap", refuse)
    for space, n, g, anti, xs, want in cases:
        M = pg.SHModel(space, n)
        x, y, z = (pg.SHElt(M, words=w) for w in xs)
        got = [x.cup(y).cup(z), x.star(y), y.star(z), z.rho_tau(),
               M.graded_action(g)(x), M.graded_action(anti)(y)]
        assert [e.words for e in got] == want


def test_dense_middle_cup_matches_sym_mul(big_model):
    """A dense eigenvalue-0 x eigenvalue-0 cup, every one of the 276 x 276
    word pairs present, against the polynomial product of the word
    decompositions."""
    rng = random.Random(233)
    M = big_model
    mid = _words(M, M.n)
    assert len(mid) == M.piece_dim(0) == 276
    x = M.from_words({w: Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                  rng.choice((1, 2, 3))) for w in mid})
    y = M.from_words({w: rng.choice((-2, -1, 1, 4)) for w in mid})
    wx, wy = M.to_words(x), M.to_words(y)
    assert len(wx) == len(wy) == 276
    want = M.from_words(sym_mul(wx, wy, 2 * M.n))
    assert want and M.eigenvalue(want) == 2 * M.n
    got = M.element(x).cup(M.element(y)).data
    assert got == want
    _assert_entries(got)


def _raw_words(rng, M):
    """The words {w: c} that random_element sums, drawn from rng in its
    order: six times a length k <= 2n, k letters and a coefficient."""
    words = {}
    for _ in range(6):
        k = rng.randint(0, 2 * M.n)
        w = tuple(sorted(rng.randrange(M.base_rank) for _ in range(k)))
        c = rng.randint(-3, 3)
        if c:
            words[w] = words.get(w, 0) + c
    return words


def test_random_element_matches_the_data_route(k3n2, monkeypatch):
    """random_element equals the element built from the Sym^n data of its
    raw words, M.element(M.from_words(raw)), with raw drawn again from a
    second generator of the same seed, and leaves the generator in the
    same state.  It and SHElt.mu call neither from_words nor _solve, and
    on a fresh model random_element still runs, with the same words, when
    SymSpace.basis_element, read and derivation_apply raise.  On K3n:2 at
    n = 2 and on a rank-3 base at n = 3."""
    cases = []
    for space, n, seed in ((llv.LLVSpace(k3n2), 2, 311),
                           (_rank3_model(3).space, 3, 313)):
        M = pg.SHModel(space, n)
        rng, ref = random.Random(seed), random.Random(seed)
        got = [M.random_element(rng) for _ in range(8)]
        raws = [_raw_words(ref, M) for _ in range(8)]
        want = [M.element(M.from_words(raw)) for raw in raws]
        assert [x.words for x in got] == [x.words for x in want]
        assert rng.getstate() == ref.getstate()
        assert any(len(w) > n for raw in raws for w in raw)
        calls = []
        for name in ("from_words", "_solve"):
            real = getattr(M, name)

            def counting(arg, name=name, real=real):
                calls.append(name)
                return real(arg)
            monkeypatch.setattr(M, name, counting)
        x = M.random_element(rng)
        t = Fraction(-2, 3)
        x.mu(t), got[0].mu(3)
        assert calls == []
        monkeypatch.undo()
        assert x.mu(t).data == M.mu_action(t, x.data)
        cases.append((space, n, seed, [x.words for x in got]))

    def refuse(*args):
        raise AssertionError("Sym^n data touched")
    for name in ("basis_element", "read", "derivation_apply"):
        monkeypatch.setattr(sn.SymSpace, name, refuse)
    for space, n, seed, want in cases:
        M, rng = pg.SHModel(space, n), random.Random(seed)
        assert [M.random_element(rng).words for _ in range(8)] == want


def test_element_takes_data_or_words(small_model, monkeypatch):
    """SHElt takes exactly one of its Sym^n data and its word coordinates:
    neither, or both, raises TypeError.  Its repr counts word coordinates
    and builds no Sym^n data."""
    M = small_model
    x = M.random_element(random.Random(317))
    for kwargs in ({}, {"data": x.data, "words": x.words}):
        with pytest.raises(TypeError):
            pg.SHElt(M, **kwargs)
    with pytest.raises(TypeError):
        M.element(None)

    def refuse(words):
        raise AssertionError("Sym^n data built")
    monkeypatch.setattr(M, "from_words", refuse)
    assert repr(x) == "SHElt(%d word coordinates)" % len(x.words)
