import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
import math
from math import comb, factorial

import pytest

from conftest import (canonical, isotropic_samples, power_line_by_contraction,
                      span_rank_mod_p, subprocess_env, sym_mul)
from hklat import factor as fc
from hklat import lattice as lt
from hklat import linalg as la
from hklat import llv
from hklat import snrep as sn
from hklat.errors import (LatticeError, NoHyperbolicPlanes, NotConjugating,
                          NotDecomposable, NotGraded, ScalarInconsistency,
                          SolveFailure)


@pytest.fixture(scope="module")
def H5():
    base = lt.Lattice([[0, -1, 0], [-1, 0, 0], [0, 0, -2]], name="t3",
                      u_blocks=((0, 1),))
    return llv.LLVSpace(base)


@pytest.fixture(scope="module")
def H7():
    base = lt.Lattice([[0, -1, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 0, -2, 1, 0],
                       [0, 0, 1, -2, 0], [0, 0, 0, 0, 2]], name="t5",
                      u_blocks=((0, 1),))
    return llv.LLVSpace(base)


def _rand_iso(rng, lattice, count=3):
    f = lt.QIsometry.identity(lattice)
    for _ in range(count):
        while True:
            v = lattice.vec([rng.randint(-2, 2) for _ in range(lattice.rank)])
            if v.norm() != 0:
                break
        f = fc.reflect(lattice, v) * f
    return f


def _assert_entries(x):
    """Values are ints or reduced Fractions with denominator > 1, never 0."""
    for c in x.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _rand_elt(rng, space, terms, n):
    """Seeded sparse element of Sym^n with mixed denominators."""
    x = {}
    for _ in range(terms):
        m = tuple(sorted(rng.randrange(space.dim) for _ in range(n)))
        x[m] = la.frac(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6))))
    return {m: c for m, c in x.items() if c}


def _ref_apply(f, x, n):
    """Sym^n(f) x in plain Fractions: expand each slot into f's column."""
    out = {}
    for m, c in x.items():
        acc = {(): Fraction(c)}
        for i in m:
            nxt = {}
            for mm, cc in acc.items():
                for k in range(len(f)):
                    if f[k][i]:
                        key = tuple(sorted(mm + (k,)))
                        nxt[key] = nxt.get(key, Fraction(0)) + cc * Fraction(f[k][i])
            acc = nxt
        for mm, cc in acc.items():
            out[mm] = out.get(mm, Fraction(0)) + cc
    return {m: c for m, c in out.items() if c}


def _ref_derive(op, x):
    """Product-rule extension in plain Fractions: op on one slot at a time."""
    out = {}
    for m, c in x.items():
        for a in range(len(m)):
            rest = m[:a] + m[a + 1:]
            for k in range(len(op)):
                if op[k][m[a]]:
                    key = tuple(sorted(rest + (k,)))
                    out[key] = out.get(key, Fraction(0)) \
                        + Fraction(c) * Fraction(op[k][m[a]])
    return {m: c for m, c in out.items() if c}


def test_dimension_formula(H5, H7):
    for (space, n) in ((H5, 1), (H5, 2), (H5, 3), (H7, 2), (H7, 3)):
        sym = sn.SymSpace(space.lattice, n)
        d = space.dim
        assert sym.dim() == comb(d + n - 1, n)
        expect = comb(d + n - 1, n) - (comb(d + n - 3, n - 2) if n >= 2 else 0)
        assert sym.sn_dim() == expect
        assert len(sym.kernel_basis()[0]) == expect
    s53 = sn.SymSpace(H5.lattice, 3)
    assert s53.sn_dim() == 30


def test_kernel_against_sympy(H5, H7):
    """kernel_basis is the reduced echelon basis of the contraction: entry
    for entry sympy's nullspace, which is 1 at its own free column and 0 at
    the others, and the free monomials are the non-pivot columns."""
    import sympy
    cases = [(H5, (2, 3, 4)), (H7, (2, 3)),
             (llv.LLVSpace(lt.preset("Kummer", 2)), (2, 3)),
             (llv.LLVSpace(lt.Lattice([[1]])), (2, 3))]
    for space, ns in cases:
        for n in ns:
            sym = sn.SymSpace(space.lattice, n)
            lower = {m: i for i, m in
                     enumerate(sn.SymSpace(space.lattice, n - 2).monomials)}
            mat = sympy.zeros(len(lower), sym.dim())
            for j, m in enumerate(sym.monomials):
                for mm, c in sym.contract({m: 1}).items():
                    mat[lower[mm], j] = c
            pivots = set(mat.rref()[1])
            want = [[Fraction(int(c.p), int(c.q)) for c in v]
                    for v in mat.nullspace()]
            basis, free = sym.kernel_basis()
            assert free == [m for j, m in enumerate(sym.monomials)
                            if j not in pivots]
            assert [[b.get(m, 0) for m in sym.monomials] for b in basis] == want


def test_kernel_needs_an_extended_lattice():
    with pytest.raises(LatticeError):
        sn.SymSpace(lt.Lattice([[2]]), 2).kernel_basis()


def test_kernel_basis_checks_each_vector(H5, monkeypatch):
    """Every closed-form vector is checked to lie in the kernel: a Psi off
    the kernel raises SolveFailure (an explicit raise, so also under -O)."""
    monkeypatch.setattr(sn.SymSpace, "psi_word",
                        lambda self, w: sn.SymElt({(3, 3): 1}))
    with pytest.raises(SolveFailure):
        sn.SymSpace(H5.lattice, 2).kernel_basis()


def test_isotropic_span_equals_kernel(H5, H7):
    rng = random.Random(113)
    for (space, n) in ((H5, 2), (H5, 3), (H7, 2), (H7, 3)):
        sym = sn.SymSpace(space.lattice, n)
        vecs = [sn.sym_power(v.coords, n)
                for v in sn.isotropic_spanning_set(space.lattice)]
        vecs += [sn.sym_power(v.coords, n)
                 for v in isotropic_samples(space.lattice, rng,
                                            3 * sym.sn_dim())]
        for x in vecs:
            assert sym.in_kernel(x)
        assert span_rank_mod_p(sym, vecs) == sym.sn_dim()


def test_restrict_sym_functorial(H5):
    rng = random.Random(127)
    sym = sn.SymSpace(H5.lattice, 3)
    f = _rand_iso(rng, H5.lattice)
    g = _rand_iso(rng, H5.lattice)
    assert la.mat_mul(sn.restrict_sym(sym, f), sn.restrict_sym(sym, g)) \
        == sn.restrict_sym(sym, f * g)
    ident = sn.restrict_sym(sym, lt.QIsometry.identity(H5.lattice))
    assert ident == la.identity(sym.sn_dim())
    # -id acts trivially on an even power
    sym2 = sn.SymSpace(H5.lattice, 2)
    assert sn.restrict_sym(sym2, lt.QIsometry.minus_identity(H5.lattice)) \
        == la.identity(sym2.sn_dim())
    # power images
    v = sn.isotropic_spanning_set(H5.lattice)[1]
    img = sym.apply_linear(f.matrix, sn.sym_power(v.coords, 3))
    assert sn.sym_eq(img, sn.sym_power(f.apply(v).coords, 3))


def test_restriction_preserves_pairing(H5):
    rng = random.Random(131)
    sym = sn.SymSpace(H5.lattice, 2)
    f = _rand_iso(rng, H5.lattice)
    basis, _ = sym.kernel_basis()
    for i in range(0, len(basis), 5):
        for j in range(0, len(basis), 5):
            x, y = basis[i], basis[j]
            fx = sym.apply_linear(f.matrix, x)
            fy = sym.apply_linear(f.matrix, y)
            assert sym.pair(fx, fy) == sym.pair(x, y)


def test_e_derivation_preserves_kernel(H5):
    sym = sn.SymSpace(H5.lattice, 2)
    lam = H5.base.vec([1, 2, 1])
    e = llv.e_op(H5, lam)
    basis, _ = sym.kernel_basis()
    for b in basis:
        assert sym.in_kernel(sym.derivation_apply(sn.sparse_columns(e), b))


def test_psi_examples(H5):
    lam = H5.base.vec([0, 0, 1])
    mu_v = H5.base.vec([1, 1, 0])
    assert sn.psi(H5, [], 2) == {(0, 0): Fraction(1, 2)}
    assert sn.psi(H5, [lam], 2) == {(0, 3): 1}
    # Psi(lam mu) = lam mu + (lam,mu) alpha beta, computed independently by
    # expanding the product of the embedded vectors
    for lam1, lam2 in (((0, 0, 1), (1, 1, 0)), ((1, 0, 1), (0, 1, 1))):
        v1, v2 = H5.base.vec(lam1), H5.base.vec(lam2)
        out = sn.psi(H5, [v1, v2], 2)
        e1 = {(i,): c for i, c in enumerate(H5.embed(v1).coords) if c}
        e2 = {(i,): c for i, c in enumerate(H5.embed(v2).coords) if c}
        want = sym_mul(e1, e2)
        lm = v1.pair(v2)
        if lm:
            want = sn.sym_add(want, {(0, H5.dim - 1): lm})
        assert sn.sym_eq(out, want)
    # words longer than 2n vanish
    assert sn.psi(H5, [lam] * 5, 2) == {}
    # Psi intertwines concatenation with the derivation action
    e = llv.e_op(H5, mu_v)
    sym = sn.SymSpace(H5.lattice, 2)
    assert sn.sym_eq(sn.psi(H5, [mu_v, lam], 2),
                     sym.derivation_apply(sn.sparse_columns(e), sn.psi(H5, [lam], 2)))


def test_b_n_pairing_values(H5):
    sym2 = sn.SymSpace(H5.lattice, 2)
    al = H5.alpha().coords
    be = H5.beta().coords
    a2 = sn.sym_scale(Fraction(1, 2), sn.sym_power(al, 2))
    b2 = sn.sym_scale(Fraction(1, 2), sn.sym_power(be, 2))
    # permanent expansion: b2(alpha^2/2, beta^2/2) = (alpha,beta)^2/4
    assert sym2.pair(a2, b2) == Fraction(1, 4)
    rng = random.Random(137)
    for _ in range(10):
        v = H5.lattice.vec([rng.randint(-2, 2) for _ in range(H5.dim)])
        w = H5.lattice.vec([rng.randint(-2, 2) for _ in range(H5.dim)])
        assert sym2.pair(sn.sym_power(v.coords, 2),
                         sn.sym_power(w.coords, 2)) == v.pair(w) ** 2
    # orthogonal arguments pair to zero
    x = sn.sym_power(H5.alpha().coords, 2)
    y = sn.sym_power(H5.embed(H5.base.vec([0, 0, 1])).coords, 2)
    assert sym2.pair(x, y) == 0


def test_recover_roundtrips(H5, H7):
    rng = random.Random(139)
    for (space, n, trials) in ((H5, 2, 6), (H5, 3, 6), (H7, 2, 4)):
        sym = sn.SymSpace(space.lattice, n)
        for _ in range(trials):
            f0 = _rand_iso(rng, space.lattice)
            if n % 2 == 0:
                phi = lambda x: sn.sym_scale(f0.det(),
                                             sym.apply_linear(f0.matrix, x))
            else:
                phi = lambda x: sym.apply_linear(f0.matrix, x)
            out = sn.recover(sym, sym, phi)
            if n % 2 == 1:
                assert out == f0
            else:
                assert out == f0 or out == -f0
                assert sn.sym_eq(
                    sn.sym_scale(out.det(), sym.apply_linear(
                        out.matrix, sn.sym_power(
                            sn.isotropic_spanning_set(space.lattice)[0].coords, n))),
                    phi(sn.sym_power(
                        sn.isotropic_spanning_set(space.lattice)[0].coords, n)))


def test_recover_identity_and_negation(H5):
    sym3 = sn.SymSpace(H5.lattice, 3)
    assert sn.recover(sym3, sym3, lambda x: x).is_identity()
    sym2 = sn.SymSpace(H5.lattice, 2)
    rng = random.Random(149)
    f0 = _rand_iso(rng, H5.lattice)
    phi = lambda x: sn.sym_scale(f0.det(), sym2.apply_linear(f0.matrix, x))
    g = sn.recover(sym2, sym2, phi)
    gneg = sn.recover(sym2, sym2, lambda x: sn.sym_scale(-1, phi(x)))
    assert gneg == -g


def test_isotropic_frame_is_built_once(H5, monkeypatch):
    """recover and compose_rule_check read V^T G V and V^-1 of the
    isotropic spanning set from the lattice's cache: one inverse per
    lattice, however many calls."""
    lat = lt.Lattice(H5.lattice.gram, u_blocks=H5.lattice.u_blocks)
    sym = sn.SymSpace(lat, 2)
    ident = lt.QIsometry.identity(lat)
    calls = []
    real = la.inverse
    monkeypatch.setattr(la, "inverse", lambda m: calls.append(m) or real(m))
    for _ in range(3):
        assert sn.recover(sym, sym, lambda x: x).is_identity()
        assert sn.compose_rule_check(sym, ident, ident, lambda x: x)
    assert len(calls) == 1


def test_compose_rule(H5):
    rng = random.Random(151)
    sym3 = sn.SymSpace(H5.lattice, 3)
    ident = lt.QIsometry.identity(H5.lattice)
    f0 = _rand_iso(rng, H5.lattice)
    phi = lambda x: sym3.apply_linear(f0.matrix, x)
    assert sn.compose_rule_check(sym3, ident, ident, phi)
    for _ in range(3):
        assert sn.compose_rule_check(sym3, _rand_iso(rng, H5.lattice),
                                     _rand_iso(rng, H5.lattice), phi)
    # n even: the sign of det(-id) = (-1)^5 flips the answer consistently
    sym2 = sn.SymSpace(H5.lattice, 2)
    f1 = lt.QIsometry.minus_identity(H5.lattice)
    g0 = _rand_iso(rng, H5.lattice)
    phi2 = lambda x: sn.sym_scale(g0.det(), sym2.apply_linear(g0.matrix, x))
    assert sn.compose_rule_check(sym2, f1, ident, phi2)


def test_grading_correspondence(H5):
    sym2 = sn.SymSpace(H5.lattice, 2)
    t = llv.tau(H5)
    assert sn.grading_correspondence(
        H5, sym2, lambda x: sym2.apply_linear(t.matrix, x), t) == 1
    ident = lt.QIsometry.identity(H5.lattice)
    assert sn.grading_correspondence(H5, sym2, lambda x: x, ident) == 0
    B = llv.b_field(H5, H5.base.vec([0, 0, 1]))
    with pytest.raises(NotGraded):
        sn.grading_correspondence(
            H5, sym2, lambda x: sym2.apply_linear(B.matrix, x), B)


def test_s_n_subspace_gate(H5, monkeypatch):
    space, basis = sn.s_n_subspace(H5.lattice, 2)
    assert len(basis) == space.sn_dim()
    monkeypatch.setattr(sn.SymSpace, "sn_dim", lambda self: 0)
    with pytest.raises(SolveFailure):
        sn.s_n_subspace(H5.lattice, 2)


def test_grading_signs_must_agree(H5):
    # tau anti-commutes with h on V, the identity commutes with it on S_[n]
    sym2 = sn.SymSpace(H5.lattice, 2)
    with pytest.raises(NotGraded):
        sn.grading_correspondence(H5, sym2, lambda x: x, llv.tau(H5))


def test_sym_mul_matches_fraction_reference(H7):
    rng = random.Random(211)
    for trial in range(30):
        x = _rand_elt(rng, H7, rng.randint(0, 8), rng.randint(0, 3))
        x.update(_rand_elt(rng, H7, rng.randint(0, 4), rng.randint(0, 2)))
        y = _rand_elt(rng, H7, rng.randint(0, 8), rng.randint(0, 3))
        if trial % 5 == 0:
            y = {m: -c for m, c in x.items()}
        for cap in (None, 2, 4):
            ref = {}
            for m1, c1 in x.items():
                for m2, c2 in y.items():
                    if cap is None or len(m1) + len(m2) <= cap:
                        key = tuple(sorted(m1 + m2))
                        ref[key] = ref.get(key, Fraction(0)) \
                            + Fraction(c1) * Fraction(c2)
            got = sym_mul(x, y, cap)
            assert got == {m: c for m, c in ref.items() if c}
            _assert_entries(got)
    assert sym_mul({}, {(0,): 1}) == {}
    # (a + b)(a - b) = a^2 - b^2: the cross terms cancel
    assert sym_mul({(0,): Fraction(1, 2), (1,): 3},
                   {(0,): Fraction(1, 2), (1,): -3}) \
        == {(0, 0): Fraction(1, 4), (1, 1): -9}


def test_apply_linear_matches_fraction_reference(H5, H7):
    rng = random.Random(223)
    for space in (H5, H7):
        # b-fields have entries in (1/2)Z, and mu_3 has 1/3
        lam = space.base.vec([1] * space.base.rank)
        fs = [llv.b_field(space, lam).matrix,
              (llv.mu(space, 3) * _rand_iso(rng, space.lattice)).matrix,
              (llv.b_field(space, lam) * llv.mu(space, Fraction(2, 5))).matrix]
        assert any(type(c) is Fraction for f in fs for row in f for c in row)
        d = space.dim
        powers = [[rng.randint(-4, 4) for _ in range(d)],
                  [Fraction(rng.randint(-5, 5), 2) for _ in range(d)],
                  [Fraction(rng.randint(-5, 5), rng.choice((1, 3)))
                   for _ in range(d)],
                  [0, Fraction(-7, 3)] + [0] * (d - 2)]
        for n in (1, 2, 3):
            sym = sn.SymSpace(space.lattice, n)
            for f in fs:
                # n = 2 goes through the congruence f X f^T at every size
                for terms in (0, 1, 4, space.dim, 3 * space.dim):
                    x = _rand_elt(rng, space, terms, n)
                    got = sym.apply_linear(f, x)
                    assert got == _ref_apply(f, x, n)
                    _assert_entries(got)
                    got = sym.derivation_apply(sn.sparse_columns(f), x)
                    assert got == _ref_derive(f, x)
                    _assert_entries(got)
                # pure powers v^n go to (f v)^n, equal to the general path
                for v in powers:
                    x = sn.sym_power(v, n)
                    got = sym.apply_linear(f, x)
                    assert got == _ref_apply(f, x, n)
                    _assert_entries(got)
                    assert got == sym.apply_linear(f, dict(x))
            # a cancelling input: Sym^n(f) of Sym^n(f^-1) of a monomial
            f = fs[2]
            finv = la.scaled_view(*la.inverse(f))
            m = tuple(range(n))
            pre = sym.apply_linear(finv, {m: Fraction(5, 7)})
            assert len(pre) > 1
            assert sym.apply_linear(f, pre) == {m: Fraction(5, 7)}


def test_apply_linear_same_for_isometry_and_matrix(H7):
    """A QIsometry is read on its integer form and its memoized columns, and
    a plain matrix is scaled on entry; both give the same dict, entry types
    included, on the n = 2 congruence, at n = 1 and 3 and on pure powers."""
    rng = random.Random(16003)
    big = llv.LLVSpace(lt.preset("K3n", 2))
    lam = H7.base.vec([1] * H7.base.rank)
    cases = [(big, 2, llv.mu(big, 3) * _rand_iso(rng, big.lattice, 2)),
             (H7, 2, llv.b_field(H7, lam) * _rand_iso(rng, H7.lattice)),
             (H7, 3, llv.b_field(H7, lam) * llv.mu(H7, Fraction(2, 5))),
             (big, 1, llv.mu(big, 3) * _rand_iso(rng, big.lattice, 2))]
    for space, n, f in cases:
        assert not f.is_integral()
        assert f.columns() == sn.sparse_columns(f.nums)[0]
        sym = sn.SymSpace(space.lattice, n)
        v = [Fraction(rng.randint(-5, 5), rng.choice((1, 3)))
             for _ in range(space.dim)]
        power = sn.sym_power(v, n)
        for x in (power, dict(power), _rand_elt(rng, space, 6, n)):
            got, want = sym.apply_linear(f, x), sym.apply_linear(f.matrix, x)
            assert got == want and type(got) is type(want)
            assert all(type(c) is type(want[m]) for m, c in got.items())
            _assert_entries(got)
        assert (sym.apply_linear(f, power).power
                == sym.apply_linear(f.matrix, power).power)


def test_sn_coords_exact(H5):
    rng = random.Random(227)
    sym = sn.SymSpace(H5.lattice, 2)
    basis, _ = sym.kernel_basis()
    coords = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
              for _ in basis]
    x = {}
    for c, b in zip(coords, basis):
        for m, v in b.items():
            x[m] = x.get(m, 0) + c * v
    x = {m: la.frac(c) for m, c in x.items() if c}
    assert sym.sn_coords(x) == tuple(la.frac(c) for c in coords)
    # (e_3, e_3) = -2, so this perturbation leaves the kernel
    bad = sn.sym_add(x, {(3, 3): Fraction(1, 3)})
    assert not sym.in_kernel(bad)
    with pytest.raises(SolveFailure):
        sym.sn_coords(bad)


def _ref_power(v, n):
    """v^n in plain Fractions, one factor at a time."""
    out = {(): Fraction(1)}
    for _ in range(n):
        nxt = {}
        for m, c in out.items():
            for i, vi in enumerate(v):
                if vi:
                    key = tuple(sorted(m + (i,)))
                    nxt[key] = nxt.get(key, Fraction(0)) + c * Fraction(vi)
        out = nxt
    return {m: c for m, c in out.items() if c}


def test_sym_power_matches_fraction_reference():
    rng = random.Random(229)
    vecs = [la.vec([0] * 5), la.vec([0, 0, Fraction(-3, 4), 0, 0]),
            la.vec([7, 0, 0, 0, 0])]
    for _ in range(12):
        vecs.append(la.vec([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 10)))
                            if rng.random() < 0.7 else 0 for _ in range(7)]))
    for v in vecs:
        for n in range(4):
            got = sn.sym_power(v, n)
            assert got == _ref_power(v, n)
            assert all(c != 0 and canonical(c) for c in got.values())
            assert all(list(m) == sorted(m) for m in got)
    assert sn.sym_power(la.vec([0] * 3), 0) == {(): 1}
    assert sn.sym_power(la.vec([0] * 3), 2) == {}


def _multinomial_power(v, n):
    """v^n by the multinomial formula in Fractions, one monomial at a
    time."""
    out = {}
    for m in combinations_with_replacement(range(len(v)), n):
        coef = Fraction(factorial(n))
        for i in set(m):
            coef = coef / factorial(m.count(i)) * Fraction(v[i]) ** m.count(i)
        if coef:
            out[m] = la.frac(coef)
    return out


def test_sym_power_square_matches_multinomial():
    # n = 2 has its own expansion, c_i^2 and 2 c_i c_j; compare it with
    # the formula the other degrees use, values and their types alike
    rng = random.Random(263)
    vecs = [[Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 6, 10)))
             for _ in range(7)] for _ in range(6)]
    vecs += [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5)))
              if rng.random() < 0.4 else 0 for _ in range(7)]
             for _ in range(6)]
    vecs += [[0, 0, Fraction(-3, 4), 0], [0, 6, 0, 0], [0] * 4]
    for v in vecs:
        got = sn.sym_power(v, 2)
        ref = _multinomial_power(v, 2)
        assert got == ref
        assert {m: type(c) for m, c in got.items()} \
            == {m: type(c) for m, c in ref.items()}
        _assert_entries(got)


def test_sym_elt_power_record_and_immutability(H5):
    """sym_power and apply_linear on a power record (v, n); sums and
    multiples carry none; no element takes item assignment; an element
    equals the plain dict of its normalized values."""
    sym = sn.SymSpace(H5.lattice, 2)
    f = _rand_iso(random.Random(269), H5.lattice).matrix
    v = [1, Fraction(1, 2), 0, -2, 3]
    x = sn.sym_power(v, 2)
    assert x.power == (tuple(v), 2)
    assert x == _ref_power(v, 2) and _ref_power(v, 2) == x
    assert dict(x) == _ref_power(v, 2)
    # the image of a power is the power (f v)^2, recorded as such
    fx = sym.apply_linear(f, x)
    assert fx.power == (la.mat_vec(f, v), 2)
    for y in (sn.sym_scale(1, x), sn.sym_scale(-3, x), sn.sym_add(x, {}),
              sn.sym_add(x, x), sn.sym_sub(x, {(0, 0): 1})):
        assert y.power is None
    assert sn.sym_scale(1, x) == x and sn.sym_add(x, {}) == x
    assert sym.apply_linear(f, dict(x)) == fx
    assert sym.apply_linear(f, dict(x)).power is None
    for elt in (x, fx, sn.sym_scale(2, x), sn.sym_add(x, x)):
        with pytest.raises(TypeError):
            elt[(0, 0)] = 5
        with pytest.raises(TypeError):
            del elt[(0, 0)]
    assert x == _ref_power(v, 2) and x.power == (tuple(v), 2)
    # the form: nonzero integer numerators over d > 0 in lowest terms
    y = sn.sym_scale(Fraction(2, 3), x)
    assert y.d > 0 and all(type(c) is int and c for c in y.nums.values())
    assert math.gcd(y.d, *y.nums.values()) == 1
    assert y == {m: Fraction(2, 3) * c for m, c in _ref_power(v, 2).items()}
    assert sn.sym_form({(0, 1): Fraction(4, 2), (1, 1): 0}) == {(0, 1): 2}
    assert sn.sym_form({(0, 1): Fraction(4, 2)}).nums == {(0, 1): 2}


def _rand_qvec(rng, d):
    while True:
        w = la.vec([Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
                    for _ in range(d)])
        if any(w):
            return w


def test_extract_power_line_round_trips(H5, H7):
    """The coordinate read gives a primitive integer w on the line of the
    Gram-row contraction's, with the same c w^n: for n = 2 and 3, rational
    c, and w whose leading coordinates vanish, so that the first pure power
    is not at index 0."""
    rng = random.Random(233)
    for space in (H5, H7):
        d = space.dim
        for n in (2, 3):
            sym = sn.SymSpace(space.lattice, n)
            for trial in range(8):
                c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                             rng.randint(1, 6))
                w = _rand_qvec(rng, d)
                if trial % 2:
                    lead = rng.randint(1, d - 1)
                    w = (0,) * lead + w[lead:] if any(w[lead:]) else w
                x = sn.sym_scale(c, sn.sym_power(w, n))
                c2, w2 = sn._extract_power_line(sym, x)
                assert sn.sym_scale(c2, sn.sym_power(w2, n)) == x
                assert all(type(t) is int for t in w2)
                assert la.rank([w, w2]) == 1
                c1, w1 = power_line_by_contraction(sym, x)
                sign = 1 if w2 == w1 else -1
                assert w2 == tuple(sign * t for t in w1)
                assert c2 == c1 * sign ** n
            # two independent squares (cubes) have symmetric rank 2
            u = la.vec([1, 0, 2] + [0] * (d - 3))
            v = la.vec([0, 1, 0] + [Fraction(1, 2)] * (d - 3))
            rank_2 = sn.sym_add(sn.sym_power(u, n), sn.sym_power(v, n))
            # e_i e_j (times e_k for n = 3) has no pure power at all
            mixed = {(0, 1) if n == 2 else (0, 1, 2): Fraction(3, 2)}
            for x in (rank_2, mixed, {}):
                assert power_line_by_contraction(sym, x) is None
                with pytest.raises(NotDecomposable):
                    sn._extract_power_line(sym, x)


def _counting(fn):
    def wrapped(*args):
        wrapped.calls += 1
        return fn(*args)
    wrapped.calls = 0
    return wrapped


def _sym_phi(sym, f):
    """Sym^n(f), times det(f) for even n: the Phi that recover() inverts
    to f (n odd) or +-f (n even)."""
    s = f.det() if sym.n % 2 == 0 else 1
    return lambda x: sn.sym_scale(s, sym.apply_linear(f.matrix, x))


def test_recover_calls_phi_once_per_spanning_vector(H5, H7):
    rng = random.Random(239)
    for space, n in ((H5, 2), (H5, 3), (H7, 2), (H7, 3)):
        sym = sn.SymSpace(space.lattice, n)
        f0 = _rand_iso(rng, space.lattice)
        phi = _counting(_sym_phi(sym, f0))
        out = sn.recover(sym, sym, phi)
        assert out == f0 or (n % 2 == 0 and out == -f0)
        assert phi.calls == space.dim


def test_compose_rule_check_applies_sym_only_inside_phi(H5, monkeypatch):
    rng = random.Random(241)
    for n in (2, 3):
        sym = sn.SymSpace(H5.lattice, n)
        f0, f1, f2 = (_rand_iso(rng, H5.lattice) for _ in range(3))
        h = sn.recover(sym, sym, _sym_phi(sym, f0))
        counter = _counting(sn.SymSpace.apply_linear)
        monkeypatch.setattr(sn.SymSpace, "apply_linear", counter)
        phi = _counting(_sym_phi(sym, f0))
        assert sn.compose_rule_check(sym, f1, f2, phi, h_phi=h)
        assert phi.calls == H5.dim and counter.calls == phi.calls
        phi.calls = counter.calls = 0
        assert sn.compose_rule_check(sym, f1, f2, phi)
        assert phi.calls == 2 * H5.dim and counter.calls == phi.calls
        monkeypatch.undo()


def test_compose_rule_check_rejects_wrong_isometry(H5):
    rng = random.Random(251)
    for n in (2, 3):
        sym = sn.SymSpace(H5.lattice, n)
        f0, f1, f2, g = (_rand_iso(rng, H5.lattice) for _ in range(4))
        assert g not in (f0, -f0)
        phi = _sym_phi(sym, f0)
        assert sn.compose_rule_check(sym, f1, f2, phi,
                                     h_phi=sn.recover(sym, sym, phi))
        assert not sn.compose_rule_check(sym, f1, f2, phi, h_phi=g)


def test_compose_rule_check_rank_two_image_raises(H5):
    rng = random.Random(257)
    for n in (2, 3):
        sym = sn.SymSpace(H5.lattice, n)
        f0, f1, f2 = (_rand_iso(rng, H5.lattice) for _ in range(3))
        v = sn.isotropic_spanning_set(H5.lattice)[2]
        target = sn.sym_power(f1.apply(v).coords, n)
        extra = sn.sym_power(la.vec([1, 2, 0, 0, 1]), n)
        good = _sym_phi(sym, f0)

        def phi(x):
            img = good(x)
            return sn.sym_add(img, extra) if x == target else img
        with pytest.raises(NotDecomposable):
            sn.compose_rule_check(sym, f1, f2, phi, h_phi=f0)


def test_inverse_functor_refuses_n0(H5):
    """Sym^0 carries no power lines: recover and compose_rule_check raise
    LatticeError at n = 0 before calling Phi, and keep working at n = 1."""
    sym0, sym1 = sn.SymSpace(H5.lattice, 0), sn.SymSpace(H5.lattice, 1)
    f = _rand_iso(random.Random(269), H5.lattice)

    def phi(x):
        raise AssertionError("Phi called at n = 0")
    with pytest.raises(LatticeError):
        sn.recover(sym0, sym0, phi)
    with pytest.raises(LatticeError):
        sn.compose_rule_check(sym0, f, f, phi, h_phi=f)
    assert sn.recover(sym1, sym1, _sym_phi(sym1, f)) == f
    assert sn.compose_rule_check(sym1, f, f, _sym_phi(sym1, f))


def test_recover_orthogonal_image_lines_raise(H5):
    # every v^n goes to e_0^2: the image lines pair to 0 where the v_i do not
    sym = sn.SymSpace(H5.lattice, 2)
    with pytest.raises(ScalarInconsistency):
        sn.recover(sym, sym, lambda x: {(0, 0): 1})


def test_nth_root_fraction_reads_the_sign_only_for_odd_n():
    assert sn._nth_root_fraction(Fraction(8, 27), 3) == Fraction(2, 3)
    assert sn._nth_root_fraction(Fraction(-4, 9), 2) == Fraction(2, 3)
    assert sn._nth_root_fraction(-2, 3) is None
    assert sn._nth_root_fraction(Fraction(2, 9), 2) is None


def test_recover_scalar_branches():
    lat = llv.LLVSpace(lt.preset("Kummer", 2)).lattice     # d = 9
    f = lt.QIsometry.identity(lat)
    for coords in ([0, 1, 1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 1, 1],
                   [0, 0, 0, 1, 1, 0, 0, 1, 0]):
        f = fc.reflect(lat, lat.vec(coords)) * f
    sym3, sym2 = sn.SymSpace(lat, 3), sn.SymSpace(lat, 2)
    # -Sym^3(f) = Sym^3(-f); the sign travels in the image lines w_i, so
    # the scalars c_i stay positive
    assert sn.recover(sym3, sym3,
                      lambda x: sn.sym_scale(-1, sym3.apply_linear(f, x))) == -f
    # 2 is neither a cube nor a square
    for sym in (sym3, sym2):
        with pytest.raises(ScalarInconsistency, match="n-th power"):
            sn.recover(sym, sym, lambda x: sn.sym_scale(2, sym.apply_linear(f, x)))
    # a non-isometric integer matrix: doubling alpha
    a = [list(row) for row in la.identity(9)]
    a[0][0] = 2
    a = la.mat(a)
    with pytest.raises(NotConjugating):
        sn.recover(sym3, sym3, lambda x: sym3.apply_linear(a, x))
    # at n = 2 the sign propagation meets it first
    with pytest.raises(ScalarInconsistency, match="no sign solution"):
        sn.recover(sym2, sym2, lambda x: sym2.apply_linear(a, x))


def test_isotropic_spanning_set_rejects_bad_hyperbolic_pair():
    # (e0, e1) = +1: e2 + (-1) e0 + e1 has norm -4, not 0
    bad = lt.Lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]], u_blocks=((0, 1),))
    with pytest.raises(NoHyperbolicPlanes):
        sn.isotropic_spanning_set(bad)


_BAD_PAIR_SCRIPT = """
from hklat import lattice as lt, snrep as sn
from hklat.errors import NoHyperbolicPlanes
bad = lt.Lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]], u_blocks=((0, 1),))
try:
    sn.isotropic_spanning_set(bad)
    print("returned")
except NoHyperbolicPlanes:
    print("raised", __debug__)
"""


def test_isotropic_spanning_set_rejects_bad_hyperbolic_pair_under_O():
    r = subprocess.run([sys.executable, "-O", "-c", _BAD_PAIR_SCRIPT],
                       capture_output=True, text=True, timeout=120,
                       env=subprocess_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["raised", "False"]
