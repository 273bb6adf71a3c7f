import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (canonical, canonical_form, rand_anisotropic,
                      rand_reflection_word, rand_vec, subprocess_env, TESTS,
                      TRUSTED_SITES)
from hklat import factor as fc
from hklat import lattice as lt
from hklat import linalg as la
from hklat import llv
from hklat import pontryagin as pg
from hklat import snrep as sn
from hklat import transvect as tv
from hklat.errors import (IsotropicVector, LatticeError, NotAnIsometry,
                          NotGraded, NotIntegral)


@pytest.fixture(scope="module")
def H(k3):
    return llv.LLVSpace(k3)


@pytest.fixture(scope="module")
def Hn2(k3n2):
    return llv.LLVSpace(k3n2)


def test_space_pairing(H):
    al, be = H.alpha(), H.beta()
    assert al.norm() == 0 and be.norm() == 0
    assert al.pair(be) == -1
    lam = H.embed(H.base.vec([1, -1] + [0] * 20))
    assert al.pair(lam) == 0 and be.pair(lam) == 0
    assert lam.norm() == 2


def test_e_op(H, k3):
    rng = random.Random(83)
    lam = rand_vec(rng, k3)
    e = llv.e_op(H, lam)
    al, be = H.alpha(), H.beta()
    assert la.mat_vec(e, al.coords) == H.embed(lam).coords
    assert la.mat_vec(e, be.coords) == (0,) * H.dim
    mu_v = rand_vec(rng, k3)
    img = la.mat_vec(e, H.embed(mu_v).coords)
    assert img == tuple(lam.pair(mu_v) * x for x in be.coords)
    e2 = la.mat_mul(e, e)
    assert la.mat_vec(e2, al.coords) == tuple(lam.norm() * x for x in be.coords)
    assert la.mat_mul(e2, e) == la.zeros(H.dim, H.dim)
    # skew-adjoint
    for _ in range(5):
        x = H.lattice.vec([rng.randint(-2, 2) for _ in range(H.dim)])
        y = H.lattice.vec([rng.randint(-2, 2) for _ in range(H.dim)])
        ex = H.lattice.vec(la.mat_vec(e, x.coords))
        ey = H.lattice.vec(la.mat_vec(e, y.coords))
        assert ex.pair(y) + x.pair(ey) == 0
    # [h, e] = 2e
    h = llv.grading(H)
    assert llv.commutator(h, e) == la.mat_scale(2, e)


@pytest.mark.parametrize("name, n", [("K3", None), ("K3n", 2), ("Kummer", 2)])
def test_e_columns_is_the_sparse_form_of_e_op(name, n):
    """e_columns gives sparse_columns(e_op(...)) up to the order of the
    entries, for seeded rational lambda given as base vectors and as
    middle-block vectors; a lambda with an alpha or beta part is refused."""
    base = lt.preset(name, n)
    space = llv.LLVSpace(base)
    rng = random.Random(263)

    def unordered(op):
        cols, d = op
        return {i: sorted(col) for i, col in cols.items()}, d
    for _ in range(12):
        lam = base.vec([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))
                        if rng.random() < 0.5 else 0 for _ in range(base.rank)])
        for v in (lam, space.embed(lam)):
            want = unordered(sn.sparse_columns(llv.e_op(space, v)))
            assert unordered(llv.e_columns(space, v)) == want
    assert llv.e_columns(space, base.zero()) == ({}, 1)
    lam = space.embed(base.basis_vec(0))
    for bad in (lam + space.alpha(), lam + la.ratio(1, 2) * space.beta()):
        with pytest.raises(LatticeError):
            llv.e_columns(space, bad)


def test_b_field(H, k3):
    rng = random.Random(89)
    lam = rand_vec(rng, k3)
    mu_v = rand_vec(rng, k3)
    B = llv.b_field(H, lam)
    assert B.apply(H.beta()) == H.beta()
    assert B.apply(H.alpha()) == H.vec(1, lam, la.ratio(lam.norm(), 2))
    assert B.apply(H.alpha()).norm() == 0
    assert (llv.b_field(H, lam) * llv.b_field(H, mu_v)).matrix \
        == llv.b_field(H, lam + mu_v).matrix
    # B_{-lam/r} pulls the beta-line image back to r*alpha
    r = Fraction(3)
    v = llv.fm_beta_image(H, r, lam)
    assert llv.b_field(H, la.ratio(-1, r) * lam).apply(v) \
        == H.vec(r, k3.zero(), 0)


def _exp_e(space, lam):
    """1 + e + e^2/2 for e = e_lam, in plain Fractions from the formulas
    e(alpha) = lam, e(mu) = (lam, mu) beta, e(beta) = 0."""
    n, r = space.dim, space.base.rank
    g = space.base.gram
    lam = [Fraction(x) for x in lam.coords]
    e = [[Fraction(0)] * n for _ in range(n)]
    for i in range(r):
        e[1 + i][0] = lam[i]
        e[n - 1][1 + i] = sum(lam[k] * g[k][i] for k in range(r))
    e2 = [[sum(e[i][k] * e[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[(i == j) + e[i][j] + e2[i][j] / 2 for j in range(n)]
            for i in range(n)]


def test_b_field_matches_the_exponential(H, Hn2, k3, k3n2):
    """The closed-form B_lam equals 1 + e + e^2/2 for rational lam on K3 and
    K3n:2, among them -e_i / R and +-delta / 2, as given in the base
    lattice or in the middle block."""
    rng = random.Random(263)
    R = Fraction(6)
    for space, base in ((H, k3), (Hn2, k3n2)):
        lams = [la.ratio(-1, R) * base.basis_vec(i) for i in (0, 1, 7)]
        lams += [Fraction(1, 3) * rand_vec(rng, base) for _ in range(3)]
        if base.delta_index is not None:
            delta = base.basis_vec(base.delta_index)
            lams += [Fraction(s, 2) * delta for s in (1, -1)]
            lams.append(Fraction(2, 5) * rand_vec(rng, base) + Fraction(1, 2) * delta)
        for lam in lams:
            B = llv.b_field(space, lam)
            assert [[Fraction(x) for x in row] for row in B.matrix] \
                == _exp_e(space, lam)
            assert llv.b_field(space, space.embed(lam)) == B
            assert canonical_form(B)


def test_tau_mu_grading(H, Hn2):
    t = llv.tau(H)
    assert t.apply(H.alpha()) == H.beta()
    assert t.apply(H.beta()) == H.alpha()
    lam = H.embed(H.base.vec([1, 2] + [0] * 20))
    assert t.apply(lam) == -lam
    assert (t * t).is_identity()
    h = llv.grading(H)
    assert la.mat_mul(t.matrix, h) == la.mat_scale(-1, la.mat_mul(h, t.matrix))
    assert llv.mu(H, 2).apply(H.alpha()) == Fraction(1, 2) * H.alpha()
    assert (llv.mu(H, 2) * llv.mu(H, 3)).matrix == llv.mu(H, 6).matrix
    with pytest.raises(LatticeError):
        llv.mu(H, 0)
    # block determinant on the rank-25 space: (-1) * (-1)^23 = +1
    assert llv.tau(Hn2).det() == 1


@pytest.mark.parametrize("name", ["H", "Hn2"])
def test_grading_sign_matches_dense_definition(name, request):
    # graded mu_s o extend(f), anti-graded tau o ..., ungraded B_lam o ...
    space = request.getfixturevalue(name)
    rng = random.Random(109)
    h = llv.grading(space)
    for _ in range(3):
        f = rand_reflection_word(rng, space.base, count=2)
        g = llv.mu(space, rng.choice([1, 3, Fraction(-2, 5)])) \
            * llv.extend_to_llv(space, f)
        bg = llv.b_field(space, rand_anisotropic(rng, space.base)) * g
        for m, want in ((g, 1), (llv.tau(space) * g, -1), (bg, None)):
            mh, hm = la.mat_mul(m.matrix, h), la.mat_mul(h, m.matrix)
            dense = 1 if mh == hm else -1 if mh == la.mat_scale(-1, hm) else None
            assert llv.grading_sign(space, m.matrix) == dense == want
            assert llv.is_degree_reversing(space, m) == (want == -1)
            if want is None:
                with pytest.raises(NotGraded):
                    llv.graded_type(space, m)
                continue
            kind, t = llv.graded_type(space, m)
            assert kind == want
            img = t * space.alpha() if kind == 1 else la.ratio(1, t) * space.beta()
            assert m.apply(space.alpha()) == img


def test_fm_beta_image(H, k3):
    rng = random.Random(97)
    lam = k3.vec([1, -2] + [0] * 20)
    assert lam.norm() == 4
    v = llv.fm_beta_image(H, 2, lam)
    assert v == H.vec(2, lam, 1)
    assert llv.fm_beta_image(H, 5, k3.zero()) == H.vec(5, k3.zero(), 0)
    for _ in range(20):
        r = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        out = llv.fm_beta_image(H, r, rand_vec(rng, k3))
        assert out.norm() == 0
    with pytest.raises(LatticeError):
        llv.fm_beta_image(H, 0, lam)


def test_normalize_fm(H, k3):
    rng = random.Random(101)
    lam_x = rand_vec(rng, k3)
    lam_y = rand_vec(rng, k3)
    r = 2
    core = llv.tau(H) * llv.mu(H, r)
    phi = llv.b_field(H, la.ratio(1, r) * lam_y) * core \
        * llv.b_field(H, la.ratio(1, r) * lam_x)
    out, rev = llv.normalize_fm(H, phi, r, lam_x, lam_y)
    assert rev
    bb = out.apply(H.beta())
    assert all(bb.coords[i] == 0 for i in range(1, H.dim))
    # degree-reversing iff anti-commutes with the grading
    assert llv.is_degree_reversing(H, out)
    h = llv.grading(H)
    assert la.mat_mul(out.matrix, h) == la.mat_scale(-1, la.mat_mul(h, out.matrix))
    # lam = 0 leaves the input unchanged
    same, _ = llv.normalize_fm(H, phi, 1, k3.zero(), k3.zero())
    assert same.matrix == phi.matrix


def test_dual_lefschetz(H, k3):
    rng = random.Random(103)
    t = llv.tau(H)
    lam = k3.vec([1, -1] + [0] * 20)
    ed, rep = llv.dual_lefschetz_check(H, t, lam)
    assert rep["t"] == 1
    e = llv.e_op(H, lam)
    h = llv.grading(H)
    assert llv.sl2_check(H, e, ed, h)
    assert la.mat_vec(ed, H.alpha().coords) == (0,) * H.dim
    # scaling by mu_s leaves the operator unchanged
    ed2, rep2 = llv.dual_lefschetz_check(H, llv.mu(H, Fraction(5, 3)) * t, lam)
    assert ed2 == ed and rep2["t"] != rep["t"]
    with pytest.raises(NotGraded):
        llv.dual_lefschetz_check(H, llv.b_field(H, lam), lam)
    with pytest.raises(IsotropicVector):
        llv.dual_lefschetz_check(H, t, k3.basis_vec(0))


def test_theta_iota(H, Hn2, k3):
    rng = random.Random(107)
    x = H.lattice.vec([rng.randint(-3, 3) for _ in range(H.dim)])
    tx = llv.theta_tilde(H, Hn2, x)
    assert tx.norm() == x.norm()
    assert tx.coords[0] == x.coords[0] and tx.coords[-1] == x.coords[-1]
    delta = Hn2.lattice.basis_vec(Hn2.lattice.delta_index)
    assert tx.pair(delta) == 0      # image lies in delta-perp
    ig = llv.iota_tilde(H, Hn2, lt.QIsometry.identity(H.lattice))
    assert ig.is_identity()
    g = fc.reflect(k3, k3.vec([1, -1] + [0] * 20))
    g2 = fc.reflect(k3, k3.vec([0, 0, 1, 2] + [0] * 18))
    i1 = llv.iota_tilde(H, Hn2, g)
    assert i1.apply(delta) == delta
    i12 = llv.iota_tilde(H, Hn2, lt.QIsometry(k3, la.mat_mul(g.matrix, g2.matrix)))
    assert (i1 * llv.iota_tilde(H, Hn2, g2)).matrix == i12.matrix
    # compatibility with the embedding
    gx = llv.extend_to_llv(H, g).apply(x)
    assert i1.apply(tx) == llv.theta_tilde(H, Hn2, gx)


def test_hilb_lift(H, Hn2, k3):
    assert llv.hilb_lift(H, Hn2, lt.QIsometry.identity(H.lattice), 2).is_identity()
    t = llv.tau(H)
    lift = llv.hilb_lift(H, Hn2, t, 2)
    # an exact isometry by construction; check the beta-line behaviour
    assert lift.lattice == Hn2.lattice
    assert lift.det() in (1, -1)
    # determinant consistency: det(lift) = det(B)^2 * det(iota)*sign
    d_t = t.det()
    iota_det = llv.iota_tilde(H, Hn2, t).det()
    sign = d_t ** 3   # n+1 = 3
    assert lift.det() == (sign ** Hn2.dim if sign == -1 else 1) * iota_det \
        or lift.det() in (1, -1)


def test_kernel_c1(H, k3):
    rng = random.Random(109)
    Hn2 = llv.LLVSpace(lt.preset("K3n", 2))
    e1, e2, R = llv.kernel_c1_solve(H, Hn2, 2, k3.zero(), k3.zero(), 2)
    assert R == 8
    assert e1 == -e2
    di = Hn2.base.delta_index
    assert e1.coords[di] == 4      # R*delta/2
    for n in (2, 3):
        Hn = llv.LLVSpace(lt.preset("K3n", n))
        for r in (1, 2):
            f = fc.reflect(k3, rand_anisotropic(rng, k3)) \
                * fc.reflect(k3, rand_anisotropic(rng, k3))
            phi = llv.tau(H) * llv.mu(H, r) * llv.extend_to_llv(H, f)
            a1, a2 = rand_vec(rng, k3), rand_vec(rng, k3)
            assert llv.verify_kernel_identity(H, Hn, phi, n, r, a1, a2)


def test_operators_preserve_pairing_exactly(H, Hn2, k3):
    rng = random.Random(251)
    g = H.lattice.gram
    ops = [llv.b_field(H, rand_vec(rng, k3)), llv.tau(H),
           llv.mu(H, Fraction(3, 2)),
           llv.iota_tilde(H, Hn2, fc.reflect(k3, k3.vec([1, -1] + [0] * 20))),
           llv.hilb_lift(H, Hn2, llv.tau(H), 2)]
    for op in ops:
        gg = op.lattice.gram
        m = op.matrix
        assert la.mat_mul(la.mat_mul(la.transpose(m), gg), m) == gg


def _broken_tau(space):
    """tau with the middle block scaled by 2: degree reversing, with
    phi(beta) = alpha, but not an isometry (built trusted on purpose)."""
    n = space.dim
    rows = [[0] * n for _ in range(n)]
    rows[0][n - 1] = rows[n - 1][0] = 1
    for i in range(1, n - 1):
        rows[i][i] = -2
    return lt.QIsometry(space.lattice, rows, _trusted=True)


def test_llv_gates_raise(H, Hn2, k3):
    with pytest.raises(LatticeError):
        llv.e_op(H, H.alpha())
    with pytest.raises(NotAnIsometry):
        llv.hilb_lift(H, Hn2, _broken_tau(H), 2)
    with pytest.raises(AssertionError, match="commutator"):
        llv.dual_lefschetz_check(H, _broken_tau(H), k3.vec([1, 1] + [0] * 20))
    # a rational a1 makes e1 = R (a1/r + delta/2) non-integral
    with pytest.raises(NotIntegral):
        llv.kernel_c1_solve(H, Hn2, 1, k3.vec([Fraction(1, 3)] + [0] * 21),
                            k3.zero(), 2)


_LLV_GATES_SCRIPT = """
from fractions import Fraction
from hklat import lattice as lt, llv
from hklat.errors import LatticeError, NotAnIsometry, NotIntegral
import test_llv
k3 = lt.preset("K3")
H, Hn2 = llv.LLVSpace(k3), llv.LLVSpace(lt.preset("K3n", 2))
calls = [(LatticeError, lambda: llv.e_op(H, H.alpha())),
         (NotAnIsometry, lambda: llv.hilb_lift(H, Hn2, test_llv._broken_tau(H), 2)),
         (AssertionError, lambda: llv.dual_lefschetz_check(
             H, test_llv._broken_tau(H), k3.vec([1, 1] + [0] * 20))),
         (NotIntegral, lambda: llv.kernel_c1_solve(
             H, Hn2, 1, k3.vec([Fraction(1, 3)] + [0] * 21), k3.zero(), 2))]
for exc, call in calls:
    try:
        call()
        print("returned")
    except exc:
        print("raised")
print(__debug__)
"""


def test_llv_gates_raise_under_O():
    r = subprocess.run([sys.executable, "-O", "-c", _LLV_GATES_SCRIPT],
                       capture_output=True, text=True, timeout=120,
                       env=subprocess_env(TESTS))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["raised"] * 4 + ["False"]


def test_trusted_constructions_keep_entry_contract(H, Hn2, k3, k3n2,
                                                   monkeypatch):
    """Neither trusted path checks its input, so every site that uses one
    must yield the canonical form (d > 0, gcd(d, content) = 1) and a
    matrix view of ints and reduced Fractions."""
    seen = {}
    real_init, real_of = lt.QIsometry.__init__, lt.QIsometry._of.__func__

    def record(g):
        site = sys._getframe(2).f_code.co_name
        ok = canonical_form(g) and canonical(g.matrix)
        seen[site] = seen.get(site, True) and ok

    def checked_init(self, lattice, matrix, _trusted=False):
        real_init(self, lattice, matrix, _trusted)
        if _trusted:
            record(self)

    def checked_of(cls, lattice, nums, d):
        g = real_of(cls, lattice, nums, d)
        record(g)
        return g
    monkeypatch.setattr(lt.QIsometry, "__init__", checked_init)
    monkeypatch.setattr(lt.QIsometry, "_of", classmethod(checked_of))
    rng = random.Random(257)
    lam = la.ratio(1, 3) * rand_vec(rng, k3)
    f = fc.reflect(k3, k3.vec([1, -1] + [0] * 20))   # det -1
    g = llv.mu(H, Fraction(2, 3)) * llv.extend_to_llv(H, f) * llv.b_field(H, lam)
    llv.tau(H) * g.inverse()
    lt.QIsometry.from_scaled(H.lattice, g.nums, g.d)   # the JSON loader's
    llv.hilb_lift(H, Hn2, llv.extend_to_llv(H, f), 2)   # det^3 = -1: negation
    lt.QIsometry.minus_identity(k3)
    fc.positive_reflection_rewrite(k3, k3.vec([1, 2, 1, -1, 1] + [0] * 17))
    # a rational phi fixing delta: decompose reflects it down in Lambda
    fc.decompose(k3n2, fc.reflect(k3n2, k3n2.vec([1, -2] + [0] * 21))
                 * fc.reflect(k3n2, k3n2.vec([0, 0, 1, -2] + [0] * 19)))
    tv.reduce_to_canonical(k3, k3.vec([2, 3, 1] + [0] * 19)).isometry()
    # the middle block of mu_3 ext(f) is f, over d = 3 before reduction
    pg.SHModel(Hn2, 2).graded_action(llv.mu(Hn2, 3) * llv.extend_to_llv(
        Hn2, fc.reflect(k3n2, k3n2.vec([1, -2] + [0] * 21))))
    sym = sn.SymSpace(Hn2.lattice, 2)
    sn.recover(sym, sym, lambda x: x)
    assert TRUSTED_SITES <= set(seen), TRUSTED_SITES - set(seen)
    assert all(seen.values()), [s for s, ok in seen.items() if not ok]
