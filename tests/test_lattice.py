import json
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy

from conftest import (content, disc_class_dense, nu_projection,
                      rand_orientation_preserving, rand_primitive,
                      rand_primitive_norm, rand_reflection_word,
                      rand_transvection, rand_vec, subprocess_env)
from hklat import factor as fc
from hklat import jsonio as jio
from hklat import linalg as la
from hklat import lattice as lt
from hklat import llv
from hklat import mukai as mk
from hklat import snrep as sn
from hklat import transvect as tv
from hklat.errors import (LatticeError, NoHyperbolicPlanes, NotAnIsometry,
                          NotIntegral)


def _float_signature(gram):
    # independent oracle: floating eigenvalues with an explicit margin
    # (the smallest E8 Cartan eigenvalue is ~0.011, far above float noise)
    vals = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in gram]))
    assert min(abs(vals)) > 5e-3
    return int((vals > 0).sum()), int((vals < 0).sum())


def test_preset_shapes():
    u = lt.preset("U")
    assert u.rank == 2 and lt.pair(u, u.basis_vec(0), u.basis_vec(1)) == -1
    assert la_det(u) == -1
    k3 = lt.preset("K3")
    assert k3.rank == 22 and k3.signature() == (3, 19)
    assert _float_signature(k3.gram) == (3, 19)
    assert k3.is_even() and k3.is_unimodular()
    k32 = lt.preset("K3n", 2)
    assert k32.rank == 23 and k32.signature() == (3, 20)
    assert list(k32.disc_group().divisors) == [2]
    mk = lt.preset("Mukai")
    assert mk.rank == 24 and mk.signature() == (4, 20)
    kum = lt.preset("Kummer", 3)
    assert kum.rank == 7 and lt.delta_vector(kum).norm() == -4
    assert lt.preset("E8-").det() == 1
    assert lt.preset("E8-").signature() == (0, 8)


def test_preset_without_n_refuses_one():
    for name in ("U", "E8-", "E8neg", "K3", "Mukai"):
        assert lt.preset(name).rank in (2, 8, 22, 24)
        with pytest.raises(LatticeError, match="takes no n"):
            lt.preset(name, 2)
    for name in ("K3n", "Kummer"):
        with pytest.raises(LatticeError):
            lt.preset(name)


def la_det(lat):
    return int(lat.det())


def test_gram_det_is_computed_once(monkeypatch):
    """The nondegeneracy check's Bareiss det is the one det() returns: one
    la.det call over a fresh lattice, det() and its discriminant group."""
    calls = []
    real = la.det
    monkeypatch.setattr(la, "det", lambda m: calls.append(m) or real(m))
    lat = lt.preset("K3n", 2)
    assert lat.det() == 2 and lat.disc_group().divisors == (2,)
    assert len(calls) == 1


def test_one_diagonalization_per_lattice(monkeypatch):
    """signature(), positive_basis()'s fallback and the Cartan-Dieudonne
    basis read one cached diagonalization, the last its integer rows; a
    zero diagonal entry whose repair by c = +1 would stay zero is repaired
    by c = -1."""
    calls = []
    real = la.congruent_diagonalize_scaled
    monkeypatch.setattr(la, "congruent_diagonalize_scaled",
                        lambda g: calls.append(g) or real(g))
    custom = lt.preset("custom", gram=_NO_U_GRAM)
    assert custom.signature() == (2, 2) and len(custom.positive_basis()) == 2
    fc.cartan_dieudonne(custom, fc.reflect(custom, custom.vec([1, 0, 0, 0])))
    assert len(calls) == 1
    # (e1 + e2)^2 = 0 here, so the repair of b_00 = 0 needs e1 - e2
    lat = lt.Lattice([[0, 1], [1, -2]])
    p, d = lat.diagonalization()
    assert all(d) and lat.signature() == (1, 1)
    assert la.mat_mul(la.mat_mul(p, lat.gram), la.transpose(p)) == (
        (d[0], 0), (0, d[1]))


def test_per_lattice_constants_are_built_once(monkeypatch):
    """Lattice.memo builds each per-lattice constant once: two decompose
    calls on K3n:2 and two recover calls at d = 25 build every key they
    read once per lattice, and they read the keys the hot paths keep.  The
    dual Gram is one key, already in the integer form (D, e) that
    QIsometry.inverse and DiscGroup read."""
    builds = {}
    lattices = []      # every lattice stays alive, so no id is reused
    real = lt.Lattice.memo

    def counting(self, key, build):
        def counted(lat):
            lattices.append(lat)
            builds[id(lat), key] = builds.get((id(lat), key), 0) + 1
            return build(lat)
        return real(self, key, counted)
    monkeypatch.setattr(lt.Lattice, "memo", counting)
    k3n2 = lt.preset("K3n", 2)
    for seed in (0, 1):
        phi = rand_orientation_preserving(random.Random(seed), k3n2)
        assert fc.verify_normal_form(fc.decompose(k3n2, phi), phi)["ok"]
    lat = llv.LLVSpace(lt.preset("K3n", 2)).lattice
    sym = sn.SymSpace(lat, 2)
    for seed in (0, 1):
        f = rand_reflection_word(random.Random(seed), lat, 2)
        h = sn.recover(sym, sym, lambda x: sn.sym_scale(
            f.det(), sym.apply_linear(f.matrix, x)))
        assert h in (f, -f)
    assert set(builds.values()) == {1}, builds
    keys = {key for i, key in builds if i == id(k3n2)}
    assert keys >= {"diag", "posbasis", "nu", "dualgram", "disc",
                    "cartan_dieudonne", "decompose_ref"}
    assert "dual_nums" not in keys
    dual, e = k3n2.dual_gram()
    assert e == 2 and gcd(e, *[x for row in dual for x in row]) == 1
    assert la.int_mat_mul(k3n2.gram, dual) == [[e * (i == j) for j in range(23)]
                                               for i in range(23)]
    assert (id(lat), "isotropic_frame") in builds


def test_disc_group_via_sympy_snf():
    from sympy.matrices.normalforms import smith_normal_form
    for n in (2, 3, 5):
        lat = lt.preset("K3n", n)
        ref = smith_normal_form(sympy.Matrix([[int(x) for x in row]
                                              for row in lat.gram]))
        divisors = sorted(abs(ref[i, i]) for i in range(lat.rank)
                          if abs(ref[i, i]) > 1)
        assert sorted(lat.disc_group().divisors) == divisors
        assert divisors == [2 * n - 2]


def test_pairing_examples_and_bilinearity():
    rng = random.Random(7)
    u = lt.preset("U")
    assert lt.pair(u, u.basis_vec(0), u.basis_vec(1)) == -1
    for n in (2, 3, 4):
        lat = lt.preset("K3n", n)
        d = lt.delta_vector(lat)
        assert d.norm() == 2 - 2 * n
    k3 = lt.preset("K3")
    for _ in range(30):
        x, y, z = (rand_vec(rng, k3) for _ in range(3))
        assert x.pair(y) == y.pair(x)
        assert (x + y).pair(z) == x.pair(z) + y.pair(z)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert (c * x).pair(y) == c * x.pair(y)
        assert x.pair(k3.zero()) == 0


def test_divisibility():
    u = lt.preset("U")
    assert lt.divisibility(u, u.basis_vec(0)) == 1
    k3 = lt.preset("K3")
    rng = random.Random(11)
    for _ in range(10):
        v = rand_primitive(rng, k3)
        assert lt.divisibility(k3, v) == 1
    k33 = lt.preset("K3n", 3)
    assert lt.divisibility(k33, lt.delta_vector(k33)) == 4
    with pytest.raises(LatticeError):
        lt.divisibility(k3, k3.zero())


def test_divisibility_matches_the_dense_content(k3, k3n2, kummer2):
    """divisibility, read off the sparse G x, is the content of the dense
    rational product G x, for primitive vectors and multiples alike."""
    rng = random.Random(97)
    for lat in (k3, k3n2, kummer2, lt.preset("Mukai"),
                lt.preset("custom", gram=_NO_U_GRAM)):
        xs = ([lat.basis_vec(lat.delta_index)]
              if lat.delta_index is not None else [])
        xs += [rand_primitive(rng, lat) for _ in range(6)]
        for x in xs:
            for c in (1, 2, -3):
                y = c * x
                assert lt.divisibility(lat, y) == content(
                    la.mat_vec(lat.gram, y.coords))


def test_disc_action():
    k32 = lt.preset("K3n", 2)
    rng = random.Random(13)
    # any integral isometry acts as +1 on Z/2
    g = rand_orientation_preserving(rng, k32, 2)
    if g.is_integral():
        assert lt.disc_action(g) in (1, -1)
    k33 = lt.preset("K3n", 3)
    rho_delta = fc.reflect(k33, lt.delta_vector(k33))
    assert rho_delta.is_integral()
    assert lt.disc_action(rho_delta) == -1
    assert lt.preset("K3").disc_group().is_trivial()


def test_characters():
    k32 = lt.preset("K3n", 2)
    gid = lt.QIsometry.identity(k32)
    assert lt.characters(gid) == (1, 1, 1)
    # reflection in a negative vector preserves the positive orientation
    w = k32.vec([1, 1] + [0] * 21)   # norm -2
    assert w.norm() == -2
    assert lt.nu_character(fc.reflect(k32, w)) == 1
    # reflection in a positive vector reverses it
    wp = k32.vec([1, -1] + [0] * 21)
    assert lt.nu_character(fc.reflect(k32, wp)) == -1
    k33 = lt.preset("K3n", 3)
    assert lt.characters(lt.QIsometry.minus_identity(k33))[0] == -1


def test_nu_is_multiplicative_and_choice_independent():
    rng = random.Random(17)
    k3 = lt.preset("K3")
    alt_basis = None
    for _ in range(12):
        f = rand_orientation_preserving(rng, k3, 2)
        g = rand_orientation_preserving(rng, k3, 2)
        assert lt.nu_character(f * g) == lt.nu_character(f) * lt.nu_character(g)
        # independence of the positive subspace used
        if alt_basis is None:
            from hklat import linalg as la
            p, d = la.congruent_diagonalize(k3.gram)
            alt_basis = tuple(row for row, dd in zip(p, d) if dd > 0)
        assert lt.nu_character(f) == lt.nu_character(f, alt_basis)


def test_membership():
    k32 = lt.preset("K3n", 2)
    gid = lt.QIsometry.identity(k32)
    for grp in ("O", "O+", "Gamma", "Gamma0", "Mon_K3n"):
        ok, cert = lt.membership(gid, grp)
        assert ok
    # -rho_{u+delta} with (u,u) = 2d+2 is in Gamma
    d = 1
    u = k32.vec([1, -2] + [0] * 21)
    assert u.norm() == 2 * d + 2
    c = fc.neg_reflection_u_delta(k32, u)
    ok, cert = lt.membership(c, "Gamma")
    assert ok, cert
    assert lt.membership(c, "Mon_K3n")[0]
    # Gamma0 excludes a (-2)-reflection on the Kummer preset
    kum = lt.preset("Kummer", 2)
    w = kum.vec([1, 1] + [0] * 5)
    assert w.norm() == -2
    rho = fc.reflect(kum, w)
    ok_g, _ = lt.membership(rho, "Gamma")
    ok_g0, cert = lt.membership(rho, "Gamma0")
    assert ok_g and not ok_g0
    with pytest.raises(LatticeError):
        lt.membership(lt.QIsometry.identity(lt.preset("K3")), "Gamma")


def test_qisometry_contracts():
    k3 = lt.preset("K3")
    rng = random.Random(19)
    with pytest.raises(LatticeError):
        lt.QIsometry(k3, [[2 if i == j else 0 for j in range(22)]
                          for i in range(22)])
    f = rand_orientation_preserving(rng, k3, 3)
    g = rand_orientation_preserving(rng, k3, 3)
    gram = k3.gram
    from hklat import linalg as la
    for h in (f * g, f.inverse()):
        assert la.mat_mul(la.mat_mul(la.transpose(h.matrix), gram), h.matrix) == gram
    assert (f * f.inverse()).is_identity()


def test_is_identity_builds_no_identity_per_call(monkeypatch):
    """is_identity compares with the lattice's own identity rows, so no
    call builds an identity matrix."""
    k3n2 = lt.preset("K3n", 2)
    f = rand_orientation_preserving(random.Random(271), k3n2, 3)
    words = (f, -f, f.inverse(), f * f.inverse(), lt.QIsometry.identity(k3n2),
             lt.QIsometry.minus_identity(k3n2))
    built = []
    real = la.identity

    def counting(n):
        built.append(n)
        return real(n)
    monkeypatch.setattr(la, "identity", counting)
    assert [g.is_identity() for g in words] == [False, False, False, True,
                                                True, False]
    assert built == []


def test_custom_lattice_validation():
    with pytest.raises(LatticeError):
        lt.preset("custom", gram=[[1, 0], [0, 1]])   # custom presets must be even
    with pytest.raises(LatticeError):
        lt.Lattice([[0, 1], [2, 0]])                 # not symmetric
    with pytest.raises(LatticeError):
        lt.Lattice([[2, 2], [2, 2]])                 # degenerate
    # a plain odd symmetric gram is fine for the bare constructor
    assert lt.Lattice([[0, 1], [1, 1]]).rank == 2


def test_declared_u_blocks_must_be_hyperbolic_planes():
    """A declared u_block is a hyperbolic plane (e_i, e_j) = -1 orthogonal to
    every other basis vector and disjoint from the other blocks; anything
    else is refused at construction, where the reducer's closed-form moves
    would otherwise act on a pair that is no plane."""
    k3 = lt.preset("K3").gram
    odd_pair = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
    leaky = [[0, -1, 1], [-1, 0, 0], [1, 0, -2]]   # e0 meets e2
    for gram, blocks in ((k3, ((0, 2), (1, 3))),    # isotropic, not planes
                         (k3, ((0, 1), (2, 3), (0, 1))),
                         (k3, ((0, 1), (1, 0))),
                         (k3, ((0, 1, 2),)), (k3, ((0, 22),)), (k3, ((-2, -1),)),
                         (odd_pair, ((0, 1),)), (leaky, ((0, 1),))):
        with pytest.raises(NoHyperbolicPlanes, match="not a hyperbolic plane"):
            lt.Lattice(gram, u_blocks=blocks)
    # a LatticeError, so the CLI exits 2 on it
    assert issubclass(NoHyperbolicPlanes, LatticeError)
    # the presets' planes pass, and a declaration keeps its order
    assert lt.preset("K3").u_blocks == ((0, 1), (2, 3), (4, 5))
    assert lt.preset("Mukai").u_blocks == ((0, 1), (2, 3), (4, 5), (6, 7))
    assert lt.Lattice(k3, u_blocks=[[4, 5], (0, 1)]).u_blocks == ((4, 5), (0, 1))
    assert lt.Lattice(k3).u_blocks == ((0, 1), (2, 3), (4, 5))


def test_empty_u_blocks_declare_no_planes():
    """u_blocks=() declares no planes, where None scans for them: the K3
    Gram matrix with () has none, so isotropic_spanning_set refuses it,
    and the E8- preset, which declares (), has none either."""
    k3 = lt.preset("K3").gram
    bare = lt.Lattice(k3, u_blocks=())
    assert bare.u_blocks == ()
    assert lt.Lattice(k3, u_blocks=None).u_blocks == ((0, 1), (2, 3), (4, 5))
    with pytest.raises(LatticeError):
        sn.isotropic_spanning_set(bare)
    assert lt.preset("E8-").u_blocks == ()


def test_disc_action_other_branch():
    # U(2): discriminant group (Z/2)^2; swapping the basis swaps the
    # generators, which is neither +1 nor -1
    lat = lt.Lattice([[0, -2], [-2, 0]], name=None)
    assert sorted(lat.disc_group().divisors) == [2, 2]
    swap = lt.QIsometry(lat, [[0, 1], [1, 0]])
    act = lt.disc_action(swap)
    assert isinstance(act, tuple) and act[0] == "other"
    assert lt.disc_action(lt.QIsometry.identity(lat)) == 1


def test_disc_action_homomorphism():
    rng = random.Random(241)
    lat = lt.preset("K3n", 3)
    gs = []
    from hklat import factor as fc2
    for _ in range(6):
        v = rand_primitive(rng, lat)
        if v.norm() != 0:
            r = fc2.reflect(lat, v)
            if r.is_integral():
                gs.append(r)
    for i in range(len(gs)):
        for j in range(len(gs)):
            a, b = lt.disc_action(gs[i]), lt.disc_action(gs[j])
            ab = lt.disc_action(gs[i] * gs[j])
            if a in (1, -1) and b in (1, -1):
                assert ab == a * b


def test_isometry_det_checks_without_assert():
    # an explicit raise, so the check also holds under python -O
    u = lt.preset("U")
    fake = lt.QIsometry(u, ((2, 0), (0, 2)), _trusted=True)
    with pytest.raises(NotAnIsometry):
        fake.det()
    assert lt.QIsometry.minus_identity(u).det() == 1


def _degenerate_nu():
    # trusted on purpose: (1, 1; 1, 1) sends the positive basis vector
    # e1 - e2 of U to 0, so the projection P -> g(P) -> P is degenerate
    fake = lt.QIsometry(lt.preset("U"), ((1, 1), (1, 1)), _trusted=True)
    return lt.nu_character(fake)


def test_nu_rejects_a_degenerate_projection():
    with pytest.raises(NotAnIsometry):
        _degenerate_nu()


_NU_SCRIPT = """
from hklat import lattice as lt
from hklat.errors import NotAnIsometry
fake = lt.QIsometry(lt.preset("U"), ((1, 1), (1, 1)), _trusted=True)
try:
    lt.nu_character(fake)
    print("returned")
except NotAnIsometry:
    print("raised")
print(__debug__)
"""


def test_nu_rejects_a_degenerate_projection_under_O():
    r = subprocess.run([sys.executable, "-O", "-c", _NU_SCRIPT],
                       capture_output=True, text=True, timeout=120,
                       env=subprocess_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["raised", "False"]


def test_untrusted_isometry_checks_every_pairing(k3n2):
    # both columns keep their norm 2, but (m_1, m_2) = 6/5 instead of 0
    two = lt.Lattice([[2, 0], [0, 2]])
    with pytest.raises(NotAnIsometry):
        lt.QIsometry(two, [[1, Fraction(3, 5)], [0, Fraction(4, 5)]])
    rot = lt.QIsometry(two, [[Fraction(3, 5), Fraction(-4, 5)],
                             [Fraction(4, 5), Fraction(3, 5)]])
    assert rot.det() == 1
    # the integer check agrees with the dense M^T G M = G on rational
    # isometries of K3n:2 and on one-entry perturbations of them
    rng = random.Random(271)
    gram = k3n2.gram
    for _ in range(4):
        f = rand_reflection_word(rng, k3n2, 2)
        assert lt.QIsometry(k3n2, f.matrix).matrix == f.matrix
        i, j = rng.randrange(k3n2.rank), rng.randrange(k3n2.rank)
        bent = [list(row) for row in f.matrix]
        bent[i][j] += Fraction(1, rng.choice((1, 2, 3)))
        dense = la.mat_mul(la.mat_mul(la.transpose(bent), gram), bent) == gram
        assert not dense
        with pytest.raises(NotAnIsometry):
            lt.QIsometry(k3n2, bent)


def _preserves_pairing(lat, nums, d):
    """Whether the row-sparse integer check passes nums / d."""
    try:
        lt._check_isometry(lat, nums, d)
    except NotAnIsometry:
        return False
    return True


def test_row_sparse_check_matches_dense_product(k3n2, kummer2):
    """_check_isometry, accumulated over the nonzero entries of G n_j and of
    the rows of nums, agrees with the dense M^T G M = G on seeded rational
    isometries and on one-entry tampers of them, on the diagonal, above it
    and below it."""
    rng = random.Random(283)
    for lat in (k3n2, kummer2, lt.Lattice(_NO_U_GRAM)):
        gram, n = lat.gram, lat.rank
        for _ in range(5):
            f = rand_reflection_word(rng, lat, rng.randint(1, 3))
            cases = [f.nums, (-f).nums]
            for i, j in ((0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0),
                         (rng.randrange(n), rng.randrange(n))):
                bent = [list(row) for row in f.nums]
                bent[i][j] += rng.choice((-1, 1))
                cases.append(bent)
            for nums in cases:
                m = [[Fraction(x, f.d) for x in row] for row in nums]
                dense = la.mat_mul(la.mat_mul(la.transpose(m), gram), m) == gram
                assert _preserves_pairing(lat, nums, f.d) == dense
                assert dense == (nums in (f.nums, (-f).nums))


def test_isometry_det_is_computed_once(k3n2, monkeypatch):
    calls = []
    real_det = lt.la.det_mod_p

    def counting_det(m):
        calls.append(m)
        return real_det(m)
    monkeypatch.setattr(lt.la, "det_mod_p", counting_det)
    f = rand_orientation_preserving(random.Random(263), k3n2)
    calls.clear()
    dets = [f.det() for _ in range(4)]
    assert dets[0] in (1, -1) and dets == dets[:1] * 4
    assert len(calls) == 1
    # a failed check is not cached: it raises, and recomputes, every time
    fake = lt.QIsometry(lt.preset("U"), ((2, 0), (0, 2)), _trusted=True)
    calls.clear()
    for _ in range(3):
        with pytest.raises(NotAnIsometry):
            fake.det()
    assert len(calls) == 3


def test_isometry_det_falls_back_to_bareiss():
    # la.P divides the denominator d, so det(nums) = det(M) d^2 reads 0 mod
    # P whatever det(M) is, and the exact determinant decides
    p = lt.la.P
    u = lt.preset("U")
    f = lt.QIsometry(u, ((Fraction(1, p), 0), (0, p)), _trusted=True)
    assert f.d == p and f.det() == 1
    fake = lt.QIsometry(u, ((Fraction(2, p), 0), (0, p)), _trusted=True)
    with pytest.raises(NotAnIsometry):
        fake.det()


# a custom even Gram with no U blocks: the positive basis comes from
# congruent_diagonalize, with rational rows and norms other than 2
_NO_U_GRAM = ((2, 1, 1, 0), (1, 2, 0, 1), (1, 0, -2, 1), (0, 1, 1, -4))


def test_integer_nu_matches_projection_formula():
    rng = random.Random(277)
    custom = lt.preset("custom", gram=_NO_U_GRAM)
    assert custom.u_blocks == () and custom.signature() == (2, 2)
    norms = {custom.pair_coords(b, b) for b in custom.positive_basis()}
    assert norms - {1, 2}
    for lat in (lt.preset("K3n", 2), lt.preset("Kummer", 2),
                lt.preset("Mukai"), custom):
        # a reflection in a positive vector reverses the orientation
        flip = fc.reflect(lat, lat.positive_basis()[-1])
        seen = set()
        for count in (1, 2, 3, 4):
            f = rand_reflection_word(rng, lat, count)
            for h in (f, -f, flip * f):
                nu = lt.nu_character(h)
                assert nu == nu_projection(h)
                seen.add(nu)
        assert seen == {1, -1}
    # an explicit positive basis of a U-block lattice, with rational rows
    k3 = lt.preset("K3")
    p, d = la.congruent_diagonalize(k3.gram)
    alt = tuple(row for row, dd in zip(p, d) if dd > 0)
    for _ in range(6):
        f = rand_reflection_word(rng, k3, 3)
        assert lt.nu_character(f, alt) == nu_projection(f, alt)
    # a negative-definite lattice has no positive part to orient
    with pytest.raises(LatticeError):
        lt.nu_character(lt.QIsometry.identity(lt.preset("E8-")))


def test_class_of_matches_dense_formula():
    rng = random.Random(281)
    # U + <-2> + <-2> + <-6>: discriminant group Z/2 + Z/2 + Z/6
    gram = lt._block_diag(lt.U_GRAM, ((-2,),), ((-2,),), ((-6,),))
    lat = lt.Lattice(gram)
    disc = lat.disc_group()
    assert disc.divisors == (2, 2, 6)
    dual, e = lat.dual_gram()
    for _ in range(30):
        w = [rng.randint(-7, 7) for _ in range(lat.rank)]
        v = lat.vec(la.scaled_mat_vec(dual, e, w))
        assert disc.class_of(v) == disc_class_dense(disc, v)
    off = lat.vec([0, 0, Fraction(1, 4), 0, 0])
    for cls in (disc.class_of, lambda v: disc_class_dense(disc, v)):
        with pytest.raises(NotIntegral):
            cls(off)
    # disc_action reads g(x) from the generator numerators; compare it
    # with the dense classes of g(x) on integral isometries of every kind
    flips = [fc.reflect(lat, lat.basis_vec(i)) for i in (2, 3, 4)]
    swap = lt.QIsometry(lat, [[1 if j == {2: 3, 3: 2}.get(i, i) else 0
                               for j in range(5)] for i in range(5)])
    e = lat.basis_vec(0)
    trans = tv.eichler_transvection(lat, e, lat.vec([0, 0, 1, -1, 1]))
    seen = set()
    for g in flips + [swap, trans, swap * flips[2] * trans,
                      flips[0] * flips[2]]:
        assert g.is_integral()
        images = tuple(disc_class_dense(disc, g.apply(x))
                       for x in disc.generators)
        act = lt.disc_action(g)
        if act in (1, -1):
            pm = disc._plus if act == 1 else disc._minus
            assert images == tuple(pm)
        else:
            assert act == ("other", images)
        seen.add(act if act in (1, -1) else "other")
    assert seen == {1, -1, "other"}


def _membership_kinds(rng, lat):
    """Seeded integral and rational isometries of lat: two Eichler
    transvections (in Gamma0), those times a (-2)-reflection (in Gamma,
    not in Gamma0: det = -1 on a trivial discriminant action), times a
    reflection in a norm-2 vector (nu = -1), and a reflection in a norm-4
    vector (not integral)."""
    gamma = rand_transvection(rng, lat) * rand_transvection(rng, lat)
    return [gamma,
            gamma * fc.reflect(lat, rand_primitive_norm(rng, lat, -2)),
            gamma * fc.reflect(lat, rand_primitive_norm(rng, lat, 2)),
            fc.reflect(lat, rand_primitive_norm(rng, lat, 4))]


def test_in_group_decides_as_membership(monkeypatch):
    """in_group(g, tag) is membership(g, tag)[0] for every group tag, and
    reads det only for Gamma0.  The discriminant groups of K3n:2, K3n:3 and
    Kummer:2 (Z/2, Z/4, Z/2) admit no action other than +-1, so the
    'other' action comes from U^3 + <-2> + <-2>, delta the last basis
    vector, whose (Z/2)^2 the swap of the two <-2> summands permutes."""
    two = lt.Lattice(lt._block_diag(lt.U_GRAM, lt.U_GRAM, lt.U_GRAM,
                                    ((-2,),), ((-2,),)),
                     u_blocks=((0, 1), (2, 3), (4, 5)), delta_index=7)
    swap = lt.QIsometry(two, [[int(j == {6: 7, 7: 6}.get(i, i))
                               for j in range(8)] for i in range(8)])
    deciding = []
    real_det = lt.QIsometry.det

    def det(g):
        # membership's certificate reads det; in_group only for Gamma0
        assert deciding in ([], ["Gamma0"]), deciding
        return real_det(g)
    monkeypatch.setattr(lt.QIsometry, "det", det)
    kinds = set()
    for seed, lat in enumerate([lt.preset("K3n", 2), lt.preset("K3n", 3),
                                lt.preset("Kummer", 2), two]):
        gs = _membership_kinds(random.Random(300 + seed), lat)
        if lat is two:
            gs.append(swap * gs[0])
        for g in gs:
            for tag in lt._GROUPS:
                deciding.append(tag)
                try:
                    got = lt.in_group(g, tag)
                finally:
                    deciding.pop()
                assert got == lt.membership(g, tag)[0], (lat.name, tag)
            cert = lt.membership(g, "Gamma")[1]
            kinds.add((seed, "not integral" if not cert["integral"]
                       else "nu = -1" if cert["nu"] == -1
                       else "disc other" if cert["disc"] not in (1, -1)
                       else "Gamma0" if lt.in_group(g, "Gamma0")
                       else "Gamma, not Gamma0"))
    four = ("not integral", "nu = -1", "Gamma0", "Gamma, not Gamma0")
    assert kinds == {(seed, kind) for seed in range(4) for kind in four} | {
        (3, "disc other")}


def test_characters_are_computed_once_per_isometry(monkeypatch):
    """An isometry keeps its characters: over in_group (every tag),
    membership, characters, a normal form's memberships(), certificates
    and verify_normal_form, and make_cyclic then verify_cyclic, each of
    nu, disc and det is computed at most once per QIsometry object.  A
    read that raises keeps nothing, and nu_character with an explicit
    basis runs its projection whatever g keeps."""
    k3n2, k3 = lt.preset("K3n", 2), lt.preset("K3")
    computed = {"nu": [], "disc": [], "det": []}

    def count(owner, name, key):
        real = getattr(owner, name)

        def counted(x, *rest):
            computed[key].append(x)
            return real(x, *rest)
        monkeypatch.setattr(owner, name, counted)
    count(lt, "_nu_projection", "nu")
    count(lt, "disc_action", "disc")
    count(la, "det_mod_p", "det")

    def repeated():
        return {key: len(xs) - len({id(x) for x in xs})
                for key, xs in computed.items()}

    rng = random.Random(311)
    gs = _membership_kinds(rng, k3n2)
    for _ in range(2):
        for g in gs:
            for tag in lt._GROUPS:
                lt.in_group(g, tag)
                lt.membership(g, tag)
            lt.characters(g)
    # disc only of the three integral kinds
    assert {key: len(xs) for key, xs in computed.items()} == {
        "nu": 4, "disc": 3, "det": 4}
    # normal forms: decompose's, the same reloaded, and one-gamma forms of
    # the kinds above, kept and fresh, two kinds outside Gamma failing
    e, delta = k3n2.basis_vec(0), k3n2.basis_vec(k3n2.delta_index)
    phi = (tv.eichler_transvection(k3n2, e, delta)
           * fc.reflect(k3n2, k3n2.vec([0, 0, 1, 2] + [0] * 19)))
    nf = fc.decompose(k3n2, phi)
    text = jio.dumps(jio.normal_form_to_json(nf))
    loaded = jio.normal_form_from_json(json.loads(text), k3n2)
    forms = [(nf, phi), (loaded, phi)]
    forms += [(fc.NormalForm(k3n2, 0, [h], []), g)
              for g in gs for h in (g, -(-g))]
    for form, target in forms * 2:
        form.memberships()
        form.certificates
        rep = fc.verify_normal_form(form, target)
        assert rep["ok"] == (form.k > 0 or target in gs[:2])
    # a cyclic certificate on K3, decided on O+
    g = rand_transvection(rng, k3) * rand_transvection(rng, k3)
    cert = mk.make_cyclic(k3, k3.vec([1, -1] + [0] * 20), g)
    assert mk.verify_cyclic(cert.f, cert) and mk.verify_cyclic(cert.f, cert)
    assert computed["nu"][-2:] == [g, cert.f]
    assert repeated() == {"nu": 0, "disc": 0, "det": 0}
    # an explicit basis: the projection runs on a g that holds nu, and the
    # kept nu stays
    p, d = la.congruent_diagonalize(k3n2.gram)
    alt = tuple(row for row, dd in zip(p, d) if dd > 0)
    before = len(computed["nu"])
    assert lt.nu_character(gs[0], alt) == lt.characters(gs[0])[0] == 1
    assert len(computed["nu"]) == before + 1 and lt.in_group(gs[0], "O+")
    assert len(computed["nu"]) == before + 1
    # a failed character is not kept: it raises, and is computed, on every
    # read.  U with a delta index, so that every tag reaches the character
    ud = lt.Lattice(lt.U_GRAM, name="U", u_blocks=((0, 1),), delta_index=1)
    for rows, key, tags in ((((1, 1), (1, 1)), "nu", lt._GROUPS[1:]),
                            (((2, 0), (0, 2)), "det", ("Gamma0",))):
        fake = lt.QIsometry(ud, rows, _trusted=True)
        reads = [lambda t=t: lt.in_group(fake, t) for t in tags] + [
            lambda: lt.membership(fake, "O"), lambda: lt.characters(fake)]
        before = len(computed[key])
        for _ in range(3):
            for read in reads:
                with pytest.raises(NotAnIsometry):
                    read()
        assert len(computed[key]) == before + 3 * len(reads)
    # the det fake's nu and disc are kept all the same
    assert [x is fake for x in computed["nu"]].count(True) == 1
    assert [x is fake for x in computed["disc"]].count(True) == 1


def test_membership_scans_entries_once(k3n2, monkeypatch):
    calls = []
    real = lt.la.is_integral_mat

    def counting(m):
        calls.append(m)
        return real(m)
    monkeypatch.setattr(lt.la, "is_integral_mat", counting)
    u = k3n2.vec([1, -2] + [0] * 21)
    c = fc.neg_reflection_u_delta(k3n2, u)
    calls.clear()
    ok, cert = lt.membership(c, "Gamma")
    assert ok and cert == {"integral": True, "nu": 1, "det": c.det(),
                           "disc": cert["disc"]}
    # integrality is read off the canonical denominator: no entry scan
    assert c.d == 1 and calls == []
