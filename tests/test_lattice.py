import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from conftest import rand_orientation_preserving, rand_primitive, rand_vec
from hklat import factor as fc
from hklat import lattice as lt
from hklat.errors import LatticeError, NotAnIsometry


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


def la_det(lat):
    return int(lat.det())


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


def test_custom_lattice_validation():
    with pytest.raises(LatticeError):
        lt.preset("custom", gram=[[1, 0], [0, 1]])   # custom presets must be even
    with pytest.raises(LatticeError):
        lt.Lattice([[0, 1], [2, 0]])                 # not symmetric
    with pytest.raises(LatticeError):
        lt.Lattice([[2, 2], [2, 2]])                 # degenerate
    # a plain odd symmetric gram is fine for the bare constructor
    assert lt.Lattice([[0, 1], [1, 1]]).rank == 2


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
