import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (rand_orientation_preserving, rand_primitive_norm,
                      rand_vec, subprocess_env, TESTS)
from hklat import factor as fc
from hklat import lattice as lt
from hklat import llv
from hklat import mukai as mk
from hklat.errors import BadDivisibility, BadMonodromy, BadNorm, LatticeError


@pytest.fixture(scope="module")
def H(k3):
    return llv.LLVSpace(k3)


def test_mukai_pair(k3):
    rng = random.Random(197)
    u = mk.MukaiVector(1, k3.zero(), 1)
    assert mk.mukai_pair(u, u) == -2
    assert mk.mukai_pair(mk.MukaiVector(1, k3.zero(), 0),
                         mk.MukaiVector(0, k3.zero(), 1)) == -1
    lam, mu_v = rand_vec(rng, k3), rand_vec(rng, k3)
    assert mk.mukai_pair(mk.MukaiVector(0, lam, 0),
                         mk.MukaiVector(0, mu_v, 0)) == lam.pair(mu_v)


def test_mukai_signature(H):
    assert H.lattice.signature() == (4, 20)


def test_v_and_kappa(k3):
    c1 = k3.vec([1, -2] + [0] * 20)
    assert c1.norm() == 4
    v = mk.mukai_v(k3, 2, c1, 7)
    assert v.r == 2 and v.c == c1 and v.s == 9
    kap = mk.kappa(k3, 2, c1, 7)
    assert kap == mk.MukaiVector(2, k3.zero(), 6)
    assert kap.c.is_zero()
    # c1 = 0 keeps ch2
    assert mk.kappa(k3, 3, k3.zero(), Fraction(5, 2)) \
        == mk.MukaiVector(3, k3.zero(), Fraction(5, 2))
    # dual invariance and the negative-rank shift rule give the same formula
    assert mk.kappa(k3, 2, -1 * c1, 7) == kap
    assert mk.kappa(k3, -2, c1, -7) == -kap
    with pytest.raises(LatticeError):
        mk.kappa(k3, 0, c1, 1)


def test_structure_sheaf_reflection(k3, H):
    rng = random.Random(199)
    x = mk.MukaiVector(1, k3.zero(), 0)
    assert mk.structure_sheaf_reflection(x) == mk.MukaiVector(0, k3.zero(), -1)
    lam = rand_vec(rng, k3)
    y = mk.MukaiVector(0, lam, 0)
    assert mk.structure_sheaf_reflection(y) == y
    z = mk.MukaiVector(3, lam, Fraction(5, 2))
    assert mk.structure_sheaf_reflection(mk.structure_sheaf_reflection(z)) == z
    # agreement with the generic reflection in u = (1,0,1)
    u = mk.MukaiVector(1, k3.zero(), 1).to_llv(H)
    rho = fc.reflect(H.lattice, u)
    assert mk.MukaiVector.from_llv(H, rho.apply(z.to_llv(H))) \
        == mk.structure_sheaf_reflection(z)


def test_k3_cup_star(k3):
    rng = random.Random(211)
    one = mk.MukaiVector(1, k3.zero(), 0)
    pt = mk.MukaiVector(0, k3.zero(), 1)
    for _ in range(25):
        a = mk.MukaiVector(rng.randint(-3, 3), rand_vec(rng, k3),
                           Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
        b = mk.MukaiVector(rng.randint(-3, 3), rand_vec(rng, k3),
                           Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
        c = mk.MukaiVector(rng.randint(-2, 2), rand_vec(rng, k3),
                           rng.randint(-2, 2))
        assert mk.k3_cup(one, a) == a
        assert mk.k3_star(a, pt) == a
        assert mk.k3_star(a, b) == mk.k3_star(b, a)
        assert mk.k3_star(mk.k3_star(a, b), c) == mk.k3_star(a, mk.k3_star(b, c))
        # -rho_u conjugates cup to star
        def neg_rho(x):
            return mk.MukaiVector(x.s, -x.c, x.r)
        assert mk.k3_star(a, b) == neg_rho(mk.k3_cup(neg_rho(a), neg_rho(b)))
    lam, mu_v = rand_vec(rng, k3), rand_vec(rng, k3)
    assert mk.k3_star(mk.MukaiVector(0, lam, 0), mk.MukaiVector(0, mu_v, 0)) \
        == mk.MukaiVector(lam.pair(mu_v), k3.zero(), 0)


def test_k3_star_table(k3):
    table = mk.k3_star_table(k3)
    for i in range(k3.rank):
        for j in range(k3.rank):
            assert table[i][j] == k3.gram[i][j]


def test_cyclic_certificates(k3):
    rng = random.Random(223)
    u2 = k3.vec([1, -1] + [0] * 20)
    cert = mk.make_cyclic(k3, u2, lt.QIsometry.identity(k3))
    assert cert.r == 1
    assert cert.f == -fc.reflect(k3, u2)
    assert mk.verify_cyclic(cert.f, cert)
    u4 = rand_primitive_norm(rng, k3, 4)
    g = rand_orientation_preserving(rng, k3, 2)
    if not g.is_integral():
        g = lt.QIsometry.identity(k3)
    cert4 = mk.make_cyclic(k3, u4, g)
    assert cert4.r == 2
    assert mk.verify_cyclic(cert4.f, cert4)
    assert lt.nu_character(cert4.f) == 1
    # tampering is caught
    other = rand_primitive_norm(rng, k3, 6)
    cert4.u = other
    assert not mk.verify_cyclic(cert4.f, cert4)
    with pytest.raises(BadNorm):
        mk.make_cyclic(k3, k3.vec([1, 1] + [0] * 20), lt.QIsometry.identity(k3))
    with pytest.raises(BadDivisibility):
        mk.make_cyclic(k3, 2 * u2, lt.QIsometry.identity(k3))
    with pytest.raises(BadMonodromy):
        bad_g = fc.reflect(k3, u2)   # nu = -1
        mk.make_cyclic(k3, u2, bad_g)


def test_double_orbit_connect(k3):
    rng = random.Random(227)
    u = rand_primitive_norm(rng, k3, 6)
    h1, h2 = mk.double_orbit_connect(k3, u, u)
    assert (h1 * (-fc.reflect(k3, u)) * h2).matrix == (-fc.reflect(k3, u)).matrix
    u2 = rand_primitive_norm(rng, k3, 6)
    h1, h2 = mk.double_orbit_connect(k3, u, u2)
    assert (h1 * (-fc.reflect(k3, u)) * h2).matrix == (-fc.reflect(k3, u2)).matrix
    with pytest.raises(BadNorm):
        mk.double_orbit_connect(k3, rand_primitive_norm(rng, k3, 2),
                                rand_primitive_norm(rng, k3, 4))


_GATES_SCRIPT = """
import sys
from hklat import lattice as lt, mukai as mk
from hklat.errors import BadMonodromy, NotConjugating, OrientationReversing


class Word:
    # stands in for the word eichler_move returns
    def __init__(self, iso):
        self.iso = iso

    def isometry(self):
        return self.iso


out = []


def gate(exc, call):
    try:
        call()
    except exc:
        out.append(exc.__name__)
    else:
        out.append("returned")


# the Mukai lattice has four positive directions, so -rho_u has nu = -1
muk = lt.preset("Mukai")
gate(OrientationReversing, lambda: mk.make_cyclic(
    muk, muk.vec([1, -1] + [0] * 22), lt.QIsometry.identity(muk)))
k3 = lt.preset("K3")
u, u2 = k3.vec([1, -1] + [0] * 20), k3.vec([0, 0, 1, -1] + [0] * 18)
mk.eichler_move = lambda lattice, x, y: Word(lt.QIsometry.identity(lattice))
gate(NotConjugating, lambda: mk.double_orbit_connect(k3, u, u2))
# -id conjugates -rho_u to itself but has nu = -1
mk.eichler_move = lambda lattice, x, y: Word(lt.QIsometry.minus_identity(lattice))
gate(BadMonodromy, lambda: mk.double_orbit_connect(k3, u, u))
print(sys.flags.optimize, *out)
"""


def test_certificate_gates_raise_under_O():
    r = subprocess.run([sys.executable, "-O", "-c", _GATES_SCRIPT],
                       capture_output=True, text=True, timeout=120,
                       env=subprocess_env(TESTS))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["1", "OrientationReversing", "NotConjugating",
                                "BadMonodromy"]


def test_kernel_rank():
    assert mk.kernel_rank(2, 2) == 8
    assert mk.kernel_rank(3, 2) == 48
    assert mk.kernel_rank(3, 1) == 6
