"""Mukai vectors for a K3 surface: (r, c, s) triples with the pairing

    <(r,c,s), (r',c',s')> = (c,c') - r s' - r' s,

identified with the extended lattice of the K3 preset via alpha = (1,0,0),
beta = (0,0,1).  Includes the determinant-normalized Chern character kappa,
the structure-sheaf reflection (r,c,s) -> (-s,c,-r), the closed-form cup and
Pontryagin products on a surface, cyclic-type certificates f = -g rho_u,
and the norm-only dependence of the double orbit of -rho_u.
"""

from math import factorial

from . import linalg as la
from .errors import (BadDivisibility, BadMonodromy, BadNorm, LatticeError,
                     NotConjugating, OrientationReversing)
from .factor import reflect
from .lattice import divisibility, in_group, membership, nu_character
from .transvect import eichler_move


class MukaiVector:
    """(r, c, s) with c in the K3 lattice."""

    __slots__ = ("r", "c", "s")

    def __init__(self, r, c, s):
        self.r = la.frac(r)
        self.c = c
        self.s = la.frac(s)

    def __eq__(self, other):
        return (isinstance(other, MukaiVector) and self.r == other.r
                and self.c == other.c and self.s == other.s)

    def __repr__(self):
        return "MukaiVector(%s, %s, %s)" % (self.r, list(self.c.coords), self.s)

    def __add__(self, other):
        return MukaiVector(self.r + other.r, self.c + other.c, self.s + other.s)

    def __sub__(self, other):
        return MukaiVector(self.r - other.r, self.c - other.c, self.s - other.s)

    def __neg__(self):
        return MukaiVector(-self.r, -self.c, -self.s)

    def pair(self, other):
        return la.frac(self.c.pair(other.c) - self.r * other.s - other.r * self.s)

    def norm(self):
        return self.pair(self)

    def to_llv(self, space):
        return space.vec(self.r, self.c, self.s)

    @classmethod
    def from_llv(cls, space, v):
        return cls(v.coords[0], space.middle_part(v), v.coords[-1])


def mukai_pair(a, b):
    return a.pair(b)


def mukai_v(lattice, r, c1, ch2):
    """v(F) = ch(F) sqrt(td): (r, c1, ch2 + r) on a K3 surface."""
    return MukaiVector(r, c1, la.frac(ch2) + la.frac(r))


def kappa(lattice, r, c1, ch2):
    """kappa(F) = ch(F) exp(-c1/r) = (r, 0, ch2 - (c1,c1)/2r).

    The same odd formula implements the shift rule for negative rank;
    rank zero is undefined.
    """
    r = la.frac(r)
    if r == 0:
        raise LatticeError("kappa needs nonzero rank")
    s = la.frac(ch2) - la.ratio(c1.norm(), 2 * r)
    return MukaiVector(r, lattice.zero(), s)


def structure_sheaf_reflection(x):
    """The reflection in u = (1,0,1): (r,c,s) -> (-s,c,-r)."""
    return MukaiVector(-x.s, x.c, -x.r)


def k3_cup(a, b):
    """(r,c,s) cup (r',c',s') = (rr', rc' + r'c, rs' + r's + (c,c'))."""
    return MukaiVector(a.r * b.r,
                       a.r * b.c + b.r * a.c,
                       la.frac(a.r * b.s + b.r * a.s + a.c.pair(b.c)))


def k3_star(a, b):
    """The surface Pontryagin product: conjugate of cup by -rho_{(1,0,1)}."""
    na = MukaiVector(a.s, -a.c, a.r)    # -rho_u(a)
    nb = MukaiVector(b.s, -b.c, b.r)
    cu = k3_cup(na, nb)
    return MukaiVector(cu.s, -cu.c, cu.r)


def k3_star_table(lattice):
    """The degree-2 multiplication table: lam_i * lam_j = (lam_i, lam_j)."""
    out = []
    for i in range(lattice.rank):
        row = []
        for j in range(lattice.rank):
            p = k3_star(MukaiVector(0, lattice.basis_vec(i), 0),
                        MukaiVector(0, lattice.basis_vec(j), 0))
            if not p.c.is_zero() or p.s != 0:
                raise AssertionError("lam_%d * lam_%d leaves degree 2" % (i, j))
            row.append(p.r)
        out.append(tuple(row))
    return tuple(out)


def kernel_rank(n, r):
    """The rank n! r^n of the lifted locally free kernel."""
    return factorial(n) * r ** n


class CyclicCertificate:
    """u primitive with (u,u) = 2r > 0 and divisibility 1, a certified
    monodromy g, and f = -g rho_u."""

    __slots__ = ("u", "g", "f", "r", "cert")

    def __init__(self, u, g, f, r, cert):
        self.u = u
        self.g = g
        self.f = f
        self.r = r
        self.cert = cert


def _monodromy_group_tag(lattice):
    return "Gamma" if lattice.delta_index is not None else "O+"


def make_cyclic(lattice, u, g):
    """Certificate for the cyclic-type isometry f = -g rho_u."""
    if not (u.is_integral() and u.is_primitive()):
        raise BadDivisibility("u must be primitive integral")
    uu = u.norm()
    if uu <= 0 or uu % 2 != 0:
        raise BadNorm("(u,u) must be positive and even")
    if divisibility(lattice, u) != 1:
        raise BadDivisibility("(u, .) must be a primitive functional")
    tag = _monodromy_group_tag(lattice)
    ok, cert = membership(g, tag)
    if not ok:
        raise BadMonodromy("g is not a certified monodromy (%s)" % tag)
    f = -(g * reflect(lattice, u))
    r = int(uu) // 2
    if nu_character(f) != 1:
        raise OrientationReversing("f = -g rho_u has nu = -1 on this lattice")
    return CyclicCertificate(u, g, f, r, cert)


def verify_cyclic(f, certificate):
    """Exact re-check of a cyclic-type certificate against f."""
    lat = f.lattice
    u, g = certificate.u, certificate.g
    if not (u.is_integral() and u.is_primitive()):
        return False
    uu = u.norm()
    if uu <= 0 or uu != 2 * certificate.r:
        return False
    if divisibility(lat, u) != 1:
        return False
    if not in_group(g, _monodromy_group_tag(lat)):
        return False
    return f == -(g * reflect(lat, u))


def double_orbit_connect(lattice, u, u2):
    """h1, h2 in O^+(L) with h1 (-rho_u) h2 = -rho_{u2}; exists whenever the
    norms agree, witnessing that the double orbit of -rho_u depends only on
    (u,u)."""
    if u.norm() != u2.norm():
        raise BadNorm("equal norms required")
    word = eichler_move(lattice, u, u2)
    h1 = word.isometry()
    h2 = h1.inverse()
    lhs = h1 * (-reflect(lattice, u)) * h2
    rhs = -reflect(lattice, u2)
    if lhs != rhs:
        raise NotConjugating("h1 (-rho_u) h2 is not -rho_u2")
    if nu_character(h1) != 1 or h1.det() != 1:
        raise BadMonodromy("h1 does not preserve orientation and det")
    return h1, h2
