"""Lattices with exact integer Gram matrices and their rational isometries.

Conventions
-----------
* The hyperbolic plane U has basis (e1, e2) with (e1,e1) = (e2,e2) = 0 and
  (e1,e2) = -1, so a*e1 + b*e2 has norm -2ab and the canonical vector of
  norm N is e1 - (N/2)*e2.
* Preset basis orders:
    U        : e1, e2
    E8-      : the eight roots in the T(1,2,4)-branch ordering, negated
    K3       : U + U + U + E8- + E8-                      (rank 22)
    K3n(n)   : K3 + Z*delta, (delta,delta) = 2-2n         (rank 23)
    Kummer(n): U + U + U + Z*delta, (delta,delta) = 2-2n  (rank 7)
    Mukai    : U + U + U + U + E8- + E8-                  (rank 24)
* The positive subspace used for the orientation character nu is spanned by
  e1 - e2 from each U summand (orthogonal, norm 2 each); for custom Gram
  matrices it comes from an exact congruent diagonalization.  nu itself is
  independent of this choice.

All scalars are int or Fraction; nothing here is ever floating point.
"""

from fractions import Fraction

from . import linalg as la
from .errors import (DegenerateGram, DimensionMismatch, LatticeError,
                     NotAnIsometry, NotIntegral)

U_GRAM = ((0, -1), (-1, 0))

# E8 Dynkin diagram: chain 0-1-2-3-4-5-6 with the extra node 7 attached to
# node 4 (arm lengths 4, 2, 1).  Cartan matrix negated.
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def _e8_neg_gram():
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for i, j in _E8_EDGES:
        g[i][j] = 1
        g[j][i] = 1
    return tuple(tuple(row) for row in g)


E8_NEG_GRAM = _e8_neg_gram()


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                g[off + i][off + j] = b[i][j]
        off += k
    return tuple(tuple(row) for row in g)


class Lattice:
    """A finitely generated free Z-module with a nondegenerate symmetric
    integer Gram matrix."""

    __slots__ = ("rank", "gram", "name", "u_blocks", "delta_index", "_cache",
                 "_gram_rows")

    def __init__(self, gram, name=None, u_blocks=None, delta_index=None):
        g = la.mat(gram)
        n = len(g)
        if any(len(row) != n for row in g):
            raise DegenerateGram("gram matrix must be square")
        if not la.is_integral_mat(g):
            raise NotIntegral("gram matrix must have integer entries")
        if g != la.transpose(g):
            raise DegenerateGram("gram matrix must be symmetric")
        if la.det(g) == 0:
            raise DegenerateGram("gram matrix must be nondegenerate")
        self.rank = n
        self.gram = g
        # nonzero (column, entry) pairs of each Gram row, for pair_coords
        self._gram_rows = tuple(tuple((j, x) for j, x in enumerate(row) if x)
                                for row in g)
        self.name = name
        self.u_blocks = tuple(u_blocks) if u_blocks else self._scan_u_blocks(g)
        self.delta_index = delta_index
        self._cache = {}

    @staticmethod
    def _scan_u_blocks(g):
        n = len(g)
        blocks = []
        used = set()
        for i in range(n):
            for j in range(i + 1, n):
                if i in used or j in used:
                    continue
                if g[i][i] == 0 and g[j][j] == 0 and g[i][j] == -1:
                    if all(g[i][k] == 0 and g[j][k] == 0
                           for k in range(n) if k not in (i, j)):
                        blocks.append((i, j))
                        used.update((i, j))
        return tuple(blocks)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return "Lattice(%s, rank=%d)" % (self.name or "custom", self.rank)

    def vec(self, coords):
        return LatVec(self, coords)

    def basis_vec(self, i):
        return LatVec(self, tuple(1 if j == i else 0 for j in range(self.rank)))

    def zero(self):
        return LatVec(self, (0,) * self.rank)

    def pair_coords(self, x, y):
        """x^T G y on integer numerators, walking the sparse Gram rows."""
        if len(x) != self.rank or len(y) != self.rank:
            raise DimensionMismatch("coordinate length does not match rank")
        nx, dx = la.scaled_vec(x)
        ny, dy = (nx, dx) if y is x else la.scaled_vec(y)
        total = 0
        for xi, row in zip(nx, self._gram_rows):
            if xi:
                total += xi * sum([g * ny[j] for j, g in row])
        return la.quotient(total, dx * dy)

    def signature(self):
        if "sig" not in self._cache:
            pos, neg, zero = la.signature(self.gram)
            assert zero == 0
            self._cache["sig"] = (pos, neg)
        return self._cache["sig"]

    def det(self):
        if "det" not in self._cache:
            self._cache["det"] = la.det(self.gram)
        return self._cache["det"]

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_unimodular(self):
        return abs(self.det()) == 1

    def positive_basis(self):
        """Orthogonal positive-norm vectors spanning the fixed positive
        subspace used for nu."""
        if "posbasis" not in self._cache:
            pos = self.signature()[0]
            basis = []
            for (i, j) in self.u_blocks:
                c = [0] * self.rank
                c[i], c[j] = 1, -1
                basis.append(tuple(c))
            if len(basis) != pos:
                basis = []
                p, d = la.congruent_diagonalize(self.gram)
                for row, dd in zip(p, d):
                    if dd > 0:
                        basis.append(row)
            assert len(basis) == pos
            self._cache["posbasis"] = tuple(basis)
        return self._cache["posbasis"]

    def dual_gram(self):
        if "dualgram" not in self._cache:
            self._cache["dualgram"] = la.inverse(self.gram)
        return self._cache["dualgram"]

    def disc_group(self):
        if "disc" not in self._cache:
            self._cache["disc"] = DiscGroup(self)
        return self._cache["disc"]


class LatVec:
    """Exact-rational coordinate vector in a fixed lattice."""

    __slots__ = ("lattice", "coords")

    def __init__(self, lattice, coords):
        coords = la.vec(coords)
        if len(coords) != lattice.rank:
            raise DimensionMismatch("coordinate length does not match rank")
        self.lattice = lattice
        self.coords = coords

    def __eq__(self, other):
        return (isinstance(other, LatVec) and self.lattice == other.lattice
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.lattice.gram, self.coords))

    def __repr__(self):
        return "LatVec(%s)" % (",".join(str(c) for c in self.coords))

    def __add__(self, other):
        self._same(other)
        return LatVec(self.lattice, la.vec_add(self.coords, other.coords))

    def __sub__(self, other):
        self._same(other)
        return LatVec(self.lattice, la.vec_sub(self.coords, other.coords))

    def __neg__(self):
        return LatVec(self.lattice, tuple(-c for c in self.coords))

    def __rmul__(self, c):
        return LatVec(self.lattice, la.vec_scale(c, self.coords))

    def _same(self, other):
        if self.lattice != other.lattice:
            raise DimensionMismatch("vectors live in different lattices")

    def pair(self, other):
        self._same(other)
        return self.lattice.pair_coords(self.coords, other.coords)

    def norm(self):
        return self.lattice.pair_coords(self.coords, self.coords)

    def is_zero(self):
        return la.is_zero_vec(self.coords)

    def is_integral(self):
        return la.is_integral_vec(self.coords)

    def is_primitive(self):
        return self.is_integral() and la.content(self.coords) == 1

    def primitive_part(self):
        if self.is_zero():
            raise LatticeError("zero vector has no primitive part")
        return LatVec(self.lattice, la.primitive_part(self.coords))


def pair(lattice, x, y):
    """Bilinear pairing x^T G y."""
    if x.lattice != lattice or y.lattice != lattice:
        raise DimensionMismatch("vector does not belong to the given lattice")
    return x.pair(y)


def divisibility(lattice, x):
    """Positive generator of the pairing ideal (x, L)."""
    if not isinstance(x, LatVec):
        x = lattice.vec(x)
    if x.is_zero():
        raise LatticeError("divisibility of the zero vector is undefined")
    if not x.is_integral():
        raise NotIntegral("divisibility requires an integral vector")
    gx = la.mat_vec(lattice.gram, x.coords)
    return la.content(gx)


class QIsometry:
    """A rational matrix M with M^T G M = G, acting on column coordinates."""

    __slots__ = ("lattice", "matrix")

    def __init__(self, lattice, matrix, _trusted=False):
        m = la.mat(matrix)
        if len(m) != lattice.rank or any(len(r) != lattice.rank for r in m):
            raise DimensionMismatch("matrix size does not match rank")
        if not _trusted:
            g = lattice.gram
            if la.mat_mul(la.mat_mul(la.transpose(m), g), m) != g:
                raise NotAnIsometry("matrix does not preserve the pairing")
        self.lattice = lattice
        self.matrix = m

    @classmethod
    def identity(cls, lattice):
        return cls(lattice, la.identity(lattice.rank), _trusted=True)

    @classmethod
    def minus_identity(cls, lattice):
        n = lattice.rank
        return cls(lattice, la.mat_scale(-1, la.identity(n)), _trusted=True)

    def __eq__(self, other):
        return (isinstance(other, QIsometry) and self.lattice == other.lattice
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.lattice.gram, self.matrix))

    def __repr__(self):
        return "QIsometry(rank=%d)" % self.lattice.rank

    def __mul__(self, other):
        """Composition self o other (other applied first)."""
        if self.lattice != other.lattice:
            raise DimensionMismatch("isometries of different lattices")
        return QIsometry(self.lattice, la.mat_mul(self.matrix, other.matrix),
                         _trusted=True)

    def __neg__(self):
        return QIsometry(self.lattice, la.mat_scale(-1, self.matrix),
                         _trusted=True)

    def inverse(self):
        # for isometries the inverse is G^-1 M^T G; no elimination needed
        g = self.lattice.gram
        inv = la.mat_mul(la.mat_mul(self.lattice.dual_gram(),
                                    la.transpose(self.matrix)), g)
        return QIsometry(self.lattice, inv, _trusted=True)

    def apply(self, v):
        if v.lattice != self.lattice:
            raise DimensionMismatch("vector lives in a different lattice")
        return LatVec(self.lattice, la.mat_vec(self.matrix, v.coords))

    def __call__(self, v):
        return self.apply(v)

    def is_integral(self):
        return la.is_integral_mat(self.matrix)

    def det(self):
        d = la.det(self.matrix)
        if d not in (1, -1):
            raise NotAnIsometry("determinant %s is not +-1" % (d,))
        return d

    def is_identity(self):
        return self.matrix == la.identity(self.lattice.rank)


class DiscGroup:
    """The finite quadratic group L*/L presented by its elementary divisors
    together with generator lifts in L* (rational coordinates)."""

    __slots__ = ("lattice", "divisors", "generators", "_umat", "_all_divisors")

    def __init__(self, lattice):
        g = [[int(x) for x in row] for row in lattice.gram]
        d, u, v = la.smith_normal_form(g)
        uinv = la.inverse(u)
        dual = lattice.dual_gram()
        divisors = []
        gens = []
        for i, di in enumerate(d):
            di = int(di)
            if di > 1:
                divisors.append(di)
                col = tuple(uinv[r][i] for r in range(lattice.rank))
                gens.append(LatVec(lattice, la.mat_vec(dual, col)))
        self.lattice = lattice
        self.divisors = tuple(divisors)
        self.generators = tuple(gens)
        self._umat = u
        self._all_divisors = tuple(int(x) for x in d)
        order = 1
        for di in divisors:
            order *= di
        assert order == abs(int(lattice.det()))

    def is_trivial(self):
        return not self.divisors

    def class_of(self, v):
        """Coordinates of [v] in the cyclic decomposition; v must pair
        integrally with the lattice (i.e. lie in L*)."""
        m = la.mat_vec(self.lattice.gram, v.coords)
        if not la.is_integral_vec(m):
            raise NotIntegral("vector does not lie in the dual lattice")
        um = la.mat_vec(self._umat, m)
        return tuple(int(um[i]) % di
                     for i, di in enumerate(self._all_divisors) if di > 1)


def disc_group(lattice):
    return lattice.disc_group()


def disc_action(g):
    """Classify the action of an integral isometry on L*/L.

    Returns +1, -1, or ("other", matrix) where the matrix gives the images
    of the generators in generator coordinates.
    """
    if not g.is_integral():
        raise NotIntegral("discriminant action needs an integral isometry")
    disc = g.lattice.disc_group()
    if disc.is_trivial():
        return 1
    images = [disc.class_of(g.apply(x)) for x in disc.generators]
    plus = [disc.class_of(x) for x in disc.generators]
    minus = [disc.class_of(-x) for x in disc.generators]
    if images == plus:
        return 1
    if images == minus:
        return -1
    return ("other", tuple(images))


def nu_character(g, positive_basis=None):
    """Orientation character of the positive cone: the sign of det of
    P -> g(P) -> P (orthogonal projection back to the fixed positive
    subspace P)."""
    lat = g.lattice
    basis = positive_basis if positive_basis is not None else lat.positive_basis()
    if not basis:
        raise LatticeError("nu needs a positive-definite part of dimension >= 1")
    p = len(basis)
    norms = [lat.pair_coords(b, b) for b in basis]
    m = []
    for bj in basis:
        gb = la.mat_vec(g.matrix, bj)
        m.append(tuple(la.ratio(lat.pair_coords(gb, basis[i]), norms[i])
                       for i in range(p)))
    d = la.det(la.transpose(la.mat(m)))
    assert d != 0, "projection degenerate; input is not an isometry"
    return 1 if d > 0 else -1


def characters(g):
    """(nu, det, disc) of a rational isometry; disc is 'n/a' unless g is
    integral."""
    nu = nu_character(g)
    dt = g.det()
    if g.is_integral():
        disc = disc_action(g)
    else:
        disc = "n/a"
    return nu, dt, disc


_GROUPS = ("O", "O+", "Gamma", "Gamma0", "Mon_K3n")


def membership(g, group):
    """Decide membership of g in one of the named subgroups, with a
    certificate of the characters used.

    O      : integral isometry
    O+     : integral and nu = +1
    Gamma  : O+ acting on the discriminant group by +-1  (= Mon_K3n)
    Gamma0 : Gamma with det * xi = +1 (xi the discriminant character)
    """
    if group not in _GROUPS:
        raise LatticeError("unknown group tag %r" % (group,))
    if group in ("Gamma", "Gamma0", "Mon_K3n") and g.lattice.delta_index is None:
        raise LatticeError("%s requires an L + Z*delta shaped lattice" % group)
    integral = g.is_integral()
    cert = {"integral": integral}
    if not integral:
        return False, cert
    nu, dt, disc = characters(g)
    cert.update({"nu": nu, "det": dt, "disc": disc})
    if group == "O":
        return True, cert
    if nu != 1:
        return False, cert
    if group == "O+":
        return True, cert
    if disc not in (1, -1):
        return False, cert
    if group in ("Gamma", "Mon_K3n"):
        return True, cert
    # Gamma0: kernel of det * xi
    ok = dt * disc == 1
    return ok, cert


def _preset_u(params):
    return Lattice(U_GRAM, name="U", u_blocks=((0, 1),))


def _preset_e8neg(params):
    return Lattice(E8_NEG_GRAM, name="E8-", u_blocks=())


def _preset_k3(params):
    g = _block_diag(U_GRAM, U_GRAM, U_GRAM, E8_NEG_GRAM, E8_NEG_GRAM)
    return Lattice(g, name="K3", u_blocks=((0, 1), (2, 3), (4, 5)))


def _preset_k3n(n):
    if n is None or n < 2:
        raise LatticeError("K3n preset needs n >= 2")
    g = _block_diag(U_GRAM, U_GRAM, U_GRAM, E8_NEG_GRAM, E8_NEG_GRAM,
                    ((2 - 2 * n,),))
    return Lattice(g, name="K3n:%d" % n, u_blocks=((0, 1), (2, 3), (4, 5)),
                   delta_index=22)


def _preset_kummer(n):
    if n is None or n < 2:
        raise LatticeError("Kummer preset needs n >= 2")
    g = _block_diag(U_GRAM, U_GRAM, U_GRAM, ((2 - 2 * n,),))
    return Lattice(g, name="Kummer:%d" % n, u_blocks=((0, 1), (2, 3), (4, 5)),
                   delta_index=6)


def _preset_mukai(params):
    g = _block_diag(U_GRAM, U_GRAM, U_GRAM, U_GRAM, E8_NEG_GRAM, E8_NEG_GRAM)
    return Lattice(g, name="Mukai", u_blocks=((0, 1), (2, 3), (4, 5), (6, 7)))


def preset(name, n=None, gram=None):
    """Construct a named lattice.

    name in {"U", "E8-", "K3", "K3n", "Kummer", "Mukai", "custom"};
    K3n and Kummer take the integer n >= 2, custom takes a Gram matrix.
    """
    key = name.lower().replace("e8neg", "e8-")
    if key == "u":
        return _preset_u(n)
    if key == "e8-":
        return _preset_e8neg(n)
    if key == "k3":
        return _preset_k3(n)
    if key == "k3n":
        return _preset_k3n(n)
    if key == "kummer":
        return _preset_kummer(n)
    if key == "mukai":
        return _preset_mukai(n)
    if key == "custom":
        if gram is None:
            raise LatticeError("custom preset needs a gram matrix")
        lat = Lattice(gram, name=None)
        if not lat.is_even():
            raise LatticeError("custom lattices must be even")
        return lat
    raise LatticeError("unknown preset %r" % (name,))


def delta_vector(lattice):
    if lattice.delta_index is None:
        raise LatticeError("lattice has no delta summand")
    return lattice.basis_vec(lattice.delta_index)


def l_part_coords(lattice, v):
    """Split v in an L + Z*delta lattice into (lambda-coords, t) with
    v = lambda + t*delta."""
    di = lattice.delta_index
    if di is None:
        raise LatticeError("lattice has no delta summand")
    lam = list(v.coords)
    t = lam[di]
    lam[di] = Fraction(0)
    return tuple(lam), t
