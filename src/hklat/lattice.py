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

from math import gcd, lcm, prod

from . import linalg as la
from .errors import (DegenerateGram, DimensionMismatch, LatticeError,
                     NoHyperbolicPlanes, NotAnIsometry, NotIntegral)

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


def _is_u_plane(g, i, j):
    """Whether (e_i, e_j) is a hyperbolic plane orthogonal to every other
    basis vector: (e_i,e_i) = (e_j,e_j) = 0 and (e_i,e_j) = -1."""
    return (g[i][i] == 0 and g[j][j] == 0 and g[i][j] == -1
            and all(g[i][k] == 0 and g[j][k] == 0
                    for k in range(len(g)) if k not in (i, j)))


class Lattice:
    """A finitely generated free Z-module with a nondegenerate symmetric
    integer Gram matrix.

    u_blocks are disjoint hyperbolic planes (e_i, e_j), each orthogonal to
    every other basis vector: declared ones are checked (NoHyperbolicPlanes
    otherwise), an empty declaration declares none, and without a
    declaration (None) they are scanned for."""

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
        det = la.det(g)
        if det == 0:
            raise DegenerateGram("gram matrix must be nondegenerate")
        self.rank = n
        self.gram = g
        # nonzero (column, entry) pairs of each Gram row
        self._gram_rows = tuple(tuple((j, x) for j, x in enumerate(row) if x)
                                for row in g)
        self.name = name
        self.u_blocks = (self._scan_u_blocks(g) if u_blocks is None
                         else self._checked_u_blocks(g, u_blocks))
        self.delta_index = delta_index
        self._cache = {"det": det}

    @staticmethod
    def _scan_u_blocks(g):
        n = len(g)
        blocks = []
        used = set()
        for i in range(n):
            for j in range(i + 1, n):
                if i in used or j in used:
                    continue
                # most pairs fail on (e_i, e_j) alone, before any call
                if g[i][j] == -1 and _is_u_plane(g, i, j):
                    blocks.append((i, j))
                    used.update((i, j))
        return tuple(blocks)

    @staticmethod
    def _checked_u_blocks(g, u_blocks):
        """The declared blocks as int pairs, each a hyperbolic plane
        disjoint from the blocks before it; raises NoHyperbolicPlanes
        otherwise."""
        n = len(g)
        blocks = []
        used = set()
        for block in u_blocks:
            pair = tuple(block)
            if (len(pair) != 2 or not all(type(i) is int and 0 <= i < n
                                          for i in pair)
                    or used & set(pair) or not _is_u_plane(g, *pair)):
                raise NoHyperbolicPlanes(
                    "u_blocks entry %r is not a hyperbolic plane (e_i, e_j) "
                    "= -1 orthogonal to the other basis vectors and to the "
                    "other blocks" % (block,))
            blocks.append(pair)
            used.update(pair)
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
        return LatVec._from_nums(self, [int(j == i) for j in range(self.rank)])

    def zero(self):
        return LatVec._from_nums(self, (0,) * self.rank)

    def pair_coords(self, x, y):
        """x^T G y for coordinate tuples x and y, as LatVec.pair."""
        return LatVec(self, x).pair(LatVec(self, y))

    def pair_nums(self, x, y):
        """x^T G y for integer vectors, walking the sparse Gram rows."""
        total = 0
        for xi, row in zip(x, self._gram_rows):
            if xi:
                total += xi * sum([g * y[j] for j, g in row])
        return total

    def gram_times(self, v):
        """The nonzero entries (i, (G v)_i) of G v, for integer v."""
        acc = {}
        for j, x in enumerate(v):
            if x:
                for i, g in self._gram_rows[j]:
                    acc[i] = acc.get(i, 0) + g * x
        return [(i, s) for i, s in acc.items() if s]

    def memo(self, key, build):
        """The per-lattice constant build(self), built on first use and
        kept under key: the one place a lattice keeps derived data."""
        cache = self._cache
        if key not in cache:
            cache[key] = build(self)
        return cache[key]

    def scaled_diagonalization(self):
        """(rows, d) with P G P^T = diag(d), by
        la.congruent_diagonalize_scaled, computed once: each row P_r as
        integer numerators over s_r > 0 in lowest terms.  G is
        nondegenerate, so no d_i is zero."""
        return self.memo("diag_scaled",
                         lambda lat: la.congruent_diagonalize_scaled(lat.gram))

    def diagonalization(self):
        """(P, d) of scaled_diagonalization with the rows P_r as ints and
        Fractions, built once."""
        def build(lat):
            rows, d = lat.scaled_diagonalization()
            return la.plain_rows(rows), d
        return self.memo("diag", build)

    def signature(self):
        pos = sum(1 for x in self.diagonalization()[1] if x > 0)
        return pos, self.rank - pos

    def det(self):
        """det G, computed once by the nondegeneracy check."""
        return self._cache["det"]

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_unimodular(self):
        return abs(self.det()) == 1

    def positive_basis(self):
        """Orthogonal positive-norm vectors spanning the fixed positive
        subspace used for nu."""
        return self.memo("posbasis", _positive_basis)

    def dual_gram(self):
        """G^-1 as (D, e), integer rows D over e > 0 in canonical form, by
        la.inverse, computed once."""
        return self.memo("dualgram", lambda lat: la.inverse(lat.gram))

    def disc_group(self):
        return self.memo("disc", DiscGroup)


def _positive_basis(lattice):
    """e1 - e2 of each U summand when they span a maximal positive
    subspace, else the positive rows of the diagonalization."""
    pos = lattice.signature()[0]
    basis = []
    for (i, j) in lattice.u_blocks:
        c = [0] * lattice.rank
        c[i], c[j] = 1, -1
        basis.append(tuple(c))
    if len(basis) != pos:
        # the diagonalization that counted pos
        p, d = lattice.diagonalization()
        basis = [row for row, dd in zip(p, d) if dd > 0]
    return tuple(basis)


class LatVec:
    """An exact-rational coordinate vector in a fixed lattice, held as
    QIsometry holds a matrix: integer numerators nums (a tuple) over one
    d > 0 with gcd(d, content of nums) = 1, on which every kernel, == and
    hash work.  coords is the normalized view (ints and reduced Fractions),
    built on first read.  The constructor scales its coordinates once;
    library code builds from integers by the trusted _from_nums."""

    __slots__ = ("lattice", "nums", "d", "_coords")

    def __init__(self, lattice, coords):
        coords = la.vec(coords)   # refuses a float, a bool or a string
        if len(coords) != lattice.rank:
            raise DimensionMismatch("coordinate length does not match rank")
        nums, self.d = la.scaled_vec(coords)
        self.lattice, self.nums, self._coords = lattice, tuple(nums), coords

    @classmethod
    def _from_nums(cls, lattice, nums, d=1):
        """The trusted vector nums / d, for rank-many ints nums and d > 0;
        the common content of nums and d is divided out here."""
        if d > 1:
            c = gcd(d, *nums)
            if c > 1:
                nums = [x // c for x in nums]
                d //= c
        self = object.__new__(cls)
        self.lattice, self.nums, self.d = lattice, tuple(nums), d
        self._coords = None
        return self

    @property
    def coords(self):
        if self._coords is None:
            d = self.d
            self._coords = (self.nums if d == 1 else
                            tuple([la.quotient(x, d) for x in self.nums]))
        return self._coords

    def __eq__(self, other):
        return (isinstance(other, LatVec) and self.lattice == other.lattice
                and self.d == other.d and self.nums == other.nums)

    def __hash__(self):
        return hash((self.lattice.gram, self.d, self.nums))

    def __repr__(self):
        return "LatVec(%s)" % (",".join(str(c) for c in self.coords))

    def __add__(self, other):
        self._same(other)
        d = lcm(self.d, other.d)
        a, b = d // self.d, d // other.d
        return LatVec._from_nums(self.lattice, [
            a * x + b * y for x, y in zip(self.nums, other.nums)], d)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return LatVec._from_nums(self.lattice, [-x for x in self.nums], self.d)

    def __rmul__(self, c):
        c = la.frac(c)
        return LatVec._from_nums(self.lattice, [
            c.numerator * x for x in self.nums], c.denominator * self.d)

    def _same(self, other):
        if self.lattice != other.lattice:
            raise DimensionMismatch("vectors live in different lattices")

    def pair(self, other):
        self._same(other)
        return la.quotient(self.lattice.pair_nums(self.nums, other.nums),
                           self.d * other.d)

    def norm(self):
        return self.pair(self)

    def is_zero(self):
        return not any(self.nums)

    def is_integral(self):
        return self.d == 1

    def is_primitive(self):
        return self.d == 1 and gcd(*self.nums) == 1

    def primitive_part(self):
        if self.is_zero():
            raise LatticeError("zero vector has no primitive part")
        c = gcd(*self.nums)
        return LatVec._from_nums(self.lattice, [x // c for x in self.nums])


def pair(lattice, x, y):
    """Bilinear pairing x^T G y."""
    if x.lattice != lattice or y.lattice != lattice:
        raise DimensionMismatch("vector does not belong to the given lattice")
    return x.pair(y)


def divisibility(lattice, x):
    """Positive generator of the pairing ideal (x, L)."""
    if x.is_zero():
        raise LatticeError("divisibility of the zero vector is undefined")
    if not x.is_integral():
        raise NotIntegral("divisibility requires an integral vector")
    return gcd(*[s for _, s in lattice.gram_times(x.nums)])


def _check_isometry(lattice, nums, d):
    """Raises NotAnIsometry unless M^T G M = G, checked on M = nums / d as
    n_i . (G n_j) = d^2 G_ij for the columns n_i, i <= j (the product is
    symmetric).  Column j of the product is accumulated over the nonzero
    entries (k, s) of G n_j, read off the sparse Gram rows, and the
    nonzero entries (i, x) of row k of nums with i <= j."""
    rows = [[(i, x) for i, x in enumerate(row) if x] for row in nums]
    dd = d * d
    for j, cj in enumerate(zip(*nums)):
        acc = [0] * (j + 1)
        for k, s in lattice.gram_times(cj):
            for i, x in rows[k]:
                if i > j:
                    break
                acc[i] += x * s
        if acc != [dd * g for g in lattice.gram[j][:j + 1]]:
            raise NotAnIsometry("matrix does not preserve the pairing")


class QIsometry:
    """A rational matrix M with M^T G M = G, acting on column coordinates.

    M is held in one canonical form: integer rows nums and a denominator
    d > 0 with M = nums / d and gcd(d, content of nums) = 1.  Products,
    inverses, negation, det and every kernel that reads an isometry work
    on that form, and == and hash compare it.  matrix is the normalized
    view (ints and reduced Fractions) for callers outside the library, a
    la.ScaledMatrix that carries the form along, so that la.scaled_mat
    reads it without rescaling.  A constructor handed such a view
    keeps it; otherwise the view is built on first read.  Neither form is
    ever mutated.  The isometry keeps its characters (det, nu and the
    discriminant action) in the slot _chars, filled on first read by
    lattice._character, the slot's one reader.
    """

    __slots__ = ("lattice", "nums", "d", "_matrix", "_chars", "_cols")

    def __init__(self, lattice, matrix, _trusted=False):
        # a view and trusted rows already hold ints and reduced Fractions,
        # and rows of ints are their own integer form
        view = matrix if type(matrix) is la.ScaledMatrix else None
        if not (view is not None or _trusted
                or all([type(x) is int for r in matrix for x in r])):
            matrix = la.mat(matrix)
        if len(matrix) != lattice.rank or any(len(r) != lattice.rank for r in matrix):
            raise DimensionMismatch("matrix size does not match rank")
        nums, d = la.scaled_mat(matrix)
        if not _trusted:
            _check_isometry(lattice, nums, d)
        self.lattice, self.nums, self.d = lattice, tuple(map(tuple, nums)), d
        self._matrix, self._chars, self._cols = view, None, None

    @classmethod
    def _of(cls, lattice, nums, d):
        """The trusted isometry nums / d, for integer rows nums and d > 0;
        the common content of nums and d is divided out here."""
        self = object.__new__(cls)
        self.nums, self.d = la.reduce_scaled(nums, d)
        self.lattice = lattice
        self._matrix = self._chars = self._cols = None
        return self

    @classmethod
    def from_scaled(cls, lattice, nums, d):
        """The isometry nums / d, for integer rows nums and d > 0, checked
        as the constructor checks a matrix (its shape, then M^T G M = G)
        but with no normalized view built."""
        if len(nums) != lattice.rank or any(len(r) != lattice.rank for r in nums):
            raise DimensionMismatch("matrix size does not match rank")
        _check_isometry(lattice, nums, d)
        return cls._of(lattice, nums, d)

    @classmethod
    def identity(cls, lattice):
        return cls._of(lattice, _identity_rows(lattice), 1)

    @classmethod
    def minus_identity(cls, lattice):
        return -cls.identity(lattice)

    @property
    def matrix(self):
        """M as rows of ints and reduced Fractions, a la.ScaledMatrix
        carrying (nums, d), built on first read."""
        if self._matrix is None:
            self._matrix = la.scaled_view(self.nums, self.d)
        return self._matrix

    def columns(self):
        """{i: the nonzero (k, nums[k][i])} over the columns i of the
        integer form that have any, built on first read."""
        if self._cols is None:
            cols = {}
            for k, row in enumerate(self.nums):
                for i, x in enumerate(row):
                    if x:
                        cols.setdefault(i, []).append((k, x))
            self._cols = cols
        return self._cols

    def __eq__(self, other):
        return (isinstance(other, QIsometry) and self.lattice == other.lattice
                and self.d == other.d and self.nums == other.nums)

    def __hash__(self):
        return hash((self.lattice.gram, self.d, self.nums))

    def __repr__(self):
        return "QIsometry(rank=%d)" % self.lattice.rank

    def __mul__(self, other):
        """Composition self o other (other applied first)."""
        if self.lattice != other.lattice:
            raise DimensionMismatch("isometries of different lattices")
        return QIsometry._of(self.lattice, la.int_mat_mul(self.nums, other.nums),
                             self.d * other.d)

    def __neg__(self):
        return QIsometry._of(self.lattice,
                             [[-x for x in row] for row in self.nums], self.d)

    def inverse(self):
        """G^-1 M^T G, with no elimination: M^T G on the integer rows,
        then G^-1 = D / e, the lattice's dual Gram."""
        lat = self.lattice
        dual, e = lat.dual_gram()
        mtg = la.int_mat_mul(la.transpose(self.nums), lat.gram)
        return QIsometry._of(lat, la.int_mat_mul(dual, mtg), e * self.d)

    def apply_coords(self, x):
        """M x for coordinates x, reading only the columns where x is
        nonzero."""
        return la.scaled_mat_vec(self.nums, self.d, x)

    def apply(self, v):
        if v.lattice != self.lattice:
            raise DimensionMismatch("vector lives in a different lattice")
        nz = [(k, y) for k, y in enumerate(v.nums) if y]
        return LatVec._from_nums(self.lattice, [
            sum([row[k] * y for k, y in nz]) for row in self.nums],
            self.d * v.d)

    def is_integral(self):
        return self.d == 1

    def det(self):
        """+-1, computed once (see _det); anything else raises
        NotAnIsometry on every call."""
        return _character(self, "det")

    def is_identity(self):
        return self.d == 1 and self.nums == _identity_rows(self.lattice)


def _det(g):
    """det(M) of an isometry M = nums / d, which must be +-1.

    M^T G M = G gives det(M)^2 = 1: the untrusted constructor checks
    that identity and every trusted construction holds it.  So det(M)
    is +1 or -1, and det(nums) = det(M) d^rank mod the prime la.P
    of la.det_mod_p tells which; any other residue means M is no
    isometry, and raises NotAnIsometry.  Bareiss's exact det decides
    when P divides d.
    """
    p = la.P
    r = la.det_mod_p(g.nums)
    dn = pow(g.d, g.lattice.rank, p)
    if dn:
        r = r * pow(dn, -1, p) % p
        d = 1 if r == 1 else -1 if r == p - 1 else None
        shown = "%d mod %d" % (r, p)
    else:
        d = shown = la.ratio(la.det(g.nums), g.d ** g.lattice.rank)
    if d not in (1, -1):
        raise NotAnIsometry("determinant %s is not +-1" % (shown,))
    return d


def _identity_rows(lattice):
    """The identity's integer rows, built once per lattice."""
    return lattice.memo("identity", lambda lat: la.identity(lat.rank))


class DiscGroup:
    """The finite quadratic group L*/L presented by its elementary divisors
    together with generator lifts in L* (rational coordinates)."""

    __slots__ = ("lattice", "divisors", "generators", "_urows", "_plus",
                 "_minus")

    def __init__(self, lattice):
        d, u, _ = la.smith_normal_form(lattice.gram)
        dual, e = lattice.dual_gram()
        # u is unimodular, so u^-1 is integral (its d is 1); the generator
        # lifts are the columns of G^-1 u^-1 whose divisor is > 1
        lifts = la.transpose(la.int_mat_mul(dual, la.inverse(u)[0]))
        self.lattice = lattice
        self.divisors = tuple(di for di in d if di > 1)
        self.generators = gens = tuple(LatVec._from_nums(lattice, col, e)
                                       for col, di in zip(lifts, d) if di > 1)
        # the rows of u whose divisor is > 1: the others only give 0 mod 1
        self._urows = tuple((di, u[i]) for i, di in enumerate(d) if di > 1)
        if prod(self.divisors) != abs(lattice.det()):
            raise AssertionError("the divisors' product %d is not |det| %d"
                                 % (prod(self.divisors), abs(lattice.det())))
        # the classes an action by +1 or -1 sends the generators to
        self._plus = [self.class_of(x) for x in gens]
        self._minus = [self.class_of(-x) for x in gens]

    def is_trivial(self):
        return not self.divisors

    def class_of(self, v):
        """Coordinates of [v] in the cyclic decomposition; v must pair
        integrally with the lattice (i.e. lie in L*).

        On v = nums / d: v lies in L* when d divides every entry of the
        integer vector G nums; then the class is (U G v) mod the divisors,
        read only from the rows of the Smith transform U whose divisor is
        > 1.
        """
        d = v.d
        gv = self.lattice.gram_times(v.nums)
        if any([s % d for _, s in gv]):
            raise NotIntegral("vector does not lie in the dual lattice")
        return tuple(sum([urow[i] * s for i, s in gv]) // d % di
                     for di, urow in self._urows)


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
    if images == disc._plus:
        return 1
    if images == disc._minus:
        return -1
    return ("other", tuple(images))


def _nu_data(lattice, basis):
    """What nu_character reads of a positive basis b_1..b_p: the rows R
    that some G b_i reaches, the columns C where some b_j is nonzero, each
    b_j's numerators as (position in C, value) pairs, and each G b_i's as
    (position in R, value) pairs."""
    if not basis:
        raise LatticeError("nu needs a positive-definite part of dimension >= 1")
    nums = [la.scaled_vec(b)[0] for b in basis]
    gbs = [lattice.gram_times(x) for x in nums]
    cols = sorted({c for x in nums for c, y in enumerate(x) if y})
    rows = sorted({r for gb in gbs for r, _ in gb})
    cpos = {c: k for k, c in enumerate(cols)}
    rpos = {r: k for k, r in enumerate(rows)}
    bsups = [[(cpos[c], y) for c, y in enumerate(x) if y] for x in nums]
    gsups = [[(rpos[r], s) for r, s in gb] for gb in gbs]
    return rows, cols, bsups, gsups


def nu_character(g, positive_basis=None):
    """Orientation character of the positive cone: the sign of det of
    P -> g(P) -> P (orthogonal projection back to the fixed positive
    subspace P, spanned by the orthogonal positive basis b_1..b_p).

    Without a basis it is the lattice's positive_basis(), and the
    character is g's kept one, read and filled through _character; with
    an explicit basis the projection runs whatever g keeps.  A zero
    determinant means g is no isometry, and raises NotAnIsometry.
    """
    if positive_basis is None:
        return _character(g, "nu")
    return _nu_projection(g, positive_basis)


def _nu_projection(g, positive_basis=None):
    """nu_character's projection, computed on every call.

    P -> g(P) -> P has the matrix ((g b_j, b_i) / (b_i, b_i)); the norms
    are positive, so its determinant has the sign of det(B^T G g B).  Scaling
    a b_j or g by a positive number keeps that sign too, so the p x p
    determinant is taken on integer numerators: the sparse G b_i and the
    supports of the b_j are kept per lattice, and g's integer rows are
    read only in the rows and columns they reach.  A zero determinant
    means g is no isometry, and raises NotAnIsometry.
    """
    lat = g.lattice
    if positive_basis is not None:
        data = _nu_data(lat, positive_basis)
    else:
        data = lat.memo("nu", lambda lat: _nu_data(lat, lat.positive_basis()))
    rows, cols, bsups, gsups = data
    sub = [[g.nums[r][c] for c in cols] for r in rows]
    # (g b_j) on the rows R, times the positive scale g.d
    gb = [[sum([row[k] * y for k, y in bsup]) for row in sub] for bsup in bsups]
    d = la.det([[sum([s * x[r] for r, s in gsup]) for x in gb]
                for gsup in gsups])
    if d == 0:
        raise NotAnIsometry("projection degenerate; input is not an isometry")
    return 1 if d > 0 else -1


def characters(g):
    """(nu, det, disc) of a rational isometry; disc is 'n/a' unless g is
    integral."""
    return (_character(g, "nu"), g.det(),
            _character(g, "disc") if g.is_integral() else "n/a")


_GROUPS = ("O", "O+", "Gamma", "Gamma0", "Mon_K3n")


def _character(g, name):
    """The character of g named "nu", "disc" or "det", kept in g's _chars
    slot: computed on the first read, by _nu_projection, disc_action or
    _det, and read from the slot after that.  A read that raises keeps
    nothing, so it raises again on every read."""
    chars = g._chars
    if chars is None:
        chars = g._chars = {}
    if name not in chars:
        chars[name] = (_nu_projection(g) if name == "nu" else
                       disc_action(g) if name == "disc" else _det(g))
    return chars[name]


def _check_group(g, group):
    if group not in _GROUPS:
        raise LatticeError("unknown group tag %r" % (group,))
    if group in ("Gamma", "Gamma0", "Mon_K3n") and g.lattice.delta_index is None:
        raise LatticeError("%s requires an L + Z*delta shaped lattice" % group)


def _decide(g, group):
    """Whether the isometry g lies in group.

    O      : integral isometry
    O+     : integral and nu = +1
    Gamma  : O+ acting on the discriminant group by +-1  (= Mon_K3n)
    Gamma0 : Gamma with det * xi = +1 (xi the discriminant character)

    The decision stops at the first failing character and reads det for
    Gamma0 alone; each character it reads is g's kept one.
    """
    if not g.is_integral():
        return False
    if group == "O":
        return True
    if _character(g, "nu") != 1:
        return False
    if group == "O+":
        return True
    disc = _character(g, "disc")
    if disc not in (1, -1):
        return False
    return group != "Gamma0" or g.det() * disc == 1


def in_group(g, group):
    """Decide membership of g in one of the named subgroups (see _decide),
    reading only the characters the decision reaches: Gamma is decided by
    integrality, nu and the discriminant action, with no determinant."""
    _check_group(g, group)
    return _decide(g, group)


def membership(g, group):
    """Decide membership of g in one of the named subgroups (see _decide),
    with a certificate of the characters: "integral", then "nu", "det" and
    "disc" when g is integral, all read whatever the decision reads.  The
    characters are g's kept ones, so a later read computes none again."""
    _check_group(g, group)
    cert = {"integral": g.is_integral()}
    if cert["integral"]:
        cert["nu"], cert["det"] = _character(g, "nu"), g.det()
        cert["disc"] = _character(g, "disc")
    return _decide(g, group), cert


def _preset_u():
    return Lattice(U_GRAM, name="U", u_blocks=((0, 1),))


def _preset_e8neg():
    return Lattice(E8_NEG_GRAM, name="E8-", u_blocks=())


def _preset_k3():
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


def _preset_mukai():
    g = _block_diag(U_GRAM, U_GRAM, U_GRAM, U_GRAM, E8_NEG_GRAM, E8_NEG_GRAM)
    return Lattice(g, name="Mukai", u_blocks=((0, 1), (2, 3), (4, 5), (6, 7)))


_FIXED_PRESETS = {"u": _preset_u, "e8-": _preset_e8neg, "k3": _preset_k3,
                  "mukai": _preset_mukai}


def preset(name, n=None, gram=None):
    """Construct a named lattice.

    name in {"U", "E8-", "K3", "K3n", "Kummer", "Mukai", "custom"};
    K3n and Kummer take the integer n >= 2, custom takes a Gram matrix,
    and the others take no n.
    """
    key = name.lower().replace("e8neg", "e8-")
    if key in _FIXED_PRESETS:
        if n is not None:
            raise LatticeError("preset %r takes no n" % (name,))
        return _FIXED_PRESETS[key]()
    if key == "k3n":
        return _preset_k3n(n)
    if key == "kummer":
        return _preset_kummer(n)
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
