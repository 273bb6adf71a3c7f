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

from math import gcd

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
        det = la.det(g)
        if det == 0:
            raise DegenerateGram("gram matrix must be nondegenerate")
        self.rank = n
        self.gram = g
        # nonzero (column, entry) pairs of each Gram row
        self._gram_rows = tuple(tuple((j, x) for j, x in enumerate(row) if x)
                                for row in g)
        self.name = name
        self.u_blocks = tuple(u_blocks) if u_blocks else self._scan_u_blocks(g)
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

    def gram_times(self, v):
        """The nonzero entries (i, (G v)_i) of G v, for integer v."""
        acc = {}
        for j, x in enumerate(v):
            if x:
                for i, g in self._gram_rows[j]:
                    acc[i] = acc.get(i, 0) + g * x
        return [(i, s) for i, s in acc.items() if s]

    def diagonalization(self):
        """(P, d) with P G P^T = diag(d), by la.congruent_diagonalize,
        computed once; G is nondegenerate, so no d_i is zero."""
        if "diag" not in self._cache:
            self._cache["diag"] = la.congruent_diagonalize(self.gram)
        return self._cache["diag"]

    def signature(self):
        if "sig" not in self._cache:
            pos = sum(1 for x in self.diagonalization()[1] if x > 0)
            self._cache["sig"] = (pos, self.rank - pos)
        return self._cache["sig"]

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
        if "posbasis" not in self._cache:
            pos = self.signature()[0]
            basis = []
            for (i, j) in self.u_blocks:
                c = [0] * self.rank
                c[i], c[j] = 1, -1
                basis.append(tuple(c))
            if len(basis) != pos:
                # the diagonalization that counted pos
                p, d = self.diagonalization()
                basis = [row for row, dd in zip(p, d) if dd > 0]
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
    return gcd(*[s for _, s in lattice.gram_times(x.coords)])


def _check_isometry(lattice, nums, d):
    """Raises NotAnIsometry unless M^T G M = G, checked on M = nums / d as
    n_i . (G n_j) = d^2 G_ij for the columns n_i, i <= j (the product is
    symmetric), with G n_j read off the sparse Gram rows."""
    cols = list(zip(*nums))
    dd = d * d
    for j, cj in enumerate(cols):
        gc = lattice.gram_times(cj)
        grow = lattice.gram[j]
        for i in range(j + 1):
            ci = cols[i]
            if sum([ci[k] * s for k, s in gc]) != dd * grow[i]:
                raise NotAnIsometry("matrix does not preserve the pairing")


class QIsometry:
    """A rational matrix M with M^T G M = G, acting on column coordinates.

    M is held in one canonical form: integer rows nums and a denominator
    d > 0 with M = nums / d and gcd(d, content of nums) = 1.  Products,
    inverses, negation, det and every kernel that reads an isometry work
    on that form, and == and hash compare it.  matrix is the normalized
    view (ints and reduced Fractions), built on first read, a
    la.ScaledMatrix that carries the form along, so that la.scaled_mat and
    la.mat_vec read it without rescaling; a constructor handed a
    normalized matrix keeps it as that view.  Neither form is ever mutated.
    """

    __slots__ = ("lattice", "nums", "d", "_matrix", "_det")

    def __init__(self, lattice, matrix, _trusted=False):
        if _trusted and type(matrix) is la.ScaledMatrix:
            m = matrix
        else:
            # trusted entries already are ints and reduced Fractions
            m = tuple(map(tuple, matrix)) if _trusted else la.mat(matrix)
        if len(m) != lattice.rank or any(len(r) != lattice.rank for r in m):
            raise DimensionMismatch("matrix size does not match rank")
        nums, d = la.scaled_mat(m)
        if not _trusted:
            _check_isometry(lattice, nums, d)
        if type(m) is not la.ScaledMatrix:
            m = la.scaled_view(m, tuple(map(tuple, nums)), d)
        self.lattice, self.nums, self.d = lattice, m.nums, d
        self._matrix, self._det = m, None

    @classmethod
    def _of(cls, lattice, nums, d):
        """The trusted isometry nums / d, for integer rows nums and d > 0;
        the common content of nums and d is divided out here."""
        if d > 1:
            c = gcd(d, *[x for row in nums for x in row])
            if c > 1:
                nums = [[x // c for x in row] for row in nums]
                d //= c
        self = object.__new__(cls)
        self.lattice, self.nums, self.d = lattice, tuple(map(tuple, nums)), d
        self._matrix = self._det = None
        return self

    @classmethod
    def identity(cls, lattice):
        return cls._of(lattice, la.identity(lattice.rank), 1)

    @classmethod
    def minus_identity(cls, lattice):
        return -cls.identity(lattice)

    @property
    def matrix(self):
        """M as rows of ints and reduced Fractions, a la.ScaledMatrix
        carrying (nums, d), built on first read."""
        if self._matrix is None:
            nums, d = self.nums, self.d
            self._matrix = la.scaled_view(nums if d == 1 else tuple(
                tuple([la.quotient(x, d) for x in row]) for row in nums),
                nums, d)
        return self._matrix

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
        """G^-1 M^T G, with no elimination: M^T G on the integer rows over
        the sparse Gram rows, then G^-1 = D / e, the lattice's dual Gram
        scaled to integers once and cached."""
        lat = self.lattice
        if "dual_nums" not in lat._cache:
            lat._cache["dual_nums"] = la.scaled_mat(lat.dual_gram())
        dual, e = lat._cache["dual_nums"]
        mtg = la.int_mat_mul(la.transpose(self.nums), lat.gram)
        return QIsometry._of(lat, la.int_mat_mul(dual, mtg), e * self.d)

    def apply_coords(self, x):
        """M x for coordinates x, reading only the columns where x is
        nonzero."""
        return la.scaled_mat_vec(self.nums, self.d, x)

    def apply(self, v):
        if v.lattice != self.lattice:
            raise DimensionMismatch("vector lives in a different lattice")
        return LatVec(self.lattice, self.apply_coords(v.coords))

    def is_integral(self):
        return self.d == 1

    def det(self):
        """+-1, computed once; anything else raises NotAnIsometry on every
        call.

        M^T G M = G gives det(M)^2 = 1: the untrusted constructor checks
        that identity and every trusted construction holds it.  So det(M)
        is +1 or -1, and det(nums) = det(M) d^rank mod the prime la.P
        of la.det_mod_p tells which; any other residue means M is no
        isometry.  Bareiss's exact det decides when P divides d.
        """
        if self._det is None:
            p = la.P
            r = la.det_mod_p(self.nums)
            dn = pow(self.d, self.lattice.rank, p)
            if dn:
                r = r * pow(dn, -1, p) % p
                d = 1 if r == 1 else -1 if r == p - 1 else None
                shown = "%d mod %d" % (r, p)
            else:
                d = shown = la.det(self.matrix)
            if d not in (1, -1):
                raise NotAnIsometry("determinant %s is not +-1" % (shown,))
            self._det = d
        return self._det

    def is_identity(self):
        return self.d == 1 and self.nums == la.identity(self.lattice.rank)


class DiscGroup:
    """The finite quadratic group L*/L presented by its elementary divisors
    together with generator lifts in L* (rational coordinates)."""

    __slots__ = ("lattice", "divisors", "generators", "_urows", "_gen_nums",
                 "_plus", "_minus")

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
        # the rows of u whose divisor is > 1: the others only give 0 mod 1
        self._urows = tuple((di, u[i]) for i, di in enumerate(d) if di > 1)
        # each generator lift as (nonzero (index, numerator) pairs, d)
        self._gen_nums = tuple(
            ([(c, y) for c, y in enumerate(nums) if y], dx)
            for nums, dx in (la.scaled_vec(x.coords) for x in gens))
        order = 1
        for di in divisors:
            order *= di
        if order != abs(int(lattice.det())):
            raise AssertionError("the divisors' product %d is not |det| %d"
                                 % (order, abs(int(lattice.det()))))
        # the classes an action by +1 or -1 sends the generators to
        self._plus = [self.class_of(x) for x in gens]
        self._minus = [self.class_of(-x) for x in gens]

    def is_trivial(self):
        return not self.divisors

    def class_of(self, v):
        """Coordinates of [v] in the cyclic decomposition; v must pair
        integrally with the lattice (i.e. lie in L*).  Computed on v's
        integer numerators by class_of_nums."""
        return self.class_of_nums(*la.scaled_vec(v.coords))

    def class_of_nums(self, nums, d):
        """class_of for v = nums / d, nums integers and d > 0.

        v lies in L* when d divides every entry of the integer vector
        G nums; then the class is (U G v) mod the divisors, read only from
        the rows of the Smith transform U whose divisor is > 1.
        """
        gv = self.lattice.gram_times(nums)
        if any([s % d for _, s in gv]):
            raise NotIntegral("vector does not lie in the dual lattice")
        return tuple(sum([urow[i] * s for i, s in gv]) // d % di
                     for di, urow in self._urows)


def disc_group(lattice):
    return lattice.disc_group()


def disc_action(g):
    """Classify the action of an integral isometry on L*/L.

    Returns +1, -1, or ("other", matrix) where the matrix gives the images
    of the generators in generator coordinates.  The image of a generator
    lift x = nums / d is (g nums) / d, read from the columns of g where x
    is nonzero.
    """
    if not g.is_integral():
        raise NotIntegral("discriminant action needs an integral isometry")
    disc = g.lattice.disc_group()
    if disc.is_trivial():
        return 1
    images = [disc.class_of_nums([sum([row[c] * y for c, y in sup])
                                  for row in g.nums], d)
              for sup, d in disc._gen_nums]
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

    That map has the matrix ((g b_j, b_i) / (b_i, b_i)); the norms are
    positive, so its determinant has the sign of det(B^T G g B).  Scaling
    a b_j or g by a positive number keeps that sign too, so the p x p
    determinant is taken on integer numerators: the sparse G b_i and the
    supports of the b_j are kept per lattice, and g's integer rows are
    read only in the rows and columns they reach.  A zero determinant
    means g is no isometry, and raises NotAnIsometry.
    """
    lat = g.lattice
    if positive_basis is not None:
        data = _nu_data(lat, positive_basis)
    elif "nu" in lat._cache:
        data = lat._cache["nu"]
    else:
        data = lat._cache["nu"] = _nu_data(lat, lat.positive_basis())
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
    return nu_character(g), g.det(), disc_action(g) if g.is_integral() else "n/a"


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
