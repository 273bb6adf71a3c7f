"""Symmetric powers of a quadratic space and the isotropic-power subspace.

Sym^n V is handled in the monomial basis indexed by sorted n-tuples of basis
indices.  An element is a SymElt: integer numerators {monomial: int}, with
no zero entries, over one denominator d > 0 in lowest terms, immutable.
Read as a mapping it gives {monomial: int or reduced Fraction}, built on
reading; the arithmetic kernels (sym_power, apply_linear,
derivation_apply, sn_coords, sym_add, sym_scale) read and return the
integer form, so no kernel normalizes entries for the next one to scale
back.  A plain dict handed to a kernel is scaled once by sym_form.
sym_power also records power = (v, n) on its result, and apply_linear
sends such a pure power v^n to (f v)^n, which holds for every n; only
other elements pay for Sym^n(f) itself, for n = 2 the congruence f X f^T
on integer numerators.  The distinguished subspace S_[n] is computed as
the kernel of the contraction that pairs two slots with the bilinear form
-- the span of n-th powers of isotropic vectors, which is checked against
it where feasible.

recover() inverts the restriction of Sym^n to S_[n] up to the usual
determinant convention when n is even.  It evaluates Phi only on the pure
powers v^n of an isotropic spanning set: each image is split as c w^n on
integer numerators, the line of w read off the coordinates at i^n and
i^(n-1) j for the first pure power i^n of the image, and the lines
(c, w) alone fix the isometry, whose pairings are checked and whose
matrix is assembled on integers over one denominator.
compose_rule_check() works on lines as well: Sym^n(f1) sends v^n to
(f1 v)^n, and Sym^n(f2) sends c w^n to c (f2 w)^n, so neither is applied
as an operator on Sym^n.  A Phi built from apply_linear therefore maps
each v^n by one matrix-vector product and one sym_power, and when it is
handed an isometry's matrix view, that product reads the isometry's
integer form; its images are still split and checked entry by entry.
"""

from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb, factorial, gcd, lcm
from operator import mul

from . import linalg as la
from . import llv as llv_mod
from .errors import (LatticeError, NoHyperbolicPlanes, NotConjugating,
                     NotDecomposable, NotGraded, ScalarInconsistency,
                     SolveFailure)
from .lattice import QIsometry


# -- the sparse symmetric-tensor element -------------------------------------


class SymElt(Mapping):
    """An element sum nums[m] m / d of Sym^n: nums maps monomials to
    nonzero ints and d > 0 has no common factor with them, so equal
    elements have equal forms.  power = (v, n) when the element is v^n, as
    sym_power and apply_linear record it, else None.

    Read as a mapping it gives {monomial: int or reduced Fraction}, one
    entry at a time; it has no item assignment, and nothing changes its
    form, so elements share their nums freely.  It equals another SymElt
    when the forms agree and a plain mapping when the values do.
    """

    __slots__ = ("nums", "d", "power")

    def __init__(self, nums, d=1, power=None):
        self.nums = nums
        self.d = d
        self.power = power

    @classmethod
    def of(cls, nums, d):
        """nums / d for int nums and d > 0, zeros dropped, in lowest terms."""
        nums = {m: c for m, c in nums.items() if c}
        g = gcd(d, *nums.values())
        if g > 1:
            nums = {m: c // g for m, c in nums.items()}
            d //= g
        return cls(nums, d)

    def __getitem__(self, m):
        return la.quotient(self.nums[m], self.d)

    def __iter__(self):
        return iter(self.nums)

    def __len__(self):
        return len(self.nums)

    def __eq__(self, other):
        if type(other) is SymElt:
            return self.d == other.d and self.nums == other.nums
        return Mapping.__eq__(self, other)

    def __repr__(self):
        return "SymElt(%r)" % dict(self.items())


def sym_form(x):
    """x as a SymElt: x itself when it is one, else a mapping of scalars
    scaled once to integer numerators over their least denominator."""
    if type(x) is SymElt:
        return x
    items = [(m, la.frac(c)) for m, c in x.items() if c]
    nums, d = la.scaled_vec([c for _, c in items])
    return SymElt(dict(zip([m for m, _ in items], nums)), d)


def sym_add(x, y):
    x, y = sym_form(x), sym_form(y)
    d = lcm(x.d, y.d)
    a, b = d // x.d, d // y.d
    out = {m: a * c for m, c in x.nums.items()}
    get = out.get
    for m, c in y.nums.items():
        out[m] = get(m, 0) + b * c
    return SymElt.of(out, d)


def sym_scale(c, x):
    """c x, with no power record."""
    x = sym_form(x)
    cn, cd = (c, 1) if type(c) is int else Fraction(c).as_integer_ratio()
    if cn == 1 and cd == 1:
        return SymElt(x.nums, x.d)
    if cn == -1 and cd == 1:
        return SymElt({m: -v for m, v in x.nums.items()}, x.d)
    return SymElt.of({m: cn * v for m, v in x.nums.items()}, cd * x.d)


def sym_sub(x, y):
    return sym_add(x, sym_scale(-1, y))


def sym_eq(x, y):
    return sym_form(x) == sym_form(y)


def sym_power(v_coords, n):
    """v^n as a SymElt that records power = (v, n).

    The multinomial expansion runs on the integer numerators of v (one
    common denominator d) over d^n, already in lowest terms by Gauss's
    lemma: the content of (sum c_i x_i)^n is the n-th power of that of c.
    For n = 2 it is c_i^2 on the diagonal and 2 c_i c_j off it.
    """
    v = tuple(v_coords)
    nums, d = la.scaled_vec(v)
    support = [(i, c) for i, c in enumerate(nums) if c]
    out = {}
    if n == 2:
        for a, (i, ci) in enumerate(support):
            out[(i, i)] = ci * ci
            ci2 = 2 * ci
            for j, cj in support[a + 1:]:
                out[(i, j)] = ci2 * cj
    else:
        nf = factorial(n)
        for terms in combinations_with_replacement(support, n):
            # n! / prod(mu_i!) * prod(c_i^mu_i), the factorials divided out
            # one repeat at a time
            coef, prod, prev, run = nf, 1, None, 0
            for i, c in terms:
                prod *= c
                if i == prev:
                    run += 1
                    coef //= run
                else:
                    prev, run = i, 1
            out[tuple([i for i, _ in terms])] = coef * prod
    return SymElt(out, d ** n, (v, n))


def sparse_columns(a):
    """(cols, d) with a = n / d over one denominator d > 0: cols[i] lists the
    nonzero (k, n[k][i]) of column i, for the columns that have any."""
    entries = [(k, i, v) for k, row in enumerate(a) if any(row)
               for i, v in enumerate(row) if v]
    nums, d = la.scaled_vec([v for _, _, v in entries])
    cols = {}
    for (k, i, _), v in zip(entries, nums):
        cols.setdefault(i, []).append((k, v))
    return cols, d


def _multiplicities(m):
    out = {}
    for i in m:
        out[i] = out.get(i, 0) + 1
    return out


MAX_MONOMIALS = 100_000


class SymSpace:
    """Sym^n of a nondegenerate quadratic space (given as a Lattice).

    The monomial basis is enumerated up front, so a space with more than
    MAX_MONOMIALS = 100,000 monomials (comb(d + n - 1, n) for rank d) is
    refused with a LatticeError before any enumeration.  The largest space
    the test suite and perfbench build, Sym^3 at d = 25, has 2,925.
    """

    __slots__ = ("lattice", "n", "dim_v", "monomials", "index", "_cache")

    def __init__(self, lattice, n):
        if n < 0:
            raise LatticeError("symmetric power needs n >= 0")
        size = comb(lattice.rank + n - 1, n)
        if size > MAX_MONOMIALS:
            raise LatticeError("Sym^%d of a rank-%d space has %d monomials, "
                               "over the budget of %d"
                               % (n, lattice.rank, size, MAX_MONOMIALS))
        self.lattice = lattice
        self.n = n
        self.dim_v = lattice.rank
        self.monomials = list(combinations_with_replacement(range(self.dim_v), n))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self._cache = {}

    def dim(self):
        return comb(self.dim_v + self.n - 1, self.n)

    def sn_dim(self):
        d, n = self.dim_v, self.n
        if n < 2:
            return self.dim()
        return comb(d + n - 1, n) - comb(d + n - 3, n - 2)

    # -- contraction and its kernel -----------------------------------------

    def contract(self, x):
        """Pair two slots with the form; Sym^n -> Sym^{n-2} (0 for n < 2)."""
        if self.n < 2:
            return SymElt({})
        x = sym_form(x)
        g = self.lattice.gram
        out = {}
        get = out.get
        for m, c in x.nums.items():
            mult = _multiplicities(m)
            items = sorted(mult)
            for ai in range(len(items)):
                i = items[ai]
                for bi in range(ai, len(items)):
                    j = items[bi]
                    if i == j:
                        cnt = mult[i] * (mult[i] - 1) // 2
                    else:
                        cnt = mult[i] * mult[j]
                    if cnt == 0 or g[i][j] == 0:
                        continue
                    rem = list(m)
                    rem.remove(i)
                    rem.remove(j)
                    key = tuple(rem)
                    out[key] = get(key, 0) + c * cnt * g[i][j]
        return SymElt.of(out, x.d)

    def in_kernel(self, x):
        return not self.contract(x)

    def kernel_basis(self):
        """Sparse basis of ker(contract), memoized.

        Returns (basis, free): free lists the free monomials of the reduced
        echelon form of the contraction, one per basis vector, and each
        basis vector has coefficient 1 at its free monomial and 0 at the
        others, so sn_coords reads a kernel element's coordinates off them.
        """
        if "kernel" in self._cache:
            return self._cache["kernel"]
        if self.n < 2:
            info = ([SymElt({m: 1}) for m in self.monomials],
                    list(self.monomials))
        else:
            # the contraction as a dense matrix over the lower monomial basis
            lindex = SymSpace(self.lattice, self.n - 2).index
            mat = [[0] * len(self.monomials) for _ in range(len(lindex))]
            for j, m in enumerate(self.monomials):
                for mm, c in self.contract(SymElt({m: 1})).nums.items():
                    mat[lindex[mm]][j] = c
            r, pivots, _ = la.rref(mat)
            free = [c for c in range(len(self.monomials)) if c not in pivots]
            basis = []
            for fcol in free:
                vec = {self.monomials[fcol]: 1}
                for i, pcol in enumerate(pivots):
                    c = r[i][fcol]
                    if c:
                        vec[self.monomials[pcol]] = -c
                basis.append(sym_form(vec))
            info = (basis, [self.monomials[f] for f in free])
        self._cache["kernel"] = info
        return info

    def sn_coords(self, x):
        """Coordinates of a kernel element over kernel_basis(); exact."""
        x = sym_form(x)
        basis, free = self.kernel_basis()
        coords = tuple([x.get(m, 0) for m in free])
        # verify: rebuild x from the basis, scaled to ints over one bd
        if "kernel_ints" not in self._cache:
            bd = lcm(*[b.d for b in basis])
            self._cache["kernel_ints"] = ([{m: c * (bd // b.d)
                                            for m, c in b.nums.items()}
                                           for b in basis], bd)
        bnums, bd = self._cache["kernel_ints"]
        xn = x.nums
        rebuilt = {}
        get = rebuilt.get
        for m, b in zip(free, bnums):
            c = xn.get(m)
            if c:
                for mm, v in b.items():
                    rebuilt[mm] = get(mm, 0) + c * v
        if ({m: v for m, v in rebuilt.items() if v}
                != {m: bd * v for m, v in xn.items()}):
            raise SolveFailure("element does not lie in the isotropic-power subspace")
        return coords

    # -- functorial action ---------------------------------------------------

    def apply_linear(self, f, x):
        """Sym^n(f) applied to an element, for a QIsometry f, read on its
        integer form, or a plain matrix f, scaled to integers once on
        entry.  A pure power v^n, as sym_power records it, goes to
        (f v)^n; any other element goes slot by slot through the columns
        of f, or for n = 2 as the congruence f X f^T."""
        iso = isinstance(f, QIsometry)
        x = sym_form(x)
        power = x.power
        if power is not None and power[1] == self.n:
            fv = f.apply_coords(power[0]) if iso else la.mat_vec(f, power[0])
            return sym_power(fv, self.n)
        fnums, fd = (f.nums, f.d) if iso else la.scaled_mat(f)
        if self.n == 2:
            return self._apply_linear_quadratic(fnums, fd, x)
        cols, _ = sparse_columns(fnums)
        out = {}
        get = out.get
        for m, c in x.nums.items():
            acc = {(): c}
            for i in m:
                col = cols.get(i, ())
                nxt = {}
                for mm, cc in acc.items():
                    for k, fv in col:
                        key = tuple(sorted(mm + (k,)))
                        nxt[key] = nxt.get(key, 0) + cc * fv
                acc = nxt
            for mm, cc in acc.items():
                out[mm] = get(mm, 0) + cc
        return SymElt.of(out, x.d * fd ** self.n)

    def _apply_linear_quadratic(self, frows, fd, x):
        """Sym^2(f) x for f = frows / fd as the congruence M = F (2X) F^T,
        X the symmetric matrix of x, on integer numerators over one
        denominator: upper triangle only, each entry summed over the
        nonzero entries of its row of F (2X).  Then
        x' = M_ii / 2 on the diagonal, which is even, and M_ij off it."""
        d = self.dim_v
        # the nonzero rows of x.d * 2X, which is symmetric: row j is column j
        nrows = {}
        for (i, j), c in x.nums.items():
            if i == j:
                nrows.setdefault(i, [0] * d)[i] = 2 * c
            else:
                nrows.setdefault(i, [0] * d)[j] = c
                nrows.setdefault(j, [0] * d)[i] = c
        out = {}
        for i in range(d):
            fi = frows[i]
            acc = [0] * d   # row i of F (2X)
            for j, nj in nrows.items():
                acc[j] = sum(map(mul, fi, nj))
            nz = [(k, a) for k, a in enumerate(acc) if a]
            if not nz:
                continue
            sums = [sum([a * frows[j][k] for k, a in nz]) for j in range(i, d)]
            for j, s in enumerate(sums, i):
                if s:
                    out[(i, j)] = s // 2 if i == j else s
        return SymElt.of(out, x.d * fd * fd)

    def derivation_apply(self, op, x):
        """Product-rule extension of an operator of V to Sym^n.  op is
        sparse_columns(matrix), which a caller that applies one operator
        many times builds once."""
        cols, od = op
        x = sym_form(x)
        out = {}
        get = out.get
        for m, c in x.nums.items():
            for i, mu_i in _multiplicities(m).items():
                col = cols.get(i)
                if not col:
                    continue
                rem = list(m)
                rem.remove(i)
                cm = c * mu_i
                for k, ev in col:
                    key = tuple(sorted(rem + [k]))
                    out[key] = get(key, 0) + cm * ev
        return SymElt.of(out, x.d * od)

    def pair(self, x, y):
        """Induced pairing: on pure products, perm[(v_i, w_j)] / n!."""
        x, y = sym_form(x), sym_form(y)
        g = self.lattice.gram
        total = 0
        for m1, c1 in x.nums.items():
            for m2, c2 in y.nums.items():
                perm_sum = 0
                for p in permutations(range(self.n)):
                    prod = 1
                    for a in range(self.n):
                        gv = g[m1[a]][m2[p[a]]]
                        if not gv:
                            prod = 0
                            break
                        prod *= gv
                    perm_sum += prod
                if perm_sum:
                    # monomials denote plain products of basis vectors
                    total += c1 * c2 * perm_sum
        return la.ratio(total, factorial(self.n) * x.d * y.d)


def s_n_subspace(lattice, n):
    """The SymSpace together with its kernel basis; dimension checked
    against the closed form."""
    space = SymSpace(lattice, n)
    basis, _ = space.kernel_basis()
    if len(basis) != space.sn_dim():
        raise SolveFailure("kernel basis has %d vectors, the closed form %d"
                           % (len(basis), space.sn_dim()))
    return space, basis


def isotropic_spanning_set(lattice):
    """d isotropic vectors spanning the space, built from the first
    hyperbolic pair; every later vector pairs nontrivially with the first.

    Raises NoHyperbolicPlanes when the first designated pair is not a
    hyperbolic plane (e_i, e_j) = -1 orthogonal to the other basis vectors,
    so that some vector built from it is not isotropic."""
    if not lattice.u_blocks:
        raise LatticeError("need a hyperbolic pair to produce isotropic vectors")
    i, j = lattice.u_blocks[0]
    d = lattice.rank
    out = []
    for k in range(d):
        c = [Fraction(0)] * d
        if k == i or k == j:
            c[k] = Fraction(1)
        else:
            nk = lattice.gram[k][k]
            c[k] = Fraction(1)
            c[i] = la.ratio(nk, 2)
            c[j] = Fraction(1)
        v = lattice.vec(c)
        if v.norm() != 0:
            raise NoHyperbolicPlanes("u_blocks[0] = %r is not a hyperbolic "
                                     "plane: basis vector %d gives a vector "
                                     "of norm %s" % ((i, j), k, v.norm()))
        out.append(v)
    return out


def restrict_sym(space, f):
    """The restriction of Sym^n(f) to the isotropic-power subspace, in the
    kernel-basis coordinates."""
    basis, _ = space.kernel_basis()
    cols = [space.sn_coords(space.apply_linear(f, b)) for b in basis]
    return tuple(zip(*cols))


# -- the inverse functor -----------------------------------------------------


def _integer_nth_root(m, n):
    """Floor of the n-th root of a nonnegative integer, exactly."""
    if m < 2:
        return m
    x = 1 << ((m.bit_length() + n - 1) // n + 1)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _nth_root_fraction(c, n):
    """The exact rational n-th root of a nonzero image scalar c, or None:
    of c for odd n, and of |c| for even n, where _isometry_from_lines fixes
    the signs from the pairings."""
    c = Fraction(c)
    sign = -1 if c < 0 and n % 2 == 1 else 1
    c = abs(c)
    num = _integer_nth_root(c.numerator, n)
    den = _integer_nth_root(c.denominator, n)
    if num ** n == c.numerator and den ** n == c.denominator:
        return sign * Fraction(num, den)
    return None


def _extract_power_line(space, x):
    """Write x = c * w^n; returns (c, w_coords) with w a primitive integer
    vector, or raises NotDecomposable.

    c w^n has the entry c w_i^n at the pure power i^n, nonzero exactly
    when w_i is, and n c w_i^(n-1) w_j at i^(n-1) j for j != i.  So the
    first pure power i^n in x fixes the line of w by one coordinate
    functional: w_j is the entry at i^(n-1) j and w_i is n times the entry
    at i^n, with the gcd divided out.  x has symmetric rank 1 exactly when
    it is a multiple of that w^n, which the cross products then check.  An
    x with no pure power is no c w^n.  Everything runs on the integer
    numerators of x.
    """
    n = space.n
    x = sym_form(x)
    if not x:
        raise NotDecomposable("zero image cannot be a power of a nonzero vector")
    rank_2 = "image of an isotropic power has symmetric rank > 1"
    xn, xd = x.nums, x.d
    dim = space.dim_v
    i = next((i for i in range(dim) if (i,) * n in xn), None)
    if i is None:
        raise NotDecomposable(rank_2)
    head = (i,) * (n - 1)
    w = [xn.get((j,) + head if j < i else head + (j,), 0) for j in range(dim)]
    w[i] = n * xn[(i,) * n]
    g = gcd(*w)
    w = [c // g for c in w]
    wn = sym_power(w, n).nums   # w is integral, so d = 1
    # x = (px / (xd pw)) w^n exactly when the cross products agree
    pivot, pw = next(iter(wn.items()))
    px = xn.get(pivot)
    if not (px and len(wn) == len(xn)
            and all([xn.get(m, 0) * pw == px * c for m, c in wn.items()])):
        raise NotDecomposable(rank_2)
    return la.ratio(px, xd * pw), tuple(w)


def _isotropic_frame(lattice):
    """(vs, V^T G V, V^-1) for the isotropic spanning set vs of the lattice
    and the matrix V of its columns, both matrices as (integer rows, d) by
    la.scaled_mat; built once per lattice and kept in its cache."""
    frame = lattice._cache.get("isotropic_frame")
    if frame is None:
        vs = isotropic_spanning_set(lattice)
        vmat = la.transpose([v.coords for v in vs])
        p = la.mat_mul(la.mat_mul(la.transpose(vmat), lattice.gram), vmat)
        frame = (vs, la.scaled_mat(p), la.scaled_mat(la.inverse(vmat)))
        lattice._cache["isotropic_frame"] = frame
    return frame


def _spanning_lines(space_1, space_2, phi_apply, f1=None):
    """The lines Phi(u_i^n) = c_i w_i^n in space_2 for the isotropic
    spanning vectors v_i of space_1, with u_i = v_i, or u_i = f1 v_i when
    an isometry f1 is given; Phi is called once per v_i."""
    n = space_1.n
    if n % 2 == 0 and space_1.dim_v % 2 == 0:
        raise LatticeError("even symmetric powers need odd dimension")
    frame = _isotropic_frame(space_1.lattice)[0]
    us = [v.coords if f1 is None else f1.apply_coords(v.coords) for v in frame]
    return [_extract_power_line(space_2, phi_apply(sym_power(u, n))) for u in us]


def _isometry_from_lines(space_1, space_2, lines):
    """The isometry f with f(v_i) = t_i w_i, for the lines
    Phi(v_i^n) = c_i w_i^n of the isotropic spanning vectors v_i of space_1.

    The scalars satisfy t_i^n = c_i (n odd) or t_i^n = |c_i| (n even, the
    signs fixed by the pairings with v_0 and then the determinant twist),
    so any rescaling of a w_i cancels.  The pairings are read off the Gram
    matrices P = V^T G V (cached with V^-1 per lattice) and W^T G W of the
    columns v_i and w_i.  Everything after the n-th roots runs on
    integers: with t_i = a_i / b, W = W' / c, P = N / e and V^-1 = V' / e'
    over one denominator each, the constraint t_i t_j (w_i, w_j) = P_ij
    reads a_i a_j (W'^T G W')_ij e = N_ij (b c)^2, and f = W diag(t) V^-1
    is the one integer product W' diag(a) V' over b c e'.
    """
    n = space_1.n
    vs, (pn, pd), (vinv, vd) = _isotropic_frame(space_1.lattice)
    ts = []
    for c, _ in lines:
        t = _nth_root_fraction(c, n)
        if t is None:
            raise ScalarInconsistency("image scalar is not an exact n-th power")
        ts.append(t)
    a, b = la.scaled_vec(ts)
    wmat, c = la.scaled_mat(la.transpose([w for _, w in lines]))
    a, bc = list(a), b * c
    bc2 = bc * bc
    q = la.mat_mul(la.mat_mul(la.transpose(wmat), space_2.lattice.gram), wmat)
    if n % 2 == 0:
        # all |t_i| fixed; choose sign of t_0 = +, propagate via pairings
        for i in range(1, len(vs)):
            if pn[0][i] == 0:
                raise ScalarInconsistency("spanning set pairing graph split")
            if q[0][i] == 0:
                raise ScalarInconsistency("image lines orthogonal where the "
                                          "spanning vectors pair")
            # t_0 t_i q_0i = p_0i, times (b c)^2 e
            lhs, rhs = a[0] * a[i] * q[0][i] * pd, pn[0][i] * bc2
            if lhs == -rhs:
                a[i] = -a[i]
            elif lhs != rhs:
                raise ScalarInconsistency("pairing constraint has no sign solution")
    for i in range(len(vs)):
        ai, qi, pi = a[i] * pd, q[i], pn[i]
        for j in range(i, len(vs)):
            if ai * a[j] * qi[j] != pi[j] * bc2:
                raise NotConjugating("candidate images do not preserve the form")
    if space_1.lattice.gram != space_2.lattice.gram:
        raise LatticeError("recover expects identified source and target spaces")
    # f = W diag(t) V^-1; with the pairings checked it is an isometry
    wa = [[x * y for x, y in zip(row, a)] for row in wmat]
    iso = QIsometry._of(space_2.lattice, la.int_mat_mul(wa, vinv), bc * vd)
    if n % 2 == 0:
        # det(f) S(f) = Phi fixes the representative among {f, -f}: both
        # send v_0^n to t_0^n w_0^n = |c_0| w_0^n, and Phi(v_0^n) = c_0 w_0^n
        return iso if iso.det() * lines[0][0] > 0 else -iso
    return iso


def recover(space_1, space_2, phi_apply):
    """The unique isometry f with S_[n](f) = Phi (n odd) or
    det(f) S_[n](f) = Phi (n even).

    phi_apply maps sparse Sym^n elements of space_1 to space_2.  Both
    spaces must have the same odd dimension when n is even.  The
    construction follows the isotropic-power method: images of v_i^n are
    decomposable, their lines determine f up to scalars, and the scalars
    are resolved by n-th roots and pairing consistency against the first
    spanning vector.  Phi is called once per spanning vector, d times.
    """
    return _isometry_from_lines(space_1, space_2,
                                _spanning_lines(space_1, space_2, phi_apply))


def compose_rule_check(space, f1, f2, phi_apply, h_phi=None):
    """H(S(f2) o Phi o S(f1)) = f2 o H(Phi) o f1 up to the n-even
    determinant factor; exact.  h_phi may carry a precomputed H(Phi).

    The left side is recovered from lines, as recover() would do on the
    composite: S(f1) sends v^n to (f1 v)^n, and when
    Phi((f1 v)^n) = c w^n, S(f2) sends that to c (f2 w)^n.  So Phi is
    called d times and S(f1), S(f2) are never applied.
    """
    lines = _spanning_lines(space, space, phi_apply, f1)
    lines = [(c, f2.apply_coords(w)) for c, w in lines]
    h_comp = _isometry_from_lines(space, space, lines)
    if h_phi is None:
        h_phi = recover(space, space, phi_apply)
    expect = f2 * h_phi * f1
    if space.n % 2 == 0 and f1.det() * f2.det() == -1:
        expect = -expect
    return h_comp == expect


def psi(llv_space, lams, n):
    """e_{lam_1} ... e_{lam_k} (alpha^n / n!) as a SymElt.

    Words longer than 2n give zero (documented, not an error)."""
    sym = SymSpace(llv_space.lattice, n)
    x = sym_scale(Fraction(1, factorial(n)),
                  sym_power(llv_space.alpha().coords, n))
    for lam in reversed(lams):
        e = sparse_columns(llv_mod.e_op(llv_space, lam))
        x = sym.derivation_apply(e, x)
        if not x:
            break
    return x


def grading_correspondence(llv_space, sym_space, phi_s_apply, phi_v):
    """k in {0,1} with phi~ h = (-1)^k h phi~ on the extended lattice and
    the matching relation for the induced action on S_[n]; raises NotGraded
    when neither sign works."""
    k_v = {1: 0, -1: 1}.get(llv_mod.grading_sign(llv_space, phi_v.nums))
    hc = sparse_columns(llv_mod.grading(llv_space))
    basis, _ = sym_space.kernel_basis()
    k_s = None
    for k in (0, 1):
        if all(sym_eq(phi_s_apply(sym_space.derivation_apply(hc, b)),
                      sym_scale((-1) ** k,
                                sym_space.derivation_apply(hc, phi_s_apply(b))))
               for b in basis):
            k_s = k
            break
    if k_v is None or k_s is None:
        raise NotGraded("no commutation sign works on both sides")
    if k_v != k_s:
        raise NotGraded("the commutation signs on V and on S_[n] differ")
    return k_v
