"""Exact dense linear algebra over the rationals; never floating point.

A plain matrix is a tuple of tuples of scalars and a plain vector a
tuple: ints when integral, reduced Fractions otherwise, which mix
transparently under arithmetic, equality and hashing; frac, vec and mat
check entries into that form (a float, bool or string raises TypeError),
and every plain result here keeps it.  Inside the library a rational
matrix (an isometry, an operator of the extended lattice, a frame) and a
lattice vector (lattice.LatVec) are held instead in one scaled-integer
form, integer numerators N over d > 0 with gcd(d, content of N) = 1,
which int_mat_mul, det_mod_p and the lattice kernels read directly.  The
plain form is a view built from it for a caller that asks for one; a
matrix's view is a ScaledMatrix that carries (N, d) along, so that
scaled_mat reads it back without rescaling.  reduce_scaled brings any
integer rows over d > 0 to that canonical form.

The kernels (mat_mul, mat_vec, det, the elimination _echelon with rref,
inverse, solve, kernel and rank built on it, and congruent_diagonalize)
never do arithmetic on Fractions.  Each operand is scaled once to integer
numerators over a common denominator (scaled_mat, scaled_vec), the work
runs on plain ints with zero entries skipped, and entries become
int/Fraction again only at the end.  _echelon is fraction-free
Gauss-Jordan elimination on primitive integer rows (E. H. Bareiss, Math.
Comp. 22, 1968); rref divides its rows by their pivots, and inverse reads
a^-1 off them in the scaled-integer form (nums, d), with no Fraction
built.  congruent_diagonalize_scaled holds its rational rows as integer
rows over one integer scale per row, S^-1 b S^-1 and S^-1 p, and divides
each combined row by its content, so its entries stay the size of minors
of the Gram matrix, as in Bareiss's elimination; it returns P in that
form, and congruent_diagonalize builds the plain rows from it.  mat_mul,
the product of plain matrices, is a public helper; inside the library
products run on int_mat_mul.

det, Bareiss's fraction-free elimination, is exact and serves any matrix:
Gram matrices and other untrusted input.  det_mod_p is elimination over
GF(P), P = 32749, on integer rows; it serves matrices whose determinant
is known up to a residue, such as the numerators of an isometry, where
det^2 = 1 and the residue decides between +1 and -1.
"""

from fractions import Fraction
from math import gcd, lcm

_new = object.__new__


def frac(x):
    """Normalize an int or a Fraction to int (when integral) or Fraction;
    any other type (a float, a bool, a string) raises TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x._numerator if x._denominator == 1 else x
    raise TypeError("scalar %r is not an int or a Fraction" % (x,))


def int_ratio(x):
    """(p, q) with x = p / q, q > 0 and gcd(p, q) = 1, for an int or a
    Fraction x; any other type raises TypeError, as in frac."""
    return frac(x).as_integer_ratio()


def ratio(a, b):
    """Exact a/b for ints and Fractions a and b, as frac normalizes it;
    any other type raises TypeError, as in frac."""
    return frac(Fraction(frac(a), frac(b)))


def quotient(n, d):
    """n/d for ints n and d > 0: an int when d divides n, else a reduced
    Fraction."""
    if d == 1:
        return n
    g = gcd(n, d)
    if g == d:
        return n // g
    # n/g and d/g are coprime: build the Fraction without the constructor's
    # type dispatch and second gcd
    f = _new(Fraction)
    f._numerator = n // g
    f._denominator = d // g
    return f


def scaled_vec(v):
    """(numerators, d): the least d > 0 and the ints n_i with v_i = n_i / d.

    The numerators are v itself when every entry is an int, so callers must
    not mutate them.
    """
    if all([type(x) is int for x in v]):
        return v, 1
    d = lcm(*[x.denominator for x in v])
    return [x.numerator * (d // x.denominator) for x in v], d


class ScaledMatrix(tuple):
    """A plain matrix (a tuple of rows of ints and reduced Fractions) that
    also carries its scaled-integer form: integer rows nums over d > 0 with
    gcd(d, content of nums) = 1.  It equals and hashes as the tuple of its
    rows; scaled_mat reads nums and d, so a caller that hands a dense view
    back to the library pays no rescaling.  Build it with scaled_view, and
    never mutate either form."""


def reduce_scaled(nums, d):
    """(nums, d) for integer rows nums and d > 0, with the common content
    of nums and d divided out, the rows as tuples: the canonical form."""
    if d > 1:
        g = gcd(d, *[x for row in nums for x in row])
        if g > 1:
            nums = [[x // g for x in row] for row in nums]
            d //= g
    return tuple(map(tuple, nums)), d


def scaled_view(nums, d):
    """The plain matrix nums / d as a ScaledMatrix carrying its canonical
    form, for integer rows nums and d > 0."""
    nums, d = reduce_scaled(nums, d)
    view = ScaledMatrix(nums if d == 1 else [
        tuple([quotient(x, d) for x in row]) for row in nums])
    view.nums, view.d = nums, d
    return view


def scaled_mat(a):
    """(integer rows, d): one common denominator d > 0 for the matrix a;
    read-only, like scaled_vec.  A ScaledMatrix gives its own form."""
    if type(a) is ScaledMatrix:
        return a.nums, a.d
    if all([type(x) is int for row in a for x in row]):
        return a, 1
    d = lcm(*[x.denominator for row in a for x in row])
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def primitive_part(v):
    """The primitive integer vector spanning the same line as a rational
    vector (the zero vector for the zero vector)."""
    nums, _ = scaled_vec(v)
    c = gcd(*nums)
    return tuple([x // c for x in nums]) if c > 1 else tuple(nums)


def vec(entries):
    return tuple(frac(x) for x in entries)


def mat(rows):
    return tuple(tuple(frac(x) for x in row) for row in rows)


def zeros(n, m):
    return tuple((0,) * m for _ in range(n))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a))


def embed_block(n, a, idx, d=1):
    """The n x n matrix with a[s][t] at (idx[s], idx[t]) and d times the
    identity on the indices outside idx."""
    rows = [[d if i == j else 0 for j in range(n)] for i in range(n)]
    for i, arow in zip(idx, a):
        row = rows[i]
        for j, x in zip(idx, arow):
            row[j] = x
    return tuple(map(tuple, rows))


def int_mat_mul(a, b):
    """The product of integer matrices a and b as lists of ints; zero
    entries are skipped."""
    width = len(b[0]) if b else 0
    bsparse = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, bsparse):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_mul(a, b):
    (na, da), (nb, db) = scaled_mat(a), scaled_mat(b)
    return scaled_view(int_mat_mul(na, nb), da * db)


def scaled_mat_vec(nums, d, v):
    """(nums / d) v for integer rows nums and d > 0, reading only the
    columns where v is nonzero."""
    nv, dv = scaled_vec(v)
    nz = [(k, y) for k, y in enumerate(nv) if y]
    d *= dv
    return tuple([quotient(sum([row[k] * y for k, y in nz]), d) for row in nums])


def mat_vec(a, v):
    """a v, reading only the columns of a where v is nonzero."""
    return scaled_mat_vec(*scaled_mat(a), v)


def mat_scale(c, a):
    c = frac(c)
    return tuple(tuple(c * x for x in row) for row in a)


def _echelon(a):
    """(rows, pivot_columns) of a by fraction-free Gauss-Jordan elimination
    on primitive integer rows: each pivot is made positive and cleared from
    every other row by row_i <- s*row_i - t*pivot_row, and the updated row
    is divided by its content, so entries stay small.  Pivot row r ends as
    a positive integer multiple of row r of the reduced echelon form of a;
    rows past the rank end as zero."""
    m = [list(primitive_part(row)) for row in a]
    nrows = len(m)
    ncols = len(a[0]) if a else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        prow = m[piv]
        if prow[c] < 0:
            prow = [-x for x in prow]
        m[piv] = m[r]
        m[r] = prow
        p = prow[c]
        support = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if not f or i == r:
                continue
            g = gcd(p, f)
            s, t = p // g, f // g
            if s == 1:
                for j, y in support:
                    row[j] -= t * y
            else:
                row = [s * x - t * y for x, y in zip(row, prow)]
            h = gcd(*row)
            m[i] = [x // h for x in row] if h > 1 else row
        pivots.append(c)
    return m, pivots


def rref(a):
    """Reduced row echelon form.  Returns (R, pivot_columns, rank).

    The rows of _echelon, each pivot row divided by its pivot."""
    m, pivots = _echelon(a)
    ncols = len(a[0]) if a else 0
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        out.append(tuple([quotient(x, p) for x in row]))
    out.extend((0,) * ncols for _ in range(len(m) - len(pivots)))
    return tuple(out), tuple(pivots), len(pivots)


def rank(a):
    return rref(a)[2]


def kernel(a):
    """Basis of the right kernel, as a tuple of vectors."""
    r, pivots, rk = rref(a)
    ncols = len(a[0]) if a else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [0] * ncols
        v[fcol] = 1
        for i, pcol in enumerate(pivots):
            v[pcol] = -r[i][fcol]
        basis.append(tuple(v))
    return tuple(basis)


def solve(a, b):
    """One exact solution x of a x = b, or None if inconsistent."""
    ncols = len(a[0]) if a else 0
    r, pivots, rk = rref([tuple(row) + (bb,) for row, bb in zip(a, b)])
    x = [0] * ncols
    for i, p in enumerate(pivots):
        if p == ncols:
            return None
        x[p] = r[i][ncols]
    return tuple(x)


def det(a):
    """Determinant by Bareiss's fraction-free elimination.

    Row i is scaled to the primitive integer row (d_i / c_i) * a_i, so that
    det(a) = det(integer rows) * prod(c_i) / prod(d_i); every Bareiss
    division is exact.
    """
    n = len(a)
    m = []
    num = den = 1
    for row in a:
        nums, d = scaled_vec(row)
        c = gcd(*nums)
        if c == 0:
            return 0
        m.append([x // c for x in nums] if c > 1 else list(nums))
        num *= c
        den *= d
    sign = 1
    prev = 1
    for k in range(n):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        rk = m[k]
        p = rk[k]
        tail = rk[k + 1:]
        for i in range(k + 1, n):
            ri = m[i]
            f = ri[k]
            if f:
                ri[k + 1:] = [(p * x - f * y) // prev
                              for x, y in zip(ri[k + 1:], tail)]
            elif p != prev:
                ri[k + 1:] = [p * x // prev for x in ri[k + 1:]]
        prev = p
    return quotient(sign * num * prev, den)


# a residue minus the product of two residues mod P < 2^15 stays below 2^30
# in size: one machine word (one CPython digit)
P = 32749


def det_mod_p(a):
    """det(a) mod P, in range(P), for an integer matrix a, by elimination
    over GF(P)."""
    n = len(a)
    p = P
    m = [[x % p for x in row] for row in a]
    acc = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            acc = -acc
        rk = m[k]
        acc = acc * rk[k] % p
        inv = pow(rk[k], -1, p)
        tail = [(j, y) for j, y in enumerate(rk[k + 1:], k + 1) if y]
        for i in range(k + 1, n):
            ri = m[i]
            f = ri[k]
            if f:
                f = f * inv % p
                for j, y in tail:
                    ri[j] = (ri[j] - f * y) % p
    return acc % p


def inverse(a):
    """a^-1 of a square matrix as (integer rows, d), d > 0 with gcd(d,
    content) = 1, read off _echelon of (a | 1): pivot row i ends as p_i
    times (e_i | row i of a^-1).  A singular a raises ZeroDivisionError."""
    n = len(a)
    m, pivots = _echelon([tuple(row) + unit for row, unit in zip(a, identity(n))])
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    d = lcm(*[row[i] for i, row in enumerate(m)])
    return reduce_scaled([[x * (d // row[i]) for x in row[n:]]
                          for i, row in enumerate(m)], d)


def congruent_diagonalize(g):
    """Exact symmetric diagonalization: returns (P, d) with P g P^T = diag(d),
    the rows of congruent_diagonalize_scaled as ints and Fractions."""
    rows, d = congruent_diagonalize_scaled(g)
    return plain_rows(rows), d


def plain_rows(rows):
    """The rows p / s of integer rows p over scales s > 0, given as (p, s)
    pairs, as tuples of ints and Fractions."""
    return tuple([tuple([quotient(x, s) for x in p]) for p, s in rows])


def congruent_diagonalize_scaled(g):
    """Exact symmetric diagonalization with P in scaled-integer form:
    returns (rows, d) with P g P^T = diag(d), each row P_r given as
    (p_r, s_r), integer numerators over s_r > 0 in lowest terms.

    Rows of P form a basis in which the form g is diagonal.  Symmetric
    Gaussian elimination: pivot i clears row and column j > i by
    row_j -= (B_ji / B_ii) row_i, applied congruently.  A zero pivot with a
    nonzero B_ij is first repaired by row_i += c row_j, c = 1 unless
    2 B_ij + B_jj = 0 and then c = -1, so that the new B_ii = 2 c B_ij + B_jj
    is nonzero.  So d has a zero only when g is degenerate.

    The work runs on integers.  With g = G / e scaled once (scaled_mat),
    the rational B and P are held as B = S^-1 b S^-1 / e and P = S^-1 p for
    integer matrices b and p and one integer scale s_i per row,
    S = diag(s).  The elimination step is row_j <- b_ii row_j - b_ji row_i
    on b (row, then column) and on p, with s_j <- b_ii s_j; the repair is
    row_i <- s_j row_i + c s_i row_j with s_i <- s_i s_j, and its test is
    2 b_ij s_j + b_jj s_i = 0.  Every zero test reads the same zero as on
    B.  Each combined row r is then divided by a common factor q of s_r,
    p_r and the off-diagonal of b's row r with q^2 | b_rr (b's column r by
    q, b_rr by q^2), which leaves B and P alone.  Without it every step
    multiplies a row by another pivot, so entry sizes double with each
    pivot; with it they stay near the minors of g that are B's and P's
    true numerators and denominators (Sylvester's identity, as in
    Bareiss's elimination).  The sign of q keeps s_r > 0; at the end each
    row p_r over s_r is brought to lowest terms, and d_r = b_rr / (e s_r^2)
    is built by quotient.
    """
    n = len(g)
    b, e = scaled_mat(g)
    b = [list(row) for row in b]
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    s = [1] * n

    def combine(r, y, a, t):
        # row_r <- a row_r + t row_y on b (row, then column) and on p,
        # s_r <- a s_r, and the content of row r divided out
        row = [a * u + t * v for u, v in zip(b[r], b[y])]
        row[r] = a * row[r] + t * row[y]
        prow = [a * u + t * v for u, v in zip(p[r], p[y])]
        s[r] *= a
        # q = gcd(h, b_rr / h) for h = gcd(content, b_rr) divides the
        # content and q^2 divides b_rr; it is the largest such q on every
        # prime l whose power l^k in the content has l^2k | b_rr
        h = gcd(s[r], *prow, *row[:r], *row[r + 1:], row[r])
        q = gcd(h, row[r] // h)
        if s[r] < 0:
            q = -q
        if q != 1:
            row = [u // q for u in row]
            row[r] //= q
            prow = [u // q for u in prow]
            s[r] //= q
        b[r] = row
        for brow, u in zip(b, row):
            brow[r] = u
        p[r] = prow

    for i in range(n):
        if b[i][i] == 0:
            j = next((j for j in range(i + 1, n) if b[i][j] != 0), None)
            if j is not None:
                c = -1 if 2 * b[i][j] * s[j] + b[j][j] * s[i] == 0 else 1
                combine(i, j, s[j], c * s[i])
        piv = b[i][i]
        if piv == 0:
            continue
        for j in range(i + 1, n):
            f = b[j][i]
            if f != 0:
                combine(j, i, piv, -f)
    d = tuple([quotient(b[i][i], s[i] * s[i] * e) for i in range(n)])
    rows = []
    for prow, sr in zip(p, s):
        c = gcd(sr, *prow)
        rows.append((tuple([x // c for x in prow]), sr // c))
    return tuple(rows), d


def smith_normal_form(a):
    """Integer Smith normal form.  Returns (d, u, v) with u a v = diag(d).

    a must have integer entries; u, v are unimodular integer matrices and
    the diagonal d is nonnegative with d[i] | d[i+1].
    """
    m = [[int(x) for x in row] for row in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, j, c):
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, c):
        for row in m:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def clear(t):
        """Euclid-eliminate row and column t against the pivot m[t][t]."""
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    row_op(i, t, -q)
                    if m[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    col_op(j, t, -q)
                    if m[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                return

    t = 0
    while t < min(nr, nc):
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        clear(t)
        t += 1
    k = min(nr, nc)
    # divisibility chain: fold offending pairs and re-clear
    stable = False
    while not stable:
        stable = True
        for i in range(k - 1):
            di, dj = m[i][i], m[i + 1][i + 1]
            if dj != 0 and (di == 0 or dj % di != 0):
                col_op(i, i + 1, 1)
                clear(i)
                clear(i + 1)
                stable = False
                break
    for i in range(k):
        if m[i][i] < 0:
            for j in range(nc):
                m[i][j] = -m[i][j]
            u[i] = [-x for x in u[i]]
    d = tuple(m[i][i] for i in range(k))
    return d, tuple(map(tuple, u)), tuple(map(tuple, v))


def is_integral_mat(a):
    return all([type(x) is int or frac(x).denominator == 1
                for row in a for x in row])
