"""Exact dense linear algebra over the rationals; never floating point.

A plain matrix is a tuple of tuples of scalars and a vector a tuple:
ints when integral, reduced Fractions otherwise, which mix transparently
under arithmetic, equality and hashing.  Every matrix and vector returned
here keeps that contract entry by entry; the JSON encoding and the
certificates rely on it.  A rational isometry (lattice.QIsometry) is held
instead in one scaled-integer form, integer rows N over a denominator
d > 0 with gcd(d, content of N) = 1, which int_mat_mul and det_mod_p
read directly; its plain matrix is a view built from that form, a
ScaledMatrix that carries (N, d) along, so that scaled_mat and mat_vec
read it without rescaling.

The kernels (mat_mul, mat_vec, det, and rref with inverse, solve, kernel
and rank built on it) never do arithmetic on Fractions.  Each operand is
scaled once to integer numerators over a common denominator (scaled_mat,
scaled_vec), the work runs on plain ints with zero entries skipped, and
entries become int/Fraction again only at the end.  rref is
fraction-free Gauss-Jordan elimination on primitive rows, and its output
is canonical.

det, Bareiss's fraction-free elimination, is exact and serves any matrix:
Gram matrices and other untrusted input.  det_mod_p is elimination over
GF(P), P = 32749, on integer rows; it serves matrices whose determinant
is known up to a residue, such as the numerators of an isometry, where
det^2 = 1 and the residue decides between +1 and -1.
"""

from fractions import Fraction
from math import gcd, lcm

ONE = Fraction(1)
_new = object.__new__


def frac(x):
    """Normalize an int or a Fraction to int (when integral) or Fraction;
    any other type (a float, a bool, a string) raises TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x._numerator if x._denominator == 1 else x
    raise TypeError("scalar %r is not an int or a Fraction" % (x,))


def ratio(a, b):
    """Exact a/b staying in int/Fraction (never float)."""
    return frac(Fraction(a) / Fraction(b))


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
    rows; scaled_mat and mat_vec read nums and d.  Build it with
    scaled_view, and never mutate either form."""


def scaled_view(rows, nums, d):
    """The ScaledMatrix of the normalized rows, whose scaled form is
    (nums, d); the caller vouches that the two agree."""
    view = ScaledMatrix(rows)
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
    na, da = scaled_mat(a)
    nb, db = scaled_mat(b)
    d = da * db
    prod = int_mat_mul(na, nb)
    if d == 1:
        return tuple(map(tuple, prod))
    return tuple(tuple([quotient(s, d) for s in row]) for row in prod)


def scaled_mat_vec(nums, d, v):
    """(nums / d) v for integer rows nums and d > 0, reading only the
    columns where v is nonzero."""
    nv, dv = scaled_vec(v)
    nz = [(k, y) for k, y in enumerate(nv) if y]
    d *= dv
    return tuple([quotient(sum([row[k] * y for k, y in nz]), d) for row in nums])


def mat_vec(a, v):
    """a v, reading only the columns of a where v is nonzero; a
    ScaledMatrix is read on its integer form."""
    if type(a) is ScaledMatrix:
        return scaled_mat_vec(a.nums, a.d, v)
    nv, dv = scaled_vec(v)
    nz = [(k, y) for k, y in enumerate(nv) if y]
    na, da = scaled_mat([[row[k] for k, _ in nz] for row in a])
    ys = [y for _, y in nz]
    d = da * dv
    return tuple(quotient(sum([x * y for x, y in zip(row, ys)]), d) for row in na)


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v):
    c = frac(c)
    return tuple(c * x for x in v)


def is_zero_vec(v):
    return all(x == 0 for x in v)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))

def mat_scale(c, a):
    c = frac(c)
    return tuple(tuple(c * x for x in row) for row in a)


def rref(a):
    """Reduced row echelon form.  Returns (R, pivot_columns, rank).

    Fraction-free Gauss-Jordan elimination on primitive integer rows: each
    pivot is made positive and cleared from every other row by
    row_i <- s*row_i - t*pivot_row, and the updated row is divided by its
    content, so entries stay small.  Pivot row r ends as a positive
    multiple of row r of R and is divided by its pivot only at the end;
    rows past the rank end as zero.
    """
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
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        out.append(tuple([quotient(x, p) for x in row]))
    out.extend((0,) * ncols for _ in range(nrows - len(pivots)))
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
    n = len(a)
    aug = [tuple(row) + unit for row, unit in zip(a, identity(n))]
    r, pivots, rk = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return tuple(row[n:] for row in r)


def congruent_diagonalize(g):
    """Exact symmetric diagonalization: returns (P, d) with P g P^T = diag(d).

    Rows of P form a basis in which the form g is diagonal.  Standard
    symmetric Gaussian elimination; a zero diagonal with a nonzero
    off-diagonal entry b_ij is repaired by adding c times the partner row
    first, c = 1 unless 2 b_ij + b_jj = 0 and then c = -1, so that the new
    b_ii = 2 c b_ij + b_jj is nonzero.  So d has a zero only when g is
    degenerate.
    """
    n = len(g)
    b = [list(row) for row in g]
    p = [list(row) for row in identity(n)]

    def addrow(i, j, c):
        # row_i += c*row_j, applied congruently
        for k in range(n):
            b[i][k] += c * b[j][k]
        for k in range(n):
            b[k][i] += c * b[k][j]
        for k in range(n):
            p[i][k] += c * p[j][k]

    for i in range(n):
        if b[i][i] == 0:
            for j in range(i + 1, n):
                if b[i][j] != 0:
                    addrow(i, j, -ONE if 2 * b[i][j] + b[j][j] == 0 else ONE)
                    break
        if b[i][i] == 0:
            continue
        inv = ONE / b[i][i]
        for j in range(i + 1, n):
            if b[j][i] != 0:
                addrow(j, i, -b[j][i] * inv)
    d = tuple(b[i][i] for i in range(n))
    return mat(p), d


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
    return d, mat(u), mat(v)


def content(v):
    """gcd of the entries of an integer vector (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def is_integral_vec(v):
    return all([type(x) is int or frac(x).denominator == 1 for x in v])


def is_integral_mat(a):
    return all([type(x) is int or frac(x).denominator == 1
                for row in a for x in row])
