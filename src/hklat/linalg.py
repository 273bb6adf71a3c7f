"""Exact dense linear algebra over the rationals.

Matrices are tuples of tuples of scalars (immutable); vectors are tuples.
Scalars are Python ints when integral and reduced Fractions otherwise; the
two mix transparently under arithmetic, equality and hashing.  Every
matrix and vector this module returns keeps that contract entry by entry,
which the JSON encoding and the certificates rely on.  Nothing in this
module ever touches floating point.

The kernels (mat_mul, mat_vec, det, and rref with inverse, solve, kernel
and rank built on it) never do arithmetic on Fractions.  Each operand is
scaled once to integer numerators over a common denominator (one per
matrix for products, one per row for elimination), the work runs on plain
ints with zero entries skipped, and the entries are turned back into
int/Fraction only at the end.  det is Bareiss's fraction-free elimination; rref is
fraction-free Gauss-Jordan elimination that keeps every row primitive.
The reduced row echelon form is canonical, so its entries and pivots do
not depend on how it is computed.
"""

from fractions import Fraction
from math import gcd, lcm

ONE = Fraction(1)
_new = object.__new__


def frac(x):
    """Normalize to int (when integral) or Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x._numerator if x._denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    f = Fraction(x)
    return f._numerator if f._denominator == 1 else f


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
    if d == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (d // x.denominator) for x in v], d


def _scaled(a):
    """(integer rows, d): one common denominator d > 0 for the matrix a;
    read-only, like scaled_vec."""
    if all([type(x) is int for row in a for x in row]):
        return a, 1
    d = lcm(*[x.denominator for row in a for x in row])
    if d == 1:
        return [[x.numerator for x in row] for row in a], 1
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def _primitive(row):
    """The primitive integer row spanning the same line as a rational row
    (the zero row for the zero row)."""
    nums, _ = scaled_vec(row)
    c = gcd(*nums)
    return [x // c for x in nums] if c > 1 else list(nums)


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


def mat_mul(a, b):
    na, da = _scaled(a)
    nb, db = _scaled(b)
    d = da * db
    m = len(b[0]) if b else 0
    bsparse = [[(j, y) for j, y in enumerate(row) if y] for row in nb]
    out = []
    for row in na:
        acc = [0] * m
        for x, brow in zip(row, bsparse):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append(tuple(acc) if d == 1 else tuple([quotient(s, d) for s in acc]))
    return tuple(out)


def mat_vec(a, v):
    na, da = _scaled(a)
    nv, dv = scaled_vec(v)
    d = da * dv
    nz = [(k, y) for k, y in enumerate(nv) if y]
    return tuple(quotient(sum([row[k] * y for k, y in nz]), d) for row in na)


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v):
    c = frac(c)
    return tuple(c * x for x in v)


def is_zero_vec(v):
    return all(x == 0 for x in v)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))

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
    m = [_primitive(row) for row in a]
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
    off-diagonal entry is repaired by adding the partner row first.
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
                    addrow(i, j, ONE)
                    break
        if b[i][i] == 0:
            continue
        inv = ONE / b[i][i]
        for j in range(i + 1, n):
            if b[j][i] != 0:
                addrow(j, i, -b[j][i] * inv)
    d = tuple(b[i][i] for i in range(n))
    return mat(p), d


def signature(g):
    """(positive, negative, zero) inertia counts of a symmetric matrix."""
    _, d = congruent_diagonalize(g)
    pos = sum(1 for x in d if x > 0)
    neg = sum(1 for x in d if x < 0)
    return pos, neg, len(d) - pos - neg


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
    return all(frac(x).denominator == 1 for x in v)


def is_integral_mat(a):
    return all(frac(x).denominator == 1 for row in a for x in row)


def clear_denominators(v):
    """Smallest positive q with q*v integral; returns (q, qv)."""
    q = 1
    for x in v:
        d = x.denominator
        q = q * d // gcd(q, d)
    return q, tuple(frac(x * q) for x in v)


def primitive_part(v):
    """Primitive integer vector spanning the same line as rational v != 0."""
    q, w = clear_denominators(v)
    c = content(w)
    return tuple(int(x) // c for x in w)
