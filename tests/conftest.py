import os
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest

from hklat import factor as fc
from hklat import jsonio as jio
from hklat import linalg as la
from hklat import lattice as lt
from hklat import snrep as sn
from hklat import transvect as tv
from hklat.errors import NotIntegral

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# every library function that builds a QIsometry on a trusted path: the
# constructor with _trusted=True, or QIsometry._of from an integer form
TRUSTED_SITES = {
    "identity", "__mul__", "__neg__", "inverse", "b_field",
    "tau", "mu", "extend_to_llv", "iota_tilde", "reflect_times",
    "isometry", "_isometry_from_lines", "_plane_negation", "from_scaled",
    "_graded_action", "evaluate"}


def subprocess_env(*dirs):
    """os.environ with this checkout's src, then dirs, prepended to
    PYTHONPATH: a subprocess that imports hklat runs the code under test,
    whether or not some other tree is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *dirs] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture(scope="session")
def k3():
    return lt.preset("K3")


@pytest.fixture(scope="session")
def k3n2():
    return lt.preset("K3n", 2)


@pytest.fixture(scope="session")
def kummer2():
    return lt.preset("Kummer", 2)


def rand_vec(rng, lat, bound=2):
    return lat.vec([rng.randint(-bound, bound) for _ in range(lat.rank)])


def rand_primitive(rng, lat, bound=2):
    while True:
        v = rand_vec(rng, lat, bound)
        if not v.is_zero() and v.is_primitive():
            return v


def rand_primitive_norm(rng, lat, norm, tries=20000):
    """Random primitive vector of the given norm, supported mostly on the
    hyperbolic summands so positive norms are reachable."""
    nu = len(lat.u_blocks) * 2
    for _ in range(tries):
        c = [0] * lat.rank
        for (i, j) in lat.u_blocks:
            c[i] = rng.randint(-3, 3)
            c[j] = rng.randint(-3, 3)
        for k in range(nu, min(lat.rank, nu + 4)):
            c[k] = rng.randint(-1, 1)
        v = lat.vec(c)
        if not v.is_zero() and v.is_primitive() and v.norm() == norm:
            return v
    raise AssertionError("no primitive vector of norm %s found" % norm)


def rand_anisotropic(rng, lat, bound=2):
    while True:
        v = rand_vec(rng, lat, bound)
        if v.norm() != 0:
            return v


def rand_reflection_word(rng, lat, count=3, bound=2):
    f = lt.QIsometry.identity(lat)
    for _ in range(count):
        f = fc.reflect(lat, rand_anisotropic(rng, lat, bound)) * f
    return f


def rand_orientation_preserving(rng, lat, count=3, bound=2):
    f = rand_reflection_word(rng, lat, count, bound)
    if lt.nu_character(f) == -1:
        i, j = lat.u_blocks[0]
        c = [0] * lat.rank
        c[i], c[j] = 1, -1
        f = fc.reflect(lat, lat.vec(c)) * f
    return f


def rand_transvection(rng, lat, bound=1):
    i, j = rng.choice(lat.u_blocks)
    e = lat.basis_vec(rng.choice([i, j]))
    while True:
        a = rand_vec(rng, lat, bound)
        if not a.is_zero() and lat.pair_coords(e.coords, a.coords) == 0:
            return tv.eichler_transvection(lat, e, a)


def k3n5_word(rng, lat):
    """A criterion-1-style word on K3n:5 (the factor-k3n2 recipe with the
    norm-10 vector e1 - 5 e2 in the -rho_{u+delta} generators)."""
    u = lat.vec([1, -5] + [0] * (lat.rank - 2))
    gens = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            while True:
                v = rand_primitive(rng, lat)
                if v.norm() != 0 and abs(v.norm()) <= 12:
                    break
            r = fc.reflect(lat, v)
            gens.append(-r if rng.random() < 0.5 else r)
        elif kind == 1:
            gens.append(rand_transvection(rng, lat))
        else:
            gens.append(fc.neg_reflection_u_delta(lat, u) * rand_transvection(rng, lat))
    phi = lt.QIsometry.identity(lat)
    for g in gens:
        phi = g * phi
    if lt.nu_character(phi) == -1:
        phi = fc.reflect(lat, lat.vec([1, -1] + [0] * (lat.rank - 2))) * phi
    return phi


@pytest.fixture(scope="session")
def out_of_budget_payload():
    """The JSON of the 24th word of Random(77) on K3n:5, whose decompose
    sends positive_reflection_rewrite into a transvection reduction that
    needs more than the step budget; drawing it takes seconds, so it is
    drawn once per session."""
    lat = lt.preset("K3n", 5)
    rng = random.Random(77)
    for _ in range(24):
        phi = k3n5_word(rng, lat)
    return jio.dumps(jio.isometry_to_json(phi)).strip()


def canonical(x):
    """int when integral, else a reduced Fraction with denominator > 1;
    tuples are checked entry by entry."""
    if isinstance(x, tuple):
        return all(canonical(y) for y in x)
    if type(x) is int:
        return True
    return (type(x) is Fraction and x.denominator > 1
            and gcd(x.numerator, x.denominator) == 1)


def canonical_form(g):
    """Whether a QIsometry holds the canonical integer form: a tuple of
    tuples of ints nums and an int d > 0 with gcd(d, content) = 1."""
    return (type(g.nums) is tuple and type(g.d) is int and g.d > 0
            and all(type(row) is tuple and all(type(x) is int for x in row)
                    for row in g.nums)
            and gcd(g.d, *[x for row in g.nums for x in row]) == 1)


def chain_evaluate(nf):
    """(-1)^k gamma_k rho_{u_k} ... gamma_0 by the isometry chain:
    fc.reflect_times on the running isometry, then the product
    QIsometry.__mul__ with the next gamma; a reference for
    NormalForm.evaluate, which fuses each factor into one integer step."""
    g = nf.gammas[0]
    for u, gamma in zip(nf.us, nf.gammas[1:]):
        g = gamma * fc.reflect_times(nf.lattice, u, g)
    return -g if nf.k % 2 else g


def congruent_diagonalize_ref(g):
    """Exact symmetric diagonalization: returns (P, d) with P g P^T = diag(d).

    The Fraction elimination la.congruent_diagonalize replaced, kept as its
    reference: the integer kernel must return equal tuples.

    Rows of P form a basis in which the form g is diagonal.  Standard
    symmetric Gaussian elimination; a zero diagonal with a nonzero
    off-diagonal entry b_ij is repaired by adding c times the partner row
    first, c = 1 unless 2 b_ij + b_jj = 0 and then c = -1, so that the new
    b_ii = 2 c b_ij + b_jj is nonzero.  So d has a zero only when g is
    degenerate.
    """
    ONE = Fraction(1)
    n = len(g)
    b = [list(row) for row in g]
    p = [list(row) for row in la.identity(n)]

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
    return la.mat(p), la.vec(b[i][i] for i in range(n))


def frac_pair(lat, x, y):
    """(x, y) as a plain double sum over Fractions, an oracle for the
    library's integer pairing."""
    g, n = lat.gram, lat.rank
    return sum(Fraction(x[i]) * sum(g[i][j] * Fraction(y[j])
                                    for j in range(n) if g[i][j])
               for i in range(n) if x[i])


# -- plain-Fraction vector helpers: the reference for LatVec's integer form --


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def is_zero_vec(v):
    return all(x == 0 for x in v)


def is_integral_vec(v):
    return all(Fraction(x).denominator == 1 for x in v)


def content(v):
    """gcd of the entries of an integer vector (0 for the zero vector)."""
    return gcd(*[int(x) for x in v])


def frac_divisibility(lat, x):
    """The positive generator of (x, L) for an integral x: the content of
    G x, a dense product over Fractions."""
    return content([sum(Fraction(g) * y for g, y in zip(row, x))
                    for row in lat.gram])


def frac_primitive_part(x):
    """The primitive integer vector on the line of a nonzero rational x."""
    d = lcm(*[Fraction(y).denominator for y in x])
    nums = [int(Fraction(y) * d) for y in x]
    c = content(nums)
    return tuple(y // c for y in nums)


def rand_qcoords(rng, lat, bound=5, dens=(1, 2, 3, 7)):
    """Random rational coordinates (ints and reduced Fractions), about a
    third of them zero."""
    return lat.vec([Fraction(rng.randint(-bound, bound), rng.choice(dens))
                    if rng.random() < 0.67 else 0
                    for _ in range(lat.rank)]).coords


def sym_mul(x, y, max_deg=None):
    """Polynomial product of two sparse symmetric tensors, dropping the
    terms of degree over max_deg: the reference product for the library's
    Pontryagin cup, which never multiplies words whose Psi vanishes.

    Both factors are scaled to integer numerators once, the right factor is
    bucketed by degree so that no pair over max_deg is visited, and the sum
    is divided once at the end.
    """
    xn, xd = _scaled(x)
    yn, yd = _scaled(y)
    by_deg = {}
    for m, c in yn.items():
        by_deg.setdefault(len(m), []).append((m, c))
    out = {}
    get = out.get
    for m1, c1 in xn.items():
        for k, terms in by_deg.items():
            if max_deg is not None and len(m1) + k > max_deg:
                continue
            for m2, c2 in terms:
                key = tuple(sorted(m1 + m2))
                out[key] = get(key, 0) + c1 * c2
    return {m: la.frac(Fraction(c, xd * yd)) for m, c in out.items() if c}


def _scaled(x):
    """({monomial: int numerator}, d) of a sparse element, zeros dropped,
    scaled with la.scaled_vec rather than the library's element type."""
    x = {m: c for m, c in x.items() if c}
    nums, d = la.scaled_vec([Fraction(c) for c in x.values()])
    return dict(zip(x, nums)), d


def isotropic_samples(lattice, rng, count, bound=2):
    """Seeded rational isotropic vectors for span cross-validation."""
    i, j = lattice.u_blocks[0]
    d = lattice.rank
    out = []
    while len(out) < count:
        y = [rng.randint(-bound, bound) if k not in (i, j) else 0
             for k in range(d)]
        k_scale = rng.randint(1, 3)
        v = list(map(Fraction, y))
        yn = lattice.pair_coords(la.vec(v), la.vec(v))
        v[i] = la.ratio(yn, 2 * k_scale)
        v[j] = Fraction(k_scale)
        vv = lattice.vec(v)
        if vv.norm() == 0 and not vv.is_zero():
            out.append(vv)
    return out


def _monomial_index(sym):
    """{monomial: position} over the sorted n-tuples of basis indices of a
    SymSpace, in lexicographic order."""
    return {m: i for i, m in enumerate(
        combinations_with_replacement(range(sym.dim_v), sym.n))}


def span_rank_mod_p(space, vectors, p=46337):
    """Rank over F_p of the given Sym^n elements (a lower bound for the
    rational rank, so full rank certifies spanning)."""
    import numpy as np   # here, not at the top: -O subprocesses import conftest

    index = _monomial_index(space)
    dense = []
    for v in vectors:
        row = [0] * len(index)
        mult = 1
        for m, c in v.items():
            mult = mult * c.denominator // gcd(mult, c.denominator)
        for m, c in v.items():
            row[index[m]] = int(c * mult) % p
        dense.append(row)
    a = np.array(dense, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        piv = None
        for r_ in range(rank, rows):
            if a[r_, c] % p:
                piv = r_
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        col = a[rank + 1:, c].copy()
        if col.any():
            a[rank + 1:] = (a[rank + 1:] - np.outer(col, a[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def sym_to_dense(sym, x):
    """A sparse Sym^n element as its coordinate tuple in the lexicographic
    order of the monomials."""
    index = _monomial_index(sym)
    v = [0] * len(index)
    for m, c in x.items():
        v[index[m]] = c
    return tuple(v)


def nu_projection(g, basis=None):
    """The orientation character by the rational projection formula: the
    sign of det((g b_j, b_i) / (b_i, b_i)), P -> g(P) -> P for the
    orthogonal positive basis b; the reference for the library's integer
    nu_character."""
    lat = g.lattice
    basis = lat.positive_basis() if basis is None else basis
    norms = [frac_pair(lat, b, b) for b in basis]
    rows = []
    for bj in basis:
        gb = [sum(Fraction(x) * y for x, y in zip(row, bj)) for row in g.matrix]
        rows.append([frac_pair(lat, gb, bi) / ni
                     for bi, ni in zip(basis, norms)])
    import sympy   # here, not at the top: -O subprocesses import conftest

    d = sympy.Matrix(rows).det()
    assert d != 0
    return 1 if d > 0 else -1


def disc_class_dense(disc, v):
    """[v] in L*/L by the dense formula (U (G v)) mod the divisors, with U
    the Smith transform of the Gram matrix; the reference for
    DiscGroup.class_of."""
    gram = disc.lattice.gram
    d, u, _ = la.smith_normal_form(gram)
    m = la.mat_vec(gram, v.coords)
    if not is_integral_vec(m):
        raise NotIntegral("vector does not lie in the dual lattice")
    um = la.mat_vec(u, m)
    return tuple(int(um[i]) % di for i, di in enumerate(d) if di > 1)


def power_line_by_contraction(space, x):
    """(c, w) with x = c w^n and w a primitive integer vector, by the
    Gram-row contraction: contracting n - 1 slots of c w^n with a covector
    z leaves a multiple of (z, w)^(n-1) w, so the first Gram row that
    leaves a nonzero vector fixes the line of w.  The reference for
    snrep._extract_power_line, which reads the line off one coordinate;
    None when x is no c w^n."""
    n = space.n
    xn, xd = _scaled(x)
    if not xn:
        return None
    for z in space.lattice.gram:
        cur = xn
        for _ in range(n - 1):
            nxt = {}
            for m, c in cur.items():
                for k in set(m):
                    if z[k]:
                        rem = list(m)
                        rem.remove(k)
                        key = tuple(rem)
                        nxt[key] = nxt.get(key, 0) + c * m.count(k) * z[k]
            cur = {m: c for m, c in nxt.items() if c}
        if cur:
            break
    else:
        return None
    w = [0] * space.dim_v
    for m, c in cur.items():
        w[m[0]] = c
    g = gcd(*w)
    w = tuple(c // g for c in w)
    wn = dict(sn.sym_power(w, n))   # ints, w being integral
    pivot, pw = next(iter(wn.items()))
    px = xn.get(pivot)
    if not (px and len(wn) == len(xn)
            and all(xn.get(m, 0) * pw == px * c for m, c in wn.items())):
        return None
    return Fraction(px, xd * pw), w
