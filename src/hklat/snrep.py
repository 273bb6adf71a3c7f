"""Symmetric powers of a quadratic space and the isotropic-power subspace.

Sym^n V is handled in the monomial basis indexed by sorted n-tuples of basis
indices; elements are sparse {monomial: scalar} dicts.  The distinguished
subspace S_[n] is computed as the kernel of the contraction that pairs two
slots with the bilinear form -- the span of n-th powers of isotropic
vectors, which is checked against it where feasible.  recover() inverts the
restriction of Sym^n to S_[n] up to the usual determinant convention when
n is even.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb, factorial

from . import linalg as la
from .errors import (LatticeError, NotConjugating, NotDecomposable,
                     NotGraded, ScalarInconsistency, SolveFailure)
from .lattice import QIsometry


# -- sparse symmetric-tensor helpers ----------------------------------------


def sym_add(x, y):
    out = dict(x)
    for m, c in y.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def sym_scale(c, x):
    c = la.frac(c)
    if not c:
        return {}
    return {m: la.frac(c * v) for m, v in x.items()}


def sym_sub(x, y):
    return sym_add(x, sym_scale(-1, y))


def sym_eq(x, y):
    return sym_sub(x, y) == {}


def sym_power(v_coords, n):
    """v^n as a sparse polynomial in the basis variables."""
    out = {(): 1}
    support = [(i, c) for i, c in enumerate(v_coords) if c]
    for _ in range(n):
        nxt = {}
        for m, c in out.items():
            for i, ci in support:
                key = tuple(sorted(m + (i,)))
                val = nxt.get(key, 0) + c * ci
                if val:
                    nxt[key] = val
                else:
                    nxt.pop(key, None)
        out = nxt
    return {m: la.frac(c) for m, c in out.items()}


def mono_mul(m1, m2):
    return tuple(sorted(m1 + m2))


def sym_mul(x, y, max_deg=None):
    """Polynomial product of two sparse symmetric tensors."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            if max_deg is not None and len(m1) + len(m2) > max_deg:
                continue
            key = mono_mul(m1, m2)
            val = out.get(key, 0) + c1 * c2
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


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

    def to_dense(self, x):
        v = [0] * len(self.monomials)
        for m, c in x.items():
            v[self.index[m]] = c
        return tuple(v)

    def from_dense(self, v):
        return {m: c for m, c in zip(self.monomials, v) if c}

    # -- contraction and its kernel -----------------------------------------

    def contract(self, x):
        """Pair two slots with the form; Sym^n -> Sym^{n-2} (0 for n < 2)."""
        if self.n < 2:
            return {}
        g = self.lattice.gram
        out = {}
        for m, c in x.items():
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
                    val = out.get(key, 0) + c * cnt * g[i][j]
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
        return out

    def in_kernel(self, x):
        return self.contract(x) == {}

    def kernel_basis(self):
        """Sparse basis of ker(contract) with free/pivot bookkeeping.

        Returns (basis, free_monomials, solver) where solver maps a kernel
        element to its coordinates over the basis (by reading the free
        coordinates) and verifies membership.
        """
        if "kernel" in self._cache:
            return self._cache["kernel"]
        lower = SymSpace(self.lattice, self.n - 2) if self.n >= 2 else None
        rows = []   # dense rows of the contraction in the lower monomial basis
        if self.n >= 2:
            cols = []
            for m in self.monomials:
                cols.append(self.contract({m: 1}))
            lower_monos = lower.monomials
            lindex = lower.index
            mat = [[0] * len(self.monomials) for _ in range(len(lower_monos))]
            for j, col in enumerate(cols):
                for mm, c in col.items():
                    mat[lindex[mm]][j] = c
            r, pivots, rk = la.rref(la.mat(mat))
            free = [c for c in range(len(self.monomials)) if c not in pivots]
            basis = []
            for fcol in free:
                vec = {self.monomials[fcol]: 1}
                for i, pcol in enumerate(pivots):
                    c = r[i][fcol]
                    if c:
                        vec[self.monomials[pcol]] = la.frac(-c)
                basis.append(vec)
            info = (basis, [self.monomials[f] for f in free],
                    tuple(pivots), r)
        else:
            basis = [{m: 1} for m in self.monomials]
            info = (basis, list(self.monomials), (), None)
        self._cache["kernel"] = info
        return info

    def sn_coords(self, x):
        """Coordinates of a kernel element over kernel_basis(); exact."""
        basis, free, pivots, r = self.kernel_basis()
        coords = [x.get(m, 0) for m in free]
        # verify: rebuild and compare (cheap, sparse)
        rebuilt = {}
        for c, b in zip(coords, basis):
            if c:
                rebuilt = sym_add(rebuilt, sym_scale(c, b))
        if not sym_eq(rebuilt, x):
            raise SolveFailure("element does not lie in the isotropic-power subspace")
        return tuple(coords)

    # -- functorial action ---------------------------------------------------

    def apply_linear(self, f_matrix, x):
        """Sym^n(f) applied to a sparse element."""
        if self.n == 2 and len(x) > self.dim_v:
            return self._apply_linear_quadratic(f_matrix, x)
        cols = {}
        out = {}
        for m, c in x.items():
            acc = {(): c}
            for i in m:
                if i not in cols:
                    col = {}
                    for k in range(self.dim_v):
                        v = f_matrix[k][i]
                        if v:
                            col[k] = v
                    cols[i] = col
                col = cols[i]
                nxt = {}
                for mm, cc in acc.items():
                    for k, fv in col.items():
                        key = tuple(sorted(mm + (k,)))
                        val = nxt.get(key, 0) + cc * fv
                        if val:
                            nxt[key] = val
                        else:
                            nxt.pop(key, None)
                acc = nxt
            for mm, cc in acc.items():
                val = out.get(mm, 0) + cc
                if val:
                    out[mm] = val
                else:
                    out.pop(mm, None)
        return {m: la.frac(c) for m, c in out.items() if c}

    def _apply_linear_quadratic(self, fm, x):
        """Dense fast path for n = 2 via the congruence f X f^T."""
        d = self.dim_v
        half = Fraction(1, 2)
        xm = [[0] * d for _ in range(d)]
        for (i, j), c in x.items():
            if i == j:
                xm[i][i] = c
            else:
                h = c * half
                xm[i][j] = h
                xm[j][i] = h
        y = la.mat_mul(la.mat_mul(fm, la.mat(xm)), la.transpose(fm))
        out = {}
        for i in range(d):
            yi = y[i]
            if yi[i]:
                out[(i, i)] = yi[i]
            for j in range(i + 1, d):
                v = yi[j]
                if v:
                    out[(i, j)] = la.frac(2 * v)
        return out

    def derivation_apply(self, op_matrix, x):
        """Product-rule extension of an operator of V to Sym^n."""
        cols = {}
        out = {}
        for m, c in x.items():
            mult = _multiplicities(m)
            for i, mu_i in mult.items():
                if i not in cols:
                    col = {}
                    for k in range(self.dim_v):
                        v = op_matrix[k][i]
                        if v:
                            col[k] = v
                    cols[i] = col
                col = cols[i]
                if not col:
                    continue
                rem = list(m)
                rem.remove(i)
                for k, ev in col.items():
                    key = tuple(sorted(rem + [k]))
                    val = out.get(key, 0) + c * mu_i * ev
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
        return {m: la.frac(c) for m, c in out.items() if c}

    def pair(self, x, y):
        """Induced pairing: on pure products, perm[(v_i, w_j)] / n!."""
        if self.n == 0:
            return la.frac(x.get((), 0) * y.get((), 0))
        g = self.lattice.gram
        total = 0
        nf = factorial(self.n)
        for m1, c1 in x.items():
            for m2, c2 in y.items():
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
        return la.ratio(total, nf)


def s_n_subspace(lattice, n):
    """The SymSpace together with its kernel basis; dimension asserted
    against the closed form."""
    space = SymSpace(lattice, n)
    basis, free, pivots, r = space.kernel_basis()
    assert len(basis) == space.sn_dim()
    return space, basis


def isotropic_spanning_set(lattice):
    """d isotropic vectors spanning the space, built from the first
    hyperbolic pair; every later vector pairs nontrivially with the first."""
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
        assert v.norm() == 0
        out.append(v)
    return out


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


def span_rank_mod_p(space, vectors, p=46337):
    """Rank over F_p of the given Sym^n elements (a lower bound for the
    rational rank, so full rank certifies spanning)."""
    import numpy as np
    from math import gcd
    dense = []
    for v in vectors:
        row = [0] * len(space.monomials)
        mult = 1
        for m, c in v.items():
            mult = mult * c.denominator // gcd(mult, c.denominator)
        for m, c in v.items():
            row[space.index[m]] = int(c * mult) % p
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


def restrict_sym(space, f, as_matrix=True):
    """The restriction of Sym^n(f) to the isotropic-power subspace, in the
    kernel-basis coordinates."""
    fm = f.matrix if isinstance(f, QIsometry) else f
    basis, free, pivots, r = space.kernel_basis()
    cols = []
    for b in basis:
        img = space.apply_linear(fm, b)
        cols.append(space.sn_coords(img))
    if not as_matrix:
        return cols
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
    """Exact rational n-th root, or None."""
    c = Fraction(c)
    if c == 0:
        return Fraction(0)
    sign = 1
    if c < 0:
        if n % 2 == 0:
            return None
        sign = -1
        c = -c
    num = _integer_nth_root(c.numerator, n)
    den = _integer_nth_root(c.denominator, n)
    if num ** n == c.numerator and den ** n == c.denominator:
        return sign * Fraction(num, den)
    return None


def _extract_power_line(space, x):
    """Write x = c * w^n; returns (c, w_coords) or raises NotDecomposable."""
    n = space.n
    d = space.dim_v
    if not x:
        raise NotDecomposable("zero image cannot be a power of a nonzero vector")
    # contract n-1 slots with covectors (z, .) for deterministic z choices
    g = space.lattice.gram
    zs = [la.mat_vec(g, tuple(1 if t == k else 0 for t in range(d)))
          for k in range(d)]
    for z in zs:
        cur = x
        for _ in range(n - 1):
            nxt = {}
            for m, c in cur.items():
                mult = _multiplicities(m)
                for i, mu_i in mult.items():
                    zi = z[i]
                    if not zi:
                        continue
                    rem = list(m)
                    rem.remove(i)
                    key = tuple(rem)
                    val = nxt.get(key, 0) + c * mu_i * zi
                    if val:
                        nxt[key] = val
                    else:
                        nxt.pop(key, None)
            cur = nxt
        if not cur:
            continue
        w = [0] * d
        for m, c in cur.items():
            w[m[0]] = c
        # candidate line; compute w^n and solve the single scalar
        wn = sym_power(w, n)
        pivot = next(iter(wn))
        if pivot not in x:
            continue
        c0 = la.ratio(x[pivot], wn[pivot])
        if c0 and sym_eq(sym_scale(c0, wn), x):
            return c0, tuple(w)
    raise NotDecomposable("image of an isotropic power has symmetric rank > 1")


def recover(space_1, space_2, phi_apply, n=None, check_pairs=True):
    """The unique isometry f with S_[n](f) = Phi (n odd) or
    det(f) S_[n](f) = Phi (n even).

    phi_apply maps sparse Sym^n elements of space_1 to space_2.  Both
    spaces must have the same odd dimension when n is even.  The
    construction follows the isotropic-power method: images of v_i^n are
    decomposable, their lines determine f up to scalars, and the scalars
    are resolved by n-th roots and pairing consistency against the first
    spanning vector.
    """
    n = space_1.n if n is None else n
    d = space_1.dim_v
    if n % 2 == 0 and d % 2 == 0:
        raise LatticeError("even symmetric powers need odd dimension")
    vs = isotropic_spanning_set(space_1.lattice)
    lines = []
    for v in vs:
        img = phi_apply(sym_power(v.coords, n))
        c, w = _extract_power_line(space_2, img)
        lines.append((c, w))
    # scalars: f(v_i) = t_i w_i with t_i^n * s = c_i, s the global parity
    # sign (1 for n odd); resolve |t_i| by roots, signs by pairings with v_0
    ws = [space_2.lattice.vec(w) for _, w in lines]
    ts = []
    for c, _ in lines:
        t = _nth_root_fraction(c, n)
        if n % 2 == 1:
            if t is None:
                raise ScalarInconsistency("image scalar is not an exact n-th power")
            ts.append(t)
        else:
            t = _nth_root_fraction(abs(c), n)
            if t is None:
                raise ScalarInconsistency("image scalar is not an exact n-th power")
            ts.append(t)   # sign resolved below
    if n % 2 == 0:
        # all |t_i| fixed; choose sign of t_0 = +, propagate via pairings
        signs = [None] * len(vs)
        signs[0] = 1
        for i in range(1, len(vs)):
            p12 = vs[0].pair(vs[i])
            if p12 == 0:
                raise ScalarInconsistency("spanning set pairing graph split")
            q12 = ws[0].pair(ws[i])
            # t_0 t_i q12 = p12
            want = la.ratio(p12, ts[0] * ts[i] * q12)
            if want == 1:
                signs[i] = 1
            elif want == -1:
                signs[i] = -1
            else:
                raise ScalarInconsistency("pairing constraint has no sign solution")
        ts = [t * s for t, s in zip(ts, signs)]
    fv = [t * w for t, w in zip(ts, ws)]
    if check_pairs:
        for i in range(len(vs)):
            for j in range(i, len(vs)):
                if fv[i].pair(fv[j]) != vs[i].pair(vs[j]):
                    raise NotConjugating("candidate images do not preserve the form")
    if space_1.lattice.gram != space_2.lattice.gram:
        raise LatticeError("recover expects identified source and target spaces")
    vmat = la.transpose(la.mat([v.coords for v in vs]))
    wmat = la.transpose(la.mat([w.coords for w in fv]))
    f = la.mat_mul(wmat, la.inverse(vmat))
    iso = QIsometry(space_2.lattice, f)
    if n % 2 == 0:
        # det(f) S(f) = Phi fixes the representative among {f, -f}
        img = phi_apply(sym_power(vs[0].coords, n))
        for cand in (iso, -iso):
            det_sign = cand.det()
            sf = sym_scale(det_sign,
                           sym_power(la.mat_vec(cand.matrix, vs[0].coords), n))
            if sym_eq(sf, img):
                return cand
        raise NotConjugating("no determinant twist matches the input")
    return iso


def verify_restriction(space, f, phi_apply, n=None, extra=()):
    """Check S(f) = Phi on the isotropic spanning powers and extras."""
    n = space.n if n is None else n
    fm = f.matrix if isinstance(f, QIsometry) else f
    for v in isotropic_spanning_set(space.lattice):
        lhs = sym_power(la.mat_vec(fm, v.coords), n)
        if not sym_eq(lhs, phi_apply(sym_power(v.coords, n))):
            return False
    for x in extra:
        if not sym_eq(space.apply_linear(fm, x), phi_apply(x)):
            return False
    return True


def compose_rule_check(space, f1, f2, phi_apply, h_phi=None):
    """H(S(f2) o Phi o S(f1)) = f2 o H(Phi) o f1 up to the n-even
    determinant factor; exact.  h_phi may carry a precomputed H(Phi)."""
    n = space.n

    def comp(x):
        return space.apply_linear(f2.matrix, phi_apply(space.apply_linear(f1.matrix, x)))

    h_comp = recover(space, space, comp)
    if h_phi is None:
        h_phi = recover(space, space, phi_apply)
    expect = f2 * h_phi * f1
    if n % 2 == 0:
        d1 = f1.det()
        d2 = f2.det()
        if d1 * d2 == -1:
            expect = -expect
    return h_comp == expect


def psi(llv_space, lams, n):
    """e_{lam_1} ... e_{lam_k} (alpha^n / n!) as a sparse Sym^n element.

    Words longer than 2n give zero (documented, not an error)."""
    from . import llv as llv_mod
    sym = SymSpace(llv_space.lattice, n)
    x = sym_scale(Fraction(1, factorial(n)),
                  sym_power(llv_space.alpha().coords, n))
    for lam in reversed(lams):
        x = sym.derivation_apply(llv_mod.e_op(llv_space, lam), x)
        if not x:
            return {}
    return x


def b_n_pair(space, x, y):
    """The induced pairing on Sym^n (permanent of slot pairings over n!)."""
    return space.pair(x, y)


def grading_correspondence(llv_space, sym_space, phi_s_apply, phi_v):
    """k in {0,1} with phi~ h = (-1)^k h phi~ on the extended lattice and
    the matching relation for the induced action on S_[n]; raises NotGraded
    when neither sign works."""
    from . import llv as llv_mod
    hm = llv_mod.grading(llv_space)
    pv = phi_v.matrix if isinstance(phi_v, QIsometry) else la.mat(phi_v)
    lhs = la.mat_mul(pv, hm)
    k_v = None
    for k in (0, 1):
        if lhs == la.mat_scale((-1) ** k, la.mat_mul(hm, pv)):
            k_v = k
            break
    basis, _, _, _ = sym_space.kernel_basis()
    k_s = None
    for k in (0, 1):
        ok = True
        for b in basis:
            l = phi_s_apply(sym_space.derivation_apply(hm, b))
            r = sym_scale((-1) ** k, sym_space.derivation_apply(hm, phi_s_apply(b)))
            if not sym_eq(l, r):
                ok = False
                break
        if ok:
            k_s = k
            break
    if k_v is None or k_s is None:
        raise NotGraded("no commutation sign works on both sides")
    assert k_v == k_s
    return k_v
