"""Symmetric powers of a quadratic space and the isotropic-power subspace.

Sym^n V is handled in the monomial basis indexed by sorted n-tuples of basis
indices.  An element is a SymElt: integer numerators {monomial: int}, with
no zero entries, over one denominator d > 0 in lowest terms, immutable.
Read as a mapping it gives {monomial: int or reduced Fraction}, built on
reading; the arithmetic kernels (sym_power, apply_linear,
derivation_apply, sn_coords, sym_add, sym_scale) read and return the
integer form, so no kernel normalizes entries for the next one to scale
back.  A plain dict handed to a kernel is scaled once by sym_form.
A pure power v^n, as sym_power and apply_linear build it, holds its root
as integer numerators over one denominator in lowest terms,
power = ((r, e), n), and expands its monomial entries only on the first
read of nums.  apply_linear sends it to the unexpanded (f v)^n, one
integer matrix-vector product on the root, which holds for every n; only
other elements pay for Sym^n(f) itself, for n = 2 the congruence f X f^T
on integer numerators.  The distinguished subspace S_[n] is the kernel of
the contraction that pairs two slots with the bilinear form -- the span of
n-th powers of isotropic vectors.  On an extended lattice (alpha, middle
block, beta, as LLVSpace builds it) it is the Verbitsky component, an
irreducible so-module with a basis in closed form (M. Verbitsky, GAFA
1996; E. Looijenga, V. Lunts, Invent. Math. 129, 1997): its free
monomials are those that do not hold both alpha and beta, and the basis
vector of alpha^a lam_w is a! Psi(w), that of lam_v beta^c is
(-1)^|v| c! rho_tau Psi(v).  That is the reduced echelon basis of the
contraction, read off without elimination (SymSpace.kernel_basis).

The same elements, unscaled, are the basis of the Pontryagin model, one
per key: SymSpace.basis_element gives Psi(w) for a word w, a sorted tuple
of middle indices, and rho_tau Psi(v) for the tagged key TAG + v.  On the
h-eigenspace of words of length k <= n the Psi(w) are a basis, as
Sym^k H^2 -> H^{2k} is injective (Verbitsky), and Psi(w) has exactly one
beta-free monomial, alpha^(n-k) lam_w, with coefficient 1 / (n-k)!; the
longer pieces are their rho_tau images (Looijenga-Lunts).  So
SymSpace.read takes coordinates off those monomials, after rho_tau on a
long piece, and checks them by rebuilding the element.

recover() inverts the restriction of Sym^n to S_[n] up to the usual
determinant convention when n is even.  It evaluates Phi only on the pure
powers v^n of an isotropic spanning set, built unexpanded from the
integer numerators of v: each image is split as c w^n on integer
numerators, the line of the integer vector w read off the coordinates at
i^n and i^(n-1) j for the first pure power i^n of the image, and the
lines (c, w) alone fix the isometry, whose pairings (w_i, w_j) are read
through the sparse Gram rows and checked, and whose matrix is assembled
on integers over one denominator.  compose_rule_check() works on lines
as well: Sym^n(f1) sends v^n to (f1 v)^n, and Sym^n(f2) sends c w^n to
c (f2 w)^n = (c / d^n) (N w)^n for f2 = N / d, so neither is applied as
an operator on Sym^n and every line stays on integers.  A Phi built from
apply_linear therefore maps each v^n by one integer matrix-vector
product on its root, with no entry expanded or normalized, and when it
is handed an isometry's matrix view, that product reads the isometry's
integer form; its images are still split and checked entry by entry.
"""

from collections.abc import Mapping
from itertools import chain, combinations_with_replacement, permutations
from math import comb, factorial, gcd, lcm
from operator import mul

from . import linalg as la
from . import llv as llv_mod
from .errors import (LatticeError, NotConjugating, NotDecomposable, NotGraded,
                     ScalarInconsistency, SolveFailure)
from .lattice import LatVec, QIsometry


# -- the sparse symmetric-tensor element -------------------------------------


class SymElt(Mapping):
    """An element sum nums[m] m / d of Sym^n: nums maps monomials to
    nonzero ints and d > 0 has no common factor with them, so equal
    elements have equal forms.

    A pure power v^n, as sym_power and apply_linear build it, records
    power = ((r, e), n) for the root v = r / e, r a tuple of ints and
    e > 0 in lowest terms, and d = e^n; else power is None.  Its monomial
    entries are expanded on the first read of nums and kept, and its len,
    comb(s + n - 1, n) for a root of support s, needs no expansion: a
    kernel that reads only the root, as apply_linear does, never builds
    them.

    Read as a mapping it gives {monomial: int or reduced Fraction}, one
    entry at a time; it has no item assignment, and nothing changes its
    form, so elements share their nums freely.  It equals another SymElt
    when the forms agree and a plain mapping when the values do.
    """

    __slots__ = ("_nums", "d", "power")

    def __init__(self, nums, d=1):
        self._nums = nums
        self.d = d
        self.power = None

    @classmethod
    def of(cls, nums, d):
        """nums / d for int nums and d > 0, zeros dropped, in lowest terms."""
        nums = {m: c for m, c in nums.items() if c}
        g = gcd(d, *nums.values())
        if g > 1:
            nums = {m: c // g for m, c in nums.items()}
            d //= g
        return cls(nums, d)

    @classmethod
    def _power_of(cls, r, e, n):
        """(r / e)^n, unexpanded, for ints r and e > 0: the content of r
        and e is divided out, and by Gauss's lemma the expansion over e^n
        is then in lowest terms too."""
        g = gcd(e, *r)
        if g > 1:
            r = [c // g for c in r]
            e //= g
        self = cls(None, e ** n)
        self.power = ((tuple(r), e), n)
        return self

    @property
    def nums(self):
        if self._nums is None:
            self._nums = _expand_power(self.power[0][0], self.power[1])
        return self._nums

    def __getitem__(self, m):
        return la.quotient(self.nums[m], self.d)

    def __iter__(self):
        return iter(self.nums)

    def __len__(self):
        if self._nums is None:
            (r, _), n = self.power
            return comb(sum([1 for c in r if c]) + n - 1, n) if n else 1
        return len(self._nums)

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
    cn, cd = la.int_ratio(c)
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
    """v^n as an unexpanded SymElt that records its root, for rational
    coordinates v: SymElt.nums expands it on first read."""
    r, e = la.scaled_vec(tuple(v_coords))
    return SymElt._power_of(r, e, n)


def _expand_power(r, n):
    """The monomial numerators of (sum r_i e_i)^n for ints r: the
    multinomial expansion, with no zero entry, over the support of r.
    For n = 2 it is r_i^2 on the diagonal and 2 r_i r_j off it."""
    support = [(i, c) for i, c in enumerate(r) if c]
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
    return out


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


def sym_combine(terms, d):
    """sum_t v_t (sum_k n_k [k]) / (e_t d) over terms (v_t, entries_t, e_t)
    with entries (k, n_k), all ints and e_t, d > 0, as a SymElt; the
    numerators share one denominator, which grows when a term needs it."""
    out = {}
    get = out.get
    den = 1
    for v, entries, e in terms:
        if den % e:
            s = e // gcd(den, e)
            for k in out:
                out[k] *= s
            den *= s
        a = v * (den // e)
        for k, n in entries:
            out[k] = get(k, 0) + a * n
    return SymElt.of(out, den * d)


def tau_swap(x, ai, bi):
    """tau on a sparse Sym^n element, with no zero entries, of an extended
    lattice with alpha = ai first and beta = bi last: alpha^p lam beta^r
    goes to (-1)^|lam| alpha^r lam beta^p.  It permutes the monomials, so
    no two terms meet."""
    out = {}
    for m, c in x.items():
        p, r = m.count(ai), m.count(bi)
        lam = m[p:len(m) - r]
        out[(ai,) * r + lam + (bi,) * p] = -c if len(lam) % 2 else c
    return out


_ZERO = SymElt({})   # Psi of most long words; shared
TAG = (-1,)          # the key of rho_tau Psi(v) is TAG + v, which no word is


class SymSpace:
    """Sym^n of a nondegenerate quadratic space (given as a Lattice).

    No monomial list is stored: elements are sparse, and kernel_basis walks
    its free monomials directly.  A space with more than
    MAX_MONOMIALS = 100,000 monomials (comb(d + n - 1, n) for rank d) is
    still refused with a LatticeError; that bounds the number of kernel
    vectors, sn_dim, and any dense vector over the monomial basis.

    basis_element, kernel_basis, read and e_ops need an extended lattice
    in LLVSpace's basis shape: alpha first and beta last, both isotropic
    with (alpha, beta) = -1 and orthogonal to the middle block.  There
    S_[n], the kernel of the contraction, has a basis in closed form, built
    from Psi(w) = e_(w_1) ... e_(w_k) (alpha^n / n!) by one derivation
    chain and from rho_tau Psi(v), under the tagged key TAG + v.
    """

    __slots__ = ("lattice", "n", "dim_v", "_cache", "_psi")

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
        self._cache = {}
        self._psi = {}    # basis key -> its basis element, zeros included

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

    def e_ops(self):
        """The operators e_i of the middle basis vectors, i = 0, 1, ..., as
        derivation_apply reads them, memoized: e_i sends alpha to the middle
        basis vector 1 + i and the middle basis vector j to
        (e_(1+i), e_j) beta, the form llv.e_columns builds.  A lattice not in
        LLVSpace's basis shape raises LatticeError."""
        ops = self._cache.get("e")
        if ops is None:
            g, b = self.lattice.gram, self.dim_v - 1
            if b < 1 or g[0][b] != -1 or any(g[0][:b]) or any(g[b][1:]):
                raise LatticeError("the closed-form S_[n] needs an extended "
                                   "lattice: alpha first and beta last, "
                                   "isotropic, (alpha, beta) = -1, both "
                                   "orthogonal to the middle block")
            ops = self._cache["e"] = [
                (dict([(j, [(b, g[i][j])]) for j in range(1, b) if g[i][j]]
                      + [(0, [(i, 1)])]), 1)
                for i in range(1, b)]
        return ops

    def basis_element(self, key):
        """Psi(w) = e_(w_1) ... e_(w_k) (alpha^n / n!) for a word, a sorted
        tuple w of middle indices i (e_i of e_ops), and rho_tau Psi(v) for
        the tagged key TAG + v; memoized in one table with the suffixes of
        each word, zeros included: each is one derivation_apply of the
        next."""
        x = self._psi.get(key)
        if x is None:
            ops = self.e_ops()   # the shape check, for the empty word too
            if key[:1] == TAG:
                p = self.basis_element(key[1:])
                x = SymElt(tau_swap(p.nums, 0, self.dim_v - 1), p.d)
            elif key:
                x = self.basis_element(key[1:])
                if x:
                    x = self.derivation_apply(ops[key[0]], x) or _ZERO
            else:
                x = SymElt({(0,) * self.n: 1}, factorial(self.n))
            self._psi[key] = x
        return x

    def read(self, x, k):
        """The basis coordinates, a SymElt {key: c}, of the SymElt x in the
        piece of words of length k (h-eigenvalue 2k - 2n).  On a short
        piece, k <= n, c_w = (n-k)! x[alpha^(n-k) m(w)], the one beta-free
        monomial of Psi(w); a long one is read through rho_tau under tagged
        keys.  The element is rebuilt from the coordinates, and a residue
        raises SolveFailure."""
        n, bi = self.n, self.dim_v - 1
        nums, tag = x.nums, ()
        if k > n:
            nums, k, tag = tau_swap(nums, 0, bi), 2 * n - k, TAG
        f = factorial(n - k)
        words = {}
        for m, c in nums.items():
            # alpha sorts first and beta last: the beta-free monomials with
            # n - k alphas, which outside the piece the rebuild rejects
            w = m[n - k:]
            if m[-1] != bi and (not w or w[0] != 0):
                words[tuple([i - 1 for i in w])] = f * c
        terms = []
        for w, c in words.items():
            p = self.basis_element(w)
            terms.append((c, p.nums.items(), p.d))
        if sym_combine(terms, 1) != SymElt(nums):
            raise SolveFailure("element is outside the spanned piece")
        return SymElt.of({tag + w: c for w, c in words.items()}, x.d)

    def kernel_basis(self):
        """The reduced echelon basis of ker(contract) = S_[n], in closed
        form, memoized.

        Returns (basis, free).  free lists, in lexicographic order, the
        monomials that do not hold both alpha and beta, walked directly,
        and basis[i] is:
        - a! Psi(w) for free[i] = alpha^a lam_w;
        - (-1)^|v| c! rho_tau Psi(v) for free[i] = lam_v beta^c, c >= 1.

        Psi(w) lies in the h-eigenspace of eigenvalue 2 |w| - 2n, where a
        monomial alpha^p lam beta^r has eigenvalue 2 (r - p).  So its one
        beta-free monomial is alpha^a lam_w, with coefficient 1 / a!, and
        every other one holds both alpha and beta; rho_tau swaps alpha and
        beta.  Each basis vector thus has exactly one free monomial, with
        coefficient 1.  The monomials holding both are alpha beta times
        those of Sym^(n-2), so there are sn_dim free monomials: the
        vectors, each checked to lie in the kernel, form the basis the
        reduced echelon form of the contraction gives with the alpha beta
        monomials as pivots.  A vector outside the kernel raises
        SolveFailure, also under python -O, and a lattice not in
        LLVSpace's shape raises LatticeError.
        """
        if "kernel" not in self._cache:
            self.e_ops()   # the shape check
            n, beta = self.n, self.dim_v - 1
            # those with alpha and without beta, then those without alpha
            cwr = combinations_with_replacement
            free = (list(chain(((0,) + t for t in cwr(range(beta), n - 1)),
                               cwr(range(1, beta + 1), n)))
                    if n else [()])
            basis = []
            for m in free:
                a, c = m.count(0), m.count(beta)
                if c:
                    b = sym_scale((-1) ** (n - c) * factorial(c),
                                  self.basis_element(
                                      TAG + tuple([i - 1 for i in m[:n - c]])))
                else:
                    b = sym_scale(factorial(a), self.basis_element(
                        tuple([i - 1 for i in m[a:]])))
                if self.contract(b):
                    raise SolveFailure("the closed-form vector of %r is outside "
                                       "the kernel of the contraction" % (m,))
                basis.append(b)
            self._cache["kernel"] = (basis, free)
        return self._cache["kernel"]

    def sn_coords(self, x):
        """Coordinates of a kernel element over kernel_basis(), read off its
        free monomials: each basis vector is 1 at its own free monomial and
        0 at the others, and a kernel element is fixed by its free entries.
        Exact: an x whose contraction does not vanish raises SolveFailure."""
        x = sym_form(x)
        _, free = self.kernel_basis()
        if self.contract(x):
            raise SolveFailure("element does not lie in the isotropic-power subspace")
        return tuple([x.get(m, 0) for m in free])

    # -- functorial action ---------------------------------------------------

    def apply_linear(self, f, x):
        """Sym^n(f) applied to an element, for a QIsometry f, read on its
        integer form and its memoized columns, or a plain matrix f, scaled
        to integers once on entry.  A pure power v^n goes to the unexpanded
        power (f v)^n, one integer matrix-vector product on its root; any
        other element goes slot by slot through the columns of f, or for
        n = 2 as the congruence f X f^T."""
        iso = isinstance(f, QIsometry)
        fnums, fd = (f.nums, f.d) if iso else la.scaled_mat(f)
        x = sym_form(x)
        power = x.power
        if power is not None and power[1] == self.n:
            (r, e), n = power
            nz = [(k, c) for k, c in enumerate(r) if c]
            return SymElt._power_of([sum([row[k] * c for k, c in nz])
                                     for row in fnums], fd * e, n)
        if self.n == 2:
            return self._apply_linear_quadratic(fnums, fd, x)
        cols = f.columns() if iso else sparse_columns(fnums)[0]
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
        """Product-rule extension of an operator of V to Sym^n.  op is the
        operator n / d as (cols, d), cols[i] the nonzero (k, n[k][i]) of
        column i, the form llv.e_columns builds."""
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

    The lattice admits only genuine hyperbolic planes (e_i, e_j) = -1,
    orthogonal to the other basis vectors, as u_blocks, so each vector
    built here is isotropic."""
    if not lattice.u_blocks:
        raise LatticeError("need a hyperbolic pair to produce isotropic vectors")
    i, j = lattice.u_blocks[0]
    d = lattice.rank
    out = []
    for k in range(d):
        # e_k, or e_k + ((e_k, e_k)/2) e_i + e_j, over 2
        c = [0] * d
        c[k] = 2
        if k != i and k != j:
            c[i], c[j] = lattice.gram[k][k], 2
        out.append(LatVec._from_nums(lattice, c, 2))
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
    """The exact positive rational n-th root of |c|, for the nonzero scalar
    c of an image line c w^n, or None.  For odd n, c > 0 already:
    _extract_power_line reads x = a v^n as c w^n with w = lambda v and
    sign(lambda) = sign(a) sign(v_i)^(n-1), so c = a / lambda^n is
    positive.  For even n, _isometry_from_lines fixes the signs from the
    pairings."""
    p, q = la.int_ratio(c)
    p = abs(p)
    num, den = _integer_nth_root(p, n), _integer_nth_root(q, n)
    if num ** n == p and den ** n == q:
        return la.ratio(num, den)
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
    wn = _expand_power(w, n)
    # x = (px / (xd pw)) w^n exactly when the cross products agree
    pivot, pw = next(iter(wn.items()))
    px = xn.get(pivot)
    if not (px and len(wn) == len(xn)
            and all([xn.get(m, 0) * pw == px * c for m, c in wn.items()])):
        raise NotDecomposable(rank_2)
    return la.ratio(px, xd * pw), tuple(w)


def _isotropic_frame(lattice):
    """(vs, V^T G V, V^-1) for the isotropic spanning set vs of the lattice
    and the matrix V of its columns, both matrices as (integer rows, d):
    V^T G V on the numerators of V, over the square of their denominator,
    which need not be in lowest terms.  Built once per lattice by
    Lattice.memo."""
    def build(lattice):
        vs = isotropic_spanning_set(lattice)
        vmat = la.transpose([v.coords for v in vs])
        vn, vd = la.scaled_mat(vmat)
        p = la.int_mat_mul(la.int_mat_mul(la.transpose(vn), lattice.gram), vn)
        return vs, (p, vd * vd), la.inverse(vmat)
    return lattice.memo("isotropic_frame", build)


def _spanning_lines(space_1, space_2, phi_apply, f1=None):
    """The lines Phi(u_i^n) = c_i w_i^n in space_2 for the isotropic
    spanning vectors v_i of space_1, with u_i = v_i, or u_i = f1 v_i when
    an isometry f1 is given; Phi is called once per v_i, on the unexpanded
    power built from the numerators of u_i."""
    n = space_1.n
    if n < 1:
        raise LatticeError("the inverse functor needs n >= 1")
    if n % 2 == 0 and space_1.dim_v % 2 == 0:
        raise LatticeError("even symmetric powers need odd dimension")
    frame = _isotropic_frame(space_1.lattice)[0]
    us = frame if f1 is None else [f1.apply(v) for v in frame]
    return [_extract_power_line(space_2, phi_apply(
        SymElt._power_of(u.nums, u.d, n))) for u in us]


def _isometry_from_lines(space_1, space_2, lines):
    """The isometry f with f(v_i) = t_i w_i, for the lines
    Phi(v_i^n) = c_i w_i^n of the isotropic spanning vectors v_i of
    space_1, each w_i an integer vector.

    The scalars satisfy t_i^n = c_i (n odd) or t_i^n = |c_i| (n even, the
    signs fixed by the pairings with v_0 and then the determinant twist),
    so any rescaling of a w_i cancels.  The pairings of the v_i are read
    off P = V^T G V (cached with V^-1 per lattice), those of the w_i,
    i <= j, off the sparse Gram rows, one G w_j each.  Everything after
    the n-th roots runs on integers: with t_i = a_i / b, P = N / e and
    V^-1 = V' / e' over one denominator each, the constraint
    t_i t_j (w_i, w_j) = P_ij reads a_i a_j (w_i, w_j) e = N_ij b^2,
    homogeneous in (N, e), and f = W diag(t) V^-1 is the one integer
    product W diag(a) V' over b e'.
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
    ws = [w for _, w in lines]
    a, b2 = list(a), b * b
    # q[j][i] = (w_i, w_j) for i <= j
    gram_times = space_2.lattice.gram_times
    q = []
    for j, wj in enumerate(ws):
        gw = gram_times(wj)
        q.append([sum([w[k] * s for k, s in gw]) for w in ws[:j + 1]])
    if n % 2 == 0:
        # all |t_i| fixed; choose sign of t_0 = +, propagate via pairings
        for i in range(1, len(vs)):
            if pn[0][i] == 0:
                raise ScalarInconsistency("spanning set pairing graph split")
            if q[i][0] == 0:
                raise ScalarInconsistency("image lines orthogonal where the "
                                          "spanning vectors pair")
            # t_0 t_i q_0i = p_0i, times b^2 e
            lhs, rhs = a[0] * a[i] * q[i][0] * pd, pn[0][i] * b2
            if lhs == -rhs:
                a[i] = -a[i]
            elif lhs != rhs:
                raise ScalarInconsistency("pairing constraint has no sign solution")
    for j in range(len(vs)):
        aj, qj, pj = a[j] * pd, q[j], pn[j]
        for i in range(j + 1):
            if aj * a[i] * qj[i] != pj[i] * b2:
                raise NotConjugating("candidate images do not preserve the form")
    if space_1.lattice.gram != space_2.lattice.gram:
        raise LatticeError("recover expects identified source and target spaces")
    # f = W diag(t) V^-1; with the pairings checked it is an isometry
    wa = [[w[k] * t for w, t in zip(ws, a)] for k in range(space_2.dim_v)]
    iso = QIsometry._of(space_2.lattice, la.int_mat_mul(wa, vinv), b * vd)
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
    Phi((f1 v)^n) = c w^n, S(f2) sends that to c (f2 w)^n, which is
    (c / d^n) (N w)^n for f2 = N / d, so the line stays on integers.  Phi
    is called d times and S(f1), S(f2) are never applied.
    """
    n = space.n
    lines = _spanning_lines(space, space, phi_apply, f1)
    dn = f2.d ** n
    lines = [(la.ratio(c, dn), tuple([sum(map(mul, row, w)) for row in f2.nums]))
             for c, w in lines]
    h_comp = _isometry_from_lines(space, space, lines)
    if h_phi is None:
        h_phi = recover(space, space, phi_apply)
    expect = f2 * h_phi * f1
    if n % 2 == 0 and f1.det() * f2.det() == -1:
        expect = -expect
    return h_comp == expect


def psi(llv_space, lams, n):
    """e_{lam_1} ... e_{lam_k} (alpha^n / n!) as a SymElt, for base-lattice
    vectors lams; SymSpace.basis_element is its memoized form on basis
    words.

    Words longer than 2n give zero (documented, not an error)."""
    sym = SymSpace(llv_space.lattice, n)
    x = sym.basis_element(())
    for lam in reversed(lams):
        x = sym.derivation_apply(llv_mod.e_columns(llv_space, lam), x)
        if not x:
            break
    return x


def grading_correspondence(llv_space, sym_space, phi_s_apply, phi_v):
    """k in {0,1} with phi~ h = (-1)^k h phi~ on the extended lattice and
    the matching relation for the induced action on S_[n]; raises NotGraded
    when neither sign works."""
    k_v = {1: 0, -1: 1}.get(llv_mod.grading_sign(llv_space, phi_v.nums))
    hc = ({i: [(i, c)] for i, c in enumerate(llv_space.h_diag) if c}, 1)
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
