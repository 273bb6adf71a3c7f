"""The subring generated by degree-2 classes, realized inside Sym^n of the
extended lattice, with its cup and Pontryagin products.

Elements live in the isotropic-power subspace S_[n].  A word w is a sorted
tuple of base-basis indices, and

    Psi(w) = e_{w_1} ... e_{w_k} (alpha^n / n!).

The graded pieces are the eigenspaces of the grading operator h.  The
piece of words of length k has eigenvalue 2k - 2n.  It is Sym^m H^2 with
m = min(k, 2n - k), of dimension C(b + m - 1, m) for the base rank b.

Each piece has a fixed basis in closed form, the one snrep.SymSpace builds
and reads (basis_element, read; the rules and why they hold are in
snrep): Psi(w) for the words w of a piece of length k <= n, and
rho_tau Psi(v) under the tagged key snrep.TAG + v for the words v of
length 2n - k on a longer one.  So the coordinates of Sym^n data are
read, not solved, and every read is checked exactly by rebuilding the
element from its coordinates; a residue raises SolveFailure.

Sym^n data and word coordinates {key: coeff} are both snrep.SymElts:
integer numerators over one denominator, immutable.  An SHElt holds its
word coordinates and nothing else: Sym^n data enters once, read by
SHModel.to_words when the element is built from it, and leaves by
SHModel.from_words on each read of SHElt.data.  cup, star and rho_tau
read and return word coordinates only, by closed-form rules in the base
form G, and touch no Sym^n data.  Write [w] = Psi(w) and
[TAG + u] = rho_tau Psi(u).
- rho_tau relabels: a short word w and TAG + w trade places, and a word
  of length n goes to (-1)^n times itself.  A monomial of the middle piece
  is alpha^p lam beta^p with |lam| = n - 2p, and tau multiplies it by
  (-1)^|lam|.
- The letter rule.  For a word u of length m <= n and a letter b,
      [TAG + u] cup [b] = -(n-m+1) sum_j G[b][u_j] [TAG + u - u_j]
                          - sum_{i<j} G[u_i][u_j] [TAG + (u - u_i - u_j) b],
  where m = n reads [w] = (-1)^n [TAG + w].  Why: exp(e_lam) alpha^n / n!
  is (alpha + lam + (lam, lam) beta / 2)^n / n!, so
      Psi(u) = sum_M (prod_M G) alpha^(n-m+|M|) lam_(u-M) beta^|M| / (n-m+|M|)!
  over the sets M of disjoint letter pairs of u.  [b] acts by e_b, and
  e_b rho_tau = rho_tau f_b for the derivation f_b = tau e_b tau, which
  sends alpha to 0, lam to -(b, lam) alpha and beta to -lam_b.  The
  beta-free monomials of f_b Psi(u), which SymSpace.read reads, come from
  M = {} through the lam rule and from the one-pair M through the beta
  rule, with the coefficients above.
- cup computes, for each key k1 of x, only the products it reads: the
  pairs of k1 with y's keys, until the pairs looked up for k1 add up to
  half a walk over the basis keys, and from then on k1's memoized row of
  the keys whose product with it is nonzero (SHModel.cup says why).  Two
  words multiply to [p], p = sorted(w1 + w2): a basis word when
  len(p) <= n, else the letters p[n:] applied in turn to
  (-1)^n [TAG + p[:n]].  The tagged key TAG + v times a word w with
  len(w) <= len(v) is the letters of w applied in turn to it.  Two tagged
  keys, and TAG + v with a longer word, multiply to 0.  A product is
  memoized when nonzero, and every prefix the letter rule reads, zero or
  not, as a product of its own.  Unrolled, for k = len(p) > n,
      Psi(p) = (-1)^k (k-n)! sum_M (prod_M G) [TAG + p - M]
  over the sets M of k - n disjoint letter pairs of p.  So Psi(p) = 0
  unless p holds k - n disjoint pairs that each pair nonzero; when it
  does, Psi(p) vanishes only if the sum cancels.
- star is rho_tau(rho_tau(x) cup rho_tau(y)), with unit beta^n / n!, the
  model avatar of [pt] / n!.

Graded and anti-graded isometries act on word coordinates too
(SHModel.graded_action): ext(f) sends Psi(w) to Psi(f w) and commutes with
tau, so each piece maps by Sym^m(f), m the length of its keys' words.
eta, the action on Sym^n data through apply_llv, stays the general
definition.
"""

from itertools import chain, combinations, combinations_with_replacement
from math import comb

from . import linalg as la
from . import llv as llv_mod
from . import snrep as sn
from .errors import (EvenDimensionalGuard, LatticeError, NotGraded,
                     SolveFailure)
from .lattice import QIsometry

class _Coords:
    """The basis coordinates sum_b n_b [b] of the product of two basis
    elements, as pairs = ((b, n_b), ...) with nonzero integers n_b: the
    product rules have integer coefficients.  Hashed by identity: the rows
    share one object per product, and cup sums on those objects."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = pairs


def piece_dims(base_rank, n):
    """{j: dimension of the eigenvalue-j piece of the model}: the piece of
    eigenvalue 2k - 2n is Sym^m H^2 with m = min(k, 2n - k)."""
    dims = {}
    for k in range(2 * n + 1):
        m = min(k, 2 * n - k)
        dims[2 * k - 2 * n] = comb(base_rank + m - 1, m)
    return dims


class SHModel:
    """The degree-2-generated subring model on S_[n] of an extended lattice."""

    def __init__(self, llv_space, n):
        if llv_space.dim % 2 == 0:
            raise EvenDimensionalGuard(
                "the extended lattice must be odd dimensional; use the "
                "closed K3 formulas for the surface case")
        if n < 1:
            raise LatticeError("the model needs n >= 1")
        self.space = llv_space
        self.n = n
        self.sym = sn.SymSpace(llv_space.lattice, n)
        self.base_rank = llv_space.base.rank
        # the words of each length k <= n: the keys of the short pieces
        self._words = [list(combinations_with_replacement(range(self.base_rank), k))
                       for k in range(n + 1)]
        self._sizes = [len(w) for w in self._words]
        self._rows = {}
        self._paid = {}        # key -> pair lookups made for it with no row
        self._products = {}    # product word, or (tagged key, word) -> _Coords
        self._base_syms = {}   # k -> Sym^k of the base, for graded_action
        self._piece_dims = piece_dims(self.base_rank, n)

    # -- gradings -------------------------------------------------------------

    def mono_eigenvalue(self, m):
        h = self.space.h_diag
        return sum(h[i] for i in m)

    def key_eigenvalue(self, key):
        """The h-eigenvalue of the basis element of a key: 2k - 2n for a
        word of length k, 2n - 2 len(v) for the tagged key TAG + v."""
        if key[:1] == sn.TAG:
            return 2 * self.n - 2 * (len(key) - 1)
        return 2 * len(key) - 2 * self.n

    def eigenvalue(self, x):
        """The h-eigenvalue of a homogeneous element (None for 0)."""
        return _single({self.mono_eigenvalue(m) for m in x})

    def pieces(self, x):
        """{j: the eigenvalue-j part of x} as SymElts."""
        x = sn.sym_form(x)
        out = {}
        for m, c in x.nums.items():
            out.setdefault(self.mono_eigenvalue(m), {})[m] = c
        return {j: sn.SymElt.of(nums, x.d) for j, nums in out.items()}

    def degree_of_eigenvalue(self, j):
        """Cohomological degree of the eigenvalue-j piece."""
        return 2 * self.n + j

    def piece_dim(self, j):
        return self._piece_dims.get(j, 0)

    # -- Psi and the basis ----------------------------------------------------

    def psi_word(self, word):
        """Psi of a sorted tuple of base-basis indices, memoized by
        SymSpace.basis_element, which kernel_basis reads too."""
        return self.sym.basis_element(word)

    def psi(self, lams):
        """Psi of a list of base-lattice vectors (not just basis ones)."""
        return sn.psi(self.space, lams, self.n)

    def to_words(self, x):
        """Decompose x, Sym^n data or an SHElt of this model, into basis
        coordinates, a SymElt {key: coeff}, degreewise.  A key is a word w
        for Psi(w) on a piece of length <= n, and (-1,) + v for
        rho_tau Psi(v) on a longer one.  An SHElt gives the coordinates it
        holds."""
        return self._words_of(x) if type(x) is SHElt else self._solve(x)

    def _solve(self, data):
        """The word coordinates of Sym^n data, read piece by piece."""
        terms = []
        for j, piece in self.pieces(data).items():
            w = self.sym.read(piece, j // 2 + self.n)
            terms.append((1, w.nums.items(), w.d))
        return sn.sym_combine(terms, 1)

    def _words_of(self, x):
        """The word coordinates of x, which must be an SHElt of this model:
        another model's words index another basis."""
        if x.model is not self:
            raise LatticeError("the element belongs to another model")
        return x.words

    def from_words(self, words):
        """sum c_k [k], accumulated on integers over one denominator, where
        [w] = Psi(w) for a word w of any length and
        [(-1,) + v] = rho_tau Psi(v)."""
        words = sn.sym_form(words)
        terms = []
        for w, c in words.nums.items():
            p = self.sym.basis_element(tuple(sorted(w)))
            terms.append((c, p.nums.items(), p.d))
        return sn.sym_combine(terms, words.d)

    def _row(self, k1):
        """{k2: _Coords of [k1] cup [k2]} over the basis keys k2 whose
        product with k1 is nonzero: the walk over the _walk_size(k1) keys
        that _pair does not rule out by length; memoized, filled on first
        use."""
        row = self._rows.get(k1)
        if row is None:
            words = chain.from_iterable
            if k1[:1] == sn.TAG:
                prods = [(w, self._tagged_product(k1, w))
                         for w in words(self._words[:len(k1)])]
            else:
                prods = [(w, self._word_product(tuple(sorted(k1 + w))))
                         for w in words(self._words)]
                prods += [(sn.TAG + v, self._tagged_product(sn.TAG + v, k1))
                          for v in words(self._words[len(k1):self.n])]
            row = self._rows[k1] = {k2: r for k2, r in prods if r}
        return row

    def _walk_size(self, k1):
        """The number of keys _row(k1) visits: every word, and the tagged
        keys TAG + v with len(v) >= len(k1), for a word k1; the words of
        length <= len(v) for k1 = TAG + v."""
        sizes = self._sizes
        if k1[:1] == sn.TAG:
            return sum(sizes[:len(k1)])
        return sum(sizes) + sum(sizes[len(k1):self.n])

    def _pair(self, k1, k2):
        """The _Coords of [k1] cup [k2] for two basis keys, None when it is
        0: two tagged keys, and TAG + v with a word longer than v, pass
        the top degree and multiply to 0 with no lookup."""
        if k1[:1] == sn.TAG:
            if k2[:1] == sn.TAG or len(k2) >= len(k1):
                return None
            return self._tagged_product(k1, k2)
        if k2[:1] == sn.TAG:
            return (self._tagged_product(k2, k1) if len(k1) < len(k2)
                    else None)
        return self._word_product(tuple(sorted(k1 + k2)))

    def _word_product(self, p, prefix=False):
        """The _Coords of [p] = Psi(p) for a product word p, None when it is
        0: the basis word p when len(p) <= n, else [p[:-1]] cup [p[-1]] by
        the letter rule, from [p[:n]] = (-1)^n [TAG + p[:n]].  Memoized
        when nonzero or read as a prefix, which settles every extension of
        a zero prefix with one lookup."""
        r = self._products.get(p, False)
        if r is False:
            n = self.n
            if len(p) <= n:
                r = _Coords(((p, 1),))
            else:
                q = (_Coords(((sn.TAG + p[:n], (-1) ** n),)) if len(p) == n + 1
                     else self._word_product(p[:-1], True))
                r = self._letter(q.pairs, p[-1]) if q else None
            if r or prefix:
                self._products[p] = r
        return r

    def _tagged_product(self, a, w, prefix=False):
        """The _Coords of [a] cup [w] for a = TAG + v and a word w with
        len(w) <= len(v), None when it is 0: [a] cup [w[:-1]] cup [w[-1]]
        by the letter rule; memoized as _word_product is."""
        key = (a, w)
        r = self._products.get(key, False)
        if r is False:
            if w:
                q = self._tagged_product(a, w[:-1], True)
                r = self._letter(q.pairs, w[-1]) if q else None
            else:
                r = _Coords(((a, 1),))
            if r or prefix:
                self._products[key] = r
        return r

    def _letter(self, pairs, b):
        """The _Coords of (sum_u c_u [TAG + u]) cup [b] for
        pairs = ((TAG + u, c_u), ...) over words u of length <= n, None when
        it is 0, by the letter rule (module docstring)."""
        g, n = self.space.base.gram, self.n
        gb, out = g[b], {}
        get = out.get
        for a, c in pairs:
            u = a[1:]
            s = (len(u) - n - 1) * c
            for j, uj in enumerate(u):
                if gb[uj]:
                    v = sn.TAG + u[:j] + u[j + 1:]
                    out[v] = get(v, 0) + s * gb[uj]
            for i, j in combinations(range(len(u)), 2):
                e = g[u[i]][u[j]]
                if e:
                    v = sn.TAG + tuple(sorted(u[:i] + u[i + 1:j] + u[j + 1:]
                                              + (b,)))
                    out[v] = get(v, 0) - c * e
        pairs = tuple([(v, c) for v, c in out.items() if c])
        return _Coords(pairs) if pairs else None

    # -- elements ------------------------------------------------------------

    def element(self, x):
        return SHElt(self, x)

    def unit_cup(self):
        return SHElt(self, words=sn.SymElt({(): 1}))

    def unit_star(self):
        """beta^n/n! = rho_tau(alpha^n/n!), the model avatar of [pt]/n!."""
        return self.unit_cup().rho_tau()

    def random_element(self, rng):
        """The sum of six draws c Psi(w), w a sorted word of length <= 2n
        and c in [-3, 3], on word coordinates: a word of length <= n is
        its own basis key, and _word_product expands a longer one."""
        d = self.base_rank
        terms = []
        for _ in range(6):
            k = rng.randint(0, 2 * self.n)
            w = tuple(sorted(rng.randrange(d) for _ in range(k)))
            c = rng.randint(-3, 3)
            r = c and self._word_product(w)
            if r:
                terms.append((c, r.pairs, 1))
        return SHElt(self, words=sn.sym_combine(terms, 1))

    # -- products ------------------------------------------------------------

    def cup(self, x, y):
        """[k1] cup [k2] summed over the pairs of basis keys of the SHElts x
        and y, on integer numerators, one sum per product, then spread over
        that product's integer basis coordinates.

        For each key k1 of x the products come from k1's row when it is
        built, else from y's pairs through _pair, one product lookup each.
        The row costs one walk of _walk_size(k1) lookups, after which cups
        with k1 look up no product.  _paid[k1] counts the pair lookups made
        for k1, and the cup that would bring that count to half a walk
        builds the row instead: an operand dense enough to cover half the
        walk takes the row at once, and sparse ones pay pairs until k1 has
        recurred enough.  Whatever cups follow, the lookups spent on k1
        stay within three times those of the better fixed choice, always
        pairs or the row at once: short of half a walk, pairs are all that
        was spent; past it, less than half a walk of pairs came before the
        walk, and either choice cost at least half a walk."""
        xw, yw = self._words_of(x), self._words_of(y)
        yn = yw.nums
        rows, paid, pair = self._rows, self._paid, self._pair
        out = {}
        get = out.get
        for k1, c1 in xw.nums.items():
            row = rows.get(k1)
            if row is None:
                spent = paid.get(k1, 0) + len(yn)
                if 2 * spent >= self._walk_size(k1):
                    row = self._row(k1)
                else:
                    paid[k1] = spent
            if row is None:
                for k2, c2 in yn.items():
                    r = pair(k1, k2)
                    if r:
                        out[r] = get(r, 0) + c1 * c2
            elif len(row) <= len(yn):
                for k2, r in row.items():
                    c2 = yn.get(k2)
                    if c2:
                        out[r] = get(r, 0) + c1 * c2
            else:
                for k2, c2 in yn.items():
                    r = row.get(k2)
                    if r:
                        out[r] = get(r, 0) + c1 * c2
        return SHElt(self, words=sn.sym_combine(
            [(v, r.pairs, 1) for r, v in out.items()], xw.d * yw.d))

    def rho_tau(self, x):
        """The involution induced by tau (a signed slot permutation on
        Sym^n), on the word coordinates of x."""
        return SHElt(self, words=self._rho_tau_words(self._words_of(x)))

    def _rho_tau_words(self, w):
        """rho_tau on word coordinates, a relabel: a short word w and
        TAG + w trade places, and a word of length n goes to (-1)^n times
        itself."""
        n, sign = self.n, (-1) ** self.n
        out = {}
        for key, c in w.nums.items():
            if key[:1] == sn.TAG:
                out[key[1:]] = c
            elif len(key) < n:
                out[sn.TAG + key] = c
            else:
                out[key] = sign * c
        return sn.SymElt(out, w.d)

    def star(self, x, y):
        """rho_tau(rho_tau(x) cup rho_tau(y))."""
        return self.rho_tau(self.cup(self.rho_tau(x), self.rho_tau(y)))

    def mu_action(self, t, x):
        """Multiplies the eigenvalue-2j piece of Sym^n data x by t^j."""
        return self._mu_scale(t, sn.sym_form(x), self.mono_eigenvalue)

    def _mu_scale(self, t, x, eigenvalue):
        """t^j times each entry of the SymElt x whose key m has
        eigenvalue(m) = 2j: a monomial of Sym^n data or a basis key of word
        coordinates.  With t = p / q and |j| <= n, that is
        p^(n+j) q^(n-j) / (p q)^n on integer numerators."""
        p, q = la.int_ratio(t)
        if p == 0:
            raise LatticeError("mu action needs t != 0")
        n = self.n
        sign = -1 if p < 0 and n % 2 else 1
        out = {}
        for m, c in x.nums.items():
            j = eigenvalue(m) // 2
            out[m] = sign * c * p ** (n + j) * q ** (n - j)
        return sn.SymElt.of(out, x.d * abs(p * q) ** n)

    def apply_llv(self, g, x):
        """The action of an isometry of the extended lattice via Sym^n."""
        return self.sym.apply_linear(g, x)

    def graded_action(self, g):
        """Sym^n(g) on word coordinates, for an isometry g of the extended
        lattice that llv.graded_type accepts (NotGraded otherwise): a map
        from SHElts of this model to SHElts, equal to eta(self, g), that
        builds no Sym^n data and reads none.

        With (kind, t) = graded_type(g), write g = mu_{1/t} F, so that
        F = mu_t g fixes alpha (kind 1) or sends it to beta (kind -1).
        mu_t is the identity on the middle block, so F's middle block is
        g's.

        Graded F.  F fixes alpha, hence beta, and F = ext(f) for its middle
        block f.  As ext(f) e_lam ext(f)^-1 = e_{f lam} and ext(f) fixes
        alpha^n / n!, Sym^n(F) Psi(v) = Psi(f v), which is Sym^m(f) on the
        words v of length m.  tau swaps alpha and beta, which ext(f) fixes,
        and is -1 on the middle block, so it commutes with ext(f), and
        rho_tau Psi(v) maps to rho_tau Psi(f v).  So every piece maps by
        Sym^m(f), m the length of the word in its keys.  Sym^0(f) is the
        identity, and Sym^m(f) for m >= 1 is SymSpace(base, m).apply_linear
        on f as a base isometry, each space built on first use.
        Anti-graded F.  F(alpha) = beta forces F(beta) = alpha, so F tau
        fixes both: F tau = ext(f) for f minus F's middle block, and
        F = ext(f) tau acts by rho_tau, then the graded action of ext(f).
        Scaling.  mu_{1/t} multiplies alpha by t and beta by 1/t, so it
        multiplies the image piece of length k, of eigenvalue 2k - 2n, by
        t^(n-k).
        """
        return self._graded_action(g, *llv_mod.graded_type(self.space, g))

    def _graded_action(self, g, kind, t):
        """graded_action for a g the caller has classified as (kind, t).
        The action reads only kind, t and g's middle block, which mu leaves
        alone: with t = 1 it is the action of mu_t g for g's own t."""
        space, n = self.space, self.n
        mid = range(1, space.beta_index)
        f = QIsometry._of(space.base, [[kind * g.nums[i][j] for j in mid]
                                       for i in mid], g.d)
        p, q = t.as_integer_ratio()
        syms = self._base_syms

        def op(x):
            w = self._words_of(x)
            if kind == -1:
                w = self._rho_tau_words(w)
            pieces = {}
            for key, c in w.nums.items():
                s = 1 if key[:1] == sn.TAG else 0
                pieces.setdefault((s, len(key) - s), {})[key[s:]] = c
            terms = []
            for (s, m), nums in pieces.items():
                img = sn.SymElt(nums)
                if m:
                    sym = syms.get(m)
                    if sym is None:
                        sym = syms[m] = sn.SymSpace(space.base, m)
                    img = sym.apply_linear(f, img)
                # the image piece has length k = m, or 2n - m for tagged
                # keys, and t^(n-k) = v / e with e > 0
                r = m - n if s else n - m
                v, e = (p ** r, q ** r) if r >= 0 else (q ** -r, p ** -r)
                if e < 0:
                    v, e = -v, -e
                entries = img.nums.items()
                if s:
                    entries = [(sn.TAG + b, c) for b, c in entries]
                terms.append((v, entries, img.d * e))
            return SHElt(self, words=sn.sym_combine(terms, w.d))
        return op


def _single(vals):
    """The one eigenvalue in vals, None when it is empty (the element is
    0); more than one raises LatticeError."""
    if not vals:
        return None
    if len(vals) != 1:
        raise LatticeError("element is not homogeneous")
    return vals.pop()


class SHElt:
    """An element sum c_b [b] of the model, held by its word coordinates
    words = {b: c_b} over basis keys b, a SymElt, and nothing else.  It is
    built from exactly one of its Sym^n data, read once by
    SHModel.to_words, or its word coordinates; data rebuilds the Sym^n
    data from the words on each read.
    The words are coordinates on the model's fixed basis, in lowest terms,
    so equality, sums, differences, scalar multiples, is_zero, eigenvalue
    and degree work on them exactly.  Sums and differences refuse an
    element of another model, and scalar multiples a scalar that is not an
    int or a Fraction."""

    __slots__ = ("model", "words")

    def __init__(self, model, data=None, words=None):
        if (data is None) == (words is None):
            raise TypeError("an SHElt takes its Sym^n data or its word "
                            "coordinates, exactly one of them")
        self.model = model
        self.words = (model.to_words(data) if words is None
                      else sn.sym_form(words))

    @property
    def data(self):
        return self.model.from_words(self.words)

    def __eq__(self, other):
        return (isinstance(other, SHElt) and self.model is other.model
                and self.words == other.words)

    def __repr__(self):
        return "SHElt(%d word coordinates)" % len(self.words)

    def _linear(self, op, other):
        if other.model is not self.model:
            raise LatticeError("the element belongs to another model")
        return SHElt(self.model, words=op(self.words, other.words))

    def __add__(self, other):
        return self._linear(sn.sym_add, other)

    def __sub__(self, other):
        return self._linear(sn.sym_sub, other)

    def __rmul__(self, c):
        return SHElt(self.model, words=sn.sym_scale(c, self.words))

    def is_zero(self):
        return not self.words

    def eigenvalue(self):
        return _single({self.model.key_eigenvalue(k) for k in self.words})

    def degree(self):
        j = self.eigenvalue()
        return None if j is None else self.model.degree_of_eigenvalue(j)

    def cup(self, other):
        return self.model.cup(self, other)

    def star(self, other):
        return self.model.star(self, other)

    def rho_tau(self):
        return self.model.rho_tau(self)

    def mu(self, t):
        model = self.model
        return SHElt(model, words=model._mu_scale(t, self.words,
                                                  model.key_eigenvalue))


# -- conjugation identities ---------------------------------------------------


def conjugation_check(model, g, pairs):
    """For graded g: rho_{mu_t g} is a cup-ring map; for anti-graded g it
    turns cup into star.  Checked exactly on the given element pairs, with
    rho_{mu_t g} applied on word coordinates by graded_action."""
    kind, t = llv_mod.graded_type(model.space, g)
    act = model._graded_action(g, kind, 1)   # mu_t g is (kind, 1)
    for x, y in pairs:
        ax, ay = act(x), act(y)
        rhs = ax.cup(ay) if kind == 1 else ax.star(ay)
        if act(x.cup(y)) != rhs:
            return False, {"kind": kind, "t": t}
    return True, {"kind": kind, "t": t}


def star_via(model, g, x, y):
    """The Pontryagin product built from an arbitrary degree-reversing g:
    rho_{g^-1 mu_{1/t}}( rho_{mu_t g}(x) cup rho_{mu_t g}(y) ), both
    actions applied on word coordinates by graded_action."""
    kind, t = llv_mod.graded_type(model.space, g)
    if kind != -1:
        raise NotGraded("star_via needs a degree-reversing isometry")
    # mu_t g and its inverse g^-1 mu_{1/t} are anti-graded with t = 1, and
    # mu leaves the middle blocks of g and g^-1 alone
    go = model._graded_action(g, -1, 1)
    back = model._graded_action(g.inverse(), -1, 1)
    return back(go(x).cup(go(y)))


def eta(model, f):
    """Psi-transported action of any isometry of the extended lattice, by
    Sym^n(f) on the Sym^n data: the general definition, against which the
    word-coordinate action graded_action of a graded f is tested."""
    def op(x):
        return model.element(model.apply_llv(f, x.data))
    return op


def proportionality_check_degree2(model, phi):
    """For degree-reversing phi, the degree-2 restriction of the composite
    with eta_tau is one global scalar times the middle-block restriction of
    phi o tau; returns the scalar (nonzero)."""
    space = model.space
    kind, t = llv_mod.graded_type(space, phi)
    if kind != -1:
        raise NotGraded("expected a degree-reversing isometry")
    comp = phi * llv_mod.tau(space)
    act = model._graded_action(comp, 1, t)   # comp(alpha) = phi(beta) = t alpha
    d = model.base_rank
    # matrix of the model action on the eigenvalue 2-2n piece (span of
    # alpha^{n-1} lambda_i / (n-1)!), on word coordinates
    cols = []
    for i in range(d):
        img = act(SHElt(model, words=sn.SymElt({(i,): 1})))
        col = [0] * d
        for (j,), c in model.to_words(img).items():
            col[j] = c
        cols.append(col)
    # entry (i, j) of the action is cols[j][i]; over the middle block of
    # comp = nums / e, the ratio is e cols[j][i] / nums[1 + i][1 + j]
    r, e = comp.nums, comp.d
    scalar = None
    for i in range(d):
        for j in range(d):
            if r[1 + i][1 + j]:
                s = la.ratio(e * cols[j][i], r[1 + i][1 + j])
                if scalar is None:
                    scalar = s
                elif scalar != s:
                    raise SolveFailure("restriction is not a scalar multiple")
            elif cols[j][i]:
                raise SolveFailure("restriction is not a scalar multiple")
    if not scalar:
        raise SolveFailure("the degree-2 restriction vanishes")
    return scalar
