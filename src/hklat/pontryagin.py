"""The subring generated by degree-2 classes, realized inside Sym^n of the
extended lattice, with its cup and Pontryagin products.

Elements live in the isotropic-power subspace S_[n].  A word w is a sorted
tuple of base-basis indices, and

    Psi(w) = e_{w_1} ... e_{w_k} (alpha^n / n!).

The graded pieces are the eigenspaces of the grading operator h.  The
piece of words of length k has eigenvalue 2k - 2n.  It is Sym^m H^2 with
m = min(k, 2n - k), of dimension C(b + m - 1, m) for the base rank b.

Each piece has a fixed basis in closed form:
- a piece of length k <= n has Psi(w) for every word w of length k;
- a longer piece has rho_tau Psi(v) for every word v of length 2n - k,
  under the key (-1,) + v, which no word has.

The first rule holds because Sym^k H^2 -> H^{2k} is injective for k <= n
(M. Verbitsky, GAFA 1996).  Concretely, e_lam sends alpha to lam and every
other basis vector to a multiple of beta, so Psi(w) has exactly one
beta-free monomial: alpha^(n-k) lam_{w_1} ... lam_{w_k}, with coefficient
1 / (n-k)!.  The second holds because the involution rho_tau, Sym^n of
tau, maps the piece of length 2n - k onto the piece of length k
(E. Looijenga, V. Lunts, Invent. Math. 129, 1997).

So coordinates are read, not solved.  On a piece of length k <= n,
c_w = (n-k)! x[alpha^(n-k) m(w)].  On a longer piece, rho_tau comes
first.  Every read is checked exactly by rebuilding the element from its
coordinates; a residue raises SolveFailure.

Sym^n data and word coordinates {key: coeff} are both snrep.SymElts:
integer numerators over one denominator, immutable.  An SHElt holds its
data, its word coordinates or both, and computes each from the other on
first use.  cup, star and rho_tau read and return word coordinates only:
- rho_tau relabels a short word w to (-1,) + w and back; only the middle
  piece (k = n) keeps a table, each entry read once;
- cup keeps, for each basis key, a memoized row of the keys whose product
  with it is nonzero.  Two words multiply to Psi(w1 w2), a basis word when
  it is short and read otherwise.  A tagged key (-1,) + v times a word w
  with len(w) <= len(v) is e_w(rho_tau Psi(v)), read.  Two tagged keys
  multiply to 0.
- star is rho_tau(rho_tau(x) cup rho_tau(y)), with unit beta^n / n!, the
  model avatar of [pt] / n!.

Graded and anti-graded isometries act on word coordinates too
(SHModel.graded_action): ext(f) sends Psi(w) to Psi(f w) and commutes with
tau, so each piece maps by Sym^m(f), m the length of its keys' words.
eta, the action on Sym^n data through apply_llv, stays the general
definition.
"""

from itertools import combinations_with_replacement
from math import comb, factorial, gcd

from . import linalg as la
from . import llv as llv_mod
from . import snrep as sn
from .errors import (EvenDimensionalGuard, LatticeError, NotGraded,
                     SolveFailure)
from .lattice import QIsometry

_TAG = (-1,)   # the key of rho_tau Psi(v) is _TAG + v


def _combine(terms, d):
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
    return sn.SymElt.of(out, den * d)


class _Coords:
    """The basis coordinates sum_b n_b [b] / d of one element, as
    pairs = ((b, n_b), ...) on integers over d > 0 in lowest terms, read
    from its Sym^n data, which lies in the piece of length k, on first use
    (SHModel._read_coords).  Hashed by identity: the rows share one object
    per product, and cup sums on those objects."""

    __slots__ = ("data", "k", "pairs", "d")

    def __init__(self, data=None, k=None, pairs=None, d=1):
        self.data, self.k, self.pairs, self.d = data, k, pairs, d


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
        self._tagged = {}      # tagged key -> its basis element
        self._rows = {}
        self._products = {}    # product word, or (tagged key, word) -> _Coords
        self._tau = {}         # word w of length n -> _Coords of rho_tau Psi(w)
        self._base_syms = {}   # k -> Sym^k of the base, for graded_action
        self._piece_dims = piece_dims(self.base_rank, n)

    # -- gradings -------------------------------------------------------------

    def mono_eigenvalue(self, m):
        h = self.space.h_diag
        return sum(h[i] for i in m)

    def eigenvalue(self, x):
        """The h-eigenvalue of a homogeneous element (None for 0)."""
        vals = {self.mono_eigenvalue(m) for m in x}
        if not vals:
            return None
        if len(vals) != 1:
            raise LatticeError("element is not homogeneous")
        return vals.pop()

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
        SymSpace.psi_word, which kernel_basis reads too."""
        return self.sym.psi_word(word)

    def psi(self, lams):
        """Psi of a list of base-lattice vectors (not just basis ones)."""
        return sn.psi(self.space, lams, self.n)

    def _basis_data(self, key):
        """Psi(key) for a word, rho_tau Psi(v) for a tagged key (-1,) + v;
        memoized."""
        if key[:1] != _TAG:
            return self.sym.psi_word(key)
        x = self._tagged.get(key)
        if x is None:
            p = self.sym.psi_word(key[1:])
            x = self._tagged[key] = sn.SymElt(
                sn.tau_swap(p.nums, self.space.alpha_index, self.space.beta_index),
                p.d)
        return x

    def _read(self, x, k):
        """The basis coordinates, a SymElt {key: c}, of the SymElt x in the
        piece of length k.  On a short piece
        c_w = (n-k)! x[alpha^(n-k) m(w)]; a long one is read through
        rho_tau under tagged keys.  The element is rebuilt from the
        coordinates, and a residue raises SolveFailure."""
        n, ai, bi = self.n, self.space.alpha_index, self.space.beta_index
        nums, tag = x.nums, ()
        if k > n:
            nums, k, tag = sn.tau_swap(nums, ai, bi), 2 * n - k, _TAG
        f = factorial(n - k)
        words = {}
        for m, c in nums.items():
            # alpha sorts first and beta last: the beta-free monomials with
            # n - k alphas, which outside the piece the rebuild rejects
            w = m[n - k:]
            if m[-1] != bi and (not w or w[0] != ai):
                words[tuple([i - 1 for i in w])] = f * c
        terms = []
        for w, c in words.items():
            p = self.sym.psi_word(w)
            terms.append((c, p.nums.items(), p.d))
        if _combine(terms, 1) != sn.SymElt(nums):
            raise SolveFailure("element is outside the spanned piece")
        return sn.SymElt.of({tag + w: c for w, c in words.items()}, x.d)

    def to_words(self, x):
        """Decompose x, Sym^n data or an SHElt of this model, into basis
        coordinates, a SymElt {key: coeff}, degreewise.  A key is a word w
        for Psi(w) on a piece of length <= n, and (-1,) + v for
        rho_tau Psi(v) on a longer one.  An SHElt is read only when it has
        no word coordinates yet, and keeps the ones read."""
        return self._words_of(x) if type(x) is SHElt else self._solve(x)

    def _solve(self, data):
        """The word coordinates of Sym^n data, read piece by piece."""
        terms = []
        for j, piece in self.pieces(data).items():
            w = self._read(piece, j // 2 + self.n)
            terms.append((1, w.nums.items(), w.d))
        return _combine(terms, 1)

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
            p = self._basis_data(tuple(sorted(w)))
            terms.append((c, p.nums.items(), p.d))
        return _combine(terms, words.d)

    def _row(self, k1):
        """{k2: _Coords of [k1] cup [k2]} over the basis keys k2 whose
        product with k1 is nonzero; memoized, filled on first use."""
        row = self._rows.get(k1)
        if row is None:
            row = {}
            if k1[:1] == _TAG:
                for ws in self._words[:len(k1)]:
                    for w in ws:
                        r = self._tagged_product(k1, w)
                        if r:
                            row[w] = r
            else:
                for ws in self._words:
                    for w in ws:
                        r = self._word_product(tuple(sorted(k1 + w)))
                        if r:
                            row[w] = r
                for ws in self._words[len(k1):self.n]:
                    for v in ws:
                        k2 = _TAG + v
                        r = self._tagged_product(k2, k1)
                        if r:
                            row[k2] = r
            self._rows[k1] = row
        return row

    def _word_product(self, p):
        """The _Coords of Psi(p) for a product word p, None when it is 0:
        the basis word p when len(p) <= n, else read on first use;
        memoized when nonzero (psi_word memoizes the zeros)."""
        r = self._products.get(p)
        if r is None:
            if len(p) <= self.n:
                r = _Coords(pairs=((p, 1),))
            else:
                x = self.sym.psi_word(p)
                if not x:
                    return None
                r = _Coords(x, len(p))
            self._products[p] = r
        return r

    def _tagged_product(self, a, w):
        """The _Coords of [a] cup Psi(w) = e_w(rho_tau Psi(v)) for
        a = (-1,) + v and a word w with len(w) <= len(v), None when it is 0;
        memoized."""
        key = (a, w)
        r = self._products.get(key, False)
        if r is False:
            if w:
                x, ops = self._basis_data(a), self.sym.e_ops()
                for i in reversed(w):
                    x = self.sym.derivation_apply(ops[i], x)
                r = _Coords(x, 2 * self.n - len(a) + 1 + len(w)) if x else None
            else:
                r = _Coords(pairs=((a, 1),))
            self._products[key] = r
        return r

    def _read_coords(self, r):
        """The _Coords r, its pairs read from r.data on first use."""
        if r.pairs is None:
            x = self._read(r.data, r.k)
            r.pairs, r.d, r.data = tuple(x.nums.items()), x.d, None
        return r

    def _tau_coords(self, w):
        """The _Coords of rho_tau Psi(w) for a word w of length n, read
        once."""
        r = self._tau.get(w)
        if r is None:
            r = self._tau[w] = self._read_coords(
                _Coords(self._basis_data(_TAG + w), self.n))
        return r

    # -- elements ------------------------------------------------------------

    def element(self, x):
        return SHElt(self, x)

    def unit_cup(self):
        return SHElt(self, words=sn.SymElt({(): 1}))

    def unit_star(self):
        """beta^n/n! = rho_tau(alpha^n/n!), the model avatar of [pt]/n!."""
        return self.unit_cup().rho_tau()

    def random_element(self, rng):
        d = self.base_rank
        words = {}
        for _ in range(6):
            k = rng.randint(0, 2 * self.n)
            w = tuple(sorted(rng.randrange(d) for _ in range(k)))
            c = rng.randint(-3, 3)
            if c:
                words[w] = words.get(w, 0) + c
        return self.element(self.from_words(words))

    # -- products ------------------------------------------------------------

    def cup(self, x, y):
        """[k1] cup [k2] summed over the pairs of basis keys of the SHElts x
        and y that _row keeps, on integer numerators, then written in basis
        coordinates."""
        xw, yw = self._words_of(x), self._words_of(y)
        yn = yw.nums
        out = {}
        get = out.get
        for k1, c1 in xw.nums.items():
            for k2, r in self._row(k1).items():
                c2 = yn.get(k2)
                if c2:
                    out[r] = get(r, 0) + c1 * c2
        terms = []
        for r, v in out.items():
            r = self._read_coords(r)
            terms.append((v, r.pairs, r.d))
        return SHElt(self, words=_combine(terms, xw.d * yw.d))

    def rho_tau(self, x):
        """The involution induced by tau (a signed slot permutation on
        Sym^n), on the word coordinates of x."""
        return SHElt(self, words=self._rho_tau_words(self._words_of(x)))

    def _rho_tau_words(self, w):
        """rho_tau on word coordinates: a short word w and (-1,) + w trade
        places, and a word of length n is read off the middle table."""
        n = self.n
        out, terms = {}, []
        for key, c in w.nums.items():
            if key[:1] == _TAG:
                out[key[1:]] = c
            elif len(key) < n:
                out[_TAG + key] = c
            else:
                r = self._tau_coords(key)
                terms.append((c, r.pairs, r.d))
        terms.append((1, out.items(), 1))
        return _combine(terms, w.d)

    def star(self, x, y):
        """rho_tau(rho_tau(x) cup rho_tau(y))."""
        return self.rho_tau(self.cup(self.rho_tau(x), self.rho_tau(y)))

    def mu_action(self, t, x):
        """Multiplies the eigenvalue-2j piece by t^j.  With t = p / q and
        |j| <= n, that is p^(n+j) q^(n-j) / (p q)^n on integer numerators."""
        p, q = la.int_ratio(t)
        if p == 0:
            raise LatticeError("mu action needs t != 0")
        x, n = sn.sym_form(x), self.n
        sign = -1 if p < 0 and n % 2 else 1
        out = {}
        for m, c in x.nums.items():
            j = self.mono_eigenvalue(m) // 2
            out[m] = sign * c * p ** (n + j) * q ** (n - j)
        return sn.SymElt.of(out, x.d * abs(p * q) ** n)

    def apply_llv(self, g, x):
        """The action of an isometry of the extended lattice via Sym^n."""
        return self.sym.apply_linear(g, x)

    def graded_action(self, g):
        """Sym^n(g) on word coordinates, for an isometry g of the extended
        lattice that llv.graded_type accepts (NotGraded otherwise): a map
        from SHElts of this model to SHElts that hold word coordinates
        only, equal to eta(self, g), with no Sym^n data and no read.

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
                s = 1 if key[:1] == _TAG else 0
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
                    entries = [(_TAG + b, c) for b, c in entries]
                terms.append((v, entries, img.d * e))
            return SHElt(self, words=_combine(terms, w.d))
        return op


class SHElt:
    """An element of the model, held by its Sym^n data, its word
    coordinates words = {b: c_b} with the element sum c_b [b] over basis
    keys b, or both, each a SymElt.  Each is computed from the other on
    first use: data by summing the basis elements, words by reading them
    off (SHModel.to_words).
    Sums, differences and scalar multiples work on the data, and refuse an
    element of another model and a scalar that is not an int or a
    Fraction."""

    __slots__ = ("model", "_data", "_words")

    def __init__(self, model, data=None, words=None):
        self.model = model
        self._data = None if data is None else sn.sym_form(data)
        self._words = words

    @property
    def data(self):
        if self._data is None:
            self._data = self.model.from_words(self._words)
        return self._data

    @property
    def words(self):
        if self._words is None:
            self._words = self.model._solve(self.data)
        return self._words

    def __eq__(self, other):
        """Same model and same element: word coordinates are coordinates
        on the model's fixed basis, in lowest terms, so they are
        compared when both sides hold them, and the Sym^n data otherwise."""
        if not (isinstance(other, SHElt) and self.model is other.model):
            return False
        if self._words is not None and other._words is not None:
            return self._words == other._words
        return self.data == other.data

    def __repr__(self):
        return "SHElt(%d terms)" % len(self.data)

    def __add__(self, other):
        if other.model is not self.model:
            raise LatticeError("the element belongs to another model")
        return SHElt(self.model, sn.sym_add(self.data, other.data))

    def __sub__(self, other):
        if other.model is not self.model:
            raise LatticeError("the element belongs to another model")
        return SHElt(self.model, sn.sym_sub(self.data, other.data))

    def __rmul__(self, c):
        return SHElt(self.model, sn.sym_scale(c, self.data))

    def is_zero(self):
        return not self.data

    def eigenvalue(self):
        return self.model.eigenvalue(self.data)

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
        return SHElt(self.model, self.model.mu_action(t, self.data))


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
