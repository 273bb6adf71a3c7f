"""The subring generated by degree-2 classes, realized inside Sym^n of the
extended lattice, with its cup and Pontryagin products.

Elements live in the isotropic-power subspace S_[n]; the graded pieces are
the eigenspaces of the induced grading action, spanned by images of
monomial words in degree-2 classes under

    Psi(l_1 ... l_k) = e_{l_1} ... e_{l_k} (alpha^n / n!).

The piece of eigenvalue 2k - 2n is Sym^m H^2 with m = min(k, 2n - k), of
dimension C(b + m - 1, m) for the base rank b.  Cup product is
Psi(w1) cup Psi(w2) = Psi(w1 w2) on word decompositions (the subring is
Sym* H^2 / (lambda^{n+1} : q(lambda) = 0), Verbitsky).  A memoized table,
filled on first use, lists for each basis word w1 the basis words w2 with
Psi(w1 w2) != 0, so no pair whose product vanishes is visited.  The
Pontryagin product is the conjugate

    x * y = rho_tau( rho_tau(x) cup rho_tau(y) )

by the degree-reversing involution tau.  The star unit is beta^n/n!, the
model avatar of [pt] / n!.

Sym^n data and word coordinates {word: coeff} are both snrep.SymElts:
integer numerators over one denominator, immutable, so the memoized
Psi(w), the piece solvers and SHElt pass them on unchanged.  Products work
in word coordinates.  Each table entry holds the basis-word coordinates of
Psi(w1 w2), one object per product word, solved the first time a cup needs
it; a second table holds those of rho_tau Psi(b) for each basis word b,
also filled on first use.  An SHElt holds its Sym^n data, its word
coordinates or both, and computes each from the other on first use.  cup,
star and rho_tau take and return SHElts and read only word coordinates, so
a chain of products never goes back through the piece solvers.

Graded and anti-graded isometries act on word coordinates as well
(SHModel.graded_action): Sym^n(ext(f)) sends Psi(w) to Psi(f w), so a piece
of words of length k <= n maps by Sym^k(f) and a longer one by
rho_tau Sym^{2n-k}(f) rho_tau; an anti-graded isometry is ext(f) tau up to
mu_t, so each piece goes through rho_tau once, and mu_t scales each piece.
conjugation_check, star_via and proportionality_check_degree2 classify
their isometry once and act that way, so they solve only the elements they
are handed as Sym^n data; eta, the action on Sym^n data through apply_llv,
stays the general definition.  Two SHElts that both hold word coordinates
are compared on them.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, gcd

from . import linalg as la
from . import llv as llv_mod
from . import snrep as sn
from .errors import (EvenDimensionalGuard, LatticeError, NotGraded,
                     SolveFailure)
from .lattice import QIsometry


def _axpy(out, a, src):
    """out += a * src on sparse int dicts, dropping the zeros it makes."""
    for k, c in src.items():
        v = out.get(k, 0) + a * c
        if v:
            out[k] = v
        else:
            del out[k]


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


def _tau_swap(x, ai, bi):
    """The signed slot permutation of tau on a sparse Sym^n element with no
    zero entries: alpha and beta trade places, every other slot changes
    sign.  It permutes the monomials, so no two terms meet."""
    out = {}
    for m, c in x.items():
        img = []
        for i in m:
            if i == ai:
                img.append(bi)
            elif i == bi:
                img.append(ai)
            else:
                img.append(i)
                c = -c
        out[tuple(sorted(img))] = c
    return out


_ZERO = sn.SymElt({})   # Psi of most long words; shared


class _Coords:
    """Basis-word coordinates sum_b n_b Psi(b) / d of Psi(word), or of
    rho_tau Psi(word) in the rho_tau table: pairs = ((b, n_b), ...) on
    integers with no common factor with d > 0, None until set.  Hashed by
    identity: the tables share one object per word, and cup sums on those
    objects."""

    __slots__ = ("word", "pairs", "d")

    def __init__(self, word):
        self.word = word
        self.pairs = None

    def set(self, combo, d):
        g = gcd(d, *combo.values())
        self.pairs = tuple([(b, c // g) for b, c in combo.items()])
        self.d = d // g
        return self


class _PieceSolver:
    """Incremental fraction-free elimination with combination tracking:
    solve x = sum c_w Psi(w) over a selected independent word set.

    A pivot is a primitive integer row (vec | combo) standing for the
    identity vec = sum_w combo[w] Psi(w), with a positive entry at its key,
    the least monomial of vec; later pivots vanish at every earlier key.
    """

    def __init__(self):
        self.pivots = []   # (key, vec[key], vec, combo)

    def _reduce(self, vec):
        """Clears every pivot key from vec in place.  Returns (combo, s) with
        s * (vec on entry) = (vec on exit) + sum_w combo[w] Psi(w)."""
        combo = {}
        scale = 1
        for key, pv, pvec, pcombo in self.pivots:
            a = vec.get(key)
            if not a:
                continue
            if a % pv:
                g = gcd(a, pv)
                s = pv // g
                a //= g
                for m in vec:
                    vec[m] *= s
                for w in combo:
                    combo[w] *= s
                scale *= s
            else:
                a //= pv
            _axpy(vec, -a, pvec)
            _axpy(combo, a, pcombo)
        return combo, scale

    def try_add(self, word, form):
        """Adds Psi(word), given as a SymElt, when it is independent of the
        pivots so far."""
        vec = dict(form.nums)
        rest, scale = self._reduce(vec)
        if not vec:
            return False
        # scale * nums = vec + sum rest[w] Psi(w), and nums = d Psi(word)
        combo = {w: -c for w, c in rest.items()}
        combo[word] = scale * form.d
        key = min(vec)
        g = gcd(*vec.values(), *combo.values())
        if vec[key] < 0:
            g = -g
        vec = {m: c // g for m, c in vec.items()}
        combo = {w: c // g for w, c in combo.items()}
        self.pivots.append((key, vec[key], vec, combo))
        return True

    def solve(self, nums, d):
        """(combo, e) with nums / d = sum_w combo[w] Psi(w) / e, on
        integers; raises SolveFailure when nums leaves a residue."""
        vec = dict(nums)
        combo, scale = self._reduce(vec)
        if any(vec.values()):
            raise SolveFailure("element is outside the spanned piece")
        return combo, scale * d


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
        # e_lambda of each base basis vector, as derivation_apply reads it
        self._e_cols = [llv_mod.e_columns(llv_space, llv_space.base.basis_vec(i))
                        for i in range(self.base_rank)]
        self._psi_memo = {}
        self._solvers = {}
        self._basis_words = []   # every piece's basis words, shortest first
        self._rows = {}
        self._coords = {}   # product word -> _Coords, made by _row
        self._tau = {}      # basis word b -> _Coords of rho_tau Psi(b)
        self._base_syms = {}   # k -> Sym^k of the base, for graded_action
        self._piece_dims = piece_dims(self.base_rank, n)
        self._build_word_sets()
        self._basis_set = frozenset(self._basis_words)

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

    # -- Psi and word sets ----------------------------------------------------

    def psi_word(self, word):
        """Psi of a sorted tuple of base-basis indices, memoized."""
        x = self._psi_memo.get(word)
        if x is None:
            if word:
                x = self.psi_word(word[1:])
                if x:
                    x = self.sym.derivation_apply(
                        self._e_cols[word[0]], x) or _ZERO
            else:
                x = sn.sym_scale(Fraction(1, factorial(self.n)), sn.sym_power(
                    self.space.alpha().coords, self.n))
            self._psi_memo[word] = x
        return x

    def psi(self, lams):
        """Psi of a list of base-lattice vectors (not just basis ones)."""
        return sn.psi(self.space, lams, self.n)

    def _build_word_sets(self):
        d = self.base_rank
        for k in range(0, 2 * self.n + 1):
            j = 2 * k - 2 * self.n
            want = self.piece_dim(j)
            solver = _PieceSolver()
            got = 0
            for word in combinations_with_replacement(range(d), k):
                if got == want:
                    break
                form = self.psi_word(word)
                if form and solver.try_add(word, form):
                    self._basis_words.append(word)
                    got += 1
            if got != want:
                raise SolveFailure(
                    "monomial words span only %d of %d in eigenvalue %d"
                    % (got, want, j))
            self._solvers[j] = solver

    def to_words(self, x):
        """Decompose x, Sym^n data or an SHElt of this model, into
        basis-word coefficients, a SymElt {word: coeff}, degreewise.  An
        SHElt is solved only when it has no word coordinates yet, and keeps
        the ones solved."""
        return self._words_of(x) if type(x) is SHElt else self._solve(x)

    def _solve(self, data):
        """The word coordinates of Sym^n data, solved piece by piece."""
        terms = []
        for j, piece in self.pieces(data).items():
            if j not in self._solvers:
                raise SolveFailure("eigenvalue %d outside the model" % j)
            combo, e = self._solvers[j].solve(piece.nums, piece.d)
            terms.append((1, combo.items(), e))
        return _combine(terms, 1)

    def _words_of(self, x):
        """The word coordinates of x, which must be an SHElt of this model:
        another model's words index other basis words."""
        if x.model is not self:
            raise LatticeError("the element belongs to another model")
        return x.words

    def from_words(self, words):
        """sum c_w Psi(w), accumulated on integers over one denominator."""
        words = sn.sym_form(words)
        terms = []
        for w, c in words.nums.items():
            p = self.psi_word(tuple(sorted(w)))
            terms.append((c, p.nums.items(), p.d))
        return _combine(terms, words.d)

    def _row(self, w1):
        """{w2: coordinates of Psi(w1 w2)} over the basis words w2 of every
        piece with len(w1) + len(w2) <= 2n and Psi(w1 w2) != 0; memoized,
        filled on first use."""
        row = self._rows.get(w1)
        if row is None:
            room = 2 * self.n - len(w1)
            row = {}
            for w2 in self._basis_words:
                if len(w2) > room:
                    break
                p = tuple(sorted(w1 + w2))
                r = self._coords.get(p)
                if r is None:
                    if not self.psi_word(p):
                        continue
                    r = self._coords[p] = _Coords(p)
                row[w2] = r
            self._rows[w1] = row
        return row

    def _product_coords(self, r):
        """The _Coords r of a product word p with Psi(p) != 0, set on first
        use: p itself when it is a basis word, else solved once in the
        piece of eigenvalue 2 len(p) - 2n."""
        if r.pairs is None:
            p = r.word
            if p in self._basis_set:
                r.set({p: 1}, 1)
            else:
                j = 2 * len(p) - 2 * self.n
                x = self.psi_word(p)
                r.set(*self._solvers[j].solve(x.nums, x.d))
        return r

    def _tau_coords(self, b):
        """The _Coords of rho_tau Psi(b) for a basis word b, memoized;
        solved once in the piece of eigenvalue 2n - 2 len(b)."""
        r = self._tau.get(b)
        if r is None:
            x = self.psi_word(b)
            img = _tau_swap(x.nums, self.space.alpha_index, self.space.beta_index)
            j = 2 * self.n - 2 * len(b)
            r = self._tau[b] = _Coords(b).set(*self._solvers[j].solve(img, x.d))
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
        """Psi(w1) cup Psi(w2) = Psi(w1 w2), summed over the pairs of basis
        words of the SHElts x and y that _row keeps, on integer numerators,
        then written in basis words."""
        xw, yw = self._words_of(x), self._words_of(y)
        yn = yw.nums
        out = {}
        get = out.get
        for w1, c1 in xw.nums.items():
            for w2, r in self._row(w1).items():
                c2 = yn.get(w2)
                if c2:
                    out[r] = get(r, 0) + c1 * c2
        terms = []
        for r, v in out.items():
            r = self._product_coords(r)
            terms.append((v, r.pairs, r.d))
        return SHElt(self, words=_combine(terms, xw.d * yw.d))

    def rho_tau(self, x):
        """The involution induced by tau (a signed slot permutation on
        Sym^n), on the word coordinates of x, read off the rho_tau table."""
        w = self._words_of(x)
        terms = []
        for b, v in w.nums.items():
            r = self._tau_coords(b)
            terms.append((v, r.pairs, r.d))
        return SHElt(self, words=_combine(terms, w.d))

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
        only, equal to eta(self, g), with no Sym^n data and no solve.

        With (kind, t) = graded_type(g), write g = mu_{1/t} F, so that
        F = mu_t g fixes alpha (kind 1) or sends it to beta (kind -1).
        mu_t is the identity on the middle block, so F's middle block is
        g's.

        Graded F.  F fixes alpha, hence beta, and F = ext(f) for its middle
        block f.  As ext(f) e_lam ext(f)^-1 = e_{f lam} and ext(f) fixes
        alpha^n / n!, Sym^n(F) Psi(l_1 ... l_k) = Psi(f l_1 ... f l_k):
        Psi of words of length k is Sym^k H^2 -> (the length-k piece), and
        it carries Sym^k(f) to Sym^n(F).
        - k <= n: that map is injective, so every word of length k is a
          basis word and the piece's word coordinates are monomial
          coordinates on Sym^k H^2; the piece maps by Sym^k(f).
        - k > n: rho_tau maps the length-k piece onto the length-(2n - k)
          one, and tau commutes with ext(f) (it swaps alpha and beta, which
          ext(f) fixes, and is -1 on the middle block).  So the piece maps
          by rho_tau Sym^{2n-k}(f) rho_tau, rho_tau read off its table.
        Sym^0(f) is the identity, and Sym^m(f) for m >= 1 is
        SymSpace(base, m).apply_linear on f as a base isometry, each space
        built on first use.
        Anti-graded F.  F(alpha) = beta forces F(beta) = alpha, so F tau
        fixes both: F tau = ext(f) for f minus F's middle block, and
        F = ext(f) tau acts by rho_tau, then the graded action of ext(f).
        rho_tau sends a piece of length j to length 2n - j, and as it is an
        involution each piece goes through it once: before Sym^{2n-j}(f)
        when 2n - j <= n, after Sym^j(f) otherwise.
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

        def sym(m, piece):
            if m == 0:
                return piece
            s = syms.get(m)
            if s is None:
                s = syms[m] = sn.SymSpace(space.base, m)
            return s.apply_linear(f, piece)

        def tau(piece):
            return self.rho_tau(SHElt(self, words=piece)).words

        def op(x):
            w = self._words_of(x)
            pieces = {}
            for b, c in w.nums.items():
                pieces.setdefault(len(b), {})[b] = c
            terms = []
            for j, nums in pieces.items():
                k = j if kind == 1 else 2 * n - j   # length of the image
                # a long image takes rho_tau after Sym^m(f), and one before
                # makes the count even (graded) or odd (anti-graded)
                after = k > n
                img = sn.SymElt(nums)
                if after != (kind == -1):
                    img = tau(img)
                img = sym(min(j, 2 * n - j), img)
                if after:
                    img = tau(img)
                # t^(n-k) = v / e with e > 0
                m = n - k
                v, e = (p ** m, q ** m) if m >= 0 else (q ** -m, p ** -m)
                if e < 0:
                    v, e = -v, -e
                terms.append((v, img.nums.items(), img.d * e))
            return SHElt(self, words=_combine(terms, w.d))
        return op


class SHElt:
    """An element of the model, held by its Sym^n data, its word
    coordinates words = {b: c_b} with the element sum c_b Psi(b) over basis
    words b, or both, each a SymElt.  Each is computed from the other on
    first use: data by summing the Psi(b), words by the piece solvers.
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
        on the model's fixed basis words, in lowest terms, so they are
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
