"""Eichler transvections and the constructive reduction to a canonical vector.

The transvection attached to an isotropic e and a vector a orthogonal to e is

    E(e,a)(x) = x + (e,x) (a - (a,a)/2 e) - (a,x) e,

an integral isometry with determinant +1, trivial discriminant action and
nu = +1.  Transvection data is integral, so each step is kept once as
integers (e, a, G e, G a, (a,a)) and every transvection, word and word
isometry here runs through the one integer kernel _step_columns: the input
columns are scaled once to integer numerators over one denominator, each
step reads the pairings (e,x), (a,x) off the nonzero entries of G e and G a
and changes only the coordinates in supp(e) + supp(a), and the entries are
normalized once at the end.  A word holds only that data, and rebuilds
its steps (e, a) as int tuples from it on request.  The reduction's
elementary moves E(e_i, k e_j) read their data straight off the Gram rows
(G e_i is row i, G(k e_j) is k times row j); every other step, the
reduction's two general moves included, is checked by _step_data.

For a lattice containing two orthogonal hyperbolic planes U1 = (e1,e2),
U2 = (f1,f2), the group generated by transvections acts transitively on
primitive vectors of fixed norm and divisibility 1; the reduction below
maps such a vector to the canonical e1 - (N/2) e2 and records the word of
transvections.

The reduction works on the 2x2 integer matrix

    P = [[a, d], [c, -b]]       (alpha = a e1 + b e2 + c f1 + d f2 + w)

on which the four transvections E(e1, k f1), E(f2, k e2), E(e1, k f2),
E(f1, k e2) act as the elementary SL2 x SL2 row/column additions.  Smith
reduction of P plus two pivot moves eliminating the remainder w give the
canonical form.
"""

from . import linalg as la
from .errors import (DimensionMismatch, DivisibilityMismatch, LatticeError,
                     NoHyperbolicPlanes, NonPrimitiveLambda, NormMismatch,
                     NotIntegral, SearchExhausted)
from .lattice import LatVec, QIsometry, divisibility

_MAX_REDUCE_STEPS = 20000


def _step_data(lattice, e, a):
    """One step E(e, a) as integers: the nonzero (index, entry) pairs of e,
    a, G e and G a, and (a,a)."""
    if len(e) != lattice.rank or len(a) != lattice.rank:
        raise DimensionMismatch("coordinate length does not match rank")
    if not (la.is_integral_vec(e) and la.is_integral_vec(a)):
        raise NotIntegral("transvection data must be integral")
    e, a = [int(x) for x in e], [int(x) for x in a]
    ga = lattice.gram_times(a)
    return (_nonzero(e), _nonzero(a), lattice.gram_times(e), ga,
            sum([a[i] * s for i, s in ga]))


def _nonzero(v):
    return [(i, x) for i, x in enumerate(v) if x]


def _dense(pairs, n):
    """The length-n int tuple with the given nonzero (index, entry) pairs."""
    c = [0] * n
    for i, x in pairs:
        c[i] = x
    return tuple(c)


def _step_columns(data, cols):
    """Apply the integer steps, first to last, to integer columns in place.

    cols holds numerators over a common denominator; the returned factor
    (1, or a power of 2 when an odd (a,a) meets an odd (e,x)) multiplies
    that denominator.
    """
    scale = 1
    for e, a, ge, ga, aa in data:
        if aa & 1 and any(sum([g * c[i] for i, g in ge]) & 1 for c in cols):
            for c in cols:
                c[:] = [2 * x for x in c]
            scale *= 2
        # x += (e,x) a - ((a,x) + (e,x) (a,a)/2) e
        for c in cols:
            ex = sum([g * c[i] for i, g in ge])
            t = -sum([g * c[i] for i, g in ga])
            if ex:
                for i, x in a:
                    c[i] += ex * x
                t -= ex * aa // 2
            if t:
                for i, x in e:
                    c[i] += t * x
    return scale


def _run_steps(data, xs):
    """The images of the coordinate vectors xs under the steps, in one pass
    over one common denominator."""
    nums, d = la.scaled_mat(xs)
    cols = [list(c) for c in nums]
    d *= _step_columns(data, cols)
    return tuple(tuple([la.quotient(x, d) for x in c]) for c in cols)


def eichler_transvection(lattice, e, a):
    """E(e,a) as a certified isometry.  e, a must be integral."""
    if not (e.is_integral() and a.is_integral()):
        raise NotIntegral("transvection data must be integral")
    if e.norm() != 0:
        raise LatticeError("transvection base vector must be isotropic")
    if e.pair(a) != 0:
        raise LatticeError("transvection requires (e,a) = 0")
    iso = TransvectionWord(lattice, [(e.coords, a.coords)]).isometry()
    # trusted path double-checked cheaply on the defining relations
    if iso.apply(e) != e:
        raise AssertionError("transvection does not fix its base vector")
    return iso


class TransvectionWord:
    """An ordered word of transvections; the first step is applied first.

    _data holds each step once, as the kernel integers of _step_data.
    """

    __slots__ = ("lattice", "_data")

    def __init__(self, lattice, steps=()):
        self.lattice = lattice
        self._data = [_step_data(lattice, e, a) for e, a in steps]

    @property
    def steps(self):
        """The (e, a) coordinates of each step, as int tuples."""
        n = self.lattice.rank
        return [(_dense(e, n), _dense(a, n)) for e, a, _, _, _ in self._data]

    def append(self, e_coords, a_coords):
        self._data.append(_step_data(self.lattice, e_coords, a_coords))

    def apply_columns(self, xs):
        """The images of the coordinate vectors xs, in one pass."""
        if any(len(x) != self.lattice.rank for x in xs):
            raise DimensionMismatch("coordinate length does not match rank")
        return _run_steps(self._data, xs)

    def apply_coords(self, x):
        return self.apply_columns((x,))[0]

    def apply(self, v):
        return LatVec(self.lattice, self.apply_coords(v.coords))

    def isometry(self):
        """The word as an isometry, run on the identity's integer columns."""
        cols = [list(c) for c in la.identity(self.lattice.rank)]
        d = _step_columns(self._data, cols)
        return QIsometry._of(self.lattice, la.transpose(cols), d)

    def inverse(self):
        # E(e, a)^-1 = E(e, -a): negate a and G a, keep e, G e and (a,a)
        inv = TransvectionWord(self.lattice)
        inv._data = [(e, [(i, -x) for i, x in a], ge, [(i, -x) for i, x in ga],
                      aa) for e, a, ge, ga, aa in reversed(self._data)]
        return inv

    def __len__(self):
        return len(self._data)


def _bezout_combo(values):
    """(g, coeffs) with sum(c*v) = g = gcd(values) >= 0."""
    g = 0
    coeffs = [0] * len(values)
    for i, v in enumerate(values):
        v = int(v)
        if v == 0:
            continue
        if g == 0:
            g = abs(v)
            coeffs = [0] * len(values)
            coeffs[i] = 1 if v > 0 else -1
            continue
        # extended euclid on (g, v)
        a, b = g, v
        x0, x1 = 1, 0
        while b:
            q = a // b
            a, b = b, a - q * b
            x0, x1 = x1, x0 - q * x1
        if a < 0:
            a, x0 = -a, -x0
        # a = gcd, x0 * g + y * v = a with y = (a - x0*g)//v
        y = (a - x0 * g) // v
        coeffs = [c * x0 for c in coeffs]
        coeffs[i] += y
        g = a
    return g, coeffs


def canonical_vector(lattice, norm):
    """e1 - (N/2) e2 in the first hyperbolic plane."""
    if not lattice.u_blocks:
        raise NoHyperbolicPlanes("lattice has no designated hyperbolic plane")
    if norm % 2 != 0:
        raise NormMismatch("even lattice vectors have even norm")
    i, j = lattice.u_blocks[0]
    c = [0] * lattice.rank
    c[i] = 1
    c[j] = -norm // 2
    return LatVec(lattice, c)


class _Reducer:
    """Stateful reduction of one primitive divisibility-1 vector to the
    canonical vector, recording a transvection word."""

    def __init__(self, lattice, coords):
        if len(lattice.u_blocks) < 2:
            raise NoHyperbolicPlanes(
                "reduction needs two orthogonal hyperbolic planes")
        self.lat = lattice
        self.e1, self.e2 = lattice.u_blocks[0]
        self.f1, self.f2 = lattice.u_blocks[1]
        self.u_idx = (self.e1, self.e2, self.f1, self.f2)
        self.w_idx = tuple(k for k in range(lattice.rank) if k not in self.u_idx)
        self.x = list(la.vec(coords))
        self.word = TransvectionWord(lattice)
        self.budget = _MAX_REDUCE_STEPS

    def _emit(self, data):
        """Record the step with kernel data data and apply it to x."""
        self.budget -= 1
        if self.budget <= 0:
            raise SearchExhausted("transvection reduction exceeded step budget")
        self.word._data.append(data)
        if _step_columns([data], [self.x]) != 1:
            raise NotIntegral("a reduction step left the integers")

    def _move(self, i, j, k):
        """E(e_i, k e_j), its data read off the Gram rows: G e_i is row i,
        G(k e_j) is k times row j and (k e_j, k e_j) = k^2 G_jj."""
        if k:
            rows = self.lat._gram_rows
            self._emit(([(i, 1)], [(j, k)], list(rows[i]),
                        [(t, k * g) for t, g in rows[j]],
                        k * k * self.lat.gram[j][j]))

    def _general_move(self, i, a):
        """E(e_i, a) for an integer list a, its data checked by _step_data."""
        e = [0] * self.lat.rank
        e[i] = 1
        self._emit(_step_data(self.lat, e, a))

    # -- the four elementary SL2 x SL2 moves ------------------------------
    def op_col1(self, k):   # P: col1 += k col2   <->  E(e1, k f1)
        self._move(self.e1, self.f1, k)

    def op_col2(self, k):   # P: col2 += k col1   <->  E(f2, k e2)
        self._move(self.f2, self.e2, k)

    def op_row1(self, k):   # P: row1 += k row2   <->  E(e1, k f2)
        self._move(self.e1, self.f2, k)

    def op_row2(self, k):   # P: row2 += k row1   <->  E(f1, k e2)
        self._move(self.f1, self.e2, k)

    def _p(self):
        x = self.x
        return [[x[self.e1], x[self.f2]], [x[self.f1], -x[self.e2]]]

    def _rot_rows_B(self):
        # (r1, r2) -> (-r2, r1):  r1 -= r2; r2 += r1; r1 -= r2
        self.op_row1(-1)
        self.op_row2(1)
        self.op_row1(-1)

    def _rot_cols_A(self):
        # (c1, c2) -> (c2, -c1):  c1 += c2; c2 -= c1; c1 += c2
        self.op_col1(1)
        self.op_col2(-1)
        self.op_col1(1)

    def _diagonalize(self):
        """Clear P12 and P21 by Euclid; terminates with P diagonal."""
        while True:
            p = self._p()
            if p[0][1] == 0 and p[1][0] == 0:
                return
            if p[0][0] == 0:
                # the loop has returned unless P12 or P21 is nonzero
                if p[1][0] != 0:
                    self.op_row1(1)
                else:
                    self.op_col1(1)
                continue
            if p[1][0] != 0:
                q = p[1][0] // p[0][0]
                self.op_row2(-q)
                if self._p()[1][0] != 0:
                    self._rot_rows_B()
                continue
            q = p[0][1] // p[0][0]
            self.op_col2(-q)
            if self._p()[0][1] != 0:
                self._rot_cols_A()

    def _finish_with_unit(self):
        """From diagonal P with P22 = 1, reach [[1,0],[0,P11]]."""
        p = self._p()
        if not (p[1][1] == 1 and p[0][1] == 0 and p[1][0] == 0):
            raise AssertionError("P is not diagonal with P22 = 1")
        v = p[0][0]
        self.op_row1(1)
        self.op_col1(1 - v)
        self.op_row2(-(1 - v))
        self.op_col2(-1)

    def _snf_to_one(self):
        """Drive diagonal P to [[1,0],[0,m]]; content must be 1."""
        while True:
            self._diagonalize()
            p = self._p()
            p11, p22 = p[0][0], p[1][1]
            if p11 == 1:
                return
            if abs(p11) != 1:
                if p22 == 0:
                    raise AssertionError("content > 1: divisibility was not 1")
                self.op_row1(1)   # fold and re-reduce; |P11| shrinks to gcd
                continue
            # p11 == -1: rotate to (-p22, 1) then finish with the unit
            self._rot_rows_B()
            self._rot_cols_A()
            self._diagonalize()
            if self._p()[1][1] == 1:
                self._finish_with_unit()
            # loop re-checks; handles p22 = 0 and sign flips uniformly

    def _w_part(self):
        return tuple(self.x[k] for k in self.w_idx)

    def _kill_w(self):
        """Phase 1: empty the complement of U1 + U2."""
        if all(v == 0 for v in self._w_part()):
            return
        self._diagonalize()   # now c = d = 0, w untouched
        # one pure move E(f2, y) with (y, alpha) = -1 sets the f2-coord to 1
        gx = dict(self.lat.gram_times(self.x))
        idxs = [self.e1, self.e2] + list(self.w_idx)
        vals = [gx.get(i, 0) for i in idxs]
        g, coeffs = _bezout_combo(vals)
        if g != 1:
            raise AssertionError("divisibility was not 1")
        y = [0] * self.lat.rank
        for i, c in zip(idxs, coeffs):
            y[i] = -c
        self._general_move(self.f2, y)
        if self.x[self.f2] != 1 or self.x[self.f1] != 0:
            raise AssertionError("pivot move did not set (c, d) = (0, 1)")
        # pivot on d = 1: E(f1, w) removes the whole remainder
        w = [0] * self.lat.rank
        for k in self.w_idx:
            w[k] = self.x[k]
        self._general_move(self.f1, w)
        if any(v != 0 for v in self._w_part()):
            raise AssertionError("pivot move left a remainder outside U1 + U2")

    def run(self):
        self._kill_w()
        self._snf_to_one()
        p = self._p()
        norm = self.lat.pair_coords(self.x, self.x)
        if (p != [[1, 0], [0, p[1][1]]]
                or tuple(self.x) != canonical_vector(self.lat, norm).coords):
            raise AssertionError("reduction did not reach canonical form")
        return self.word


def reduce_to_canonical(lattice, x):
    """Transvection word g with g(x) = e1 - (N/2) e2, for x primitive
    integral of divisibility 1."""
    if not isinstance(x, LatVec):
        x = lattice.vec(x)
    if not x.is_integral():
        raise NotIntegral("reduction needs an integral vector")
    if not x.is_primitive():
        raise NonPrimitiveLambda("reduction needs a primitive vector")
    if divisibility(lattice, x) != 1:
        raise DivisibilityMismatch(
            "transvection reduction implemented for divisibility 1 only")
    return _Reducer(lattice, x.coords).run()


def eichler_move(lattice, x, y):
    """Transvection word g with g(x) = y for primitive integral vectors of
    equal norm, equal divisibility (= 1), and equal discriminant class."""
    if not (isinstance(x, LatVec) and isinstance(y, LatVec)):
        raise LatticeError("eichler_move expects lattice vectors")
    if len(lattice.u_blocks) < 2:
        raise NoHyperbolicPlanes(
            "eichler_move needs two orthogonal hyperbolic planes")
    if x.norm() != y.norm():
        raise NormMismatch("norms differ: %s vs %s" % (x.norm(), y.norm()))
    dx, dy = divisibility(lattice, x), divisibility(lattice, y)
    if dx != dy:
        raise DivisibilityMismatch("divisibilities differ: %d vs %d" % (dx, dy))
    wx = reduce_to_canonical(lattice, x)
    wy = reduce_to_canonical(lattice, y)
    # both halves were checked as they were built
    word = TransvectionWord(lattice)
    word._data = wx._data + wy.inverse()._data
    if word.apply(x) != y:
        raise AssertionError("transvection word does not map x to y")
    return word


def move_into_L(lattice, alpha):
    """For Lambda = L + Z*delta and alpha = lambda + k*delta with lambda
    primitive in L, a transvection word g (inside Gamma) with g(alpha) the
    canonical vector of norm (alpha,alpha) in the first U of L."""
    di = lattice.delta_index
    if di is None:
        raise LatticeError("move_into_L needs an L + Z*delta lattice")
    if not alpha.is_integral():
        raise NotIntegral("move_into_L needs an integral vector")
    lam = [c for i, c in enumerate(alpha.coords) if i != di]
    if la.is_zero_vec(lam) or la.content(lam) != 1:
        raise NonPrimitiveLambda("the L-part must be primitive in L")
    reducer = _Reducer(lattice, alpha.coords)
    word = reducer.run()
    # run() checked the reducer's tracked image of alpha, so read it there
    if reducer.x[di] != 0:
        raise AssertionError("moved vector has a nonzero delta coordinate")
    return word
