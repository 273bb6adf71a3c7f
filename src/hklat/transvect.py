"""Eichler transvections and the constructive reduction to a canonical vector.

The transvection attached to an isotropic e and a vector a orthogonal to e is

    E(e,a)(x) = x + (e,x) (a - (a,a)/2 e) - (a,x) e,

an integral isometry with determinant +1, trivial discriminant action and
nu = +1.

For a lattice containing two orthogonal hyperbolic planes U1 = (e1,e2),
U2 = (f1,f2), the group generated by transvections acts transitively on
primitive vectors of fixed norm and divisibility 1; the reduction below
maps such a vector to the canonical e1 - (N/2) e2 and records the word of
transvections.

The reduction works on the 2x2 integer matrix

    P = [[a, d], [c, -b]]       (alpha = a e1 + b e2 + c f1 + d f2 + w)

on which the four transvections E(e1, k f1), E(f2, k e2), E(e1, k f2),
E(f1, k e2) act as the elementary SL2 x SL2 row/column additions, fixing
w.  Smith reduction of P plus two pivot moves eliminating the remainder w
give the canonical form.

A word is a list of items, and every transvection, word and word isometry
here runs through the one integer kernel _step_columns, which applies the
items first to last to integer columns over one denominator:

- a block, one maximal run of the reduction's elementary moves: a pair
  (L, R) in SL2(Z) x SL2(Z) acting as P -> L P R, plus the run's list of
  moves (i, j, k), one E(e_i, k e_j) each.  The lattice declares its
  hyperbolic planes orthogonal to every other basis vector, so a run
  reads and changes only the four U coordinates of any column, and a
  block costs O(1) per column however long its run.  Its inverse is
  (adj L, adj R) with the moves reversed and negated.  The reducer keeps
  P, L and R as integers and updates them per move, at the cost of a few
  small integer operations and one list append; no elementary move builds
  step data or runs the kernel.
- a general step E(e, a): the integers (e, a, G e, G a, (a,a)), checked
  by _step_data.  It reads the pairings (e,x), (a,x) off the nonzero
  entries of G e and G a and changes only the coordinates in
  supp(e) + supp(a).  Words built from (e, a) pairs, and the reduction's
  two pivot moves, are made of these.

A word rebuilds its steps (e, a) as int tuples on request, a block move
E(e_i, k e_j) as (e_i, k e_j).
"""

from math import gcd

from . import linalg as la
from .errors import (DimensionMismatch, DivisibilityMismatch, LatticeError,
                     NoHyperbolicPlanes, NonPrimitiveLambda, NormMismatch,
                     NotIntegral, SearchExhausted)
from .lattice import LatVec, QIsometry, divisibility

_MAX_REDUCE_STEPS = 20000


def _step_data(lattice, e, a):
    """One step E(e, a), for integer coordinates e and a, as integers: the
    nonzero (index, entry) pairs of e, a, G e and G a, and (a,a)."""
    if len(e) != lattice.rank or len(a) != lattice.rank:
        raise DimensionMismatch("coordinate length does not match rank")
    if not all([type(x) is int for x in (*e, *a)]):
        raise NotIntegral("transvection data must be integral")
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


class _Block:
    """A run of elementary moves on the planes u = (e1, e2, f1, f2) of a
    word: P -> L P R, with l and r the entries (m11, m12, m21, m22) of L
    and R, and moves the run's (i, j, k), one E(e_i, k e_j) each."""

    __slots__ = ("u", "l", "r", "moves")

    def __init__(self, u, l, r, moves):
        self.u, self.l, self.r, self.moves = u, l, r, moves

    def inverse(self):
        # det L = det R = 1, so their inverses are their adjugates
        (a, b, c, d), (p, q, s, t) = self.l, self.r
        return _Block(self.u, (d, -b, -c, a), (t, -q, -s, p),
                      [(i, j, -k) for i, j, k in reversed(self.moves)])

    def apply(self, cols):
        """P -> L P R on each column's U coordinates, in place."""
        e1, e2, f1, f2 = self.u
        (l11, l12, l21, l22), (r11, r12, r21, r22) = self.l, self.r
        for c in cols:
            p11, p12, p21, p22 = c[e1], c[f2], c[f1], -c[e2]
            q11, q12 = l11 * p11 + l12 * p21, l11 * p12 + l12 * p22
            q21, q22 = l21 * p11 + l22 * p21, l21 * p12 + l22 * p22
            c[e1], c[f2] = q11 * r11 + q12 * r21, q11 * r12 + q12 * r22
            c[f1], c[e2] = q21 * r11 + q22 * r21, -q21 * r12 - q22 * r22


def _step_columns(data, cols):
    """Apply the word items (blocks and step data), first to last, to
    integer columns in place.

    cols holds numerators over a common denominator; the returned factor
    (1, or a power of 2 when an odd (a,a) meets an odd (e,x)) multiplies
    that denominator.  Blocks have (a,a) = 0 and never scale.
    """
    scale = 1
    for item in data:
        if type(item) is _Block:
            item.apply(cols)
            continue
        e, a, ge, ga, aa = item
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


def _inverse_item(item):
    if type(item) is _Block:
        return item.inverse()
    # E(e, a)^-1 = E(e, -a): negate a and G a, keep e, G e and (a,a)
    e, a, ge, ga, aa = item
    return e, [(i, -x) for i, x in a], ge, [(i, -x) for i, x in ga], aa


def eichler_transvection(lattice, e, a):
    """E(e,a) as a certified isometry.  e, a must be integral."""
    if not (e.is_integral() and a.is_integral()):
        raise NotIntegral("transvection data must be integral")
    if e.norm() != 0:
        raise LatticeError("transvection base vector must be isotropic")
    if e.pair(a) != 0:
        raise LatticeError("transvection requires (e,a) = 0")
    iso = TransvectionWord(lattice, [(e.nums, a.nums)]).isometry()
    # trusted path double-checked cheaply on the defining relations
    if iso.apply(e) != e:
        raise AssertionError("transvection does not fix its base vector")
    return iso


class TransvectionWord:
    """An ordered word of transvections; the first step is applied first.

    _data holds the word's items in order: blocks of elementary moves from
    the reduction and general steps as the kernel integers of _step_data.
    """

    __slots__ = ("lattice", "_data")

    def __init__(self, lattice, steps=()):
        self.lattice = lattice
        self._data = [_step_data(lattice, e, a) for e, a in steps]

    @property
    def steps(self):
        """The (e, a) coordinates of each step, as int tuples."""
        n = self.lattice.rank
        out = []
        for item in self._data:
            if type(item) is _Block:
                out += [(_dense(((i, 1),), n), _dense(((j, k),), n))
                        for i, j, k in item.moves]
            else:
                out.append((_dense(item[0], n), _dense(item[1], n)))
        return out

    def append(self, e_coords, a_coords):
        self._data.append(_step_data(self.lattice, e_coords, a_coords))

    def apply(self, v):
        x = list(v.nums)
        d = v.d * _step_columns(self._data, [x])
        return LatVec._from_nums(self.lattice, x, d)

    def isometry(self):
        """The word as an isometry, run on the identity's integer columns."""
        cols = [list(c) for c in la.identity(self.lattice.rank)]
        d = _step_columns(self._data, cols)
        return QIsometry._of(self.lattice, la.transpose(cols), d)

    def inverse(self):
        inv = TransvectionWord(self.lattice)
        inv._data = [_inverse_item(item) for item in reversed(self._data)]
        return inv

    def __len__(self):
        return sum([len(item.moves) if type(item) is _Block else 1
                    for item in self._data])


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
    return LatVec._from_nums(lattice, c)


class _Reducer:
    """Stateful reduction of one primitive divisibility-1 integer vector to
    the canonical vector, recording a transvection word.

    The open block's P, L and R are kept as flat integer lists p, l and r
    (entries m11, m12, m21, m22); x holds the vector as of the last
    flush, and its coordinates outside U1 + U2 are always current."""

    def __init__(self, lattice, nums):
        if len(lattice.u_blocks) < 2:
            raise NoHyperbolicPlanes(
                "reduction needs two orthogonal hyperbolic planes")
        self.lat = lattice
        self.e1, self.e2 = lattice.u_blocks[0]
        self.f1, self.f2 = lattice.u_blocks[1]
        self.u_idx = (self.e1, self.e2, self.f1, self.f2)
        self.w_idx = tuple(k for k in range(lattice.rank) if k not in self.u_idx)
        self.x = list(nums)
        self.word = TransvectionWord(lattice)
        self.budget = _MAX_REDUCE_STEPS
        self.p, self.l, self.r, self.moves = [0] * 4, [0] * 4, [0] * 4, []
        self._open()

    def _open(self):
        """Open an empty block at x."""
        x = self.x
        self.p[:] = x[self.e1], x[self.f2], x[self.f1], -x[self.e2]
        self.l[:] = self.r[:] = 1, 0, 0, 1
        self.moves = []

    def _flush(self):
        """Write P back into x, record the open block if it has moves, and
        open the next one."""
        x, p = self.x, self.p
        x[self.e1], x[self.f2], x[self.f1], x[self.e2] = p[0], p[1], p[2], -p[3]
        if self.moves:
            self.word._data.append(_Block(self.u_idx, tuple(self.l),
                                          tuple(self.r), self.moves))
        self._open()

    def _spend(self):
        self.budget -= 1
        if self.budget <= 0:
            raise SearchExhausted("transvection reduction exceeded step budget")

    def _general_move(self, i, a):
        """E(e_i, a) for an integer list a, its data checked by _step_data,
        as a step of its own between blocks."""
        e = [0] * self.lat.rank
        e[i] = 1
        data = _step_data(self.lat, e, a)
        self._flush()
        self._spend()
        self.word._data.append(data)
        if _step_columns([data], [self.x]) != 1:
            raise NotIntegral("a reduction step left the integers")
        self._open()

    # -- the four elementary SL2 x SL2 moves ------------------------------
    # each spends one step, records E(e_i, k e_j) and updates P with L
    # (rows: P -> M P, L -> M L) or with R (columns: P -> P M, R -> R M)
    def op_col1(self, k):   # P: col1 += k col2   <->  E(e1, k f1)
        if k:
            self._spend()
            self.moves.append((self.e1, self.f1, k))
            p, r = self.p, self.r
            p[0] += k * p[1]
            p[2] += k * p[3]
            r[0] += k * r[1]
            r[2] += k * r[3]

    def op_col2(self, k):   # P: col2 += k col1   <->  E(f2, k e2)
        if k:
            self._spend()
            self.moves.append((self.f2, self.e2, k))
            p, r = self.p, self.r
            p[1] += k * p[0]
            p[3] += k * p[2]
            r[1] += k * r[0]
            r[3] += k * r[2]

    def op_row1(self, k):   # P: row1 += k row2   <->  E(e1, k f2)
        if k:
            self._spend()
            self.moves.append((self.e1, self.f2, k))
            p, l = self.p, self.l
            p[0] += k * p[2]
            p[1] += k * p[3]
            l[0] += k * l[2]
            l[1] += k * l[3]

    def op_row2(self, k):   # P: row2 += k row1   <->  E(f1, k e2)
        if k:
            self._spend()
            self.moves.append((self.f1, self.e2, k))
            p, l = self.p, self.l
            p[2] += k * p[0]
            p[3] += k * p[1]
            l[2] += k * l[0]
            l[3] += k * l[1]

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
        p = self.p
        while True:
            if p[1] == 0 and p[2] == 0:
                return
            if p[0] == 0:
                # the loop has returned unless P12 or P21 is nonzero
                if p[2] != 0:
                    self.op_row1(1)
                else:
                    self.op_col1(1)
                continue
            if p[2] != 0:
                self.op_row2(-(p[2] // p[0]))
                if p[2] != 0:
                    self._rot_rows_B()
                continue
            self.op_col2(-(p[1] // p[0]))
            if p[1] != 0:
                self._rot_cols_A()

    def _finish_with_unit(self):
        """From diagonal P with P22 = 1, reach [[1,0],[0,P11]]."""
        p = self.p
        if not (p[3] == 1 and p[1] == 0 and p[2] == 0):
            raise AssertionError("P is not diagonal with P22 = 1")
        v = p[0]
        self.op_row1(1)
        self.op_col1(1 - v)
        self.op_row2(-(1 - v))
        self.op_col2(-1)

    def _snf_to_one(self):
        """Drive diagonal P to [[1,0],[0,m]]; content must be 1."""
        p = self.p
        while True:
            self._diagonalize()
            p11, p22 = p[0], p[3]
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
            if p[3] == 1:
                self._finish_with_unit()
            # loop re-checks; handles p22 = 0 and sign flips uniformly

    def _w_part(self):
        return tuple(self.x[k] for k in self.w_idx)

    def _kill_w(self):
        """Phase 1: empty the complement of U1 + U2."""
        if all(v == 0 for v in self._w_part()):
            return
        self._diagonalize()   # now c = d = 0, w untouched
        self._flush()
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
        self._flush()
        norm = self.lat.pair_nums(self.x, self.x)
        if tuple(self.x) != canonical_vector(self.lat, norm).nums:
            raise AssertionError("reduction did not reach canonical form")
        return self.word


def reduce_to_canonical(lattice, x):
    """Transvection word g with g(x) = e1 - (N/2) e2, for x primitive
    integral of divisibility 1."""
    if not x.is_integral():
        raise NotIntegral("reduction needs an integral vector")
    if not x.is_primitive():
        raise NonPrimitiveLambda("reduction needs a primitive vector")
    if divisibility(lattice, x) != 1:
        raise DivisibilityMismatch(
            "transvection reduction implemented for divisibility 1 only")
    return _Reducer(lattice, x.nums).run()


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
    if gcd(*[c for i, c in enumerate(alpha.nums) if i != di]) != 1:
        raise NonPrimitiveLambda("the L-part must be primitive in L")
    reducer = _Reducer(lattice, alpha.nums)
    word = reducer.run()
    # run() checked the reducer's tracked image of alpha, so read it there
    if reducer.x[di] != 0:
        raise AssertionError("moved vector has a nonzero delta coordinate")
    return word
