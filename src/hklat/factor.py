"""Factorization of rational isometries into monodromies and reflections.

The target shape, for Lambda = L + Z*delta with L even unimodular containing
U + U and (delta,delta) = -2d < 0, is

    phi = (-1)^k  gamma_k rho_{u_k} ... gamma_1 rho_{u_1} gamma_0

with every gamma_i in the group Gamma (integral, orientation preserving,
acting by +-1 on the discriminant group) and every u_i a primitive integral
vector of the L-part with (u_i,u_i) >= 2.  decompose() produces such a
certificate for any phi in O^+(Lambda_Q) and checks it once with
verify_normal_form(), factor by factor and by recomposition, raising on a
failure (also under python -O); the same function checks untrusted
certificates.  A gamma's Gamma membership is decided by integrality, nu
and the discriminant action alone; det enters its certificate only when
NormalForm.certificates is read.  Every reflection, in reflect_times and in
NormalForm.evaluate, runs on the one integer kernel: _reflection reads
(u,u) and (Gu)^T m off the integer rows m, and _rank1_rows applies the
rank-1 update; evaluate carries the product as integer rows over one
denominator, with no isometry built per factor.
Every factor is built in Lambda itself.  Cartan-Dieudonne runs on the
delta-fixing residue as it stands, scanning integer candidates built once
per lattice from the lattice's one diagonalization: delta is one of its
rows and stays fixed, and a candidate z_i + delta moves as z_i alone, so
the scan picks the vectors it would pick on L, each in the L-part.  The
orthogonal search of the delta fix pairs its kernel vectors in Lambda
too.  The rewrite factor h, -1 on a hyperbolic plane and 1 on its
complement, is built in closed form as one integer rank-2 update; a
negative u lies in the L-part and so has divisibility 1 in Lambda, and
its rewrite runs in Lambda.
"""

from functools import reduce
from math import isqrt
from operator import mul

from . import linalg as la
from .errors import (DimensionMismatch, IsotropicLambda, IsotropicVector,
                     LatticeError, NormMismatch, NotIntegral,
                     OrientationReversing, SearchExhausted)
from .lattice import LatVec, QIsometry, in_group, membership, nu_character
from .transvect import (_step_columns, canonical_vector, move_into_L,
                        reduce_to_canonical)


def _reflection(lattice, nu, m):
    """(uu, r) for rho_u on integer rows m, for integer u = nu: uu = |(u,u)|
    and r = +-(Gu)^T m, the sign folded so that uu > 0 and
    rho_u m = (uu m - 2 u r^T) / uu.  Only the rows of m that Gu reaches
    are read."""
    gu = lattice.gram_times(nu)
    uu = sum([nu[i] * s for i, s in gu])
    if uu == 0:
        raise IsotropicVector("cannot reflect in an isotropic vector")
    if uu < 0:
        uu, gu = -uu, [(i, -s) for i, s in gu]
    (i, s), rest = gu[0], gu[1:]
    r = [s * y for y in m[i]]
    for i, s in rest:
        r = [x + s * y for x, y in zip(r, m[i])]
    return uu, r


def _rank1_rows(uu, rows, v, r):
    """uu rows - 2 v r^T as new integer rows, in one pass over the rows."""
    out = []
    for row, x in zip(rows, v):
        if x:
            c = 2 * x
            out.append([uu * y - c * z for y, z in zip(row, r)])
        else:
            out.append([uu * y for y in row])
    return out


def reflect(lattice, u):
    """rho_u(x) = x - 2(u,x)/(u,u) u."""
    if not isinstance(u, LatVec):
        u = lattice.vec(u)
    return reflect_times(lattice, u, QIsometry.identity(lattice))


def reflect_times(lattice, u, g):
    """rho_u o g on g's integer form, over g.d (u, u): the step of
    NormalForm.evaluate with gamma the identity.  rho_u depends only on
    the line of u, so u's numerators serve."""
    uu, r = _reflection(lattice, u.nums, g.nums)
    return QIsometry._of(lattice, _rank1_rows(uu, g.nums, u.nums, r),
                         g.d * uu)


def witt_map(lattice, x, y):
    """An isometry mapping x to y for (x,x) = (y,y) != 0.

    Returns (sign, w) with sign*rho_w the map: rho_{x-y} when x-y is
    anisotropic, else -rho_{x+y}; (None, None) encodes the identity when
    x = y.
    """
    nx, ny = x.norm(), y.norm()
    if nx != ny:
        raise NormMismatch("witt_map needs equal norms")
    if nx == 0:
        raise IsotropicVector("witt_map needs anisotropic vectors")
    if x == y:
        return None, None
    diff = x - y
    if diff.norm() != 0:
        return 1, diff
    s = x + y
    if s.norm() == 0:
        raise IsotropicVector("x - y and x + y are both isotropic")
    return -1, s


def witt_isometry(lattice, sign_w):
    sign, w = sign_w
    if sign is None:
        return QIsometry.identity(lattice)
    r = reflect(lattice, w)
    return r if sign == 1 else -r


def _cd_basis(lattice):
    """The orthogonal anisotropic basis z_1..z_n that cartan_dieudonne
    scans, the rows of the lattice's one diagonalization, kept per lattice:
    each z_i as its nonzero (index, numerator) pairs over its scale
    dx_i > 0, read off Lattice.scaled_diagonalization."""
    def build(lattice):
        return tuple([([(k, y) for k, y in enumerate(nums) if y], dx)
                      for nums, dx in lattice.scaled_diagonalization()[0]])
    return lattice.memo("cartan_dieudonne", build)


def _moved(g, nz):
    """d dx (g x - x) as integers, for x with nonzero numerators nz over
    dx: zero exactly when g fixes x, and isotropic exactly when g x - x
    is."""
    w = [sum([row[k] * y for k, y in nz]) for row in g.nums]
    for k, y in nz:
        w[k] -= g.d * y
    return w


def _cd_candidate(g, basis, ws, i, j):
    """(moved, den) for the candidate x = z_i (j None) or z_i + z_j (i < j)
    of _cd_basis: moved is the integer vector den (g x - x).  ws caches
    W_k = d dx_k (g z_k - z_k), computed on first use, and a pair's moved
    vector is dx_j W_i + dx_i W_j over d dx_i dx_j."""
    for k in (i, j):
        if k is not None and ws[k] is None:
            ws[k] = _moved(g, basis[k][0])
    di = basis[i][1]
    if j is None:
        return ws[i], g.d * di
    dj = basis[j][1]
    return [dj * x + di * y for x, y in zip(ws[i], ws[j])], g.d * di * dj


def cartan_dieudonne(lattice, f):
    """Reflection vectors w_1..w_m (LatVecs) with
    rho_{w_1} o ... o rho_{w_m} = f and m <= rank.

    Standard constructive argument: while f != id, find x with
    w := f(x) - x anisotropic (such x exists among z_i and z_i + z_j for an
    orthogonal basis z unless the moved space is totally isotropic, in
    which case one extra reflection breaks the degeneracy).  The scan runs
    on integers: _cd_candidate forms each candidate's moved vector from
    the rows z_i of _cd_basis, and only the accepted w is divided back
    out.
    """
    basis = _cd_basis(lattice)
    n = lattice.rank
    order = ([(i, None) for i in range(n)]
             + [(i, j) for i in range(n) for j in range(i + 1, n)])
    # once a candidate is fixed it stays fixed: each step's reflection
    # vector pairs to zero with every vector the current isometry fixes
    fixed = [False] * len(order)
    refs = []
    g = f
    budget = n + 4
    while not g.is_identity():
        if budget <= 0:
            raise AssertionError("cartan_dieudonne failed to terminate")
        budget -= 1
        found = None
        ws = [None] * n
        for idx, (i, j) in enumerate(order):
            if fixed[idx]:
                continue
            w, den = _cd_candidate(g, basis, ws, i, j)
            if not any(w):
                fixed[idx] = True
                continue
            if lattice.pair_nums(w, w):
                found = LatVec._from_nums(lattice, w, den)
                break
        if found is None:
            # moved space totally isotropic: compose with one reflection
            # in an anisotropic basis vector z that g actually moves
            for i in range(n):
                if any(_cd_candidate(g, basis, ws, i, None)[0]):
                    found = LatVec._from_nums(
                        lattice, *lattice.scaled_diagonalization()[0][i])
                    fixed = [False] * len(order)
                    break
            else:
                raise AssertionError(
                    "non-identity isometry fixing an anisotropic basis")
        refs.append(found)
        g = reflect_times(lattice, found, g)
    if len(refs) > n:
        raise AssertionError("reflection count exceeded the rank")
    return refs


# ---------------------------------------------------------------------------
# L + Z*delta helpers


def _d_value(lattice):
    dd = -lattice.gram[lattice.delta_index][lattice.delta_index]
    if dd <= 0 or dd % 2 != 0:
        raise NormMismatch("(delta,delta) must be negative and even")
    return int(dd) // 2


def neg_reflection_u_delta(lattice, u):
    """-rho_{u+delta} for u in L with (u,u) = 2d+2; a Gamma element."""
    v = u + lattice.basis_vec(lattice.delta_index)
    if v.norm() != 2:
        raise NormMismatch("u + delta has norm %s, not 2" % (v.norm(),))
    return -reflect(lattice, v)


_HEIGHT = 64


def find_orthogonal_norm_vector(lattice, lam, target):
    """u in the L-part with (u,u) = target and (u, lam) = 0.

    Scans the U summands missing from lam's support first, then falls back
    to an enumeration over pairs from an integral basis of the orthogonal
    complement of lam in L, with coefficients up to _HEIGHT: the kernel of
    lam's functional on the L coordinates, each kernel vector with 0 put
    back at delta and paired in Lambda itself.
    """
    di = lattice.delta_index
    n = lattice.rank
    if target % 2 or target <= 0:
        raise NormMismatch("the target norm must be even and positive, not %s"
                           % (target,))
    for (i, j) in lattice.u_blocks:
        if lam.nums[i] == 0 and lam.nums[j] == 0:
            c = [0] * n
            c[i] = 1
            c[j] = -target // 2
            return LatVec._from_nums(lattice, c)
    # orthogonal-complement enumeration: lam-perp inside the L-part
    # G lam on lam's integer numerators: a positive multiple, so the same
    # primitive functional
    glam = dict(lattice.gram_times(lam.nums))
    row = [glam.get(i, 0) for i in range(n) if i != di]
    if not any(row):
        raise AssertionError("lam = 0 should have been caught by the U scan")
    d, u, v = la.smith_normal_form([la.primitive_part(row)])
    # kernel basis of the functional: columns 1.. of v, in Lambda
    kb = []
    m = len(row)
    for c in range(1, m):
        col = [v[r][c] for r in range(m)]
        col.insert(di, 0)
        kb.append(col)
    pair = lattice.pair_nums
    for a in range(len(kb)):
        qaa = pair(kb[a], kb[a])
        for s in range(1, _HEIGHT + 1):
            if qaa * s * s == target:
                return LatVec._from_nums(lattice, [s * x for x in kb[a]])
    for a in range(len(kb)):
        qaa = pair(kb[a], kb[a])
        for b in range(a + 1, len(kb)):
            qab = pair(kb[a], kb[b])
            qbb = pair(kb[b], kb[b])
            for s in range(-_HEIGHT, _HEIGHT + 1):
                t = _least_root(qbb, qab * s, qaa * s * s - target)
                if t is not None:
                    return LatVec._from_nums(lattice, [
                        s * x + t * y for x, y in zip(kb[a], kb[b])])
    raise SearchExhausted(
        "no orthogonal vector of norm %d within height %d" % (target, _HEIGHT))


def _least_root(a, b, c):
    """The least integer t with |t| <= _HEIGHT and a t^2 + 2 b t + c = 0,
    None when there is none: the first hit of a scan over t upwards.  With
    a = 0 the equation is linear, and with b = 0 as well every t solves it
    when c = 0, so the least is -_HEIGHT.  Otherwise the roots are
    (-b +- r) / a for r^2 = b^2 - a c, integral only when r is."""
    if a == 0:
        if b == 0:
            return -_HEIGHT if c == 0 else None
        t, rem = divmod(-c, 2 * b)
        return t if rem == 0 and abs(t) <= _HEIGHT else None
    disc = b * b - a * c
    if disc < 0:
        return None
    r = isqrt(disc)
    if r * r != disc:
        return None
    roots = [t for t, rem in (divmod(-b - r, a), divmod(-b + r, a))
             if rem == 0 and abs(t) <= _HEIGHT]
    return min(roots) if roots else None


def _delta_fix_vector(lattice, work, lam, target):
    """A norm-target vector u of the L-part such that pre-composing work
    with -rho_{u+delta} gives a delta-image with anisotropic L-part.

    An orthogonal u always works and is searched for first; when the
    bounded orthogonal search is exhausted, any candidate whose outcome
    passes the exact anisotropy check is equally certified.
    """
    delta = lattice.basis_vec(lattice.delta_index)

    def outcome_ok(u):
        c = neg_reflection_u_delta(lattice, u)
        lam2, _ = _split_delta(lattice, (c * work).apply(delta))
        return lam2.norm() != 0

    try:
        u = find_orthogonal_norm_vector(lattice, lam, target)
        if outcome_ok(u):
            return u
    except SearchExhausted:
        pass
    m = target // 2
    candidates = []
    for (i, j) in lattice.u_blocks:
        for (a, b) in ((1, -m), (-1, m), (m, -1), (-m, 1)):
            c = [0] * lattice.rank
            c[i], c[j] = a, b
            candidates.append(LatVec._from_nums(lattice, c))
    for (i, j) in lattice.u_blocks:
        for (k, l) in lattice.u_blocks:
            if (i, j) == (k, l):
                continue
            for s in (1, -1, 2, -2):
                # -2(1)(s-m) - 2(s)(-1) = 2m exactly
                c = [0] * lattice.rank
                c[i], c[j] = 1, s - m
                c[k], c[l] = s, -1
                candidates.append(LatVec._from_nums(lattice, c))
    for u in candidates:
        if u.norm() != target:
            raise NormMismatch("candidate has norm %s, not %d"
                               % (u.norm(), target))
        if outcome_ok(u):
            return u
    raise SearchExhausted("no usable norm-%d vector for the delta fix" % target)


def _plane_negation(lattice, n1, n2):
    """The isometry that is -1 on the plane of the isotropic integer
    vectors n1, n2 and 1 on its orthogonal complement."""
    g1, g2 = lattice.gram_times(n1), lattice.gram_times(n2)
    c = sum([n1[k] * s for k, s in g2])
    # h = (c - 2 F) / c for F = n1 (G n2)^T + n2 (G n1)^T, with the sign
    # of c folded into the numerators
    d, two = (c, -2) if c > 0 else (-c, 2)
    rows = [[0] * lattice.rank for _ in range(lattice.rank)]
    for r, row in enumerate(rows):
        row[r] = d
    for x, gy in ((n1, g2), (n2, g1)):
        for r, xr in enumerate(x):
            if xr:
                row, xr = rows[r], two * xr
                for t, s in gy:
                    row[t] += xr * s
    return QIsometry._of(lattice, rows, d)


def positive_reflection_rewrite(lattice, u):
    """For primitive integral u of divisibility 1 with (u,u) = -2m < 0 in a
    lattice containing U + U: h integral and w with (w,w) = 2m and
    rho_u = h rho_w.  A primitive u of the L-part of L + Z*delta qualifies,
    since L is unimodular and (u, delta) = 0.

    h = g^-1 sigma g and w = g^-1(e1 - m e2) for the transvection word g
    moving u to the canonical vector e1 + m e2, where sigma is -id on
    U1 = (e1, e2) and id on its complement.
    """
    uu = u.norm()
    if uu >= 0:
        raise NormMismatch("rewrite applies to negative-norm vectors")
    m = -uu // 2
    ginv = reduce_to_canonical(lattice, u).inverse()   # e1 + m e2 -> u
    i, j = lattice.u_blocks[0]
    # f1, f2 = g^-1 e_i, g^-1 e_j, from one integer pass over (e_i, e_j)
    cols = [[int(k == c) for k in range(lattice.rank)] for c in (i, j)]
    d = _step_columns(ginv._data, cols)
    f1, f2 = (LatVec._from_nums(lattice, c, d) for c in cols)
    # sigma is -1 on U1 and 1 on its complement, so its conjugate h is -1
    # on the hyperbolic plane (f1, f2) and 1 on its complement
    h = _plane_negation(lattice, f1.nums, f2.nums)
    # rho_{e1+m e2} = sigma o rho_{e1-m e2}, and (e1 - m e2)^2 = 2m
    w = f1 - m * f2
    # rho_u = h rho_w itself is covered by the recomposition check that
    # every decompose() result passes
    if w.norm() != 2 * m:
        raise AssertionError("rewritten vector has norm %s, not %d"
                             % (w.norm(), 2 * m))
    if not h.is_integral():
        raise AssertionError("rewrite factor h is not integral")
    return h, w


# ---------------------------------------------------------------------------
# the normal form


class NormalForm:
    """(-1)^k gamma_k rho_{u_k} ... gamma_1 rho_{u_1} gamma_0.

    us[0] is u_1 (applied first); gammas[0] is gamma_0.  Construction
    checks only the shape: the counts, and that every gamma and u lives on
    the form's own lattice.  Whether each gamma lies in Gamma is decided
    by integrality, nu and the discriminant action alone, once, on first
    use; det enters a gamma's certificate only when the certificates are
    read.  Both are kept, and so are the characters each gamma's decision
    read, which its certificate then reuses.
    """

    __slots__ = ("lattice", "k", "gammas", "us", "_chars", "_memberships",
                 "_certificates")

    def __init__(self, lattice, k, gammas, us):
        if k != len(us) or len(gammas) != k + 1:
            raise DimensionMismatch(
                "a normal form with k = %s needs k vectors u and k + 1 "
                "gammas, not %d and %d" % (k, len(us), len(gammas)))
        if any(x.lattice != lattice for x in (*gammas, *us)):
            raise DimensionMismatch(
                "a factor of the normal form lives in another lattice")
        self.lattice = lattice
        self.k = k
        self.gammas = tuple(gammas)
        self.us = tuple(us)
        self._chars = [{} for _ in self.gammas]
        self._memberships = self._certificates = None

    def memberships(self):
        """Whether each gamma lies in Gamma, by in_group(gamma, "Gamma"):
        integral, nu = +1 and +-1 on the discriminant group, with no
        determinant computed."""
        if self._memberships is None:
            self._memberships = tuple(in_group(g, "Gamma", c)
                                      for g, c in zip(self.gammas, self._chars))
        return self._memberships

    @property
    def certificates(self):
        """The full Gamma-membership certificate of each gamma,
        membership(gamma, "Gamma")[1] with det included, built on first
        read from the characters memberships() kept and the missing ones."""
        if self._certificates is None:
            self._certificates = tuple(
                membership(g, "Gamma", c)[1]
                for g, c in zip(self.gammas, self._chars))
        return self._certificates

    def evaluate(self):
        """The product, carried as integer rows m over one denominator d.

        Each factor is one integer step,
        gamma rho_u m = (uu gamma m - 2 (gamma u) r^T) / uu, with (uu, r)
        from _reflection on the running rows: gamma's numerators multiply
        the unscaled rows in one la.int_mat_mul, gamma u is one sparse
        product, and _rank1_rows applies the correction and the uu scaling
        in one pass; the content is then divided out of the rows over
        d uu gamma.d.  A non-integral gamma, a rational u (by its line)
        and a u of negative norm are exact; an isotropic u raises
        IsotropicVector.
        """
        lat = self.lattice
        m, d = self.gammas[0].nums, self.gammas[0].d
        for u, gamma in zip(self.us, self.gammas[1:]):
            nu = u.nums
            uu, r = _reflection(lat, nu, m)
            nz = [(k, y) for k, y in enumerate(nu) if y]
            gu = [sum([row[k] * y for k, y in nz]) for row in gamma.nums]
            m, d = la.reduce_scaled(
                _rank1_rows(uu, la.int_mat_mul(gamma.nums, m), gu, r),
                d * uu * gamma.d)
        if self.k % 2:
            m = [[-x for x in row] for row in m]
        return QIsometry._of(lat, m, d)


def _split_delta(lattice, v):
    """(lambda, t) with v = lambda + t*delta, lambda in the L-part."""
    di = lattice.delta_index
    if di is None:
        raise LatticeError("lattice has no delta summand")
    lam = list(v.nums)
    t, lam[di] = la.quotient(lam[di], v.d), 0
    return LatVec._from_nums(lattice, lam, v.d), t


def _move_rational_items(lattice, x):
    """Word g with g(x) in L_Q, as (isometry, inverse-aware item list).

    g = h o f:  f a Witt reflection in L_Q sending q*lam to the canonical
    primitive vector, h a transvection word in Gamma.  Items describe g
    up to sign, in outer-to-inner order, for certificate assembly.
    """
    lam, t = _split_delta(lattice, x)
    nl = lam.norm()
    if nl == 0:
        raise IsotropicLambda("the L-part must be anisotropic")
    q = x.d
    lam_q = q * lam
    target_norm = q * q * nl
    lam_prime = canonical_vector(lattice, target_norm)
    f_sw = witt_map(lattice, lam_q, lam_prime)
    f_iso = witt_isometry(lattice, f_sw)
    alpha = f_iso.apply(q * x)
    if not alpha.is_integral():
        raise NotIntegral("the Witt map left q*x non-integral")
    word = move_into_L(lattice, alpha)
    h_iso = word.isometry()
    g = h_iso * f_iso
    items = [("gamma", h_iso)]
    if f_sw[0] is not None:
        items.append(("refl", f_sw[1]))
    return g, items


def _invert_items(items):
    """Items of the inverse word, outer-to-inner."""
    return [("gamma", x.inverse()) if kind == "gamma" else (kind, x)
            for kind, x in reversed(items)]


def _reference_vector(lattice):
    """(c0, g1, g1 items, y0): c0 = -rho_{u0+delta} for the canonical u0
    of norm 2d+2, and y0 = g1(c0(delta)) in L_Q, kept per lattice."""
    def build(lattice):
        d = _d_value(lattice)
        c0 = neg_reflection_u_delta(lattice, canonical_vector(lattice, 2 * d + 2))
        x = c0.apply(lattice.basis_vec(lattice.delta_index))
        g1, g1_items = _move_rational_items(lattice, x)
        return c0, g1, g1_items, g1.apply(x)
    return lattice.memo("decompose_ref", build)


def decompose(lattice, phi):
    """Normal-form certificate for phi in O^+(Lambda_Q)."""
    if lattice.delta_index is None:
        raise LatticeError("decompose needs an L + Z*delta lattice")
    if nu_character(phi) != 1:
        raise OrientationReversing("decompose requires nu(phi) = +1")
    if phi.is_integral():
        ok, cert = membership(phi, "Gamma")
        if ok:
            # phi in Gamma is its own certificate
            nf = NormalForm(lattice, 0, [phi], [])
            nf._memberships, nf._certificates = (ok,), (cert,)
            return nf

    d = _d_value(lattice)
    delta = lattice.basis_vec(lattice.delta_index)
    factors = []      # outer-to-inner items composing to +-phi o work^-1
    work = phi

    def push_left(c_iso, c_inv_items):
        nonlocal work
        work = c_iso * work
        factors.extend(c_inv_items)

    def push_witt(sw):
        nonlocal work
        if sw[0] is None:
            return
        work = reflect_times(lattice, sw[1], work)
        if sw[0] == -1:
            work = -work
        factors.append(("refl", sw[1]))

    if work.apply(delta) != delta:
        x = work.apply(delta)
        lam, t = _split_delta(lattice, x)
        if lam.norm() == 0:
            u = _delta_fix_vector(lattice, work, lam, 2 * d + 2)
            # c = -rho_{u+delta} is an involution in Gamma: c^-1 = c
            c = neg_reflection_u_delta(lattice, u)
            push_left(c, [("gamma", c)])
            x = work.apply(delta)
            lam, t = _split_delta(lattice, x)
            if lam.norm() == 0:
                raise IsotropicLambda(
                    "the L-part is still isotropic after the delta fix")
        g2, g2_items = _move_rational_items(lattice, x)
        push_left(g2, _invert_items(g2_items))

        c0, g1, g1_items, y0 = _reference_vector(lattice)
        cur = work.apply(delta)
        push_witt(witt_map(lattice, cur, y0))
        push_left(g1.inverse(), g1_items)
        push_left(c0, [("gamma", c0)])
        if work.apply(delta) != delta:
            raise LatticeError("the delta-moving words do not fix delta")

    # residue in O(L_Q): work fixes delta, so cartan_dieudonne on Lambda
    # itself returns vectors of the L-part
    for w in cartan_dieudonne(lattice, work):
        factors.append(("refl", w))

    return _assemble(lattice, phi, factors)


def _assemble(lattice, phi, factors):
    """Normalize an outer-to-inner item list into a NormalForm."""
    normalized = []
    for item in factors:
        if item[0] != "refl":
            normalized.append(item)
            continue
        u = item[1].primitive_part()
        if u.norm() > 0:
            normalized.append(("refl", u))
        else:
            h, w = positive_reflection_rewrite(lattice, u)
            normalized.append(("gamma", h))
            normalized.append(("refl", w))
    # collapse: [gamma-run] refl [gamma-run] ... refl [gamma-run], with
    # each gamma of nu = -1 negated into Gamma; a run starts from its first
    # factor, and an empty run is the identity
    runs = [[]]       # the gamma-runs, gamma_k's first (outer-to-inner scan)
    us_rev = []
    for kind, x in normalized:
        if kind == "gamma":
            runs[-1].append(-x if nu_character(x) == -1 else x)
        else:
            us_rev.append(x)
            runs.append([])
    gammas_rev = [reduce(mul, run) if run else QIsometry.identity(lattice)
                  for run in runs]
    # the items compose to phi up to sign; the sign is (-1)^k, and this one
    # check certifies it together with the rewrites and every gamma
    nf = NormalForm(lattice, len(us_rev), list(reversed(gammas_rev)),
                    list(reversed(us_rev)))
    report = verify_normal_form(nf, phi)
    if not report["ok"]:
        raise AssertionError(report)
    return nf


def verify_normal_form(nf, phi):
    """Exact verification of a normal-form certificate.

    Each gamma's Gamma membership is decided by NormalForm.memberships,
    with no determinant; a failing gamma's entry carries its full
    certificate, det included, from NormalForm.certificates.
    """
    report = {"ok": True, "failures": [], "k": nf.k}
    lat = nf.lattice
    di = lat.delta_index
    for i, ok in enumerate(nf.memberships()):
        if not ok:
            report["ok"] = False
            report["failures"].append(("gamma", i, nf.certificates[i]))
    for i, u in enumerate(nf.us):
        problems = []
        if not u.is_integral():
            problems.append("not integral")
        elif not u.is_primitive():
            problems.append("not primitive")
        if di is not None and u.nums[di] != 0:
            problems.append("not in the L-part")
        if u.norm() < 2:
            problems.append("norm < 2")
        if problems:
            report["ok"] = False
            report["failures"].append(("u", i, problems))
    if nf.evaluate() != phi:
        report["ok"] = False
        report["failures"].append(("recomposition", None, "product != phi"))
    return report
