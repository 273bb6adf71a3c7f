"""The extended lattice Q*alpha + Lambda_Q + Q*beta and its operator calculus.

Basis order is (alpha, lattice basis..., beta) with alpha, beta isotropic,
(alpha,beta) = -1, both orthogonal to the middle block.  The grading
operator h multiplies alpha by -2 and beta by +2; cup product with lambda
is modelled by the nilpotent e_lambda sending alpha -> lambda -> (.,.)beta;
its exponential B_lambda = 1 + e + e^2/2 is the B-field isometry.
"""

from math import factorial

from . import linalg as la
from .errors import (DimensionMismatch, IsotropicVector, LatticeError,
                     NotGraded, NotIntegral)
from .lattice import LatVec, Lattice, QIsometry


class LLVSpace:
    """Q*alpha + base_Q + Q*beta with the extended pairing."""

    __slots__ = ("base", "dim", "lattice", "alpha_index", "beta_index",
                 "h_diag")

    def __init__(self, base):
        r = base.rank
        g = [[0] * (r + 2) for _ in range(r + 2)]
        g[0][r + 1] = -1
        g[r + 1][0] = -1
        for i in range(r):
            for j in range(r):
                g[1 + i][1 + j] = int(base.gram[i][j])
        di = None if base.delta_index is None else base.delta_index + 1
        self.base = base
        self.dim = r + 2
        self.lattice = Lattice(g, name="llv(%s)" % (base.name or "custom"),
                               delta_index=di)
        self.alpha_index = 0
        self.beta_index = r + 1
        self.h_diag = (-2,) + (0,) * r + (2,)   # the grading operator h

    def __repr__(self):
        return "LLVSpace(%s)" % (self.base.name or "custom")

    def alpha(self):
        return self.lattice.basis_vec(self.alpha_index)

    def beta(self):
        return self.lattice.basis_vec(self.beta_index)

    def embed(self, v):
        """Middle-block inclusion of a base-lattice vector."""
        if v.lattice != self.base:
            raise DimensionMismatch("vector does not lie in the base lattice")
        return LatVec._from_nums(self.lattice, (0,) + v.nums + (0,), v.d)

    def middle_part(self, w):
        if w.lattice != self.lattice:
            raise DimensionMismatch("vector does not lie in the extended lattice")
        return LatVec._from_nums(self.base, w.nums[1:-1], w.d)

    def vec(self, a_coeff, v, b_coeff):
        return a_coeff * self.alpha() + self.embed(v) + b_coeff * self.beta()


def _middle_nums(space, lam):
    """lam's base-lattice coordinates as (nums, d), for lam in the base
    lattice or the middle block; anything else raises LatticeError."""
    if lam.lattice == space.base:
        return lam.nums, lam.d
    if lam.nums[0] or lam.nums[-1]:
        raise LatticeError("e_op needs a vector of the middle block")
    return lam.nums[1:-1], lam.d


def e_columns(space, lam):
    """The nilpotent operator e_lam as (cols, d), the form
    SymSpace.derivation_apply reads: e = n / d over the least common
    denominator d of lam, and cols[i] lists the nonzero (k, n[k][i]) of
    column i.  Column alpha is lam's numerators, and column 1 + j holds
    (G lam)_j at beta, read off the sparse Gram rows."""
    nums, d = _middle_nums(space, lam)
    beta = space.beta_index
    cols = {1 + j: [(beta, s)] for j, s in space.base.gram_times(nums)}
    if any(nums):
        cols[space.alpha_index] = [(1 + i, x) for i, x in enumerate(nums) if x]
    return cols, d


def _dense_rows(space, cols):
    """The integer rows of the operator whose nonzero columns are cols."""
    rows = [[0] * space.dim for _ in range(space.dim)]
    for i, col in cols.items():
        for k, x in col:
            rows[k][i] = x
    return rows


def e_op(space, lam):
    """The nilpotent operator with e(alpha) = lam, e(beta) = 0 and
    e(mu) = (lam,mu) beta on the middle block, dense: the view of
    e_columns.  Skew-adjoint, e^3 = 0."""
    cols, d = e_columns(space, lam)
    return la.scaled_view(_dense_rows(space, cols), d)


def b_field(space, lam):
    """B_lambda = exp(e_lambda) = 1 + e + e^2/2, an isometry, in closed
    form: alpha -> alpha + lam + ((lam,lam)/2) beta, mu -> mu + (lam,mu)
    beta on the middle block, beta -> beta.  For lam = l / D over one
    denominator it is built on integers over 2 D^2."""
    nums, dl = _middle_nums(space, lam)
    gl = space.base.gram_times(nums)
    n, d = space.dim, 2 * dl * dl
    rows = [[d if i == j else 0 for j in range(n)] for i in range(n)]
    for i, x in enumerate(nums):
        rows[1 + i][0] = 2 * dl * x
    for j, s in gl:
        rows[n - 1][1 + j] = 2 * dl * s
    rows[n - 1][0] = sum([nums[j] * s for j, s in gl])
    return QIsometry._of(space.lattice, rows, d)


def tau(space):
    """Interchanges alpha and beta, multiplies the middle block by -1."""
    n = space.dim
    swap = la.embed_block(n, ((0, 1), (1, 0)), (0, n - 1), -1)
    return QIsometry._of(space.lattice, swap, 1)


def mu(space, t):
    """mu_t(alpha) = t^-1 alpha, mu_t(beta) = t beta, identity in between."""
    t = la.frac(t)
    if t == 0:
        raise LatticeError("mu_t needs t != 0")
    # t = p/q over d = |p| q: t^-1 and t are (d q / p) / d and (d p / q) / d
    n, p, q = space.dim, t.numerator, t.denominator
    d = abs(p) * q
    block = ((d * q // p, 0), (0, d * p // q))
    return QIsometry._of(space.lattice, la.embed_block(n, block, (0, n - 1), d), d)


def grading(space):
    """h = diag(space.h_diag), dense."""
    return tuple(tuple(c if i == j else 0 for j in range(space.dim))
                 for i, c in enumerate(space.h_diag))


def commutator(a, b):
    """[a, b] = ab - ba as a la.ScaledMatrix, on the integer forms of the
    dense operators a and b."""
    (na, da), (nb, db) = la.scaled_mat(a), la.scaled_mat(b)
    return la.scaled_view([[x - y for x, y in zip(r, s)] for r, s in zip(
        la.int_mat_mul(na, nb), la.int_mat_mul(nb, na))], da * db)


def grading_sign(space, m):
    """+1 if m commutes with h, -1 if it anti-commutes, else None.  As h is
    diagonal, m h = s h m exactly when h_j = s h_i at every nonzero m_ij."""
    h = space.h_diag
    for s in (1, -1):
        if all(h[j] == s * hi for row, hi in zip(m, h)
               for j, x in enumerate(row) if x):
            return s
    return None


def graded_type(space, g):
    """(+1, t) for graded g with g(alpha) = t alpha; (-1, t) for
    anti-graded g with g(alpha) = t^-1 beta; NotGraded otherwise.  For an
    isometry the sign places g(alpha): at alpha if s = 1, at beta if -1.
    Read off g's integer form."""
    m, d = g.nums, g.d
    ai, bi = space.alpha_index, space.beta_index
    s = grading_sign(space, m)
    if s == 1:
        return 1, la.quotient(m[ai][ai], d)
    if s == -1:
        return -1, la.ratio(d, m[bi][ai])
    raise NotGraded("isometry neither commutes nor anti-commutes with h")


def is_degree_reversing(space, g):
    """g maps span(alpha) <-> span(beta) and the middle block to itself;
    equivalently g anti-commutes with the grading operator."""
    return grading_sign(space, g.nums) == -1


def fm_beta_image(space, r, lam):
    """r alpha + lam + ((lam,lam)/2r) beta; always isotropic."""
    r = la.frac(r)
    if r == 0:
        raise LatticeError("fm_beta_image needs r != 0")
    if lam.lattice != space.base:
        lam = space.middle_part(lam)
    s = la.ratio(lam.norm(), 2 * r)
    out = space.vec(r, lam, s)
    if out.norm() != 0:
        raise AssertionError("fm_beta_image has norm %s, not 0" % (out.norm(),))
    return out


def normalize_fm(space, phi, r, lam_x, lam_y):
    """B_{-lam_y/r} o phi o B_{-lam_x/r} plus a degree-reversing report."""
    r = la.frac(r)
    if r == 0:
        raise LatticeError("normalize_fm needs r != 0")
    bx = b_field(space, la.ratio(-1, r) * lam_x)
    by = b_field(space, la.ratio(-1, r) * lam_y)
    out = by * phi * bx
    return out, is_degree_reversing(space, out)


def dual_lefschetz_check(space, phi, lam):
    """The dual Lefschetz operator 2/(t (lam,lam)) phi^-1 e_{phi(lam)} phi
    for degree-reversing phi with phi(beta) = t alpha.

    Returns (operator, report); the report records the two commutator
    identities [e_lam, psi] = (t(lam,lam)/2) h and [h, psi] = -2 psi that
    are asserted exactly.
    """
    if not is_degree_reversing(space, phi):
        raise NotGraded("dual Lefschetz needs a degree-reversing isometry")
    nl = lam.norm()
    if nl == 0:
        raise IsotropicVector("dual Lefschetz needs (lam,lam) != 0")
    t = la.quotient(phi.nums[space.alpha_index][space.beta_index], phi.d)
    phi_lam = space.middle_part(phi.apply(space.embed(lam)))
    # psi = phi^-1 e phi on integer numerators over one denominator
    cols, de = e_columns(space, phi_lam)
    inv = phi.inverse()
    prod = la.int_mat_mul(inv.nums, la.int_mat_mul(_dense_rows(space, cols),
                                                   phi.nums))
    psi = la.scaled_view(prod, inv.d * de * phi.d)
    e_lam = e_op(space, lam)
    h = grading(space)
    c1 = commutator(e_lam, psi)
    ok1 = c1 == la.mat_scale(la.ratio(t * nl, 2), h)
    c2 = commutator(h, psi)
    ok2 = c2 == la.mat_scale(-2, psi)
    if not (ok1 and ok2):
        raise AssertionError("dual Lefschetz commutator identities failed")
    e_dual = la.mat_scale(la.ratio(2, t * nl), psi)
    report = {"t": t, "lam_norm": nl,
              "commutator_e_psi": "t(lam,lam)/2 * h",
              "commutator_h_psi": "-2 psi"}
    return e_dual, report


def sl2_check(space, e, f, h):
    """[e,f] = h, [h,e] = 2e, [h,f] = -2f, exactly."""
    return (commutator(e, f) == la.mat(h)
            and commutator(h, e) == la.mat_scale(2, e)
            and commutator(h, f) == la.mat_scale(-2, f))


# ---------------------------------------------------------------------------
# Hilbert-scheme lift formulas


def _theta_index(k3_space, k3n_space):
    """The K3n-space index of each K3-space basis vector; the K3 basis goes
    to the first base.rank slots of the K3n base; the image is delta-perp."""
    return ([k3n_space.alpha_index]
            + [1 + i for i in range(k3_space.base.rank)]
            + [k3n_space.beta_index])


def theta_tilde(k3_space, k3n_space, x):
    """The isometric embedding of the K3 extended lattice into the K3n one,
    applied to a vector."""
    nums = [0] * k3n_space.dim
    for c, i in zip(x.nums, _theta_index(k3_space, k3n_space)):
        nums[i] = c
    return LatVec._from_nums(k3n_space.lattice, nums, x.d)


def extend_to_llv(space, g):
    """Extend a base-lattice isometry to the extended lattice, fixing
    alpha and beta."""
    idx = range(1, space.beta_index)
    return QIsometry._of(space.lattice,
                         la.embed_block(space.dim, g.nums, idx, g.d), g.d)


def iota_tilde(k3_space, k3n_space, g):
    """Extend an isometry of the K3 extended lattice (or of the K3 lattice
    itself) to the K3n extended lattice, fixing delta."""
    if g.lattice == k3_space.base:
        g = extend_to_llv(k3_space, g)
    emb = _theta_index(k3_space, k3n_space)
    return QIsometry._of(k3n_space.lattice,
                         la.embed_block(k3n_space.dim, g.nums, emb, g.d), g.d)


def delta_half_bfield(k3n_space, sign):
    base = k3n_space.base
    delta = base.basis_vec(base.delta_index)
    return b_field(k3n_space, la.ratio(sign, 2) * delta)


def hilb_lift(k3_space, k3n_space, phi, n):
    """det(phi)^{n+1} B_{-delta/2} o iota(phi) o B_{delta/2}, for an
    isometry phi of the K3 extended lattice; phi.det() raises NotAnIsometry
    when det(phi) is not +-1."""
    det_phi = phi.det()
    iot = iota_tilde(k3_space, k3n_space, phi)
    out = delta_half_bfield(k3n_space, -1) * iot * delta_half_bfield(k3n_space, +1)
    if det_phi ** (n + 1) == -1:
        out = -out
    return out


def kernel_c1_solve(k3_space, k3n_space, r, a1, a2, n):
    """First-Chern-class data of the lifted kernel:

        e1 = R (theta(a1)/r + delta/2),  e2 = R (theta(a2)/r - delta/2),
        R  = n! r^n,

    so that e_i / R = theta(a_i)/r +- delta/2 by construction.  The check
    with content, the collapsed operator identity
    B_{-e2/R} o hilb_lift(phi, n) o B_{-e1/R} = det(phi)^{n+1} iota(phi),
    is verify_kernel_identity's.
    """
    if r < 1 or n < 2:
        raise LatticeError("kernel_c1_solve needs r >= 1, n >= 2")
    R = factorial(n) * r ** n
    base = k3n_space.base
    delta = base.basis_vec(base.delta_index)
    th1 = LatVec._from_nums(base, a1.nums + (0,), a1.d)
    th2 = LatVec._from_nums(base, a2.nums + (0,), a2.d)
    lam1 = la.ratio(1, r) * th1 + la.ratio(1, 2) * delta
    lam2 = la.ratio(1, r) * th2 - la.ratio(1, 2) * delta
    e1 = R * lam1
    e2 = R * lam2
    if not (e1.is_integral() and e2.is_integral()):
        raise NotIntegral("e1 = R (theta(a1)/r + delta/2) or e2 is not "
                          "integral; a1 and a2 must be integral")
    return e1, e2, R


def verify_kernel_identity(k3_space, k3n_space, phi, n, r, a1, a2):
    """Exact check of B_{-e2/R} o hilb_lift o B_{-e1/R} = det^{n+1} iota(phi')
    with phi' = B_{-a2/r} o phi o B_{-a1/r}."""
    e1, e2, R = kernel_c1_solve(k3_space, k3n_space, r, a1, a2, n)
    lift = hilb_lift(k3_space, k3n_space, phi, n)
    b1 = b_field(k3n_space, la.ratio(-1, R) * e1)
    b2 = b_field(k3n_space, la.ratio(-1, R) * e2)
    lhs = b2 * lift * b1
    varphi = (b_field(k3_space, la.ratio(-1, r) * a2) * phi
              * b_field(k3_space, la.ratio(-1, r) * a1))
    rhs = iota_tilde(k3_space, k3n_space, varphi)
    det_phi = phi.det()
    if det_phi ** (n + 1) == -1:
        rhs = -rhs
    return lhs == rhs
