"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them live).  All
assertions are exact; no tolerances appear anywhere because every quantity
is computed in rational arithmetic.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (isotropic_samples, rand_anisotropic, rand_primitive,
                      rand_primitive_norm, rand_transvection, rand_vec,
                      span_rank_mod_p, subprocess_env)
from hklat import factor as fc
from hklat import lattice as lt
from hklat import llv
from hklat import mukai as mk
from hklat import pontryagin as pg
from hklat import snrep as sn
from hklat import transvect as tv


def _report(num, name, ok):
    print("criterion %2d %-34s %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, name)


# -- 1: normal-form round trip ------------------------------------------------


def _random_generator_word(rng, lat, max_gens=6):
    gens = []
    for _ in range(rng.randint(1, max_gens - 1)):
        kind = rng.randrange(3)
        if kind == 0:
            while True:
                v = rand_primitive(rng, lat)
                nv = v.norm()
                if nv != 0 and abs(nv) <= 12:
                    break
            r = fc.reflect(lat, v)
            gens.append(-r if rng.random() < 0.5 else r)
        elif kind == 1:
            gens.append(rand_transvection(rng, lat))
        else:
            u = lat.vec([1, -2] + [0] * (lat.rank - 2))
            g = fc.neg_reflection_u_delta(lat, u) * rand_transvection(rng, lat)
            gens.append(g)
    phi = lt.QIsometry.identity(lat)
    for g in gens:
        phi = g * phi
    if lt.nu_character(phi) == -1:
        # one more allowed generator fixes the orientation
        phi = fc.reflect(lat, lat.vec([1, -1] + [0] * (lat.rank - 2))) * phi
    return phi


def test_criterion_1_normal_form_roundtrip(k3n2):
    rng = random.Random(1001)
    ok = True
    for trial in range(100):
        phi = _random_generator_word(rng, k3n2)
        nf = fc.decompose(k3n2, phi)
        report = fc.verify_normal_form(nf, phi)
        ok = ok and report["ok"]
        for u in nf.us:
            ok = ok and u.is_primitive() and u.norm() >= 2
            ok = ok and u.coords[k3n2.delta_index] == 0
        for cert in nf.certificates:
            ok = ok and cert.get("nu") == 1 and cert.get("disc") in (1, -1)
        if not ok:
            break
    _report(1, "normal-form round trip (100)", ok)


# -- 2: Eichler transitivity --------------------------------------------------


def test_criterion_2_eichler_transitivity(k3):
    rng = random.Random(1002)
    ok = True
    for norm in (2, 4, 6, 12):
        target = tv.canonical_vector(k3, norm)
        for _ in range(50):
            x = rand_primitive_norm(rng, k3, norm)
            word = tv.reduce_to_canonical(k3, x)
            g = word.isometry()
            ok = ok and g.apply(x) == target
            ok = ok and lt.characters(g) == (1, 1, 1)
            if not ok:
                break
    _report(2, "Eichler transitivity (4 x 50)", ok)


# -- 3: reflection constants --------------------------------------------------


def test_criterion_3_reflection_constants():
    ok = True
    for d in range(1, 6):
        lat = lt.preset("K3n", d + 1)
        # K3 is the L-part of K3n:d+1; delta = 0 is appended
        u = lat.vec(list(tv.canonical_vector(lt.preset("K3"), 2 * d + 2).coords)
                    + [0])
        ud = list(u.coords)
        ud[lat.delta_index] += 1
        w = lt.LatVec(lat, ud)
        ok = ok and w.norm() == 2
        delta = lt.delta_vector(lat)
        image = fc.reflect(lat, w).apply(delta)
        ok = ok and image == (2 * d) * u + (1 + 2 * d) * delta
    _report(3, "rho_{u+delta}(delta) constants d=1..5", ok)


# -- 4: the inverse functor ---------------------------------------------------


def _llv_of_rank(r):
    """An extended lattice of odd total dimension r built on a small base."""
    if r == 5:
        base = lt.Lattice([[0, -1, 0], [-1, 0, 0], [0, 0, -2]],
                          u_blocks=((0, 1),))
    elif r == 7:
        base = lt.Lattice([[0, -1, 0, 0, 0], [-1, 0, 0, 0, 0],
                           [0, 0, -2, 1, 0], [0, 0, 1, -2, 0],
                           [0, 0, 0, 0, 2]], u_blocks=((0, 1),))
    else:
        raise ValueError(r)
    return llv.LLVSpace(base)


def _rand_space_iso(rng, lattice, count=3):
    f = lt.QIsometry.identity(lattice)
    for _ in range(count):
        while True:
            v = lattice.vec([rng.randint(-2, 2) for _ in range(lattice.rank)])
            if v.norm() != 0:
                break
        f = fc.reflect(lattice, v) * f
    return f


def test_criterion_4_recover_functor(k3n2):
    rng = random.Random(1004)
    ok = True
    cases = [(_llv_of_rank(5), 2, 10, 25), (_llv_of_rank(5), 3, 10, 25),
             (_llv_of_rank(7), 2, 10, 25),
             (llv.LLVSpace(k3n2), 2, 3, 25)]
    for space, n, round_trips, triples in cases:
        sym = sn.SymSpace(space.lattice, n)
        f0 = None
        for _ in range(round_trips):
            f0 = _rand_space_iso(rng, space.lattice,
                                 2 if space.dim > 9 else 3)
            if n % 2 == 0:
                phi = (lambda f: lambda x: sn.sym_scale(
                    f.det(), sym.apply_linear(f.matrix, x)))(f0)
            else:
                phi = (lambda f: lambda x: sym.apply_linear(f.matrix, x))(f0)
            out = sn.recover(sym, sym, phi)
            if n % 2 == 1:
                ok = ok and out == f0
            else:
                ok = ok and (out == f0 or out == -f0)
                neg = sn.recover(sym, sym,
                                 (lambda p: lambda x: sn.sym_scale(-1, p(x)))(phi))
                ok = ok and neg == -out
        h_phi = sn.recover(sym, sym, phi)
        for _ in range(triples):
            f1 = _rand_space_iso(rng, space.lattice,
                                 2 if space.dim > 9 else 3)
            f2 = _rand_space_iso(rng, space.lattice,
                                 2 if space.dim > 9 else 3)
            ok = ok and sn.compose_rule_check(sym, f1, f2, phi, h_phi=h_phi)
        if not ok:
            break
    _report(4, "recover + compose rule (4 cases)", ok)


# -- 5: subspace dimensions ---------------------------------------------------


def test_criterion_5_sn_dimensions(k3n2):
    from math import comb
    rng = random.Random(1005)
    ok = True
    spaces = [(_llv_of_rank(5), (1, 2, 3)), (_llv_of_rank(7), (2, 3)),
              (llv.LLVSpace(k3n2), (2,))]
    for space, ns in spaces:
        d = space.dim
        for n in ns:
            sym = sn.SymSpace(space.lattice, n)
            expect = comb(d + n - 1, n) - (comb(d + n - 3, n - 2) if n >= 2 else 0)
            ok = ok and sym.sn_dim() == expect
            ok = ok and len(sym.kernel_basis()[0]) == expect
            # isotropic-power span: exact containment + full rank mod p
            vecs = [sn.sym_power(v.coords, n)
                    for v in sn.isotropic_spanning_set(space.lattice)]
            vecs += [sn.sym_power(v.coords, n)
                     for v in isotropic_samples(
                         space.lattice, rng, expect + 20)]
            ok = ok and all(sym.in_kernel(x) for x in vecs)
            ok = ok and span_rank_mod_p(sym, vecs) == expect
    big = sn.SymSpace(llv.LLVSpace(k3n2).lattice, 2)
    ok = ok and big.sn_dim() == 324
    _report(5, "S_[n] dimensions incl. 324 at d=25", ok)


# -- 6: dual Lefschetz --------------------------------------------------------


def test_criterion_6_dual_lefschetz(k3n2):
    rng = random.Random(1006)
    space = llv.LLVSpace(k3n2)
    h = llv.grading(space)
    ok = True
    for _ in range(25):
        f = _rand_space_iso(rng, k3n2, 2)
        s = rng.choice([1, 2, 3, Fraction(1, 2)])
        phi = llv.tau(space) * llv.mu(space, s) * llv.extend_to_llv(space, f)
        lam = rand_anisotropic(rng, k3n2)
        # dual_lefschetz_check asserts the intermediate commutator identity
        e_dual, rep = llv.dual_lefschetz_check(space, phi, lam)
        e = llv.e_op(space, lam)
        ok = ok and llv.sl2_check(space, e, e_dual, h)
    _report(6, "dual Lefschetz sl2 relations (25)", ok)


# -- 7: Fourier-Mukai normalization --------------------------------------------


def test_criterion_7_fm_normalization(k3):
    rng = random.Random(1007)
    space = llv.LLVSpace(k3)
    ok = True
    for _ in range(100):
        r = Fraction(rng.randint(1, 9), rng.choice([1, 1, 2, 3]))
        lam = rand_vec(rng, k3)
        ok = ok and llv.fm_beta_image(space, r, lam).norm() == 0
    for _ in range(10):
        r = rng.randint(1, 4)
        lam_x, lam_y = rand_vec(rng, k3), rand_vec(rng, k3)
        f = _rand_space_iso(rng, k3, 2)
        core = llv.tau(space) * llv.mu(space, r) * llv.extend_to_llv(space, f)
        phi = llv.b_field(space, Fraction(1, r) * lam_y) * core \
            * llv.b_field(space, Fraction(1, r) * lam_x)
        out, rev = llv.normalize_fm(space, phi, r, lam_x, lam_y)
        ok = ok and rev
        bb = out.apply(space.beta())
        ok = ok and all(bb.coords[i] == 0 for i in range(1, space.dim))
        ok = ok and bb.coords[0] != 0
    _report(7, "FM line isotropy + normalization", ok)


# -- 8: lifted-kernel operator identity ----------------------------------------


def test_criterion_8_kernel_identity(k3):
    rng = random.Random(1008)
    space = llv.LLVSpace(k3)
    ok = True
    for n in (2, 3):
        k3n_space = llv.LLVSpace(lt.preset("K3n", n))
        for _ in range(10):
            r = rng.choice([1, 2, 3])
            f = _rand_space_iso(rng, k3, 2)
            phi = llv.tau(space) * llv.mu(space, r) * llv.extend_to_llv(space, f)
            a1, a2 = rand_vec(rng, k3), rand_vec(rng, k3)
            ok = ok and llv.verify_kernel_identity(space, k3n_space, phi,
                                                   n, r, a1, a2)
        if not ok:
            break
    _report(8, "lifted-kernel identity n=2,3", ok)


# -- 9: Pontryagin suite --------------------------------------------------------


def test_criterion_9_pontryagin(k3, k3n2):
    rng = random.Random(1009)
    ok = True
    # surface model: full degree-2 table and unit, closed form
    table = mk.k3_star_table(k3)
    for i in range(k3.rank):
        for j in range(k3.rank):
            ok = ok and table[i][j] == k3.gram[i][j]
    pt = mk.MukaiVector(0, k3.zero(), 1)
    for _ in range(20):
        x = mk.MukaiVector(rng.randint(-3, 3), rand_vec(rng, k3),
                           rng.randint(-3, 3))
        ok = ok and mk.k3_star(x, pt) == x

    model = pg.SHModel(llv.LLVSpace(k3n2), 2)
    one, unit_star = model.unit_cup(), model.unit_star()
    for _ in range(100):
        x = model.random_element(rng)
        y = model.random_element(rng)
        z = model.random_element(rng)
        ok = ok and one.cup(x) == x and x.star(unit_star) == x
        ok = ok and x.cup(y) == y.cup(x) and x.star(y) == y.star(x)
        ok = ok and x.cup(y).cup(z) == x.cup(y.cup(z))
        ok = ok and x.star(y).star(z) == x.star(y.star(z))
        ok = ok and x.cup(y).rho_tau() == x.rho_tau().star(y.rho_tau())
        if not ok:
            break
    # grading of star on homogeneous pieces
    lam = k3n2.vec([1, -1] + [0] * 21)
    xe = model.element(model.psi([lam])).rho_tau()      # degree 4n-2
    prod = xe.star(xe)
    ok = ok and (prod.is_zero() or prod.degree()
                 == 2 * xe.degree() - 4 * model.n)

    def rand_graded():
        f = _rand_space_iso(rng, k3n2, 2)
        s = rng.choice([1, 2, 3])
        return llv.mu(model.space, s) * llv.extend_to_llv(model.space, f)

    pairs = [(model.random_element(rng), model.random_element(rng))
             for _ in range(2)]
    for _ in range(10):
        good, info = pg.conjugation_check(model, rand_graded(), pairs)
        ok = ok and good and info["kind"] == 1
    for _ in range(10):
        good, info = pg.conjugation_check(
            model, llv.tau(model.space) * rand_graded(), pairs)
        ok = ok and good and info["kind"] == -1
    for _ in range(5):
        g = llv.tau(model.space) * rand_graded()
        for x, y in pairs:
            ok = ok and pg.star_via(model, g, x, y) == x.star(y)
    _report(9, "Pontryagin suite (K3 + K3n(2))", ok)


# -- 10: double-orbit norm invariance ------------------------------------------


def test_criterion_10_double_orbit(k3):
    rng = random.Random(1010)
    ok = True
    for norm in (2, 4, 6, 12):
        for _ in range(5):
            u = rand_primitive_norm(rng, k3, norm)
            u2 = rand_primitive_norm(rng, k3, norm)
            h1, h2 = mk.double_orbit_connect(k3, u, u2)
            lhs = h1 * (-fc.reflect(k3, u)) * h2
            ok = ok and lhs == -fc.reflect(k3, u2)
            cert = mk.make_cyclic(k3, u, lt.QIsometry.identity(k3))
            ok = ok and cert.r == norm // 2
            ok = ok and mk.verify_cyclic(cert.f, cert)
    _report(10, "double-orbit norm invariance (20)", ok)


# -- 11: CLI determinism ---------------------------------------------------------


def test_criterion_11_cli_determinism():
    cmd = [sys.executable, "-m", "hklat.cli", "verify", "all", "--seed", "42"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                        env=subprocess_env())
    r2 = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                        env=subprocess_env())
    ok = (r1.returncode == 0 and r2.returncode == 0
          and r1.stdout == r2.stdout and len(r1.stdout) > 0
          and json.loads(r1.stdout)["ok"] is True)
    _report(11, "CLI determinism + green suite", ok)
