import json
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from conftest import (canonical, canonical_form, chain_evaluate, frac_pair,
                      is_zero_vec, rand_anisotropic,
                      rand_orientation_preserving, rand_primitive,
                      rand_transvection, rand_vec, subprocess_env, TESTS,
                      vec_add, vec_sub)
from hklat import factor as fc
from hklat import linalg as la
from hklat import jsonio as jio
from hklat import lattice as lt
from hklat import transvect as tv
from hklat.errors import (DimensionMismatch, IsotropicLambda,
                          IsotropicVector, OrientationReversing)


def test_reflect_basics(k3):
    rng = random.Random(47)
    u = rand_anisotropic(rng, k3)
    r = fc.reflect(k3, u)
    assert r.apply(u) == -u
    assert (r * r).is_identity()
    for _ in range(10):
        x = rand_vec(rng, k3)
        if x.pair(u) == 0:
            assert r.apply(x) == x
    with pytest.raises(IsotropicVector):
        fc.reflect(k3, k3.basis_vec(0))
    # scaling invariance: rho_u depends only on the line
    assert fc.reflect(k3, Fraction(3, 2) * u).matrix == r.matrix


def test_witt_map(k3):
    rng = random.Random(53)
    # x = e1+e2 (norm -2), y = -x: the difference 2x is anisotropic
    u = lt.preset("U")
    x = u.vec([1, 1])
    y = -x
    sign, w = fc.witt_map(u, x, y)
    assert sign == 1 and fc.reflect(u, w).apply(x) == y
    assert fc.witt_map(u, x, x) == (None, None)
    # x = e1-e2, y = x + e1' (both norm 2): x - y is isotropic, so the map
    # is -rho_{x+y}
    x, y = k3.vec([1, -1] + [0] * 20), k3.vec([1, -1, 1] + [0] * 19)
    sign, w = fc.witt_map(k3, x, y)
    assert sign == -1 and -fc.reflect(k3, w).apply(x) == y
    count = 0
    while count < 200:
        a = rand_vec(rng, k3, 2)
        if a.norm() == 0:
            continue
        b = rand_orientation_preserving(rng, k3, 2).apply(a)
        sign, w = fc.witt_map(k3, a, b)
        assert a == b if sign is None else sign * fc.reflect(k3, w).apply(a) == b
        count += 1


def _reflection_product(lat, ws):
    """rho_{w_1} o ... o rho_{w_m}, one fc.reflect per vector."""
    acc = lt.QIsometry.identity(lat)
    for w in ws:
        acc = acc * fc.reflect(lat, w)
    return acc


def test_cartan_dieudonne(k3):
    rng = random.Random(59)
    assert fc.cartan_dieudonne(k3, lt.QIsometry.identity(k3)) == []
    u = rand_anisotropic(rng, k3)
    refs = fc.cartan_dieudonne(k3, fc.reflect(k3, u))
    assert len(refs) == 1
    assert _reflection_product(k3, refs) == fc.reflect(k3, u)
    for _ in range(6):
        f = lt.QIsometry.identity(k3)
        for _ in range(5):
            f = fc.reflect(k3, rand_anisotropic(rng, k3)) * f
        refs = fc.cartan_dieudonne(k3, f)
        assert len(refs) <= k3.rank
        assert _reflection_product(k3, refs) == f


def test_cartan_dieudonne_totally_isotropic_case(k3):
    # a transvection moves only a totally isotropic subspace
    E = tv.eichler_transvection(k3, k3.basis_vec(0), k3.basis_vec(4))
    refs = fc.cartan_dieudonne(k3, E)
    assert _reflection_product(k3, refs) == E
    assert len(refs) <= k3.rank


def test_positive_reflection_rewrite(k3):
    rng = random.Random(61)
    # the hyperbolic-plane example: u = e1 + e2 has norm -2; the factor h
    # is exactly -id on the first plane and w = e1 - e2
    u = k3.vec([1, 1] + [0] * 20)
    h, w = fc.positive_reflection_rewrite(k3, u)
    assert w == k3.vec([1, -1] + [0] * 20)
    sigma = [[0] * 22 for _ in range(22)]
    for i in range(22):
        sigma[i][i] = -1 if i < 2 else 1
    assert h.matrix == lt.QIsometry(k3, sigma).matrix
    for _ in range(6):
        v = rand_primitive(rng, k3)
        if v.norm() >= 0:
            continue
        h, w = fc.positive_reflection_rewrite(k3, v)
        assert w.norm() == -v.norm()
        assert h.is_integral()
        assert (h * fc.reflect(k3, w)).matrix == fc.reflect(k3, v).matrix


def test_rewrite_in_lambda_matches_the_l_part_route(k3n2):
    """positive_reflection_rewrite on Lambda gives the h and w of the
    L-part route: restrict u to L (K3), rewrite there, then extend h by the
    identity on delta and append delta = 0 to w."""
    lat, lsub = k3n2, lt.preset("K3")
    di = lat.delta_index
    rng = random.Random(89)
    done = 0
    while done < 5:
        ul = rand_primitive(rng, lsub)
        if ul.norm() >= 0:
            continue
        done += 1
        h, w = fc.positive_reflection_rewrite(lat, lat.vec(list(ul.coords) + [0]))
        hl, wl = fc.positive_reflection_rewrite(lsub, ul)
        rows = [list(row[:di]) + [0] + list(row[di:]) for row in hl.matrix]
        rows.insert(di, [int(j == di) for j in range(lat.rank)])
        assert h == lt.QIsometry(lat, rows)
        assert w == lat.vec(list(wl.coords) + [0])


def _cartan_dieudonne_fractions(lattice, f):
    """cartan_dieudonne as a plain-Fraction scan: the candidates z_i and
    z_i + z_j as rational vectors, each tested through apply_coords and
    pair_coords."""
    p, _ = la.congruent_diagonalize(lattice.gram)
    zbasis = [la.vec(row) for row in p]
    n = lattice.rank
    candidates = list(zbasis) + [vec_add(zbasis[i], zbasis[j])
                                 for i in range(n) for j in range(i + 1, n)]
    fixed = [False] * len(candidates)
    refs = []
    g = f
    while not g.is_identity():
        found = None
        for idx, x in enumerate(candidates):
            if fixed[idx]:
                continue
            w = vec_sub(g.apply_coords(x), x)
            if is_zero_vec(w):
                fixed[idx] = True
                continue
            if lattice.pair_coords(w, w) != 0:
                found = w
                break
        if found is None:
            found = next(z for z in zbasis if g.apply_coords(z) != z)
            fixed = [False] * len(candidates)
        refs.append(lattice.vec(found))
        g = fc.reflect_times(lattice, refs[-1], g)
    return refs


def test_cartan_dieudonne_matches_fraction_scan(k3):
    """The integer scan returns exactly the vectors of the Fraction scan:
    on test_cartan_dieudonne's words, on words of the K3n:2 L-part and on
    the totally isotropic branch."""
    def same(lat, f):
        refs = fc.cartan_dieudonne(lat, f)
        assert refs == _cartan_dieudonne_fractions(lat, f)
        assert all(canonical(w.coords) for w in refs)
        return refs

    rng = random.Random(59)
    same(k3, fc.reflect(k3, rand_anisotropic(rng, k3)))
    for _ in range(6):
        f = lt.QIsometry.identity(k3)
        for _ in range(5):
            f = fc.reflect(k3, rand_anisotropic(rng, k3)) * f
        same(k3, f)
    lsub = lt.preset("K3")   # the K3n:2 L-part
    rng = random.Random(60)
    for _ in range(4):
        same(lsub, rand_orientation_preserving(rng, lsub, count=4))
    E = tv.eichler_transvection(k3, k3.basis_vec(0), k3.basis_vec(4))
    assert len(same(k3, E)) >= 2


def _cartan_dieudonne_l_route(lat, f):
    """cartan_dieudonne on a Lattice of the L Gram of Lambda = L + Z*delta,
    run on the restriction of the delta-fixing f, each vector with
    delta = 0 added."""
    di = lat.delta_index
    idx = [i for i in range(lat.rank) if i != di]
    lpart = lt.Lattice([[lat.gram[i][j] for j in idx] for i in idx])
    fl = lt.QIsometry(lpart, [[f.matrix[i][j] for j in idx] for i in idx])
    return [lat.vec(list(w.coords[:di]) + [0] + list(w.coords[di:]))
            for w in fc.cartan_dieudonne(lpart, fl)]


def test_cartan_dieudonne_on_lambda_matches_l_part_route(monkeypatch):
    """On delta-fixing words, cartan_dieudonne on Lambda itself returns the
    vectors of the L-part route: reflection words in L-part vectors, an
    Eichler transvection of L (the totally isotropic branch) and the work
    that decompose hands over for a random word."""
    works = []
    real_cd = fc.cartan_dieudonne

    def spy(lattice, f):
        works.append(sys._getframe(1).f_locals["work"])
        return real_cd(lattice, f)
    for name, n, seed in (("K3n", 2, 271), ("K3n", 3, 272), ("Kummer", 2, 273)):
        lat = lt.preset(name, n)
        di = lat.delta_index
        rng = random.Random(seed)
        words = []
        for _ in range(3):
            f = lt.QIsometry.identity(lat)
            for _ in range(4):
                while True:
                    c = [rng.randint(-2, 2) for _ in range(lat.rank)]
                    c[di] = 0
                    if lat.pair_coords(c, c):
                        break
                f = fc.reflect(lat, lat.vec(c)) * f
            words.append(f)
        words.append(tv.eichler_transvection(lat, lat.basis_vec(0),
                                             lat.basis_vec(4)))
        works.clear()
        monkeypatch.setattr(fc, "cartan_dieudonne", spy)
        phi = _random_word(rng, lat, 3)
        while phi.is_integral() and lt.membership(phi, "Gamma")[0]:
            phi = _random_word(rng, lat, 3)
        fc.decompose(lat, phi)
        monkeypatch.setattr(fc, "cartan_dieudonne", real_cd)
        assert len(works) == 1
        words.append(works[0])
        delta = lat.basis_vec(di)
        for f in words:
            assert f.apply(delta) == delta
            refs = fc.cartan_dieudonne(lat, f)
            assert refs == _cartan_dieudonne_l_route(lat, f)
        assert len(fc.cartan_dieudonne(lat, words[3])) >= 2


def test_cartan_dieudonne_diagonalizes_once(monkeypatch):
    """The orthogonal basis and its candidates are built once per lattice,
    however many decompose calls reach cartan_dieudonne."""
    calls = []
    real = la.congruent_diagonalize_scaled
    monkeypatch.setattr(la, "congruent_diagonalize_scaled",
                        lambda g: calls.append(g) or real(g))
    lat = lt.preset("K3n", 2)
    rng = random.Random(62)
    reached = []
    real_cd = fc.cartan_dieudonne
    monkeypatch.setattr(fc, "cartan_dieudonne",
                        lambda lattice, f: reached.append(f) or real_cd(lattice, f))
    for phi in [_rewrite_input(lat)] + [
            rand_orientation_preserving(rng, lat, count=2) for _ in range(2)]:
        fc.decompose(lat, phi)
    assert len(reached) == 3
    # one diagonalization serves signature() and cartan_dieudonne, whose
    # basis reads its integer rows
    assert [len(g) for g in calls].count(lat.rank) == 1
    assert fc._cd_basis(lat) == tuple(
        ([(k, y) for k, y in enumerate(nums) if y], dx)
        for nums, dx in map(la.scaled_vec, lat.diagonalization()[0]))


def test_rewrite_factor_is_the_reflection_pair(k3):
    """positive_reflection_rewrite's closed-form h is the product of the
    reflections in f1 - f2 and f1 + f2, on K3 and on the K3n:2 L-part."""
    for lat, seed in ((k3, 63), (lt.preset("K3"), 64)):
        rng = random.Random(seed)
        done = 0
        while done < 5:
            u = rand_primitive(rng, lat)
            if u.norm() >= 0:
                continue
            done += 1
            h, w = fc.positive_reflection_rewrite(lat, u)
            ginv = tv.reduce_to_canonical(lat, u).inverse()
            i, j = lat.u_blocks[0]
            f1, f2 = (ginv.apply(lat.basis_vec(c)).coords for c in (i, j))
            want = fc.reflect_times(lat, lat.vec(vec_sub(f1, f2)),
                                    fc.reflect(lat, vec_add(f1, f2)))
            assert h == want and canonical_form(h)
            assert h * fc.reflect(lat, w) == fc.reflect(lat, u)


def test_move_rational_into_LQ(k3n2):
    rng = random.Random(67)
    delta = lt.delta_vector(k3n2)
    # x = lam/2 + delta/3 with (lam,lam) = 4
    lam = k3n2.vec([1, -2] + [0] * 21)
    x = Fraction(1, 2) * lam + Fraction(1, 3) * delta
    g, items = fc._move_rational_items(k3n2, x)
    y = g.apply(x)
    assert y.coords[k3n2.delta_index] == 0
    assert y.norm() == x.norm()
    # degenerate t = 0 with integral primitive lam
    g0, _ = fc._move_rational_items(k3n2, lam)
    assert g0.apply(lam).coords[k3n2.delta_index] == 0
    with pytest.raises(IsotropicLambda):
        fc._move_rational_items(k3n2, k3n2.basis_vec(0) + delta)


def test_find_orthogonal_norm_vector(k3n2):
    lam = k3n2.vec([1, 0, 2, -1] + [0] * 19)
    u = fc.find_orthogonal_norm_vector(k3n2, lam, 4)
    assert u.norm() == 4 and u.pair(lam) == 0
    # support meeting every hyperbolic plane forces the fallback search
    lam2 = k3n2.vec([1, 0, 1, 0, 1, 0] + [0] * 17)
    u2 = fc.find_orthogonal_norm_vector(k3n2, lam2, 4)
    assert u2.norm() == 4 and u2.pair(lam2) == 0


def _pair_scan(qaa, qab, qbb, target):
    """The first (s, t) of the height-64 double loop of the pair search,
    t scanned upwards inside s; None when no pair hits."""
    h = fc._HEIGHT
    for s in range(-h, h + 1):
        for t in range(-h, h + 1):
            if qaa * s * s + 2 * qab * s * t + qbb * t * t == target:
                return s, t
    return None


def _pair_roots(qaa, qab, qbb, target):
    """The same search with t from fc._least_root."""
    h = fc._HEIGHT
    for s in range(-h, h + 1):
        t = fc._least_root(qbb, qab * s, qaa * s * s - target)
        if t is not None:
            return s, t
    return None


def test_least_root_matches_the_t_scan():
    """_least_root gives the first t of the scan it replaced, on every
    branch: a = 0 with b = 0 (every t when c = 0, so -64), a = 0 linear
    (hit, out of range, not divisible), and a != 0 with a negative, a
    non-square and a square discriminant (two roots, the lesser out of
    range, odd numerators, a < 0); and the pair search built on it gives
    the first (s, t) of the double loop on seeded forms."""
    h = fc._HEIGHT

    def scan(a, b, c):
        return next((t for t in range(-h, h + 1) if a * t * t + 2 * b * t + c == 0),
                    None)
    cases = [(0, 0, 0), (0, 0, 4), (0, 3, -12), (0, 1, 200), (0, 2, 3),
             (2, 0, 8), (1, 1, 1), (1, 0, -2), (1, 0, -4), (1, -3, -16),
             (1, 0, -10000), (3, 1, -5), (-2, 3, 8), (-1, 0, 4), (4, 2, 1)]
    rng = random.Random(251)
    cases += [(rng.randint(-6, 6), rng.randint(-6, 6) * rng.choice((1, 9)),
               rng.randint(-400, 400)) for _ in range(1000)]
    for a, b, c in cases:
        assert fc._least_root(a, b, c) == scan(a, b, c), (a, b, c)
    hits = {(a == 0, b == 0, scan(a, b, c) is None) for a, b, c in cases}
    assert hits == {(x, y, z) for x in (True, False) for y in (True, False)
                    for z in (True, False)}
    forms = [(0, 0, 0, 6), (2, 1, 0, 4), (0, 1, 2, 4), (-2, 3, 2, 6),
             (4, 0, -2, 12), (2, 0, 2, 6)]
    forms += [(rng.choice((-4, -2, 0, 2, 4)), rng.randint(-3, 3),
               rng.choice((-4, -2, 0, 2, 4)), rng.choice((2, 4, 6, 12)))
              for _ in range(6)]
    found = 0
    for form in forms:
        want = _pair_scan(*form)
        assert _pair_roots(*form) == want, form
        found += want is not None
    assert 0 < found < len(forms)


def _random_word(rng, lat, maxlen=5):
    gens = []
    for _ in range(rng.randint(1, maxlen)):
        kind = rng.randrange(3)
        if kind == 0:
            while True:
                v = rand_primitive(rng, lat)
                if v.norm() != 0 and abs(v.norm()) <= 12:
                    break
            r = fc.reflect(lat, v)
            gens.append(-r if rng.random() < 0.5 else r)
        elif kind == 1:
            gens.append(rand_transvection(rng, lat))
        else:
            # (u, u) = 2d + 2 for (delta, delta) = -2d
            d = -lt.delta_vector(lat).norm() // 2
            u = tv.canonical_vector(lat, 2 * d + 2)
            gens.append(fc.neg_reflection_u_delta(lat, u)
                        * rand_transvection(rng, lat))
    phi = lt.QIsometry.identity(lat)
    for g in gens:
        phi = g * phi
    if lt.nu_character(phi) == -1:
        phi = fc.reflect(lat, lat.vec([1, -1] + [0] * (lat.rank - 2))) * phi
    return phi


# the K3n cases keep their ids, the bare n
@pytest.mark.parametrize("name, n", [
    pytest.param("K3n", 3, id="3"), pytest.param("K3n", 5, id="5"),
    pytest.param("Kummer", 2, id="Kummer:2"),
    pytest.param("Kummer", 3, id="Kummer:3")])
def test_normal_form_round_trip_beyond_k3n2(name, n):
    """Random words on K3n:n and Kummer:n decompose, survive JSON and
    verify; the third generator kind builds -rho_{u + delta} with
    (u, u) = 2n."""
    lat = lt.preset(name, n)
    for seed in range(10):
        phi = _random_word(random.Random(seed), lat, 3)
        nf = fc.decompose(lat, phi)
        text = jio.dumps(jio.normal_form_to_json(nf))
        loaded = jio.normal_form_from_json(json.loads(text), lat)
        assert fc.verify_normal_form(loaded, phi)["ok"]


def test_decompose_gamma_shortcut(k3n2):
    nf = fc.decompose(k3n2, lt.QIsometry.identity(k3n2))
    assert nf.k == 0 and nf.gammas[0].is_identity()
    rep = fc.verify_normal_form(nf, lt.QIsometry.identity(k3n2))
    assert rep["ok"]
    # -rho_u with (u,u) = 2 is itself a Gamma element
    u = k3n2.vec([1, -1] + [0] * 21)
    phi = -fc.reflect(k3n2, u)
    nf = fc.decompose(k3n2, phi)
    assert fc.verify_normal_form(nf, phi)["ok"]


def test_decompose_random_words(k3n2):
    rng = random.Random(71)
    for _ in range(6):
        phi = _random_word(rng, k3n2)
        nf = fc.decompose(k3n2, phi)
        rep = fc.verify_normal_form(nf, phi)
        assert rep["ok"], rep
        for u in nf.us:
            assert u.is_primitive() and u.norm() >= 2
            assert u.coords[k3n2.delta_index] == 0


def test_decompose_isotropic_branch(k3n2):
    # phi(delta) has isotropic L-part: reflection in e1 + delta
    w = k3n2.vec([1] + [0] * 21 + [1])
    assert w.norm() == -2
    phi = fc.reflect(k3n2, w)
    # make it rational and orientation-correct
    v = k3n2.vec([1, -3] + [0] * 21)    # norm 6 reflection, not integral
    phi = fc.reflect(k3n2, v) * phi
    if lt.nu_character(phi) == -1:
        phi = fc.reflect(k3n2, k3n2.vec([1, -1] + [0] * 21)) * phi
    x = phi.apply(lt.delta_vector(k3n2))
    lam, t = fc._split_delta(k3n2, x)
    assert lam.norm() == 0 and not lam.is_zero()
    nf = fc.decompose(k3n2, phi)
    assert fc.verify_normal_form(nf, phi)["ok"]


def test_decompose_rejects_orientation_reversing(k3n2):
    u = k3n2.vec([1, -1] + [0] * 21)
    with pytest.raises(OrientationReversing):
        fc.decompose(k3n2, fc.reflect(k3n2, u))


def test_verify_normal_form_tamper(k3n2):
    rng = random.Random(73)
    phi = _random_word(rng, k3n2, 3)
    nf = fc.decompose(k3n2, phi)
    assert fc.verify_normal_form(nf, phi)["ok"]
    if nf.k > 0:
        bad_us = list(nf.us)
        bad_us[0] = bad_us[0] + k3n2.vec([0, 0, 1, 0] + [0] * 19)
        bad = fc.NormalForm(k3n2, nf.k, nf.gammas, bad_us)
        rep = fc.verify_normal_form(bad, phi)
        assert not rep["ok"] and rep["failures"]
    # wrong phi
    rep = fc.verify_normal_form(nf, lt.QIsometry.identity(k3n2))
    assert not rep["ok"]
    # a gamma with one non-integral entry, as untrusted JSON may carry
    rows = [list(r) for r in nf.gammas[-1].matrix]
    rows[3][5] += Fraction(1, 2)
    bad_gammas = nf.gammas[:-1] + (lt.QIsometry(k3n2, rows, _trusted=True),)
    rep = fc.verify_normal_form(fc.NormalForm(k3n2, nf.k, bad_gammas, nf.us), phi)
    assert not rep["ok"]
    kinds = {f[0] for f in rep["failures"]}
    assert kinds == {"gamma", "recomposition"}
    # k parity flipped: one more reflection, in a norm-2 vector of the
    # L-part, with gamma = id; every factor passes, the product does not
    u2 = k3n2.vec([1, -1] + [0] * 21)
    flipped = fc.NormalForm(k3n2, nf.k + 1,
                            nf.gammas + (lt.QIsometry.identity(k3n2),),
                            nf.us + (u2,))
    rep = fc.verify_normal_form(flipped, phi)
    assert rep["failures"] == [("recomposition", None, "product != phi")]
    # the same, in a norm-4 vector with delta-coordinate 1: outside the L-part
    u4 = k3n2.vec([1, -3] + [0] * 20 + [1])
    outside = fc.NormalForm(k3n2, nf.k + 1,
                            nf.gammas + (lt.QIsometry.identity(k3n2),),
                            nf.us + (u4,))
    rep = fc.verify_normal_form(outside, phi)
    assert rep["failures"] == [("u", nf.k, ["not in the L-part"]),
                               ("recomposition", None, "product != phi")]


def _fraction_product(nf):
    """(-1)^k gamma_k rho_{u_k} ... gamma_0 on plain Fractions."""
    lat = nf.lattice
    cols = [[Fraction(x) for x in col] for col in zip(*nf.gammas[0].matrix)]
    for u, gamma in zip(nf.us, nf.gammas[1:]):
        uu = frac_pair(lat, u.coords, u.coords)
        cols = [[x - 2 * frac_pair(lat, u.coords, col) / uu * ui
                 for x, ui in zip(col, u.coords)] for col in cols]
        cols = [[sum(Fraction(g) * x for g, x in zip(row, col))
                 for row in gamma.matrix] for col in cols]
    sign = -1 if nf.k % 2 else 1
    return tuple(tuple(sign * x for x in row) for row in zip(*cols))


def test_evaluate_matches_fraction_product(k3n2):
    phi = _rewrite_input(k3n2)
    nf = fc.decompose(k3n2, phi)
    assert nf.k > 0
    ev = nf.evaluate()
    assert ev.matrix == _fraction_product(nf) == phi.matrix
    assert canonical(ev.matrix) and canonical_form(ev)
    # untrusted shapes still evaluate exactly: non-integral gammas, a
    # rational u, a u of negative norm, an identity gamma between two
    # reflections, and a u whose norm shares a factor with the running
    # denominator, which is phi.d after gamma_0 = phi
    ident = lt.QIsometry.identity(k3n2)
    neg = k3n2.vec([1, 2] + [0] * 21)
    shared = k3n2.vec([0, 0, 1, -2] + [0] * 19)
    assert phi.d > 1 and neg.norm() < 0 and gcd(phi.d, shared.norm()) > 1
    forms = [
        fc.NormalForm(k3n2, 2, [phi, phi.inverse(), phi],
                      [Fraction(2, 3) * nf.us[0], neg]),
        fc.NormalForm(k3n2, 2, [phi, ident, phi.inverse()], [nf.us[0], neg]),
        fc.NormalForm(k3n2, 1, [phi, phi], [shared]),
    ]
    for form in forms:
        ev = form.evaluate()
        assert ev.matrix == _fraction_product(form)
        assert canonical(ev.matrix) and canonical_form(ev)
    isotropic = fc.NormalForm(k3n2, 1, nf.gammas[:2], [k3n2.basis_vec(0)])
    with pytest.raises(IsotropicVector):
        isotropic.evaluate()


def test_normal_form_refuses_factors_of_another_lattice(k3n2):
    """A gamma or a u on another lattice of the same rank raises at
    construction: evaluate reads the factors' integer forms only."""
    k3n3 = lt.preset("K3n", 3)
    assert k3n3.rank == k3n2.rank and k3n3 != k3n2
    u2, u3 = (lat.vec([1, -1] + [0] * 21) for lat in (k3n2, k3n3))
    i2, i3 = lt.QIsometry.identity(k3n2), lt.QIsometry.identity(k3n3)
    for gammas, us in (([i3, i2], [u3]), ([i3, i2], [u2]), ([i2, i3], [u2]),
                       ([i2, i2], [u3])):
        with pytest.raises(DimensionMismatch):
            fc.NormalForm(k3n2, 1, gammas, us)
    # the same factors on the form's own lattice certify -rho_u
    nf = fc.NormalForm(k3n2, 1, [i2, i2], [u2])
    assert fc.verify_normal_form(nf, -fc.reflect(k3n2, u2))["ok"]


def test_double_orbit_conjugation(k3):
    rng = random.Random(79)
    from conftest import rand_primitive_norm
    for norm in (4, 6):
        u = rand_primitive_norm(rng, k3, norm)
        u2 = rand_primitive_norm(rng, k3, norm)
        word = tv.eichler_move(k3, u, u2)
        h = word.isometry()
        assert (h * fc.reflect(k3, u) * h.inverse()).matrix == \
            fc.reflect(k3, u2).matrix


def _rewrite_input(lat):
    """A fixed non-integral input on K3n:2 (k = 5) whose decompose takes the
    delta-fix and positive-rewrite paths."""
    e = lat.basis_vec(0)
    delta = lt.delta_vector(lat)
    return (tv.eichler_transvection(lat, e, delta)
            * fc.reflect(lat, lat.vec([0, 0, 1, 2] + [0] * 19)))


def _count_calls(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args):
        counts[name] += 1
        return real(*args)
    monkeypatch.setattr(owner, name, counted)


def test_decompose_certifies_once(k3n2, monkeypatch):
    """decompose decides each gamma once, by in_group with no certificate;
    the full certificates are built once, on first read; a reloaded
    certificate is decided again only when verified."""
    phi = _rewrite_input(k3n2)
    assert not phi.is_integral()
    counts = {"in_group": 0, "membership": 0, "evaluate": 0,
              "verify_normal_form": 0}
    _count_calls(monkeypatch, fc, "in_group", counts)
    _count_calls(monkeypatch, fc, "membership", counts)
    _count_calls(monkeypatch, fc, "verify_normal_form", counts)
    _count_calls(monkeypatch, fc.NormalForm, "evaluate", counts)
    nf = fc.decompose(k3n2, phi)
    k = nf.k
    assert k > 0
    assert counts == {"in_group": k + 1, "membership": 0, "evaluate": 1,
                      "verify_normal_form": 1}
    # the certificates are built on first read and kept
    assert all(c["nu"] == 1 and c["disc"] in (1, -1) for c in nf.certificates)
    assert nf.certificates is nf.certificates
    assert counts["membership"] == k + 1
    # loading a certificate checks only its shape
    text = jio.dumps(jio.normal_form_to_json(nf))
    loaded = jio.normal_form_from_json(json.loads(text), k3n2)
    assert counts["in_group"] == k + 1
    assert fc.verify_normal_form(loaded, phi)["ok"]
    assert counts == {"in_group": 2 * (k + 1), "membership": k + 1,
                      "evaluate": 2, "verify_normal_form": 2}


def test_certificates_reuse_the_decided_characters(k3n2, monkeypatch):
    """NormalForm.certificates computes only what memberships() did not
    read: nu and the discriminant action once per gamma over both, and the
    same dicts, keys in the same order, as membership(gamma, "Gamma")."""
    nf = fc.decompose(k3n2, _rewrite_input(k3n2))
    fresh = fc.NormalForm(k3n2, nf.k, nf.gammas, nf.us)
    counts = {"nu_character": 0, "disc_action": 0}
    _count_calls(monkeypatch, lt, "nu_character", counts)
    _count_calls(monkeypatch, lt, "disc_action", counts)
    # decompose's own verification decided every gamma of nf already
    certs = nf.certificates
    assert counts == {"nu_character": 0, "disc_action": 0}
    assert all(fresh.memberships())
    assert counts == {"nu_character": nf.k + 1, "disc_action": nf.k + 1}
    assert fresh.certificates == certs
    assert counts == {"nu_character": nf.k + 1, "disc_action": nf.k + 1}
    monkeypatch.undo()
    for got in (certs, fresh.certificates):
        for cert, g in zip(got, nf.gammas):
            want = lt.membership(g, "Gamma")[1]
            assert cert == want and list(cert) == list(want)
    # a certificate read before any decision computes each character once
    cold = fc.NormalForm(k3n2, nf.k, nf.gammas, nf.us)
    counts = {"nu_character": 0, "disc_action": 0}
    _count_calls(monkeypatch, lt, "nu_character", counts)
    _count_calls(monkeypatch, lt, "disc_action", counts)
    assert cold.certificates == certs and all(cold.memberships())
    assert counts == {"nu_character": nf.k + 1, "disc_action": nf.k + 1}


def test_evaluate_is_one_integer_step_per_factor(k3n2, monkeypatch):
    """One evaluate of a k-step certificate makes k calls of la.int_mat_mul,
    none of reflect_times, and builds one QIsometry, the result."""
    nf = fc.decompose(k3n2, _rewrite_input(k3n2))
    forms = [nf, fc.NormalForm(k3n2, 0, nf.gammas[-1:], [])]
    want = [chain_evaluate(form) for form in forms]
    counts = {"int_mat_mul": 0, "reflect_times": 0, "_of": 0, "__init__": 0}
    _count_calls(monkeypatch, la, "int_mat_mul", counts)
    _count_calls(monkeypatch, fc, "reflect_times", counts)
    _count_calls(monkeypatch, lt.QIsometry, "__init__", counts)
    real_of = lt.QIsometry._of

    def counted_of(*args):
        counts["_of"] += 1
        return real_of(*args)
    monkeypatch.setattr(lt.QIsometry, "_of", staticmethod(counted_of))
    for form, chained in zip(forms, want):
        for key in counts:
            counts[key] = 0
        assert form.evaluate() == chained
        assert counts == {"int_mat_mul": form.k, "reflect_times": 0,
                          "_of": 1, "__init__": 0}
    assert nf.k == 5


def test_assemble_starts_each_run_from_its_first_factor(k3n2, monkeypatch):
    """A gamma-run is the product of its own factors, with no identity
    product, and only an empty run (two adjacent reflections) builds the
    identity; the certificate is the one the identity-started runs gave."""
    rng = random.Random(293)
    a, b, c = (rand_transvection(rng, k3n2) for _ in range(3))
    u = k3n2.vec([1, -1] + [0] * 21)
    w = k3n2.vec([0, 0, 1, -2] + [0] * 19)
    assert u.norm() == 2 and w.norm() == 4
    ru, rw = fc.reflect(k3n2, u), fc.reflect(k3n2, w)
    phi = a * b * ru * rw * c
    products, identities, verifying = [], [], []
    real_mul, real_identity = lt.QIsometry.__mul__, lt.QIsometry.identity
    real_verify = fc.verify_normal_form

    def mul(self, other):
        # the products _assemble makes, not those of its verification
        if not verifying:
            products.append(self.is_identity() or other.is_identity())
        return real_mul(self, other)

    def identity(lattice):
        identities.append(lattice)
        return real_identity(lattice)

    def verify(nf, phi):
        verifying.append(nf)
        return real_verify(nf, phi)
    monkeypatch.setattr(lt.QIsometry, "__mul__", mul)
    monkeypatch.setattr(lt.QIsometry, "identity", identity)
    monkeypatch.setattr(fc, "verify_normal_form", verify)
    nf = fc._assemble(k3n2, phi, [("gamma", a), ("gamma", b), ("refl", u),
                                  ("refl", w), ("gamma", c)])
    assert verifying == [nf] and identities == [k3n2]
    assert products == [False]
    assert nf.k == 2 and nf.us == (w, u)
    assert nf.gammas == (c, real_identity(k3n2), real_mul(a, b))


def _broken_rewrite(real, calls):
    """positive_reflection_rewrite with h composed with an extra element of
    Gamma, so that only the recomposition check can tell."""
    def broken(lattice, u):
        calls.append(u)
        h, w = real(lattice, u)
        extra = tv.eichler_transvection(lattice, lattice.basis_vec(0),
                                        lattice.basis_vec(2))
        return h * extra, w
    return broken


def test_broken_rewrite_is_caught(k3n2, monkeypatch):
    calls = []
    monkeypatch.setattr(fc, "positive_reflection_rewrite",
                        _broken_rewrite(fc.positive_reflection_rewrite, calls))
    with pytest.raises(AssertionError, match="recomposition"):
        fc.decompose(k3n2, _rewrite_input(k3n2))
    assert calls


_BROKEN_REWRITE_SCRIPT = """
import sys
from hklat import factor as fc, lattice as lt
from test_factor import _broken_rewrite, _rewrite_input
calls = []
fc.positive_reflection_rewrite = _broken_rewrite(
    fc.positive_reflection_rewrite, calls)
lat = lt.preset("K3n", 2)
try:
    fc.decompose(lat, _rewrite_input(lat))
except AssertionError as exc:
    print("raised", sys.flags.optimize, bool(calls), "recomposition" in str(exc))
else:
    print("returned", sys.flags.optimize, bool(calls))
"""


def test_broken_rewrite_is_caught_under_O():
    r = subprocess.run([sys.executable, "-O", "-c", _BROKEN_REWRITE_SCRIPT],
                       capture_output=True, text=True, timeout=300,
                       env=subprocess_env(TESTS))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["raised", "1", "True", "True"]


_GATES_SCRIPT = """
import sys
from fractions import Fraction
from hklat import factor as fc, lattice as lt
from hklat.errors import LatticeError
from test_factor import _rewrite_input
lat = lt.preset("K3n", 2)
delta = lt.delta_vector(lat)
out = []


def gate(fn, words):
    # the error type, if the message names the gate
    try:
        fn()
    except LatticeError as exc:
        out.append(type(exc).__name__ if words in str(exc) else repr(exc))
    else:
        out.append("returned")


# u + delta of norm 0, not 2
gate(lambda: fc.neg_reflection_u_delta(lat, lat.vec([1, -1] + [0] * 21)),
     "u + delta has norm 0")
# a Witt map that leaves q*x non-integral: rho of e1 + 4 e2 (norm -8)
real_witt = fc.witt_isometry
fc.witt_isometry = lambda lattice, sw: fc.reflect(
    lattice, lattice.vec([1, 4] + [0] * 21))
x = Fraction(1, 2) * lat.vec([1, -2] + [0] * 21) + Fraction(1, 3) * delta
gate(lambda: fc._move_rational_items(lat, x), "Witt map")
fc.witt_isometry = real_witt
# delta-moving words that do not fix delta: g1 replaced by the identity
real_ref = fc._reference_vector
fc._reference_vector = lambda lattice: (real_ref(lattice)[:1]
    + (lt.QIsometry.identity(lattice),) + real_ref(lattice)[2:])
gate(lambda: fc.decompose(lat, _rewrite_input(lat)), "do not fix delta")
fc._reference_vector = real_ref
# phi(delta) = -2 e1 - delta has isotropic L-part, and the delta fix
# u = 2 e1 - e2 (norm 4) keeps it isotropic
fc._delta_fix_vector = lambda lattice, work, lam, target: lattice.vec(
    [2, -1] + [0] * 21)
phi = (fc.reflect(lat, lat.vec([0] * 4 + [1, -1] + [0] * 17))
       * fc.reflect(lat, lat.vec([0, 0, 1, -3] + [0] * 19))
       * fc.reflect(lat, lat.vec([1] + [0] * 21 + [1])))
gate(lambda: fc.decompose(lat, phi), "after the delta fix")
print(sys.flags.optimize, *out)
"""


def test_certificate_gates_raise_under_O():
    r = subprocess.run([sys.executable, "-O", "-c", _GATES_SCRIPT],
                       capture_output=True, text=True, timeout=300,
                       env=subprocess_env(TESTS))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["1", "NormMismatch",
                                "NotIntegral", "LatticeError",
                                "IsotropicLambda"]


_TARGET_SCRIPT = """
from hklat import factor as fc, lattice as lt
from hklat.errors import NormMismatch
lat = lt.preset("K3n", 2)
# lam misses U2, so a target past the gate would return at once
lam = lat.basis_vec(0)
for target in (3, 0, -4):
    try:
        fc.find_orthogonal_norm_vector(lat, lam, target)
        print("returned")
    except NormMismatch:
        print("NormMismatch")
"""


def test_orthogonal_search_target_gate_raises_under_O():
    """An odd or non-positive target raises NormMismatch, also under -O."""
    r = subprocess.run([sys.executable, "-O", "-c", _TARGET_SCRIPT],
                       capture_output=True, text=True, timeout=300,
                       env=subprocess_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["NormMismatch"] * 3


def test_reflect_times_against_textbook_formula(k3):
    rng = random.Random(83)
    # a Witt map x -> y with x - y = 2(f1 + 3 f2) of norm -24: entries in
    # thirds, so g is not integral
    x = k3.vec([1, 1, 1, 3] + [0] * 18)
    y = k3.vec([1, 1, -1, -3] + [0] * 18)
    g = fc.witt_isometry(k3, fc.witt_map(k3, x, y))
    assert (x - y).norm() == -24 and not g.is_integral()
    cols = list(zip(*g.matrix))
    for u in (rand_anisotropic(rng, k3), Fraction(3, 2) * rand_anisotropic(rng, k3),
              x - y):
        uu = frac_pair(k3, u.coords, u.coords)
        want = [tuple(Fraction(c) - 2 * frac_pair(k3, u.coords, col) / uu * ui
                      for c, ui in zip(col, u.coords)) for col in cols]
        r = fc.reflect_times(k3, u, g)
        got = r.matrix
        assert tuple(zip(*got)) == tuple(want)
        assert canonical(got) and canonical_form(r)
        # rows where u is zero are g's own rows
        untouched = [i for i, c in enumerate(u.coords) if c == 0]
        assert untouched
        assert all(got[i] == g.matrix[i] for i in untouched)


def _textbook_rewrite_factor(lat, u):
    """I + 2 f1 (f2, .) + 2 f2 (f1, .) in plain Fractions, with
    (f1, f2) = g^-1 (e1, e2) for the word g moving u to e1 + m e2."""
    ginv = tv.reduce_to_canonical(lat, u).isometry().inverse()
    i, j = lat.u_blocks[0]
    f1 = ginv.apply(lat.basis_vec(i)).coords
    f2 = ginv.apply(lat.basis_vec(j)).coords
    es = [lat.basis_vec(c).coords for c in range(lat.rank)]
    return tuple(tuple(Fraction(r == c) + 2 * f1[r] * frac_pair(lat, f2, es[c])
                       + 2 * f2[r] * frac_pair(lat, f1, es[c])
                       for c in range(lat.rank)) for r in range(lat.rank))


def test_rewrite_factor_against_textbook_formula(k3n2, monkeypatch):
    """h = rho_{f1-f2} rho_{f1+f2} is the old two-term definition of h."""
    seen = []
    real = fc.positive_reflection_rewrite

    def recorded(lattice, u):
        h, w = real(lattice, u)
        seen.append((lattice, u, h))
        return h, w
    monkeypatch.setattr(fc, "positive_reflection_rewrite", recorded)
    lsub = lt.preset("K3")   # the K3n:2 L-part
    fc.positive_reflection_rewrite(lsub, lsub.vec([1, 2, 1, -1, 1] + [0] * 17))
    fc.decompose(k3n2, _rewrite_input(k3n2))
    assert len(seen) > 1
    for lat, u, h in seen:
        assert h.matrix == _textbook_rewrite_factor(lat, u)


def test_reflection_kernel_outputs_keep_entry_contract(monkeypatch):
    # a fresh lattice: the session fixture's caches (decompose_ref, disc)
    # would make the call counts depend on which tests ran first
    lat = lt.preset("K3n", 2)
    seen, seen_steps = [], []
    real, real_rows = fc._reflection, fc._rank1_rows
    real_times, real_steps = fc.reflect_times, fc._step_columns

    def checked(lattice, nu, m):
        uu, r = real(lattice, nu, m)
        # a scale uu > 0 and one integer row of m's width
        seen.append(type(uu) is int and uu > 0 and len(r) == len(m[0])
                    and all(type(x) is int for x in r))
        return uu, r

    def checked_rows(uu, rows, v, r):
        out = real_rows(uu, rows, v, r)
        # integer rows, each row that v is zero on scaled by uu alone
        seen.append(len(out) == len(rows)
                    and all(type(x) is int for row in out for x in row)
                    and all(o == [uu * y for y in row]
                            for o, row, x in zip(out, rows, v) if not x))
        return out

    def checked_times(lattice, u, g):
        out = real_times(lattice, u, g)
        seen.append(canonical(out.matrix))
        return out

    def checked_steps(data, cols):
        # integer columns over a power-of-2 factor
        scale = real_steps(data, cols)
        seen_steps.append(type(scale) is int and scale > 0
                          and scale & (scale - 1) == 0
                          and all(type(x) is int for c in cols for x in c))
        return scale
    monkeypatch.setattr(fc, "_reflection", checked)
    monkeypatch.setattr(fc, "_rank1_rows", checked_rows)
    monkeypatch.setattr(fc, "reflect_times", checked_times)
    monkeypatch.setattr(fc, "_step_columns", checked_steps)
    # the fixed rewrite input and the tamper test's word (k = 5 and 23)
    for phi in (_rewrite_input(lat), _random_word(random.Random(73), lat, 3)):
        nf = fc.decompose(lat, phi)
        assert fc.verify_normal_form(nf, phi)["ok"]
    lsub = lt.preset("K3")   # the K3n:2 L-part
    h, w = fc.positive_reflection_rewrite(lsub, lsub.vec([1, 2, 1, -1, 1] + [0] * 17))
    assert h.is_integral() and w.is_integral()
    assert len(seen) > 20 and all(seen)
    assert len(seen_steps) > 5 and all(seen_steps)
