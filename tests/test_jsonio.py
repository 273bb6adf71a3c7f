import importlib
import json
import os
import random
import sys
from fractions import Fraction

import pytest

from conftest import canonical_form, rand_orientation_preserving, rand_vec
from hklat import factor as fc
from hklat import jsonio as io
from hklat import linalg as la
from hklat import lattice as lt
from hklat import llv
from hklat.cli import main
from hklat.errors import DimensionMismatch, NotAnIsometry


def test_scalar_roundtrip():
    for x in (0, 7, -3, Fraction(2, 3), Fraction(-11, 4)):
        assert io.scalar_from_json(io.scalar_to_json(x)) == x
    assert io.scalar_to_json(Fraction(4, 2)) == 2


def test_lattice_roundtrip(k3, k3n2):
    for lat in (k3, k3n2, lt.preset("U")):
        obj = io.lattice_to_json(lat)
        back = io.lattice_from_json(obj)
        assert back.gram == lat.gram
        # names parse too
        if lat.name:
            assert io.lattice_from_json(lat.name).gram == lat.gram
    text = io.dumps(io.lattice_to_json(k3))
    assert io.lattice_from_json(json.loads(text)).gram == k3.gram


def test_vector_isometry_roundtrip(k3n2):
    rng = random.Random(229)
    v = Fraction(1, 3) * rand_vec(rng, k3n2)
    obj = io.vector_to_json(v)
    assert io.vector_from_json(obj) == v
    g = rand_orientation_preserving(rng, k3n2, 2)
    gj = io.isometry_to_json(g)
    assert io.isometry_from_json(gj) == g


def test_normal_form_roundtrip(k3n2):
    rng = random.Random(233)
    phi = rand_orientation_preserving(rng, k3n2, 3)
    nf = fc.decompose(k3n2, phi)
    obj = io.normal_form_to_json(nf)
    text = io.dumps(obj)
    back = io.normal_form_from_json(json.loads(text), k3n2)
    assert back.k == nf.k
    assert back.gammas == nf.gammas
    assert back.us == nf.us
    assert io.dumps(io.normal_form_to_json(back)) == text
    assert fc.verify_normal_form(back, phi)["ok"]


def test_mukai_roundtrip(k3):
    rng = random.Random(239)
    from hklat import mukai as mk
    m = mk.MukaiVector(Fraction(3, 2), rand_vec(rng, k3), -4)
    assert io.mukai_from_json(io.mukai_to_json(m)) == m


def test_sym_elt_roundtrip():
    data = {(0, 3): Fraction(1, 2), (1, 1): -2, (): 3}
    data = {k: v for k, v in data.items() if len(k) == 2 or k == ()}
    obj = io.sym_elt_to_json("llv", 2, {(0, 3): Fraction(1, 2), (1, 1): -2})
    base, n, back = io.sym_elt_from_json(obj)
    assert n == 2 and back == {(0, 3): Fraction(1, 2), (1, 1): -2}


def test_scalar_rule_refuses_bools_floats_and_float_strings():
    for bad in (True, False, 1.0, 2.5, "1.0", "1/2.0", None, [1]):
        with pytest.raises(ValueError):
            io.scalar_from_json(bad)
    # gram entries follow the same rule
    with pytest.raises(ValueError):
        io.lattice_from_json({"gram": [[0, -1], [-1, 0.0]]})
    with pytest.raises(ValueError):
        io.lattice_from_json({"name": "U", "gram": [[0, True], [-1, 0]]})
    assert io.lattice_from_json({"gram": [["0", -1], [-1, "0/3"]]}).gram \
        == ((0, -1), (-1, 0))


def test_vector_reader_refuses_bad_coords(k3n2):
    """vector_from_json reads each entry by the scalar rule: a bool, a
    float, a zero denominator or a non-numeric string raises ValueError (a
    CLI exit 3), and a coordinate list of the wrong length
    DimensionMismatch; "p/q" entries in any terms give the reduced
    vector."""
    obj = io.vector_to_json(k3n2.vec([1, -2] + [0] * 21))
    for bad in (True, 1.0, "1/0", "x"):
        with pytest.raises(ValueError):
            io.vector_from_json(dict(obj, coords=[bad] + obj["coords"][1:]))
    for coords in (obj["coords"][:-1], obj["coords"] + [0]):
        with pytest.raises(DimensionMismatch):
            io.vector_from_json(dict(obj, coords=coords))
    v = io.vector_from_json(dict(obj, coords=["2/4", "-6/-3", "3/-9"] + [0] * 20))
    assert v == k3n2.vec([Fraction(1, 2), 2, Fraction(-1, 3)] + [0] * 20)
    assert (v.nums[:3], v.d) == ((3, 12, -2), 6)


# -- the integer-form emitter against the per-entry encoder it replaced -------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _per_entry_scalar(x):
    x = la.frac(x)
    if isinstance(x, int):
        return x
    return "%d/%d" % (x.numerator, x.denominator)


def _per_entry_lattice(lat):
    out = {"gram": [[int(x) for x in row] for row in lat.gram]}
    if lat.name:
        out["name"] = lat.name
    return out


def _per_entry_vector(v):
    return {"lattice": _per_entry_lattice(v.lattice),
            "coords": [_per_entry_scalar(c) for c in v.coords]}


def _per_entry_isometry(g):
    return {"lattice": _per_entry_lattice(g.lattice),
            "matrix": [[_per_entry_scalar(c) for c in row] for row in g.matrix]}


def _per_entry_normal_form(nf):
    """The encoder that wrote every entry of the Fraction view through
    la.frac and built each lattice reference afresh."""
    return {"k": nf.k,
            "gammas": [_per_entry_isometry(g) for g in nf.gammas],
            "us": [_per_entry_vector(u) for u in nf.us]}


@pytest.fixture(scope="module")
def deck_certificates():
    """The normal forms of the factor-k3n2 deck of perfbench (pool 1001)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(os.path.join(ROOT, "perfbench"))
        inputs = importlib.import_module("workloads").FactorK3n2(
            pool_seed=1001).deck()
    lat = lt.preset("K3n", 2)
    return [fc.decompose(lat, io.isometry_from_json(inp["phi"], lat))
            for inp in inputs]


def test_emitter_matches_the_per_entry_encoder(deck_certificates, k3n2):
    assert [nf.k for nf in deck_certificates] == [25, 25, 24, 0, 23, 25, 7]
    for nf in deck_certificates:
        assert (io.dumps(io.normal_form_to_json(nf))
                == io.dumps(_per_entry_normal_form(nf)))
    # a reflection in a norm-4 vector of divisibility 1 has d = 2, and a
    # B-field of a rational lambda a larger d
    v = k3n2.vec([1, -2] + [0] * 21)
    r = fc.reflect(k3n2, v)
    space = llv.LLVSpace(k3n2)
    lam = k3n2.vec([Fraction(1, 3), 1, 0, -2] + [0] * 18 + [Fraction(1, 2)])
    b = llv.b_field(space, lam)
    assert v.norm() == 4 and r.d == 2 and b.d > 2
    rng = random.Random(241)
    for g in (r, b, llv.b_field(space, rand_vec(rng, k3n2)),
              rand_orientation_preserving(rng, k3n2, 2)):
        assert io.dumps(io.isometry_to_json(g)) == io.dumps(_per_entry_isometry(g))
    for x in (v, Fraction(-5, 6) * rand_vec(rng, k3n2), lam, k3n2.zero()):
        assert io.dumps(io.vector_to_json(x)) == io.dumps(_per_entry_vector(x))


def test_certificate_loads_onto_one_lattice(deck_certificates, k3n2):
    """A certificate read with no lattice given puts every gamma and u on
    the one lattice its first gamma names, and verifies as it does when
    the lattice is given; with no gamma there is no lattice to read."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(os.path.join(ROOT, "perfbench"))
        phi_obj = importlib.import_module("workloads").FactorK3n2(
            pool_seed=1001).deck()[0]["phi"]
    nf = deck_certificates[0]
    assert nf.k == 25
    obj = json.loads(io.dumps(io.normal_form_to_json(nf)))
    loaded = io.normal_form_from_json(obj)
    lat = loaded.lattice
    assert lat == k3n2 and lat is not k3n2
    assert all(g.lattice is lat for g in loaded.gammas)
    assert all(u.lattice is lat for u in loaded.us)
    assert loaded.gammas == nf.gammas and loaded.us == nf.us
    report = fc.verify_normal_form(loaded, io.isometry_from_json(phi_obj, lat))
    given = io.normal_form_from_json(obj, k3n2)
    assert report["ok"] and report == fc.verify_normal_form(
        given, io.isometry_from_json(phi_obj, k3n2))
    with pytest.raises(DimensionMismatch):
        io.normal_form_from_json({"k": 0, "gammas": [], "us": []})
    with pytest.raises(DimensionMismatch):
        io.normal_form_from_json({"k": 0, "gammas": [], "us": []}, k3n2)


def test_lattice_reference_is_fresh_per_call(capsys, monkeypatch):
    """cmd_lattice adds rank, signature, det, ... to the reference it gets;
    the next isometry of the same lattice object carries none of them."""
    lat = lt.preset("K3n", 2)
    monkeypatch.setattr(io, "parse_preset_name", lambda name: lat)
    assert main(["lattice", "info", "--preset", "K3n:2"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 23
    ref = io.isometry_to_json(lt.QIsometry.identity(lat))["lattice"]
    assert set(ref) == {"gram", "name"}
    assert io.lattice_to_json(lat) == ref and io.lattice_to_json(lat) is not ref


# -- the untrusted loader ------------------------------------------------------


def test_loader_refuses_what_it_refused(deck_certificates, k3n2):
    gid = io.isometry_to_json(lt.QIsometry.identity(k3n2))
    for bad in (True, 1.0):
        obj = json.loads(json.dumps(gid))
        obj["matrix"][3][3] = bad
        # the scalar rule of the JSON reader, as before
        with pytest.raises(ValueError):
            io.isometry_from_json(obj)
        # the untrusted constructor's own entry rule
        with pytest.raises(TypeError):
            lt.QIsometry(k3n2, obj["matrix"])
    for rows in ([row[:-1] if i == 5 else row
                  for i, row in enumerate(gid["matrix"])],
                 gid["matrix"][:-1]):
        with pytest.raises(DimensionMismatch):
            io.isometry_from_json(dict(gid, matrix=rows))
        with pytest.raises(DimensionMismatch):
            lt.QIsometry(k3n2, rows)
    # one entry of a deck gamma changed, on the diagonal and off it
    g = max((g for nf in deck_certificates for g in nf.gammas),
            key=lambda g: sum(1 for row in g.nums for x in row if x))
    obj = io.isometry_to_json(g)
    assert io.isometry_from_json(obj) == g
    for i, j in ((4, 4), (0, 9), (17, 2)):
        bent = json.loads(json.dumps(obj))
        bent["matrix"][i][j] += 1
        with pytest.raises(NotAnIsometry):
            io.isometry_from_json(bent)
        bent["matrix"][i][j] = "%d/2" % (2 * g.nums[i][j] + 1)
        with pytest.raises(NotAnIsometry):
            io.isometry_from_json(bent)


def test_rational_isometry_loads_without_a_view(k3n2):
    """A rational matrix is read into (nums, d) and checked by
    QIsometry.from_scaled: the loaded isometry equals the emitted one, holds
    the canonical form and has built no normalized view."""
    g = fc.reflect(k3n2, k3n2.vec([1, 2] + [0] * 21))   # norm -4, d = 2
    assert g.d == 2
    h = io.isometry_from_json(io.isometry_to_json(g))
    assert h == g and canonical_form(h) and h._matrix is None
    # the content common to nums and d is divided out, as by _of
    doubled = [[2 * x for x in row] for row in g.nums]
    assert lt.QIsometry.from_scaled(k3n2, doubled, 2 * g.d) == g
    with pytest.raises(NotAnIsometry):
        lt.QIsometry.from_scaled(k3n2, doubled, g.d)
    with pytest.raises(DimensionMismatch):
        lt.QIsometry.from_scaled(k3n2, g.nums[:-1], g.d)
