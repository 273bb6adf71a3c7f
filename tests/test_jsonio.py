import json
import random
from fractions import Fraction

import pytest

from conftest import rand_orientation_preserving, rand_vec
from hklat import factor as fc
from hklat import jsonio as io
from hklat import lattice as lt


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
