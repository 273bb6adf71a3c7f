"""JSON encoding shared by the library and the command line.

Scalars serialize as bare ints or "p/q" strings; no floats anywhere.
A lattice reference is either a preset name ("K3", "K3n:2", ...) or an
inline {"gram": [[int]]} object; emitted lattices carry both name and gram
so every emitted document is accepted back unchanged.
"""

import json
from fractions import Fraction

from . import linalg as la
from .errors import LatticeError
from .factor import NormalForm
from .lattice import LatVec, Lattice, QIsometry, preset
from .mukai import MukaiVector


def scalar_to_json(x):
    x = la.frac(x)
    if isinstance(x, int):
        return x
    return "%d/%d" % (x.numerator, x.denominator)


def scalar_from_json(s):
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        if "/" in s:
            num, den = s.split("/")
            den = int(den)
            if den == 0:
                raise ValueError("scalar %r has a zero denominator" % (s,))
            return la.frac(Fraction(int(num), den))
        return int(s)
    raise LatticeError("scalar must be an int or a 'p/q' string")


def lattice_to_json(lat):
    out = {"gram": [[int(x) for x in row] for row in lat.gram]}
    if lat.name:
        out["name"] = lat.name
    return out


def parse_preset_name(name):
    if ":" in name:
        base, n = name.split(":")
        return preset(base, int(n))
    return preset(name)


def lattice_from_json(obj):
    if isinstance(obj, str):
        return parse_preset_name(obj)
    if isinstance(obj, dict):
        if "name" in obj:
            try:
                lat = parse_preset_name(obj["name"])
            except LatticeError:
                lat = None
            if lat is not None:
                if "gram" in obj and la.mat(obj["gram"]) != lat.gram:
                    raise LatticeError("gram does not match the named preset")
                return lat
        if "gram" in obj:
            return Lattice(obj["gram"], name=obj.get("name"))
    raise LatticeError("lattice reference must be a name or carry a gram")


def vector_to_json(v):
    return {"lattice": lattice_to_json(v.lattice),
            "coords": [scalar_to_json(c) for c in v.coords]}


def vector_from_json(obj, lattice=None):
    lat = lattice if lattice is not None else lattice_from_json(obj["lattice"])
    return LatVec(lat, [scalar_from_json(c) for c in obj["coords"]])


def isometry_to_json(g):
    return {"lattice": lattice_to_json(g.lattice),
            "matrix": [[scalar_to_json(c) for c in row] for row in g.matrix]}


def isometry_from_json(obj, lattice=None):
    lat = lattice if lattice is not None else lattice_from_json(obj["lattice"])
    rows = [[scalar_from_json(c) for c in row] for row in obj["matrix"]]
    return QIsometry(lat, rows)


def normal_form_to_json(nf):
    return {"k": nf.k,
            "gammas": [isometry_to_json(g) for g in nf.gammas],
            "us": [vector_to_json(u) for u in nf.us]}


def normal_form_from_json(obj, lattice=None):
    k = obj["k"]
    gammas = [isometry_from_json(g, lattice) for g in obj["gammas"]]
    lat = lattice if lattice is not None else gammas[0].lattice
    us = [vector_from_json(u, lat) for u in obj["us"]]
    return NormalForm(lat, k, gammas, us)


def mukai_to_json(m):
    return {"r": scalar_to_json(m.r),
            "c": vector_to_json(m.c),
            "s": scalar_to_json(m.s)}


def mukai_from_json(obj, lattice=None):
    c = vector_from_json(obj["c"], lattice)
    return MukaiVector(scalar_from_json(obj["r"]), c, scalar_from_json(obj["s"]))


def sym_elt_to_json(base_ref, n, data):
    coords = {",".join(str(i) for i in m): scalar_to_json(c)
              for m, c in sorted(data.items())}
    return {"space": {"base": base_ref, "n": n}, "coords": coords}


def sym_elt_from_json(obj):
    n = obj["space"]["n"]
    data = {}
    for key, c in obj["coords"].items():
        m = tuple(int(t) for t in key.split(",")) if key else ()
        data[m] = scalar_from_json(c)
    return obj["space"]["base"], n, data


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
