"""JSON encoding shared by the library and the command line.

Scalars serialize as bare ints or "p/q" strings; no floats anywhere.
A lattice reference is either a preset name ("K3", "K3n:2", ...) or an
inline {"gram": [[int]]} object; emitted lattices carry both name and gram
so every emitted document is accepted back unchanged.
"""

import json
from math import gcd, lcm

from . import linalg as la
from .errors import DimensionMismatch, LatticeError
from .factor import NormalForm
from .lattice import LatVec, Lattice, QIsometry, preset
from .mukai import MukaiVector


def scalar_to_json(x):
    x = la.frac(x)
    if isinstance(x, int):
        return x
    return "%d/%d" % (x.numerator, x.denominator)


def _scaled_from_json(row):
    """(nums, d): a JSON row of ints and int or "p/q" strings as integer
    numerators over their least common denominator d > 0, each entry read
    once; anything else (a bool, a float, "1/0", ...) raises ValueError."""
    if all([type(x) is int for x in row]):
        return list(row), 1
    ratios = []
    for s in row:
        if type(s) is not int and type(s) is not str:
            raise ValueError("scalar %r is not an int or a 'p/q' string" % (s,))
        num, den = s.split("/") if type(s) is str and "/" in s else (s, 1)
        p, q = int(num), int(den)
        if q == 0:
            raise ValueError("scalar %r has a zero denominator" % (s,))
        # each p/q in lowest terms with q > 0, so gcd(d, content) = 1
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        ratios.append((p // g, q // g))
    d = lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def scalar_from_json(s):
    """A JSON scalar, by the rule of _scaled_from_json, as an int or a
    reduced Fraction."""
    (n,), d = _scaled_from_json([s])
    return la.quotient(n, d)


def _lattice_ref(lat):
    out = {"gram": [list(row) for row in lat.gram]}
    if lat.name:
        out["name"] = lat.name
    return out


def lattice_to_json(lat):
    """The lattice's reference, built once per lattice: a fresh top-level
    dict on every call, so callers may add keys, over shared gram rows,
    which nobody may mutate."""
    return dict(lat.memo("json", _lattice_ref))


def _scaled_to_json(nums, d):
    """The entries n / d of integer numerators nums over d > 0 as JSON
    scalars: the ints themselves when d == 1, else each in lowest terms."""
    if d == 1:
        return list(nums)
    out = []
    for x in nums:
        g = gcd(x, d)
        out.append(x // d if g == d else "%d/%d" % (x // g, d // g))
    return out


def parse_preset_name(name):
    if ":" in name:
        base, n = name.split(":")
        return preset(base, int(n))
    return preset(name)


def lattice_from_json(obj):
    """A lattice reference: a preset name, or an object with a "name", a
    "gram" or both.  A reference of another JSON type raises TypeError and
    an object with neither field ValueError (exit 3, schema mismatch); a
    name that is no preset and carries no gram raises LatticeError."""
    if isinstance(obj, str):
        return parse_preset_name(obj)
    if not isinstance(obj, dict):
        raise TypeError("lattice reference must be a name or an object, "
                        "not %s" % type(obj).__name__)
    if "name" not in obj and "gram" not in obj:
        raise ValueError("lattice reference object needs a 'name' or a 'gram'")
    # gram entries follow the scalar rule; Lattice refuses non-integers
    gram = ([[scalar_from_json(c) for c in row] for row in obj["gram"]]
            if "gram" in obj else None)
    if "name" in obj:
        # a name that is no preset, as "llv(K3n:2)", labels the gram
        try:
            lat = parse_preset_name(obj["name"])
        except (LatticeError, ValueError):
            lat = None
        if lat is not None:
            if gram is not None and la.mat(gram) != lat.gram:
                raise LatticeError("gram does not match the named preset")
            return lat
    if gram is None:
        raise LatticeError("no preset %r and no gram" % (obj["name"],))
    return Lattice(gram, name=obj.get("name"))


def vector_to_json(v):
    return {"lattice": lattice_to_json(v.lattice),
            "coords": _scaled_to_json(v.nums, v.d)}


def vector_from_json(obj, lattice=None):
    lat = lattice if lattice is not None else lattice_from_json(obj["lattice"])
    nums, d = _scaled_from_json(obj["coords"])
    if len(nums) != lat.rank:
        raise DimensionMismatch("coordinate length does not match rank")
    return LatVec._from_nums(lat, nums, d)


def isometry_to_json(g):
    return {"lattice": lattice_to_json(g.lattice),
            "matrix": [_scaled_to_json(row, g.d) for row in g.nums]}


def isometry_from_json(obj, lattice=None):
    """The isometry of an emitted matrix: its entries read once by
    _scaled_from_json into integer numerators over one denominator, cut
    back into rows of the JSON rows' lengths, and checked (shape first) by
    the untrusted QIsometry.from_scaled."""
    lat = lattice if lattice is not None else lattice_from_json(obj["lattice"])
    rows = obj["matrix"]
    flat, d = _scaled_from_json([x for row in rows for x in row])
    nums, end = [], 0
    for row in rows:
        start, end = end, end + len(row)
        nums.append(flat[start:end])
    return QIsometry.from_scaled(lat, nums, d)


def normal_form_to_json(nf):
    return {"k": nf.k,
            "gammas": [isometry_to_json(g) for g in nf.gammas],
            "us": [vector_to_json(u) for u in nf.us]}


def normal_form_from_json(obj, lattice=None):
    """The certificate obj with every gamma and u on one lattice: the given
    one, else the one the first gamma's reference names.  k must be a JSON
    int: a bool, a float or a string raises ValueError."""
    k, gammas = obj["k"], obj["gammas"]
    if type(k) is not int:
        raise ValueError("field 'k' must be an int, not %s" % json.dumps(k))
    if lattice is None:
        if not gammas:
            raise DimensionMismatch("a normal form needs at least one gamma")
        lattice = lattice_from_json(gammas[0]["lattice"])
    return NormalForm(lattice, k,
                      [isometry_from_json(g, lattice) for g in gammas],
                      [vector_from_json(u, lattice) for u in obj["us"]])


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
