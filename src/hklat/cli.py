"""Command-line interface: JSON in, JSON out, deterministic under --seed.

Exit codes: 0 success, 2 contract violation, 3 malformed input, schema
mismatch, an unreadable or unwritable file, or a bad command line; every
failure prints a structured error on stdout.
"""

import argparse
import json
import random
import sys
from math import gcd

from . import factor as fc
from . import jsonio as io
from . import linalg as la
from . import llv as llv_mod
from . import mukai as mk
from . import pontryagin as pg
from . import snrep as sn
from . import transvect as tv
from .errors import LatticeError
from .lattice import (_GROUPS, QIsometry, characters, membership,
                      nu_character, preset)


def _load_payload(args, optional=False):
    """The JSON object of --json or --in; with neither, None if the handler
    can do without one, else ArgumentError."""
    if args.json:
        payload = json.loads(args.json)
    elif args.infile:
        with open(args.infile) as fh:
            payload = json.load(fh)
    elif optional:
        return None
    else:
        raise argparse.ArgumentError(
            None, "no input given (use --json or --in)")
    if not isinstance(payload, dict):
        raise TypeError("the JSON payload must be an object, not %s"
                        % type(payload).__name__)
    return payload


def _write(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, obj):
    _write(args, io.dumps(obj))


def _lattice_from_args(args, payload=None):
    if args.preset:
        return io.parse_preset_name(args.preset)
    if payload and "lattice" in payload:
        return io.lattice_from_json(payload["lattice"])
    raise LatticeError("no lattice given (use --preset or a lattice field)")


def _int_field(payload, name, default=None):
    """payload[name] (default, if given, when absent) as a JSON int; a bool,
    a float or a string raises ValueError naming the field."""
    v = payload[name] if default is None else payload.get(name, default)
    if type(v) is not int:
        raise ValueError("field %r must be an int, not %s"
                         % (name, json.dumps(v)))
    return v


def _n_from_args(args, lat):
    """--n, else the n with (delta, delta) = 2 - 2n."""
    if args.n is not None:
        return args.n
    di = lat.delta_index
    if di is None:
        raise LatticeError("no n given (use --n or a lattice with a delta summand)")
    return int((2 - lat.gram[di][di]) // 2)


def _vec(lat, coords):
    """The vector of lat with the given JSON scalar coordinates."""
    return io.vector_from_json({"coords": coords}, lat)


def _isometry(payload):
    """The isometry a payload is, or carries under "isometry"."""
    return io.isometry_from_json(payload if "matrix" in payload else payload["isometry"])


# -- subcommand handlers ------------------------------------------------------


def cmd_lattice(args):
    if args.action == "preset":
        name = args.name
        if args.n is not None:
            if ":" not in name:
                name = "%s:%d" % (name, args.n)
            elif int(name.split(":")[1]) != args.n:
                raise LatticeError("--n %d disagrees with the preset name %r"
                                   % (args.n, name))
        lat = io.parse_preset_name(name)
    else:
        lat = _lattice_from_args(args, _load_payload(args, optional=True))
    pos, neg = lat.signature()
    out = io.lattice_to_json(lat)
    out.update({"rank": lat.rank, "signature": [pos, neg],
                "det": int(lat.det()), "even": lat.is_even(),
                "disc_divisors": list(lat.disc_group().divisors)})
    _emit(args, out)
    return 0


def cmd_isom(args):
    g = _isometry(_load_payload(args))
    if args.action == "characters":
        nu, dt, disc = characters(g)
        disc_out = disc if disc in (1, -1, "n/a") else ["other",
                                                        [list(r) for r in disc[1]]]
        _emit(args, {"nu": nu, "det": dt, "disc": disc_out})
        return 0
    ok, cert = membership(g, args.group)
    cert_out = {k: (v if not isinstance(v, tuple) else ["other"])
                for k, v in cert.items()}
    _emit(args, {"member": ok, "group": args.group, "certificate": cert_out})
    return 0


def cmd_factor(args):
    payload = _load_payload(args)
    if args.action == "decompose":
        g = _isometry(payload)
        nf = fc.decompose(g.lattice, g)
        _emit(args, io.normal_form_to_json(nf))
        return 0
    phi = io.isometry_from_json(payload["phi"])
    nf = io.normal_form_from_json(payload["normal_form"], phi.lattice)
    report = fc.verify_normal_form(nf, phi)
    _emit(args, {"ok": report["ok"], "k": report["k"],
                 "failures": [[str(p) for p in f] for f in report["failures"]]})
    return 0 if report["ok"] else 2


def cmd_orbit(args):
    payload = _load_payload(args)
    lat = _lattice_from_args(args, payload)
    if args.action == "move":
        x = _vec(lat, payload["x"])
        y = _vec(lat, payload["y"])
        word = tv.eichler_move(lat, x, y)
        g = word.isometry()
        nu, dt, disc = characters(g)
        _emit(args, {"isometry": io.isometry_to_json(g), "word_length": len(word),
                     "nu": nu, "det": dt, "disc": disc})
        return 0
    u = _vec(lat, payload["u"])
    u2 = _vec(lat, payload["u2"])
    h1, h2 = mk.double_orbit_connect(lat, u, u2)
    _emit(args, {"h1": io.isometry_to_json(h1), "h2": io.isometry_to_json(h2),
                 "r": int(u.norm()) // 2})
    return 0


def cmd_llv(args):
    payload = _load_payload(args)
    if args.action == "hilblift":
        # the lift runs from K3 to K3n:n, so no lattice is read
        n = _int_field(payload, "n")
        k3_space = llv_mod.LLVSpace(preset("K3"))
        phi = io.isometry_from_json(payload["phi"], k3_space.lattice)
        k3n_space = llv_mod.LLVSpace(preset("K3n", n))
        lift = llv_mod.hilb_lift(k3_space, k3n_space, phi, n)
        _emit(args, io.isometry_to_json(lift))
        return 0
    lat = _lattice_from_args(args, payload)
    space = llv_mod.LLVSpace(lat)
    if args.action == "bfield":
        lam = _vec(lat, payload["lam"])
        _emit(args, io.isometry_to_json(llv_mod.b_field(space, lam)))
        return 0
    if args.action == "fmline":
        lam = _vec(lat, payload["lam"])
        v = llv_mod.fm_beta_image(space, io.scalar_from_json(payload["r"]), lam)
        _emit(args, io.vector_to_json(v))
        return 0
    if args.action == "normalize":
        phi = io.isometry_from_json(payload["phi"], space.lattice)
        lam_x = _vec(lat, payload["lam_x"])
        lam_y = _vec(lat, payload["lam_y"])
        out, rev = llv_mod.normalize_fm(space, phi, io.scalar_from_json(payload["r"]),
                                        lam_x, lam_y)
        _emit(args, {"isometry": io.isometry_to_json(out), "degree_reversing": rev})
        return 0
    # lefschetz
    phi = io.isometry_from_json(payload["phi"], space.lattice)
    lam = _vec(lat, payload["lam"])
    ed, report = llv_mod.dual_lefschetz_check(space, phi, lam)
    _emit(args, {"e_dual": [[io.scalar_to_json(c) for c in row] for row in ed],
                 "t": io.scalar_to_json(report["t"])})
    return 0


def cmd_snrep(args):
    payload = _load_payload(args, optional=args.action == "dim") or {}
    lat = _lattice_from_args(args, payload)
    space = llv_mod.LLVSpace(lat)
    n = args.n if args.n is not None else _int_field(payload, "n", 2)
    sym = sn.SymSpace(space.lattice, n)
    if args.action == "dim":
        _emit(args, {"d": space.dim, "n": n, "sym_dim": sym.dim(),
                     "sn_dim": sym.sn_dim(),
                     "kernel_rank": len(sym.kernel_basis()[0])})
        return 0
    if args.action == "psi":
        lams = [_vec(lat, v) for v in payload["lams"]]
        x = sn.psi(space, lams, n)
        _emit(args, io.sym_elt_to_json(io.lattice_to_json(lat), n, x))
        return 0
    # recover round trip on a given isometry of the extended lattice
    f = io.isometry_from_json(payload["f"], space.lattice)
    s = f.det() if n % 2 == 0 else 1
    phi = lambda x: sn.sym_scale(s, sym.apply_linear(f, x))
    g = sn.recover(sym, sym, phi)
    _emit(args, {"recovered": io.isometry_to_json(g),
                 "matches_input": g == f or (n % 2 == 0 and g == -f)})
    return 0


def cmd_pontryagin(args):
    lat = _lattice_from_args(args, _load_payload(args, optional=True))
    surface_table = args.action == "table" and lat.delta_index is None
    if args.report == "csv" and not surface_table:
        raise argparse.ArgumentError(
            None, "--report csv prints only the star table of a lattice "
            "with no delta summand")
    if surface_table:
        # surface case: closed-form degree-2 table, which is n = 1
        if args.n not in (None, 1):
            raise LatticeError("the star table of a lattice with no delta "
                               "summand is the surface case n = 1, not "
                               "--n %d" % args.n)
        table = mk.k3_star_table(lat)
        if args.report == "csv":
            lines = [",".join(str(x) for x in row) for row in table]
            _emit(args, {"csv": "\n".join(lines)})
        else:
            _emit(args, {"basis": "H2", "star_table":
                         [[io.scalar_to_json(x) for x in row] for row in table]})
        return 0
    n = _n_from_args(args, lat)
    model = pg.SHModel(llv_mod.LLVSpace(lat), n)
    if args.action == "table":
        d = model.base_rank
        rows = []
        for i in range(d):
            xi = model.element(model.psi_word((i,)))
            row = []
            for j in range(d):
                yj = model.element(model.psi_word((j,)))
                row.append(io.sym_elt_to_json("llv", n, xi.star(yj).data))
            rows.append(row)
        _emit(args, {"basis": "psi(lambda_i)", "star_table": rows})
        return 0
    if args.action == "unit":
        u = model.unit_star()
        _emit(args, {"label": "c_X [pt]/n!",
                     "element": io.sym_elt_to_json("llv", n, u.data)})
        return 0
    # verify
    report = _pontryagin_suite(model, random.Random(args.seed), triples=10)
    _emit(args, report)
    return 0 if report["ok"] else 2


def _pontryagin_suite(model, rng, triples):
    one, pt = model.unit_cup(), model.unit_star()
    ok = True
    checks = []
    for i in range(triples):
        x = model.random_element(rng)
        y = model.random_element(rng)
        z = model.random_element(rng)
        good = (one.cup(x) == x and x.star(pt) == x
                and x.cup(y) == y.cup(x) and x.star(y) == y.star(x)
                and (x.cup(y)).cup(z) == x.cup(y.cup(z))
                and (x.star(y)).star(z) == x.star(y.star(z))
                and x.cup(y).rho_tau() == x.rho_tau().star(y.rho_tau()))
        ok = ok and good
    checks.append({"name": "ring_axioms", "count": triples, "ok": ok})
    return {"ok": ok, "checks": checks, "n": model.n, "dim": model.sym.sn_dim()}


def cmd_mukai(args):
    payload = _load_payload(args)
    lat = preset("K3")
    if args.action in ("v", "kappa"):
        fn = mk.mukai_v if args.action == "v" else mk.kappa
        c1 = _vec(lat, payload["c1"])
        out = fn(lat, io.scalar_from_json(payload["r"]), c1,
                 io.scalar_from_json(payload["ch2"]))
        _emit(args, io.mukai_to_json(out))
        return 0
    if args.action == "star":
        a = io.mukai_from_json(payload["a"], lat)
        b = io.mukai_from_json(payload["b"], lat)
        _emit(args, io.mukai_to_json(mk.k3_star(a, b)))
        return 0
    # cyclic
    u = _vec(lat, payload["u"])
    g = io.isometry_from_json(payload["g"], lat) if "g" in payload \
        else QIsometry.identity(lat)
    cert = mk.make_cyclic(lat, u, g)
    _emit(args, {"r": cert.r, "f": io.isometry_to_json(cert.f),
                 "nu_f": nu_character(cert.f)})
    return 0


# -- the deterministic full suite ---------------------------------------------


def _rand_coords(rng, n):
    """n draws of rng.randint(-2, 2), made as CPython makes them: each is
    getrandbits(3), drawn again while >= 5, minus 2."""
    bits = rng.getrandbits
    out = []
    while len(out) < n:
        r = bits(3)
        if r < 5:
            out.append(r - 2)
    return out


def _rand_vec(rng, lat):
    return lat.vec(_rand_coords(rng, lat.rank))


def _rand_primitive(rng, lat):
    while True:
        v = _rand_vec(rng, lat)
        if not v.is_zero() and v.is_primitive():
            return v


# _rand_reflection reads the randint(-2, 2) stream in batches of
# _BATCH_WORDS Mersenne Twister outputs: getrandbits(32 B) returns B
# consecutive 32-bit outputs least significant first, so byte 4w + 3 of
# its little-endian bytes is the high byte of output w, and getrandbits(3)
# of that output is the high byte >> 5.  _REDRAWN are the high bytes whose
# draw randint redraws (>= 5), _TOP3 maps the rest to b = x + 2.
_BATCH_WORDS = 4096
_TOP3 = bytes(h >> 5 for h in range(256))
_REDRAWN = bytes(range(160, 256))


def _norm_tables(lat):
    """(tables, hits) for the batched norm test of _rand_reflection: one
    (i, j, table) per nonzero Gram term i <= j, the 256-byte translate
    table mapping 5 b_i + b_j to c x_i x_j + off (c = G_ii on the diagonal,
    2 G_ij off it, x = b - 2), and the lane sums norm + base of the norms
    0 < |norm| <= 12, where base = off times the number of terms.  Raises
    LatticeError when a table value or a lane sum would not fit 8 or 16
    bits."""
    n = lat.rank
    terms = [(i, j, lat.gram[i][i] if i == j else 2 * lat.gram[i][j])
             for i in range(n) for j in range(i, n) if lat.gram[i][j]]
    off = 4 * max(abs(c) for _, _, c in terms)
    if 2 * off > 0xFF or 2 * off * len(terms) > 0xFFFF:
        raise LatticeError("Gram entries too large for the batched sampler")
    tables = []
    for i, j, c in terms:
        table = bytearray(256)
        for bi in range(5):
            for bj in range(5):
                table[5 * bi + bj] = c * (bi - 2) * (bj - 2) + off
        tables.append((i, j, bytes(table)))
    base = off * len(terms)
    return tables, frozenset(base + v for v in range(-12, 13) if v)


def _rand_reflection(rng, lat):
    """The reflection in the first primitive draw with 0 < |norm| <= 12,
    negated on a coin flip: the draws, the flip and the generator state
    after the call are those of drawing rank values of _rand_coords per
    try.  A batch's complete tries are tested at once: int column i holds
    coordinate i of every try, one byte each, so col_i 5 + col_j is every
    try's table index for term (i, j); the translated terms, widened to
    16-bit lanes, add up to norm + base per try (_norm_tables).  Draws of
    an incomplete try carry over to the next batch.  The generator is then
    rewound to the start of the last batch and replays its words up to the
    last draw used."""
    rank = lat.rank
    tables, hits = lat.memo("rand_norm", _norm_tables)
    draws = b""
    while True:
        state = rng.getstate()
        high = rng.getrandbits(32 * _BATCH_WORDS).to_bytes(
            4 * _BATCH_WORDS, "little")[3::4]
        carried = len(draws)
        draws += high.translate(_TOP3, _REDRAWN)
        m = len(draws) // rank
        if m:
            cols = [int.from_bytes(draws[i:m * rank:rank], "little")
                    for i in range(rank)]
            lane = bytearray(2 * m)
            total = 0
            for i, j, table in tables:
                lane[::2] = (cols[i] * 5 + cols[j]).to_bytes(
                    m, "little").translate(table)
                total += int.from_bytes(lane, "little")
            sums = total.to_bytes(2 * m, "little")
            for t in range(m):
                if sums[2 * t] | sums[2 * t + 1] << 8 not in hits:
                    continue
                c = [b - 2 for b in draws[t * rank:(t + 1) * rank]]
                if gcd(*c) == 1:
                    # the words of this batch up to its last draw used:
                    # the fewest whose high bytes keep `last` draws
                    last = used = (t + 1) * rank - carried
                    while (kept := len(high[:used].translate(
                            None, _REDRAWN))) < last:
                        used += last - kept
                    rng.setstate(state)
                    rng.getrandbits(32 * used)
                    r = fc.reflect(lat, lat.vec(c))
                    return -r if rng.random() < 0.5 else r
        draws = draws[m * rank:]


def cmd_verify(args):
    rng = random.Random(args.seed)
    report = {"seed": args.seed, "items": []}
    ok_all = True

    def item(name, ok, **extra):
        nonlocal ok_all
        ok_all = ok_all and bool(ok)
        entry = {"name": name, "ok": bool(ok)}
        entry.update(extra)
        report["items"].append(entry)

    # presets and pairing laws
    k3 = preset("K3")
    k32 = preset("K3n", 2)
    item("presets", k3.rank == 22 and k3.signature() == (3, 19)
         and k32.rank == 23 and list(k32.disc_group().divisors) == [2])
    sym_ok = True
    for _ in range(10):
        x, y = _rand_vec(rng, k3), _rand_vec(rng, k3)
        sym_ok = sym_ok and x.pair(y) == y.pair(x)
    item("pairing_symmetry", sym_ok, count=10)

    # transvection reduction contracts
    tr_ok = True
    for _ in range(5):
        x = _rand_primitive(rng, k3)
        g = tv.reduce_to_canonical(k3, x).isometry()
        tr_ok = tr_ok and g.apply(x) == tv.canonical_vector(k3, x.norm())
        nu, dt, disc = characters(g)
        tr_ok = tr_ok and (nu, dt, disc) == (1, 1, 1)
    item("eichler_reduction", tr_ok, count=5)

    # proof constants: rho_{u+delta}(delta) = 2d u + (1+2d) delta
    const_ok = True
    for d in range(1, 6):
        lat = preset("K3n", d + 1)
        u = tv.canonical_vector(lat, 2 * d + 2)
        w = u + lat.basis_vec(lat.delta_index)
        const_ok = const_ok and w.norm() == 2
        img = fc.reflect(lat, w).apply(lat.basis_vec(lat.delta_index))
        want = (2 * d) * u + (1 + 2 * d) * lat.basis_vec(lat.delta_index)
        const_ok = const_ok and img == want
    item("reflection_delta_constants", const_ok, d_range=[1, 5])

    # normal form round trips (decompose raises on a failing certificate)
    for _ in range(3):
        phi = QIsometry.identity(k32)
        for _ in range(3):
            phi = _rand_reflection(rng, k32) * phi
        if nu_character(phi) == -1:
            phi = fc.reflect(k32, k32.vec([1, -1] + [0] * 21)) * phi
        fc.decompose(k32, phi)
    item("normal_form_roundtrip", True, count=3)

    # llv identities
    space = llv_mod.LLVSpace(k3)
    lam = _rand_vec(rng, k3)
    mu_v = _rand_vec(rng, k3)
    bb = (llv_mod.b_field(space, lam) * llv_mod.b_field(space, mu_v)
          == llv_mod.b_field(space, lam + mu_v))
    iso_ok = all(llv_mod.fm_beta_image(space, rng.randint(1, 5),
                                       _rand_vec(rng, k3)).norm() == 0
                 for _ in range(5))
    lam2 = k3.vec([1, -1] + [0] * 20)
    ed, _rep = llv_mod.dual_lefschetz_check(space, llv_mod.tau(space), lam2)
    sl2 = llv_mod.sl2_check(space, llv_mod.e_op(space, lam2), ed,
                            llv_mod.grading(space))
    k32_space = llv_mod.LLVSpace(k32)
    f = fc.reflect(k3, k3.vec([0, 0, 1, -1] + [0] * 18))
    phi_t = llv_mod.tau(space) * llv_mod.mu(space, 2) * llv_mod.extend_to_llv(space, f)
    kern = llv_mod.verify_kernel_identity(space, k32_space, phi_t, 2, 2,
                                          _rand_vec(rng, k3), _rand_vec(rng, k3))
    item("llv_identities", bb and iso_ok and sl2 and kern)

    # symmetric power dims and recover
    small = llv_mod.LLVSpace(preset("Kummer", 2))  # rank 7 -> dim 9
    s2 = sn.SymSpace(small.lattice, 2)
    dims_ok = s2.sn_dim() == len(s2.kernel_basis()[0])
    f0 = QIsometry.identity(small.lattice)
    for _ in range(2):
        while True:
            v = _rand_vec(rng, small.lattice)
            if v.norm() != 0:
                break
        f0 = fc.reflect(small.lattice, v) * f0
    phi = lambda x: sn.sym_scale(f0.det(), s2.apply_linear(f0, x))
    rec = sn.recover(s2, s2, phi)
    item("snrep_recover", dims_ok and (rec == f0 or rec == -f0))

    # pontryagin model
    model = pg.SHModel(llv_mod.LLVSpace(k32), 2)
    psuite = _pontryagin_suite(model, rng, triples=5)
    item("pontryagin_model", psuite["ok"], dim=psuite["dim"])

    # mukai closed forms
    lamA = k3.vec([1, -1] + [0] * 20)
    lamB = k3.vec([0, 0, 1, 1] + [0] * 18)
    a = mk.MukaiVector(0, lamA, 0)
    b = mk.MukaiVector(0, lamB, 0)
    pt = mk.MukaiVector(0, k3.zero(), 1)
    star_ok = (mk.k3_star(a, b) == mk.MukaiVector(lamA.pair(lamB), k3.zero(), 0)
               and mk.k3_star(a, pt) == a)
    u4 = k3.vec([1, -2] + [0] * 20)
    cert = mk.make_cyclic(k3, u4, QIsometry.identity(k3))
    star_ok = star_ok and cert.r == 2 and mk.verify_cyclic(cert.f, cert)
    item("mukai_closed_forms", star_ok)

    report["ok"] = ok_all
    if args.report == "text":
        lines = ["%-32s %s" % (it["name"], "ok" if it["ok"] else "FAIL")
                 for it in report["items"]]
        lines.append("suite %s (seed %d)" % ("ok" if ok_all else "FAIL", args.seed))
        _write(args, "\n".join(lines) + "\n")
    else:
        _emit(args, report)
    return 0 if ok_all else 2


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError on a bad command line instead of exiting, so
    that main reports it as structured JSON."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


_IO = ("--in", "--json", "--out")
_FLAGS = {
    "--in": dict(dest="infile", help="input JSON file"),
    "--json": dict(help="inline input JSON"),
    "--out": dict(help="output path (default stdout)"),
    "--seed": dict(type=int, default=0, help="seed for randomized parts"),
    "--preset": dict(help="lattice preset name, e.g. K3 or K3n:2"),
    "--n": dict(type=int, default=None),
    "--name": dict(help="preset name for 'preset'"),
    "--group": dict(default="Gamma", choices=_GROUPS),
}
# the --report formats of the subcommands that print more than JSON
_REPORTS = {"pontryagin": ["json", "csv"], "verify": ["json", "text"]}
# (subcommand, handler, actions, the flags its handler reads besides --report)
_COMMANDS = [
    ("lattice", cmd_lattice, ["info", "preset"], _IO + ("--preset", "--n", "--name")),
    ("isom", cmd_isom, ["characters", "membership"], _IO + ("--group",)),
    ("factor", cmd_factor, ["decompose", "verify"], _IO),
    ("orbit", cmd_orbit, ["move", "connect"], _IO + ("--preset",)),
    ("llv", cmd_llv, ["bfield", "fmline", "normalize", "lefschetz", "hilblift"],
     _IO + ("--preset",)),
    ("snrep", cmd_snrep, ["dim", "psi", "recover"], _IO + ("--preset", "--n")),
    ("pontryagin", cmd_pontryagin, ["table", "unit", "verify"],
     _IO + ("--preset", "--n", "--seed")),
    ("mukai", cmd_mukai, ["v", "kappa", "star", "cyclic"], _IO),
    ("verify", cmd_verify, ["all"], ("--out", "--seed")),
]


def build_parser():
    ap = _Parser(prog="hklat", description="exact lattice isometry toolkit")
    sub = ap.add_subparsers(dest="group", required=True)
    for name, func, actions, flags in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("action", choices=actions)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if name in _REPORTS:
            p.add_argument("--report", choices=_REPORTS[name], default="json")
        p.set_defaults(func=func)
    return ap


def _fail(exc, code):
    sys.stdout.write(io.dumps({"error": {"type": type(exc).__name__,
                                         "message": str(exc)}}))
    return code


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except LatticeError as exc:
        return _fail(exc, 2)
    except (argparse.ArgumentError, KeyError, OSError, TypeError, ValueError) as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
