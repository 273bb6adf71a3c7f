"""Command-line interface: JSON in, JSON out, deterministic under --seed.

Exit codes: 0 success, 2 contract violation (structured error on stdout),
3 malformed input or schema mismatch.
"""

import argparse
import json
import random
import sys

from . import factor as fc
from . import jsonio as io
from . import linalg as la
from . import llv as llv_mod
from . import mukai as mk
from . import pontryagin as pg
from . import snrep as sn
from . import transvect as tv
from .errors import LatticeError
from .lattice import (LatVec, QIsometry, characters, membership, nu_character,
                      preset)


def _load_payload(args):
    if getattr(args, "json", None):
        return json.loads(args.json)
    if getattr(args, "infile", None):
        with open(args.infile) as fh:
            return json.load(fh)
    return None


def _emit(args, obj):
    text = io.dumps(obj)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lattice_from_args(args, payload=None):
    if getattr(args, "preset", None):
        return io.parse_preset_name(args.preset)
    if payload and "lattice" in payload:
        return io.lattice_from_json(payload["lattice"])
    raise LatticeError("no lattice given (use --preset or a lattice field)")


# -- subcommand handlers ------------------------------------------------------


def cmd_lattice(args):
    if args.action == "preset":
        lat = io.parse_preset_name(args.name if ":" in args.name or args.n is None
                                   else "%s:%d" % (args.name, args.n))
    else:
        lat = _lattice_from_args(args, _load_payload(args))
    pos, neg = lat.signature()
    out = io.lattice_to_json(lat)
    out.update({"rank": lat.rank, "signature": [pos, neg],
                "det": int(lat.det()), "even": lat.is_even(),
                "disc_divisors": list(lat.disc_group().divisors)})
    _emit(args, out)
    return 0


def cmd_isom(args):
    payload = _load_payload(args)
    g = io.isometry_from_json(payload if "matrix" in payload else payload["isometry"])
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
        g = io.isometry_from_json(payload if "matrix" in payload else payload["isometry"])
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
        x = LatVec(lat, [io.scalar_from_json(c) for c in payload["x"]])
        y = LatVec(lat, [io.scalar_from_json(c) for c in payload["y"]])
        word = tv.eichler_move(lat, x, y)
        g = word.isometry()
        nu, dt, disc = characters(g)
        _emit(args, {"isometry": io.isometry_to_json(g), "word_length": len(word),
                     "nu": nu, "det": dt, "disc": disc})
        return 0
    u = LatVec(lat, [io.scalar_from_json(c) for c in payload["u"]])
    u2 = LatVec(lat, [io.scalar_from_json(c) for c in payload["u2"]])
    h1, h2 = mk.double_orbit_connect(lat, u, u2)
    _emit(args, {"h1": io.isometry_to_json(h1), "h2": io.isometry_to_json(h2),
                 "r": int(u.norm()) // 2})
    return 0


def cmd_llv(args):
    payload = _load_payload(args)
    lat = _lattice_from_args(args, payload)
    space = llv_mod.LLVSpace(lat)
    if args.action == "bfield":
        lam = LatVec(lat, [io.scalar_from_json(c) for c in payload["lam"]])
        _emit(args, io.isometry_to_json(llv_mod.b_field(space, lam)))
        return 0
    if args.action == "fmline":
        lam = LatVec(lat, [io.scalar_from_json(c) for c in payload["lam"]])
        v = llv_mod.fm_beta_image(space, io.scalar_from_json(payload["r"]), lam)
        _emit(args, io.vector_to_json(v))
        return 0
    if args.action == "normalize":
        phi = io.isometry_from_json(payload["phi"], space.lattice)
        lam_x = LatVec(lat, [io.scalar_from_json(c) for c in payload["lam_x"]])
        lam_y = LatVec(lat, [io.scalar_from_json(c) for c in payload["lam_y"]])
        out, rev = llv_mod.normalize_fm(space, phi, io.scalar_from_json(payload["r"]),
                                        lam_x, lam_y)
        _emit(args, {"isometry": io.isometry_to_json(out), "degree_reversing": rev})
        return 0
    if args.action == "lefschetz":
        phi = io.isometry_from_json(payload["phi"], space.lattice)
        lam = LatVec(lat, [io.scalar_from_json(c) for c in payload["lam"]])
        ed, report = llv_mod.dual_lefschetz_check(space, phi, lam)
        _emit(args, {"e_dual": [[io.scalar_to_json(c) for c in row] for row in ed],
                     "t": io.scalar_to_json(report["t"])})
        return 0
    # hilblift
    n = payload["n"]
    k3 = preset("K3")
    k3_space = llv_mod.LLVSpace(k3)
    phi = io.isometry_from_json(payload["phi"], k3_space.lattice)
    k3n_space = llv_mod.LLVSpace(preset("K3n", n))
    lift = llv_mod.hilb_lift(k3_space, k3n_space, phi, n)
    _emit(args, io.isometry_to_json(lift))
    return 0


def cmd_snrep(args):
    payload = _load_payload(args) or {}
    lat = _lattice_from_args(args, payload)
    space = llv_mod.LLVSpace(lat)
    n = args.n if args.n is not None else payload.get("n", 2)
    sym = sn.SymSpace(space.lattice, n)
    if args.action == "dim":
        _emit(args, {"d": space.dim, "n": n, "sym_dim": sym.dim(),
                     "sn_dim": sym.sn_dim(),
                     "kernel_rank": len(sym.kernel_basis()[0])})
        return 0
    if args.action == "psi":
        lams = [LatVec(lat, [io.scalar_from_json(c) for c in v])
                for v in payload["lams"]]
        x = sn.psi(space, lams, n)
        _emit(args, io.sym_elt_to_json(io.lattice_to_json(lat), n, x))
        return 0
    # recover round trip on a given isometry of the extended lattice
    f = io.isometry_from_json(payload["f"], space.lattice)
    if n % 2 == 0:
        phi = lambda x: sn.sym_scale(f.det(), sym.apply_linear(f.matrix, x))
    else:
        phi = lambda x: sym.apply_linear(f.matrix, x)
    g = sn.recover(sym, sym, phi)
    _emit(args, {"recovered": io.isometry_to_json(g),
                 "matches_input": g == f or (n % 2 == 0 and g == -f)})
    return 0


def cmd_pontryagin(args):
    payload = _load_payload(args) or {}
    if args.action == "table":
        lat = _lattice_from_args(args, payload)
        if lat.delta_index is None:
            # surface case: closed-form degree-2 table
            table = mk.k3_star_table(lat)
            if args.report == "csv":
                lines = [",".join(str(x) for x in row) for row in table]
                _emit(args, {"csv": "\n".join(lines)})
            else:
                _emit(args, {"basis": "H2", "star_table":
                             [[io.scalar_to_json(x) for x in row] for row in table]})
            return 0
        n = args.n if args.n is not None else int((2 - lat.gram[-1][-1]) // 2)
        model = pg.SHModel(llv_mod.LLVSpace(lat), n)
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
        lat = _lattice_from_args(args, payload)
        n = args.n if args.n is not None else int((2 - lat.gram[-1][-1]) // 2)
        model = pg.SHModel(llv_mod.LLVSpace(lat), n)
        u = model.unit_star()
        _emit(args, {"label": "c_X [pt]/n!",
                     "element": io.sym_elt_to_json("llv", n, u.data)})
        return 0
    # verify
    rng = random.Random(args.seed)
    lat = _lattice_from_args(args, payload)
    n = args.n if args.n is not None else int((2 - lat.gram[-1][-1]) // 2)
    model = pg.SHModel(llv_mod.LLVSpace(lat), n)
    report = _pontryagin_suite(model, rng, triples=10)
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
    if args.action == "v":
        c1 = LatVec(lat, [io.scalar_from_json(c) for c in payload["c1"]])
        out = mk.mukai_v(lat, io.scalar_from_json(payload["r"]), c1,
                         io.scalar_from_json(payload["ch2"]))
        _emit(args, io.mukai_to_json(out))
        return 0
    if args.action == "kappa":
        c1 = LatVec(lat, [io.scalar_from_json(c) for c in payload["c1"]])
        out = mk.kappa(lat, io.scalar_from_json(payload["r"]), c1,
                       io.scalar_from_json(payload["ch2"]))
        _emit(args, io.mukai_to_json(out))
        return 0
    if args.action == "star":
        a = io.mukai_from_json(payload["a"], lat)
        b = io.mukai_from_json(payload["b"], lat)
        _emit(args, io.mukai_to_json(mk.k3_star(a, b)))
        return 0
    # cyclic
    u = LatVec(lat, [io.scalar_from_json(c) for c in payload["u"]])
    g = io.isometry_from_json(payload["g"], lat) if "g" in payload \
        else QIsometry.identity(lat)
    cert = mk.make_cyclic(lat, u, g)
    _emit(args, {"r": cert.r, "f": io.isometry_to_json(cert.f),
                 "nu_f": nu_character(cert.f)})
    return 0


# -- the deterministic full suite ---------------------------------------------


def _rand_vec(rng, lat, bound=2):
    return lat.vec([rng.randint(-bound, bound) for _ in range(lat.rank)])


def _rand_primitive(rng, lat, bound=2):
    while True:
        v = _rand_vec(rng, lat, bound)
        if not v.is_zero() and v.is_primitive():
            return v


def _rand_reflection(rng, lat, max_abs=12):
    while True:
        v = _rand_primitive(rng, lat)
        nv = v.norm()
        if nv != 0 and abs(nv) <= max_abs:
            r = fc.reflect(lat, v)
            return -r if rng.random() < 0.5 else r


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
        u = fc.embed_l_vector(lat, tv.canonical_vector(fc.l_sublattice(lat),
                                                       2 * d + 2))
        ud = list(u.coords)
        ud[lat.delta_index] += 1
        w = LatVec(lat, ud)
        const_ok = const_ok and w.norm() == 2
        img = fc.reflect(lat, w).apply(lat.basis_vec(lat.delta_index))
        want = (2 * d) * u + (1 + 2 * d) * lat.basis_vec(lat.delta_index)
        const_ok = const_ok and img == want
    item("reflection_delta_constants", const_ok, d_range=[1, 5])

    # normal form round trips
    nf_ok = True
    for _ in range(3):
        phi = QIsometry.identity(k32)
        for _ in range(3):
            phi = _rand_reflection(rng, k32) * phi
        if nu_character(phi) == -1:
            phi = fc.reflect(k32, k32.vec([1, -1] + [0] * 21)) * phi
        nf = fc.decompose(k32, phi)
        nf_ok = nf_ok and fc.verify_normal_form(nf, phi)["ok"]
    item("normal_form_roundtrip", nf_ok, count=3)

    # llv identities
    space = llv_mod.LLVSpace(k3)
    lam = _rand_vec(rng, k3)
    mu_v = _rand_vec(rng, k3)
    bb = (llv_mod.b_field(space, lam) * llv_mod.b_field(space, mu_v)).matrix \
        == llv_mod.b_field(space, lam + mu_v).matrix
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
    phi = lambda x: sn.sym_scale(f0.det(), s2.apply_linear(f0.matrix, x))
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
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _emit(args, report)
    return 0 if ok_all else 2


# -- argument parsing ---------------------------------------------------------


def _add_common(p):
    p.add_argument("--in", dest="infile", help="input JSON file")
    p.add_argument("--json", help="inline input JSON")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized parts")
    p.add_argument("--preset", help="lattice preset name, e.g. K3 or K3n:2")
    p.add_argument("--report", choices=["json", "csv", "text"], default="json")
    p.add_argument("--n", type=int, default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="hklat",
                                 description="exact lattice isometry toolkit")
    sub = ap.add_subparsers(dest="group", required=True)

    p = sub.add_parser("lattice")
    p.add_argument("action", choices=["info", "preset"])
    p.add_argument("--name", help="preset name for 'preset'")
    _add_common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("isom")
    p.add_argument("action", choices=["characters", "membership"])
    p.add_argument("--group", default="Gamma",
                   choices=["O", "O+", "Gamma", "Gamma0", "Mon_K3n"])
    _add_common(p)
    p.set_defaults(func=cmd_isom)

    p = sub.add_parser("factor")
    p.add_argument("action", choices=["decompose", "verify"])
    _add_common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("orbit")
    p.add_argument("action", choices=["move", "connect"])
    _add_common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("llv")
    p.add_argument("action", choices=["bfield", "fmline", "normalize",
                                      "lefschetz", "hilblift"])
    _add_common(p)
    p.set_defaults(func=cmd_llv)

    p = sub.add_parser("snrep")
    p.add_argument("action", choices=["dim", "psi", "recover"])
    _add_common(p)
    p.set_defaults(func=cmd_snrep)

    p = sub.add_parser("pontryagin")
    p.add_argument("action", choices=["table", "unit", "verify"])
    _add_common(p)
    p.set_defaults(func=cmd_pontryagin)

    p = sub.add_parser("mukai")
    p.add_argument("action", choices=["v", "kappa", "star", "cyclic"])
    _add_common(p)
    p.set_defaults(func=cmd_mukai)

    p = sub.add_parser("verify")
    p.add_argument("action", choices=["all"])
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except LatticeError as exc:
        sys.stdout.write(io.dumps({"error": {"type": type(exc).__name__,
                                             "message": str(exc)}}))
        return 2
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        sys.stdout.write(io.dumps({"error": {"type": type(exc).__name__,
                                             "message": str(exc)}}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
