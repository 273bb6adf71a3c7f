"""Byte pins: outputs that must not change by a single byte, and the names
perfbench traces, which must keep resolving in hklat."""

import hashlib
import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import chain_evaluate, rand_primitive_norm, subprocess_env
from hklat import factor as fc
from hklat import jsonio as jio
from hklat import lattice as lt
from hklat import llv
from hklat import mukai as mk
from hklat import pontryagin as pg
from hklat import transvect as tv
from hklat.cli import main
from hklat.errors import SearchExhausted

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verify_all_seed_42_bytes(flags):
    r = subprocess.run([sys.executable, *flags, "-m", "hklat.cli", "verify",
                        "all", "--seed", "42"], capture_output=True, timeout=600,
                       env=subprocess_env())
    assert r.returncode == 0
    assert _sha(r.stdout) == ("677426890e65f46f567155162221e8c5"
                              "1671673af832d573a97246a09dc81232")


def test_decompose_certificate_bytes(k3n2):
    # factor-k3n2's warm-up input: k = 5, through the delta fix and the
    # positive rewrite, which runs in Lambda
    lat = k3n2
    e = lat.basis_vec(0)
    delta = lat.basis_vec(lat.delta_index)
    phi = (tv.eichler_transvection(lat, e, delta)
           * fc.reflect(lat, lat.vec([0, 0, 1, 2] + [0] * 19)))
    text = jio.dumps(jio.normal_form_to_json(fc.decompose(lat, phi))).encode()
    assert len(text) == 19928
    assert _sha(text) == ("25b3c4535d6860fb29bc13c7cd9b67c0"
                          "fc7110b698fd99a2903ca274d7d31440")


def test_factor_verify_failure_bytes(k3n2, capsys):
    """factor verify on the warm-up certificate with gamma_1 negated
    (nu = -1): exit 2, and the failing gamma's entry carries its full
    Gamma-membership certificate, det included."""
    lat = k3n2
    e = lat.basis_vec(0)
    delta = lat.basis_vec(lat.delta_index)
    phi = (tv.eichler_transvection(lat, e, delta)
           * fc.reflect(lat, lat.vec([0, 0, 1, 2] + [0] * 19)))
    cert = jio.normal_form_to_json(fc.decompose(lat, phi))
    g1 = cert["gammas"][1]
    g1["matrix"] = [[-x for x in row] for row in g1["matrix"]]
    assert main(["factor", "verify", "--json", json.dumps(
        {"phi": jio.isometry_to_json(phi), "normal_form": cert})]) == 2
    assert capsys.readouterr().out == (
        '{"failures":[["gamma","1","{\'integral\': True, \'nu\': -1, '
        '\'det\': 1, \'disc\': 1}"],["recomposition","None",'
        '"product != phi"]],"k":5,"ok":false}\n')


def test_eichler_move_and_double_orbit_bytes(k3):
    """Seeded eichler_move words on K3 (length, steps and isometry JSON) and
    double_orbit_connect's h1, h2, hashed together."""
    rng = random.Random(181)
    text = ""
    for norm in (2, 4, -2, 6, 0):
        x = rand_primitive_norm(rng, k3, norm)
        y = rand_primitive_norm(rng, k3, norm)
        word = tv.eichler_move(k3, x, y)
        text += "%d %r %s\n" % (len(word), list(word.steps),
                                jio.dumps(jio.isometry_to_json(word.isometry())))
        if norm:
            h1, h2 = mk.double_orbit_connect(k3, x, y)
            text += "%s %s\n" % (jio.dumps(jio.isometry_to_json(h1)),
                                 jio.dumps(jio.isometry_to_json(h2)))
    assert len(text) == 46411
    assert _sha(text.encode()) == ("30e2fe75199afc53e13b8b26983213cf"
                                   "dd792d1e1d7c976f38bbb2c13c4dfa4a")


# lambdas on K3n:2 for find_orthogonal_norm_vector: one missing a U block
# (the U scan), three met by a multiple of one kernel vector, and two that
# need a pair, the last with a delta coordinate and exhausted at target 6
_ORTHO_LAMS = (
    [1, 3, -2, 1, 0, 0, 2, 2, -1, 0, -1, -1, 0, 0, -2, -3, 0, 3, 1, -2, 2,
     0, 0],
    [2, 1, 2, -3, 3, -1, -1, 1, 2, 2, -1, 3] + [0] * 11,
    [-3, -1, -1, 3, -1, 0, 2, -1, -2, 0, 0, 2] + [0] * 11,
    [3, 2, -2, 1, -3] + [0] * 18,
    [2, -1, 3, 2, 3, 2, 2, 1, -3, 3, 0, 3] + [0] * 11,
    [3, -3, 1, -2, 2, 2] + [0] * 16 + [1],
)


def test_orthogonal_search_bytes(k3n2):
    """find_orthogonal_norm_vector on K3n:2 for targets 4, 6 and 12 over
    every branch, and _delta_fix_vector on the decompose pin's input (the
    orthogonal search) and on a lambda whose search is exhausted (the
    U-block candidates), hashed together."""
    lat = k3n2
    text = ""
    for c in _ORTHO_LAMS:
        for target in (4, 6, 12):
            try:
                u = fc.find_orthogonal_norm_vector(lat, lat.vec(c), target)
                text += "%r\n" % (list(u.coords),)
            except SearchExhausted:
                text += "exhausted\n"
    e = lat.basis_vec(0)
    delta = lat.basis_vec(lat.delta_index)
    phi = (tv.eichler_transvection(lat, e, delta)
           * fc.reflect(lat, lat.vec([0, 0, 1, 2] + [0] * 19)))
    lam = lat.vec(list(phi.apply(delta).coords[:-1]) + [0])
    for work, lam in ((phi, lam),
                      (lt.QIsometry.identity(lat),
                       lat.vec([-3, -3, 1, 1, 3, 3] + [0] * 17))):
        u = fc._delta_fix_vector(lat, work, lam, 4)
        text += "%r\n" % (list(u.coords),)
    assert text.count("exhausted") == 1 and len(text) == 1363
    assert _sha(text.encode()) == ("5d766174cd2d2f387ae3bb91259056c8"
                                   "def235899a962b384c30d67edc0376c5")


_X2 = [2, 1, -2, 2, 3, 0, -1, -1] + [0] * 14
_Y2 = [-3, 2, 2, 2, 0, -2, 1, 1, 1, 1] + [0] * 12
_X4 = [3, -2, 0, 0, 3, 1, 1, 1] + [0] * 14
_Y4 = [1, 1, -2, 2, -2, 0, -1, -1, -1, -1] + [0] * 12


@pytest.mark.parametrize("argv, payload, digest", [
    (["orbit", "move"], {"lattice": "K3", "x": _X2, "y": _Y2},
     "8e511f13e557c94e3e033cde976d53e846a46c6dfda409d47b754f820284cced"),
    (["orbit", "connect"], {"lattice": "K3", "u": _X4, "u2": _Y4},
     "5e2acd91f29b79be73d56dc4fca681bfcc353ef2d70c72681d97403d0d9bb32d"),
    (["mukai", "cyclic"], {"u": _X2},
     "5b9bedd07f3602f2487654be709ac9c7772ed7d90080eb59c0e2b27057141742"),
], ids=["orbit-move", "orbit-connect", "mukai-cyclic"])
def test_cli_word_bytes(argv, payload, digest, capsys):
    assert main(argv + ["--json", json.dumps(payload)]) == 0
    assert _sha(capsys.readouterr().out.encode()) == digest


def _lefschetz_payload():
    """phi = tau mu_{2/3} ext(rho_u) on the extended K3 lattice, u = e1 - 3 e2
    (norm 6), so that phi has rational entries."""
    k3 = lt.preset("K3")
    space = llv.LLVSpace(k3)
    rho = fc.reflect(k3, k3.vec([1, -3] + [0] * 20))
    phi = (llv.tau(space) * llv.mu(space, Fraction(2, 3))
           * llv.extend_to_llv(space, rho))
    return {"phi": jio.isometry_to_json(phi), "lam": [1, 2, 0, -1, 1] + [0] * 17}


def _recover_payload():
    """f = B_lam ext(rho_u) on the extended Kummer:2 lattice, rational."""
    km = lt.preset("Kummer", 2)
    space = llv.LLVSpace(km)
    lam = km.vec([Fraction(1, 2), 0, 1, 0, 0, Fraction(-1, 3), 0])
    f = (llv.b_field(space, lam)
         * llv.extend_to_llv(space, fc.reflect(km, km.vec([1, -3, 0, 0, 0, 0, 0]))))
    return {"f": jio.isometry_to_json(f)}


@pytest.mark.parametrize("argv, payload, digest", [
    (["llv", "lefschetz", "--preset", "K3"], _lefschetz_payload,
     "60b21a8359e66b825df963446001b4633fd55e1b5bfa2b3a633cacb9b3b4a0c9"),
    (["snrep", "psi", "--preset", "K3n:2", "--n", "2"],
     lambda: {"lams": [[1, "1/2"] + [0] * 20 + [1], [0, 0, 2, -1] + [0] * 19,
                       ["-2/3", 0, 0, 0, 1] + [0] * 18]},
     "d552e653c544ad1545c23c11600c1b6bb6b6ef88f68d9cce108ae5918856b508"),
    (["snrep", "psi", "--preset", "Kummer:2", "--n", "3"],
     lambda: {"lams": [[1, 0, "1/2", 0, 0, 0, 1], [0, 1, 0, -1, 0, 2, 0],
                       ["3/2", 0, 0, 0, 1, 0, -1], [0, 0, 1, 1, 0, 0, 0]]},
     "9ec20965960e1bd44c6e2d1418f299af3b129fbc4b56cc2f18c2c98a091fc95a"),
    (["pontryagin", "table", "--preset", "Kummer:2", "--n", "2"], None,
     "37c7a9d81ac455fb6e65aea9e5afc0058510b0b6b3ecf9bdea8a2da7cc2fa11b"),
    (["pontryagin", "unit", "--preset", "K3n:2", "--n", "2"], None,
     "4259319eca5ad418af44b4530feaebd972ab585e5093661e062bed87a18907cd"),
    (["snrep", "recover", "--preset", "Kummer:2", "--n", "3"], _recover_payload,
     "9d6d19201ed26dd55417013ab7b48f9294ddc4c14911764762d96eb68edc4df0"),
], ids=["llv-lefschetz", "snrep-psi-k3n2", "snrep-psi-kummer2",
        "pontryagin-table-kummer2", "pontryagin-unit-k3n2",
        "snrep-recover-kummer2"])
def test_cli_operator_bytes(argv, payload, digest, capsys):
    """CLI outputs built from the extended-lattice operators, the Sym^n
    model and the inverse functor."""
    if payload is not None:
        argv = argv + ["--json", json.dumps(payload())]
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out.encode()) == digest


@pytest.mark.parametrize("n, digest", [
    (3, "9caed800ac5dd084fa6371ed9a730b8ab502530ef050cbdcd23abd2b8e0fd804"),
    (4, "95dd4c125f96c118b1dc489e5415b44103f90ace0ddf4a4fc14f585f21cbd8b4"),
], ids=["n3", "n4"])
def test_pontryagin_verify_bytes(n, digest, capsys):
    """pontryagin verify on K3n:2 with seed 0: ten ring-axiom triples of
    the model at n, beyond the n = 2 of verify all."""
    assert main(["pontryagin", "verify", "--preset", "K3n:2", "--n", str(n),
                 "--seed", "0"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == digest


@pytest.mark.parametrize("pool_seed, digest", [
    (1009, "ca51c3eb6aceafcd8ff0895e703fd26c239811f78bbe86908f44dae6b5bd0a85"),
    (9001, "c83c17ef13582e5e51713425b51c1e01659753bb9e46ac565b35e62fc1774337"),
], ids=["pool1009", "pool9001"])
def test_shmodel_deck_bytes(pool_seed, digest, monkeypatch):
    """One pass, in deck order, over the shmodel-k3n2 deck of perfbench
    (star_via on K3n:2, n = 2): the sha256 of the concatenated digest
    texts, and every op passes the workload's own checks."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    deck = workloads.ShmodelK3n2(pool_seed=pool_seed)
    ctx = deck.setup()
    text = ""
    for inp in deck.deck():
        out = deck.op(ctx, inp)
        assert deck.check(ctx, inp, out) == []
        text += deck.digest_text(out)
    assert _sha(text.encode()) == digest


def test_shmodel_op_stays_on_word_coordinates(monkeypatch):
    """On a graded and an anti-graded shmodel-k3n2 deck op, conjugation_check
    and star_via never go through Sym^n: apply_llv is not called, and the
    only piece solves are those of the elements built from input data (the
    pairs and the triple), once each."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    deck = workloads.ShmodelK3n2()
    ctx = deck.setup()
    model = ctx["model"]
    llv_calls, solved = [], []
    apply_llv, solve = pg.SHModel.apply_llv, model._solve

    def counting_llv(self, g, x):
        llv_calls.append(g)
        return apply_llv(self, g, x)

    def counting_solve(data):
        solved.append(data)
        return solve(data)
    monkeypatch.setattr(pg.SHModel, "apply_llv", counting_llv)
    monkeypatch.setattr(model, "_solve", counting_solve)
    inputs = deck.deck()[:2]
    assert [inp["tau"] for inp in inputs] == [False, True]
    for inp in inputs:
        del solved[:]
        out = deck.op(ctx, inp)
        assert deck.check(ctx, inp, out) == []
        given = [x for pair in inp["pairs"] for x in pair] + inp["triple"]
        assert sorted(map(id, solved)) == sorted(map(id, given))
    assert llv_calls == []


@pytest.mark.parametrize("pool_seed, digest", [
    (1004, "53cd4a8129ebda6ad548481b00a588a481cf0ce38764d5af9d36b1dded923071"),
    (9001, "6acccc9a2a558415ca68ac6d63f6ad997f5987cc9902b04f4ad4d8c00564b3bd"),
], ids=["pool1004", "pool9001"])
def test_symrep_deck_bytes(pool_seed, digest, monkeypatch):
    """One pass, in deck order, over the symrep-k3n2 deck of perfbench
    (recover and compose_rule_check on Sym^2 at d = 25): the sha256 of the
    concatenated digest texts, and every op passes the workload's own
    checks."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    deck = workloads.SymrepK3n2(pool_seed=pool_seed)
    ctx = deck.setup()
    text = ""
    for inp in deck.deck():
        out = deck.op(ctx, inp)
        assert deck.check(ctx, inp, out) == []
        text += deck.digest_text(out)
    assert _sha(text.encode()) == digest


@pytest.mark.parametrize("pool_seed, digest, ks", [
    (1001, "2e6c366fcb36bffd0e95743d30c37ae1d154de23ab5d7cb8775b6c11d859dc14",
     [25, 25, 24, 0, 23, 25, 7]),
    (9001, "5c4fd1d6cf2ad7f81f62ed9822d7f544e390f039db9f4826834ec721a6baa6f6",
     [24, 9, 24, 0, 23, 25, 3]),
], ids=["pool1001", "pool9001"])
def test_factor_deck_bytes(pool_seed, digest, ks, monkeypatch):
    """One pass, in deck order, over the factor-k3n2 deck of perfbench
    (decompose, JSON, verify on K3n:2): the sha256 of the concatenated
    certificate texts, each certificate's k, and every op passes the
    workload's own checks; decompose hands its delta-fixing work to
    cartan_dieudonne as it stands, and every evaluate, of a fresh and of
    a reloaded certificate, equals the reflect_times-then-product chain.
    verify_normal_form, on fresh and on reloaded certificates, computes no
    determinant, and the certificates read afterwards are the full
    membership certificates."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    residues, evaluated = [], []
    real_cd, real_evaluate = fc.cartan_dieudonne, fc.NormalForm.evaluate
    verifying, dets = [], []
    real_verify = fc.verify_normal_form

    def verify_watched(nf, phi):
        verifying.append(nf.k)
        try:
            return real_verify(nf, phi)
        finally:
            verifying.pop()
    monkeypatch.setattr(fc, "verify_normal_form", verify_watched)
    for owner, name in ((lt.la, "det_mod_p"), (lt.QIsometry, "det")):
        def watched(*args, real=getattr(owner, name), name=name):
            if verifying:
                dets.append(name)
            return real(*args)
        monkeypatch.setattr(owner, name, watched)

    def spy(lattice, residue):
        # the residue is decompose's work itself, read from its frame
        residues.append(residue is sys._getframe(1).f_locals["work"])
        return real_cd(lattice, residue)

    def chain_checked(nf):
        out = real_evaluate(nf)
        evaluated.append((nf.k, out == chain_evaluate(nf)))
        return out
    monkeypatch.setattr(fc, "cartan_dieudonne", spy)
    monkeypatch.setattr(fc.NormalForm, "evaluate", chain_checked)
    deck = workloads.FactorK3n2(pool_seed=pool_seed)
    ctx = deck.setup()
    text = ""
    for i, inp in enumerate(deck.deck()):
        inp = dict(inp, check_seed=i)
        out = deck.op(ctx, inp)
        assert deck.check(ctx, inp, out) == []
        nf = out["nf"]
        assert nf.k == ks[i]
        assert nf.certificates == tuple(lt.membership(g, "Gamma")[1]
                                        for g in nf.gammas)
        text += deck.digest_text(out)
    assert _sha(text.encode()) == digest
    assert dets == []
    # setup's warm-up input and every word outside Gamma reach the residue
    assert residues == [True] * (1 + len(ks) - ks.count(0))
    # the warm-up's decompose (k = 5), then each op's: decompose's own
    # check and the reloaded certificate's, and only the latter for k = 0
    assert evaluated == [(k, True) for k in
                         [5] + [j for k in ks for j in ([k, k] if k else [0])]]


def test_trace_targets_resolve():
    """Every name in perfbench/spans.py TARGETS is bound in hklat; the
    tracer raises on an unbound one."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for _, module, attrs in spans.TARGETS:
        mod = importlib.import_module(module)
        for attr in attrs:
            obj = mod
            for part in attr.split("."):
                obj = getattr(obj, part)
            assert callable(obj), (module, attr)


def test_tracer_installs_and_uninstalls():
    """perfbench/spans.py's Tracer wraps every target, raising on a renamed
    or unbound one, and uninstall puts back every binding it replaced."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans_guard", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, _ in spans.TARGETS:
        importlib.import_module(module)
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "hklat" or n.startswith("hklat."))]
    owners = mods + [obj for m in mods for obj in vars(m).values()
                     if isinstance(obj, type) and obj.__module__ == m.__name__]
    before = [(o, dict(vars(o))) for o in owners]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert len(tracer._undo) >= len(spans.TARGETS)
    finally:
        tracer.uninstall()
    for owner, names in before:
        now = vars(owner)
        assert all(now.get(k) is v for k, v in names.items()), owner
