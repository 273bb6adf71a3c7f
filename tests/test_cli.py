import json
import subprocess
import sys

from hklat import jsonio as io
from hklat import lattice as lt
from hklat.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_lattice_preset(capsys):
    code, out = run_cli(["lattice", "preset", "--name", "K3n:2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 23 and obj["signature"] == [3, 20]
    assert obj["disc_divisors"] == [2]


def test_lattice_info_custom(capsys):
    code, out = run_cli(["lattice", "info", "--json",
                         '{"lattice": {"gram": [[0,-1],[-1,0]]}}'], capsys)
    assert code == 0
    assert json.loads(out)["det"] == -1


def test_isom_characters_and_membership(capsys):
    k32 = lt.preset("K3n", 2)
    gid = lt.QIsometry.identity(k32)
    payload = io.dumps(io.isometry_to_json(gid)).strip()
    code, out = run_cli(["isom", "characters", "--json", payload], capsys)
    assert code == 0
    assert json.loads(out) == {"nu": 1, "det": 1, "disc": 1}
    code, out = run_cli(["isom", "membership", "--group", "Gamma",
                         "--json", payload], capsys)
    assert code == 0 and json.loads(out)["member"] is True


def test_factor_decompose_identity(capsys):
    k32 = lt.preset("K3n", 2)
    payload = io.dumps(io.isometry_to_json(lt.QIsometry.identity(k32))).strip()
    code, out = run_cli(["factor", "decompose", "--json", payload], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 0 and obj["us"] == []
    # round trip through factor verify
    code, out = run_cli(["factor", "verify", "--json", json.dumps(
        {"phi": io.isometry_to_json(lt.QIsometry.identity(k32)),
         "normal_form": obj})], capsys)
    assert code == 0 and json.loads(out)["ok"] is True


def test_pontryagin_unit(capsys):
    code, out = run_cli(["pontryagin", "unit", "--preset", "K3n:2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["label"] == "c_X [pt]/n!"
    assert obj["element"]["coords"] == {"24,24": "1/2"}


def test_mukai_star(capsys):
    k3 = lt.preset("K3")
    a = io.mukai_to_json(__import__("hklat").mukai.MukaiVector(
        0, k3.vec([1, -1] + [0] * 20), 0))
    payload = json.dumps({"a": a, "b": a})
    code, out = run_cli(["mukai", "star", "--json", payload], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["r"] == 2 and obj["s"] == 0   # (lam,lam) = 2 in degree 0


def test_error_exit_codes(capsys):
    # malformed json -> 3
    code, out = run_cli(["factor", "decompose", "--json", "{oops"], capsys)
    assert code == 3
    # schema mismatch -> 3
    code, out = run_cli(["factor", "decompose", "--json", "{}"], capsys)
    assert code == 3
    # contract violation -> 2 (non-isometry matrix)
    bad = {"lattice": {"name": "U"}, "matrix": [[2, 0], [0, 2]]}
    code, out = run_cli(["isom", "characters", "--json", json.dumps(bad)], capsys)
    assert code == 2
    assert "error" in json.loads(out)


def test_zero_denominator_scalar_exits_3(capsys):
    bad = {"lattice": {"name": "U"}, "matrix": [["1/0", 0], [0, 1]]}
    code, out = run_cli(["isom", "characters", "--json", json.dumps(bad)], capsys)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_snrep_dim_over_monomial_budget_exits_2():
    # Sym^400 of the rank-9 extended Kummer lattice has ~1.8e16 monomials;
    # the budget check refuses it before enumerating any
    cmd = [sys.executable, "-m", "hklat.cli", "snrep", "dim",
           "--preset", "Kummer:2", "--n", "400"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"]["type"] == "LatticeError"


def test_verify_all_deterministic():
    cmd = [sys.executable, "-m", "hklat.cli", "verify", "all", "--seed", "7"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    r2 = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert json.loads(r1.stdout)["ok"] is True


def test_cli_orbit_move(capsys):
    payload = json.dumps({
        "lattice": "K3",
        "x": [1, -2] + [0] * 20,
        "y": [0, 0, 1, -2] + [0] * 18})
    code, out = run_cli(["orbit", "move", "--json", payload], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["nu"] == 1 and obj["det"] == 1


def test_cli_orbit_connect(capsys):
    payload = json.dumps({
        "lattice": "K3",
        "u": [1, -2] + [0] * 20,
        "u2": [0, 0, 1, -2] + [0] * 18})
    code, out = run_cli(["orbit", "connect", "--json", payload], capsys)
    assert code == 0
    assert json.loads(out)["r"] == 2


def test_cli_llv_ops(capsys):
    lam = [1, -1] + [0] * 20
    code, out = run_cli(["llv", "bfield", "--preset", "K3",
                         "--json", json.dumps({"lam": lam})], capsys)
    assert code == 0
    code, out = run_cli(["llv", "fmline", "--preset", "K3",
                         "--json", json.dumps({"r": 2, "lam": lam})], capsys)
    assert code == 0
    v = json.loads(out)
    assert v["coords"][0] == 2


def test_cli_snrep(capsys):
    code, out = run_cli(["snrep", "dim", "--preset", "K3n:2", "--n", "2"],
                        capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["sn_dim"] == 324 and obj["kernel_rank"] == 324
    code, out = run_cli(["snrep", "psi", "--preset", "Kummer:2",
                         "--n", "2", "--json",
                         json.dumps({"lams": [[1, 0, 0, 0, 0, 0, 0]]})], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["coords"] == {"0,1": 1}


def test_cli_pontryagin_table_and_verify(capsys):
    code, out = run_cli(["pontryagin", "table", "--preset", "K3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["star_table"][0][1] == -1     # (e1, e2) = -1
    code, out = run_cli(["pontryagin", "verify", "--preset", "Kummer:2",
                         "--seed", "5"], capsys)
    assert code == 0 and json.loads(out)["ok"] is True


def test_cli_mukai_v_kappa_cyclic(capsys):
    c1 = [1, -2] + [0] * 20
    code, out = run_cli(["mukai", "v", "--json",
                         json.dumps({"r": 2, "c1": c1, "ch2": 7})], capsys)
    assert code == 0 and json.loads(out)["s"] == 9
    code, out = run_cli(["mukai", "kappa", "--json",
                         json.dumps({"r": 2, "c1": c1, "ch2": 7})], capsys)
    assert code == 0 and json.loads(out)["s"] == 6
    code, out = run_cli(["mukai", "cyclic", "--json",
                         json.dumps({"u": [1, -2] + [0] * 20})], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["r"] == 2 and obj["nu_f"] == 1
