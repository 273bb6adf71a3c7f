import json
import random
import subprocess
import sys
from math import gcd

import pytest

from conftest import subprocess_env
from hklat import factor as fc
from hklat import jsonio as io
from hklat import lattice as lt
from hklat import llv
from hklat import cli
from hklat.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_rand_coords_is_randint():
    """verify all's coordinate draws give the stream of randint(-2, 2),
    draw for draw, and leave the generator in the same state."""
    for seed in (0, 1, 7, 42, 2024, 99991):
        want, got = random.Random(seed), random.Random(seed)
        assert cli._rand_coords(got, 5000) == [want.randint(-2, 2)
                                               for _ in range(5000)]
        assert got.getstate() == want.getstate()


def _reference_reflection(rng, lat):
    """verify all's reflection sampler drawn one try at a time: rank draws
    of _rand_coords, the norm and gcd read off the ints, then the flip."""
    while True:
        c = cli._rand_coords(rng, lat.rank)
        nv = lat.pair_nums(c, c)
        if nv and abs(nv) <= 12 and gcd(*c) == 1:
            r = fc.reflect(lat, lat.vec(c))
            return -r if rng.random() < 0.5 else r


@pytest.mark.parametrize("name", ["K3n:2", "K3n:3", "Kummer:2", "K3"])
def test_rand_reflection_replays_the_stream(name, monkeypatch):
    """The batched sampler returns the reference's reflections and leaves
    the generator in its state after every call: two calls at the default
    batch and at 997 words (tries straddle batches), and the first call at
    rank words (most batches hold no complete try) and at 2 rank, where
    each call takes about a thousand batches."""
    lat = io.parse_preset_name(name)
    batches = ((cli._BATCH_WORDS, 2), (997, 2), (lat.rank, 1),
               (2 * lat.rank, 1))
    for seed in (0, 1, 7, 42, 2024, 99991):
        want = random.Random(seed)
        calls = [(_reference_reflection(want, lat), want.getstate())
                 for _ in range(2)]
        for words, count in batches:
            monkeypatch.setattr(cli, "_BATCH_WORDS", words)
            got = random.Random(seed)
            for r, state in calls[:count]:
                assert cli._rand_reflection(got, lat) == r
                assert got.getstate() == state


def test_lattice_preset(capsys):
    code, out = run_cli(["lattice", "preset", "--name", "K3n:2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 23 and obj["signature"] == [3, 20]
    assert obj["disc_divisors"] == [2]


def test_lattice_info_custom(capsys):
    # [[0,1],[1,-2]]: (e1 + e2)^2 = 0, so the diagonalization's zero-pivot
    # repair must add -e2, not e2
    for gram in ([[0, -1], [-1, 0]], [[0, 1], [1, -2]]):
        code, out = run_cli(["lattice", "info", "--json",
                             json.dumps({"lattice": {"gram": gram}})], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["det"] == -1 and obj["signature"] == [1, 1]


def test_isom_characters_and_membership(capsys):
    k32 = lt.preset("K3n", 2)
    gid = lt.QIsometry.identity(k32)
    payload = io.dumps(io.isometry_to_json(gid)).strip()
    code, out = run_cli(["isom", "characters", "--json", payload], capsys)
    assert code == 0
    assert json.loads(out) == {"nu": 1, "det": 1, "disc": 1}
    # the identity lies in every group the CLI offers
    for group in lt._GROUPS:
        code, out = run_cli(["isom", "membership", "--group", group,
                             "--json", payload], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["member"] is True and obj["group"] == group


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


def test_factor_verify_bad_shape_exits_2(capsys):
    k32 = lt.preset("K3n", 2)
    gid = io.isometry_to_json(lt.QIsometry.identity(k32))
    # k != len(us), then len(gammas) != k + 1
    for nf in ({"k": 1, "gammas": [gid, gid], "us": []},
               {"k": 0, "gammas": [gid, gid], "us": []}):
        payload = json.dumps({"phi": gid, "normal_form": nf})
        code, out = run_cli(["factor", "verify", "--json", payload], capsys)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DimensionMismatch"
        # the shape check is a raise, so -O exits the same way
        r = subprocess.run([sys.executable, "-O", "-m", "hklat.cli", "factor",
                            "verify", "--json", payload],
                           capture_output=True, text=True, timeout=60,
                           env=subprocess_env())
        assert r.returncode == 2 and r.stdout == out


def test_factor_verify_non_int_k_exits_3(capsys):
    """k is read as a JSON int, as cli._int_field reads a field: a float,
    a bool or a string is a ValueError (exit 3) naming k, and no float
    reaches the output."""
    gid = io.isometry_to_json(lt.QIsometry.identity(lt.preset("K3n", 2)))
    for k in (0.0, False, "0"):
        payload = json.dumps({"phi": gid, "normal_form": {
            "k": k, "gammas": [gid], "us": []}})
        code, out = run_cli(["factor", "verify", "--json", payload], capsys)
        assert code == 3, k
        err = json.loads(out)["error"]
        assert err["type"] == "ValueError" and "'k'" in err["message"], k


def test_pontryagin_unit(capsys):
    code, out = run_cli(["pontryagin", "unit", "--preset", "K3n:2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["label"] == "c_X [pt]/n!"
    assert obj["element"]["coords"] == {"24,24": "1/2"}


def test_pontryagin_unit_at_n4(capsys):
    """The star unit beta^4/4! of K3n:2 at n = 4, byte for byte: the model
    is built without any elimination, and the unit is a relabelling."""
    code, out = run_cli(["pontryagin", "unit", "--preset", "K3n:2", "--n", "4"],
                        capsys)
    assert code == 0
    assert out == ('{"element":{"coords":{"24,24,24,24":"1/24"},'
                   '"space":{"base":"llv","n":4}},"label":"c_X [pt]/n!"}\n')


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


def test_non_object_payload_exits_3(capsys):
    # before the check, a list reached payload.get in cmd_snrep and ended
    # in an AttributeError traceback with exit 1
    for payload in ("[1]", '"x"', "3", "null"):
        for cmd in (["snrep", "dim", "--preset", "K3"],
                    ["isom", "characters"], ["factor", "decompose"]):
            code, out = run_cli(cmd + ["--json", payload], capsys)
            assert code == 3
            assert json.loads(out)["error"]["type"] == "TypeError"


def _exits_3_naming_the_input(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 3, argv
    err = json.loads(out)["error"]
    assert err["type"] == "ArgumentError"
    assert "--json" in err["message"] and "--in" in err["message"]


def test_factor_decompose_without_input_exits_3(capsys):
    _exits_3_naming_the_input(["factor", "decompose"], capsys)


def test_isom_characters_without_input_exits_3(capsys):
    _exits_3_naming_the_input(["isom", "characters"], capsys)


def test_mukai_v_without_input_exits_3(capsys):
    _exits_3_naming_the_input(["mukai", "v"], capsys)


def test_only_handlers_that_read_an_input_require_one(capsys):
    # a preset is a lattice, not an input
    for argv in (["orbit", "move", "--preset", "K3"],
                 ["llv", "bfield", "--preset", "K3"],
                 ["snrep", "psi", "--preset", "K3"]):
        _exits_3_naming_the_input(argv, capsys)
    # the handlers that can do without one still do
    for argv in (["lattice", "info", "--preset", "K3"],
                 ["snrep", "dim", "--preset", "Kummer:2"]):
        code, out = run_cli(argv, capsys)
        assert code == 0 and "error" not in json.loads(out), argv


def test_snrep_dim_over_monomial_budget_exits_2():
    # Sym^400 of the rank-9 extended Kummer lattice has ~1.8e16 monomials;
    # the budget check refuses it before enumerating any
    cmd = [sys.executable, "-m", "hklat.cli", "snrep", "dim",
           "--preset", "Kummer:2", "--n", "400"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                       env=subprocess_env())
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"]["type"] == "LatticeError"


def test_snrep_dim_reads_large_kernels_in_closed_form():
    # Sym^160 of the rank-3 extended lattice of <2> has 13,041 monomials,
    # within MAX_MONOMIALS; its contraction would be a 12,720 x 13,041
    # elimination, but kernel_basis builds the 321 vectors in closed form
    cmd = [sys.executable, "-m", "hklat.cli", "snrep", "dim", "--json",
           '{"lattice": {"gram": [[2]]}}', "--n", "160"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                       env=subprocess_env())
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["kernel_rank"] == out["sn_dim"] == 321


def test_snrep_dim_bytes_at_n4(capsys):
    code, out = run_cli(["snrep", "dim", "--preset", "K3n:2", "--n", "4"],
                        capsys)
    assert code == 0
    assert out == ('{"d":25,"kernel_rank":20150,"n":4,"sn_dim":20150,'
                   '"sym_dim":20475}\n')


def test_verify_all_deterministic():
    cmd = [sys.executable, "-m", "hklat.cli", "verify", "all", "--seed", "7"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                        env=subprocess_env())
    r2 = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                        env=subprocess_env())
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert json.loads(r1.stdout)["ok"] is True
    # the certificate gates are explicit raises, so -O prints the same bytes
    r3 = subprocess.run([sys.executable, "-O"] + cmd[1:], capture_output=True,
                        timeout=600, env=subprocess_env())
    assert r3.returncode == 0
    assert r3.stdout == r1.stdout.encode()


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None
from hklat.cli import main
code = main(["verify", "all", "--seed", "42"])
assert "numpy" not in sys.modules or sys.modules["numpy"] is None
sys.exit(code)
"""


def test_verify_all_without_numpy():
    """The library runs with numpy unimportable and prints the same bytes."""
    cmd = [sys.executable, "-m", "hklat.cli", "verify", "all", "--seed", "42"]
    r1 = subprocess.run(cmd, capture_output=True, timeout=600,
                        env=subprocess_env())
    r2 = subprocess.run([sys.executable, "-c", _NO_NUMPY], capture_output=True,
                        timeout=600, env=subprocess_env())
    assert r1.returncode == 0 and r2.returncode == 0, r2.stderr
    assert r2.stdout == r1.stdout


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


def test_emitted_extended_isometry_loads_back(capsys):
    """An emitted isometry of the extended lattice of K3n:2 is named
    "llv(K3n:2)", which is no preset name, so reading it back takes the
    name as a label of its gram; a malformed preset name still exits 3."""
    lam = [1, -1] + [0] * 21
    code, out = run_cli(["llv", "bfield", "--preset", "K3n:2",
                         "--json", json.dumps({"lam": lam})], capsys)
    assert code == 0 and json.loads(out)["lattice"]["name"] == "llv(K3n:2)"
    code, got = run_cli(["isom", "characters", "--json", out], capsys)
    assert code == 0
    base = lt.preset("K3n", 2)
    nu, dt, disc = lt.characters(llv.b_field(llv.LLVSpace(base), base.vec(lam)))
    assert json.loads(got) == {"nu": nu, "det": dt, "disc": disc} == {
        "nu": 1, "det": 1, "disc": 1}
    code, out = run_cli(["lattice", "info", "--json",
                         json.dumps({"lattice": "K3n:x"})], capsys)
    assert code == 3 and json.loads(out)["error"]["type"] == "ValueError"


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


# -- total exits: every failure is exit 2 or 3 with JSON on stdout -------------


def _k3n5_word(rng, lat):
    """A criterion-1-style word on K3n:5 (the factor-k3n2 recipe with the
    norm-10 vector e1 - 5 e2 in the -rho_{u+delta} generators)."""
    from conftest import rand_primitive, rand_transvection
    from hklat import factor as fc
    u = lat.vec([1, -5] + [0] * (lat.rank - 2))
    gens = []
    for _ in range(rng.randint(1, 5)):
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
            gens.append(fc.neg_reflection_u_delta(lat, u) * rand_transvection(rng, lat))
    phi = lt.QIsometry.identity(lat)
    for g in gens:
        phi = g * phi
    if lt.nu_character(phi) == -1:
        phi = fc.reflect(lat, lat.vec([1, -1] + [0] * (lat.rank - 2))) * phi
    return phi


def test_reducer_out_of_budget_exits_2(capsys):
    # the 24th word of Random(77) on K3n:5 sends positive_reflection_rewrite
    # into a transvection reduction that needs more than the step budget
    lat = lt.preset("K3n", 5)
    rng = random.Random(77)
    for _ in range(24):
        phi = _k3n5_word(rng, lat)
    payload = io.dumps(io.isometry_to_json(phi)).strip()
    code, out = run_cli(["factor", "decompose", "--json", payload], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SearchExhausted"
    r = subprocess.run([sys.executable, "-O", "-m", "hklat.cli", "factor",
                        "decompose", "--json", payload],
                       capture_output=True, text=True, timeout=120,
                       env=subprocess_env())
    assert r.returncode == 2 and r.stdout == out


def test_unreadable_files_exit_3(capsys, tmp_path):
    for path, kind in ((tmp_path / "missing.json", "FileNotFoundError"),
                       (tmp_path, "IsADirectoryError")):
        code, out = run_cli(["factor", "decompose", "--in", str(path)], capsys)
        assert code == 3
        assert json.loads(out)["error"]["type"] == kind
    code, out = run_cli(["lattice", "preset", "--name", "K3",
                         "--out", str(tmp_path / "missing" / "x.json")], capsys)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


def test_bad_command_lines_exit_3(capsys):
    for argv in (["factor", "simplify"], ["factor", "decompose", "--bogus"],
                 [], ["nosuch"],
                 # flags the subcommand does not read are not declared
                 ["factor", "decompose", "--seed", "1"],
                 ["verify", "all", "--json", "{}"],
                 ["mukai", "star", "--preset", "K3"]):
        code, out = run_cli(argv, capsys)
        assert code == 3, argv
        assert json.loads(out)["error"]["type"] == "ArgumentError"


def test_llv_hilblift_needs_no_lattice(capsys):
    from hklat import llv
    space = llv.LLVSpace(lt.preset("K3"))
    payload = json.dumps({"n": 2, "phi": io.isometry_to_json(llv.tau(space))})
    code, out = run_cli(["llv", "hilblift", "--json", payload], capsys)
    assert code == 0
    code2, out2 = run_cli(["llv", "hilblift", "--preset", "K3", "--json", payload],
                          capsys)
    assert code2 == 0 and out2 == out


def test_integer_fields_must_be_json_ints(capsys):
    from hklat import llv
    phi = io.isometry_to_json(llv.tau(llv.LLVSpace(lt.preset("K3"))))
    for argv in (["llv", "hilblift", "--json", json.dumps({"n": 2.0, "phi": phi})],
                 ["snrep", "dim", "--preset", "Kummer:2", "--json", '{"n": true}'],
                 ["snrep", "dim", "--preset", "Kummer:2", "--json", '{"n": "2"}']):
        code, out = run_cli(argv, capsys)
        assert code == 3, argv
        err = json.loads(out)["error"]
        assert err["type"] == "ValueError" and "'n'" in err["message"], argv


def test_report_lists_only_printed_formats(capsys):
    for argv in (["pontryagin", "table", "--preset", "K3", "--report", "text"],
                 ["verify", "all", "--report", "csv"],
                 # csv is printed only by the surface-case star table
                 ["pontryagin", "table", "--preset", "Kummer:2",
                  "--report", "csv"],
                 ["pontryagin", "unit", "--preset", "K3n:2", "--report", "csv"],
                 ["pontryagin", "verify", "--preset", "K3n:2",
                  "--report", "csv"]):
        code, out = run_cli(argv, capsys)
        assert code == 3, argv
        assert json.loads(out)["error"]["type"] == "ArgumentError", argv


def test_pontryagin_n_needs_a_delta_summand(capsys):
    # a custom lattice has no delta index, so n is not guessed from its gram
    gram = lt.preset("Kummer", 2).gram
    payload = json.dumps({"lattice": {"gram": [list(r) for r in gram]}})
    code, out = run_cli(["pontryagin", "unit", "--json", payload], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "LatticeError"
    code, out = run_cli(["pontryagin", "unit", "--n", "2", "--json", payload],
                        capsys)
    assert code == 0


def test_scalar_rule_exits_3(capsys):
    def isom(matrix):
        return json.dumps({"lattice": {"name": "U"}, "matrix": matrix})
    for bad in (isom([[True, 0], [0, True]]), isom([[1.0, 0], [0, 1]]),
                isom([["1.0", 0], [0, 1]]),
                json.dumps({"lattice": {"gram": [[0, -1], [-1, 0.0]]},
                            "matrix": [[1, 0], [0, 1]]})):
        code, out = run_cli(["isom", "characters", "--json", bad], capsys)
        assert code == 3, bad
        assert json.loads(out)["error"]["type"] == "ValueError"
    code, out = run_cli(["lattice", "info", "--json",
                         '{"lattice": {"gram": [[2.0, 1], [1, 2]]}}'], capsys)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_lattice_preset_never_drops_n(capsys):
    for argv in (["lattice", "preset", "--name", "K3", "--n", "3"],
                 ["lattice", "info", "--json", '{"lattice": "K3:7"}'],
                 ["lattice", "info", "--json", '{"lattice": "Mukai:2"}'],
                 ["lattice", "preset", "--name", "K3n:2", "--n", "3"]):
        code, out = run_cli(argv, capsys)
        assert code == 2, argv
        assert json.loads(out)["error"]["type"] == "LatticeError", argv
    outs = []
    for argv in (["lattice", "preset", "--name", "K3n", "--n", "2"],
                 ["lattice", "preset", "--name", "K3n:2", "--n", "2"],
                 ["lattice", "preset", "--name", "K3n:2"]):
        code, out = run_cli(argv, capsys)
        assert code == 0, argv
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    obj = json.loads(outs[0])
    assert obj["name"] == "K3n:2" and obj["det"] == 2 and obj["rank"] == 23


def test_lattice_info_repairs_smith_divisibility(capsys):
    # elimination alone leaves the divisors (6, 2)
    code, out = run_cli(["lattice", "info", "--json",
                         '{"lattice": {"gram": [[6, 0], [0, 2]]}}'], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["disc_divisors"] == [2, 6] and obj["det"] == 12


def test_isom_characters_other_disc_action(capsys):
    # on diag(2, 2), L*/L = (Z/2)^2 and the swap exchanges its generators,
    # an action that is neither +1 nor -1
    payload = json.dumps({"lattice": {"gram": [[2, 0], [0, 2]]},
                          "matrix": [[0, 1], [1, 0]]})
    code, out = run_cli(["isom", "characters", "--json", payload], capsys)
    assert code == 0
    assert json.loads(out) == {"nu": -1, "det": -1,
                               "disc": ["other", [[0, 1], [1, 0]]]}


def test_cli_llv_normalize_and_lefschetz(capsys):
    from hklat import linalg as la
    from hklat import llv
    k3 = lt.preset("K3")
    space = llv.LLVSpace(k3)
    core = llv.tau(space) * llv.mu(space, 2)
    lam_x, lam_y = k3.vec([1, -1] + [0] * 20), k3.vec([0, 0, 1, 2] + [0] * 18)
    phi = (llv.b_field(space, la.ratio(1, 2) * lam_y) * core
           * llv.b_field(space, la.ratio(1, 2) * lam_x))
    # normalizing B_{lam_y/2} tau mu_2 B_{lam_x/2} gives back tau mu_2, and
    # the B-twists with other vectors do not keep tau mu_2 degree reversing
    want = json.loads(io.dumps(io.isometry_to_json(core)))
    for isom, lx, ly, rev in ((phi, lam_x, lam_y, True),
                              (core, lam_x, lam_x, False)):
        payload = json.dumps({"phi": io.isometry_to_json(isom), "r": 2,
                              "lam_x": list(lx.coords), "lam_y": list(ly.coords)})
        code, out = run_cli(["llv", "normalize", "--preset", "K3",
                             "--json", payload], capsys)
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"isometry", "degree_reversing"}
        assert obj["degree_reversing"] is rev
        assert (obj["isometry"] == want) is rev
    # the dual Lefschetz operator of tau mu_2 (t = 2) completes an sl2 triple
    payload = json.dumps({"phi": io.isometry_to_json(core),
                          "lam": list(lam_x.coords)})
    code, out = run_cli(["llv", "lefschetz", "--preset", "K3", "--json", payload],
                        capsys)
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"e_dual", "t"} and obj["t"] == 2
    e_dual = la.mat([[io.scalar_from_json(c) for c in row] for row in obj["e_dual"]])
    assert llv.sl2_check(space, llv.e_op(space, lam_x), e_dual, llv.grading(space))


def test_cli_snrep_recover(capsys):
    from hklat import factor as fc
    from hklat import llv
    lat = llv.LLVSpace(lt.preset("Kummer", 2)).lattice
    f = lt.QIsometry.identity(lat)
    for coords in ([0, 1, 1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 1, 1],
                   [0, 0, 0, 1, 1, 0, 0, 1, 0]):
        f = fc.reflect(lat, lat.vec(coords)) * f
    assert f.det() == -1
    code, out = run_cli(["snrep", "recover", "--preset", "Kummer:2", "--n", "2",
                         "--json", json.dumps({"f": io.isometry_to_json(f)})],
                        capsys)
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"recovered", "matches_input"}
    assert obj["matches_input"] is True
    assert io.isometry_from_json(obj["recovered"], lat) in (f, -f)


def test_snrep_recover_n0_exits_2(capsys):
    """Sym^0 has no power lines to read an isometry from: recover at n = 0
    exits 2 with a structured error, while n = 1 recovers the input and
    dim still answers at n = 0."""
    lat = llv.LLVSpace(lt.preset("Kummer", 2)).lattice
    payload = json.dumps({"f": io.isometry_to_json(lt.QIsometry.identity(lat))})
    code, out = run_cli(["snrep", "recover", "--preset", "Kummer:2", "--n", "0",
                         "--json", payload], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "LatticeError"
    code, out = run_cli(["snrep", "recover", "--preset", "Kummer:2", "--n", "1",
                         "--json", payload], capsys)
    assert code == 0 and json.loads(out)["matches_input"] is True
    code, out = run_cli(["snrep", "dim", "--preset", "Kummer:2", "--n", "0"],
                        capsys)
    assert code == 0 and json.loads(out)["sym_dim"] == 1


def test_surface_table_refuses_n_other_than_1(capsys):
    """The surface star table is the n = 1 case: --n 1 gives the same bytes
    as no --n, and any other --n exits 2 instead of being dropped."""
    code, plain = run_cli(["pontryagin", "table", "--preset", "K3"], capsys)
    assert code == 0
    code, out = run_cli(["pontryagin", "table", "--preset", "K3", "--n", "1"],
                        capsys)
    assert code == 0 and out == plain
    gram = json.dumps({"lattice": {"gram": [[0, -1], [-1, 0]]}})
    for argv in (["pontryagin", "table", "--preset", "K3", "--n", "5"],
                 ["pontryagin", "table", "--preset", "K3", "--n", "0"],
                 ["pontryagin", "table", "--preset", "K3", "--n", "2",
                  "--report", "csv"],
                 ["pontryagin", "table", "--n", "2", "--json", gram]):
        code, out = run_cli(argv, capsys)
        assert code == 2, argv
        assert json.loads(out)["error"]["type"] == "LatticeError", argv


def test_cli_pontryagin_tables(capsys):
    # for n >= 2, rho_tau sends the degree-2 piece to k = 2n - 1, and a cup
    # of two such pieces lands at k = 4n - 2 > 2n: every star product of two
    # psi(lambda_i) vanishes
    code, out = run_cli(["pontryagin", "table", "--preset", "Kummer:2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["basis"] == "psi(lambda_i)" and len(obj["star_table"]) == 7
    assert all(len(row) == 7 and all(e["coords"] == {} for e in row)
               for row in obj["star_table"])
    # the surface table as csv is the Gram matrix
    code, out = run_cli(["pontryagin", "table", "--preset", "K3",
                         "--report", "csv"], capsys)
    assert code == 0
    rows = [[int(x) for x in line.split(",")]
            for line in json.loads(out)["csv"].split("\n")]
    assert rows == [list(r) for r in lt.preset("K3").gram]


def test_verify_all_text_report(capsys):
    code, out = run_cli(["verify", "all", "--seed", "42"], capsys)
    assert code == 0
    items = json.loads(out)["items"]
    code, text = run_cli(["verify", "all", "--seed", "42", "--report", "text"],
                         capsys)
    assert code == 0
    lines = text.splitlines()
    assert lines[-1] == "suite ok (seed 42)"
    assert [line.split() for line in lines[:-1]] == \
        [[it["name"], "ok" if it["ok"] else "FAIL"] for it in items]


def test_in_and_out_files_round_trip(capsys, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code, out = run_cli(["lattice", "preset", "--name", "Kummer:2",
                         "--out", str(first)], capsys)
    assert code == 0 and out == ""
    emitted = json.loads(first.read_text())
    # an emitted lattice is accepted back unchanged
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps({"lattice": emitted}))
    code, out = run_cli(["lattice", "info", "--in", str(payload),
                         "--out", str(second)], capsys)
    assert code == 0 and out == ""
    assert second.read_text() == first.read_text()
    assert emitted["name"] == "Kummer:2" and emitted["det"] == 2
