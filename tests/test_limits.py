"""Resource limits: commands that must finish inside fixed memory, CPU and
wall budgets.  Each runs in one child process whose limits are set with
resource.setrlimit in that child only, so a command that outgrows them
fails here instead of slowing the machine."""

import importlib
import json
import os
import resource
import subprocess
import sys

import pytest

from conftest import subprocess_env
from hklat import factor as fc
from hklat import jsonio as jio
from hklat import lattice as lt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_ADDRESS_SPACE = 512 * 2 ** 20   # bytes
_CPU_SECONDS = 2
_WALL_SECONDS = 20


def _limited():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (_CPU_SECONDS, _CPU_SECONDS))


def _run_limited(argv):
    return subprocess.run([sys.executable, "-m", "hklat.cli", *argv],
                          capture_output=True, text=True, timeout=_WALL_SECONDS,
                          env=subprocess_env(), preexec_fn=_limited)


def test_pontryagin_verify_n4_within_limits():
    """Ten ring-axiom triples of the K3n:2 model at n = 4 (20,150
    dimensions) fit in 512 MB of address space and 2 CPU seconds, about
    ten times the CPU time they take."""
    r = _run_limited(["pontryagin", "verify", "--preset", "K3n:2", "--n", "4",
                      "--seed", "0"])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["ok"] is True


def test_factor_verify_k25_within_limits(tmp_path):
    """The second certificate of the factor-k3n2 deck of perfbench (pool
    1001): k = 25 with gamma entries of up to 651 bits, verified by
    factor verify in 512 MB of address space and 2 CPU seconds, about
    eight times the CPU time it takes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(os.path.join(ROOT, "perfbench"))
        inp = importlib.import_module("workloads").FactorK3n2(
            pool_seed=1001).deck()[1]
    lat = lt.preset("K3n", 2)
    phi = jio.isometry_from_json(inp["phi"], lat)
    nf = fc.decompose(lat, phi)
    assert nf.k == 25 and max(abs(x).bit_length() for g in nf.gammas
                              for row in g.nums for x in row) == 651
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps({"phi": jio.isometry_to_json(phi),
                                "normal_form": jio.normal_form_to_json(nf)}))
    r = _run_limited(["factor", "verify", "--in", str(path)])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"failures": [], "k": 25, "ok": True}


def test_reducer_budget_exits_2_within_limits(out_of_budget_payload):
    """factor decompose of the K3n:5 word whose transvection reduction needs
    more than _MAX_REDUCE_STEPS = 20,000 moves: the reducer spends its
    whole budget and the command exits 2 with SearchExhausted JSON, in 512
    MB of address space and 2 CPU seconds."""
    r = _run_limited(["factor", "decompose", "--json", out_of_budget_payload])
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stdout)["error"]["type"] == "SearchExhausted"
