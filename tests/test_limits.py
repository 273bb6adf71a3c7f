"""Resource limits: commands that must finish inside fixed memory, CPU and
wall budgets.  Each runs in one child process whose limits are set with
resource.setrlimit in that child only, so a command that outgrows them
fails here instead of slowing the machine."""

import json
import resource
import subprocess
import sys

from conftest import subprocess_env

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
