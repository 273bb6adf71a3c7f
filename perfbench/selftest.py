"""Self-test of the benchmark's layer split and of held-out decks.

    python3 perfbench/selftest.py

1. A short traced run of every workload.  Each per-layer metric named in
   MOVES must record at least one call on the workload it is predicted to
   move, and the layers in ZERO must record none where the prediction is
   "no calls".  A renamed library function therefore fails here instead of
   reading as zero.
2. One pass over a held-out deck of every workload (drawn from another
   pool seed; for cli-verify, another verify-all seed) must pass every
   output check, with an input mix like the benchmark deck's.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEV_SEED, HELD_OUT_SEED = 1, 9001


MOVES = {
    "factor-k3n2": [
        "linalg.mat_mul", "linalg.det", "linalg.rref", "linalg.inverse",
        "linalg.smith_normal_form", "lattice.isom_mul", "lattice.isom_det",
        "lattice.isom_inverse", "lattice.membership", "lattice.nu_character",
        "lattice.disc_action", "transvect.reduce_to_canonical",
        "transvect.move_into_L", "factor.decompose", "factor.cartan_dieudonne",
        "factor.positive_reflection_rewrite", "factor.reflect_times",
        "factor.find_orthogonal_norm_vector", "factor.verify_normal_form",
        "jsonio.isometry_from_json", "jsonio.normal_form_from_json",
        "jsonio.normal_form_to_json"],
    "symrep-k3n2": [
        "linalg.mat_mul", "linalg.det", "linalg.inverse", "lattice.isom_det",
        "snrep.apply_linear", "snrep.recover", "snrep.compose_rule_check"],
    "shmodel-k3n2": [
        "llv.ops", "snrep.apply_linear", "snrep.derivation_apply",
        "pontryagin.SHModel.init", "pontryagin.to_words", "pontryagin.cup",
        "pontryagin.rho_tau", "pontryagin.apply_llv",
        "pontryagin.conjugation_check", "pontryagin.star_via"],
    "cli-verify": [
        "llv.ops", "llv.dual_lefschetz_check", "llv.verify_kernel_identity",
        "snrep.kernel_basis", "mukai.make_cyclic", "mukai.verify_cyclic",
        "factor.decompose", "pontryagin.cup"],
}

ZERO = {
    "factor-k3n2": ["snrep.apply_linear", "snrep.derivation_apply",
                    "snrep.kernel_basis", "snrep.recover",
                    "snrep.compose_rule_check"],
    "symrep-k3n2": ["transvect.reduce_to_canonical", "transvect.move_into_L"],
    "shmodel-k3n2": ["transvect.reduce_to_canonical", "transvect.move_into_L"],
}


def traced_run(workload):
    """One traced run (one pass over the deck); the result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(DEV_SEED), "--seconds", "1", "--trace", "1"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), r.stderr[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def held_out():
    """Run one pass over a held-out deck of every workload in-process;
    return the failures."""
    import run as run_mod
    run_mod.import_library()
    import workloads as w
    failures = []
    for dev in w.WORKLOADS.values():
        held = type(dev)(pool_seed=HELD_OUT_SEED)
        dev_batch = next(dev.batches(DEV_SEED))
        held_batch = next(held.batches(HELD_OUT_SEED))
        ctx = held.setup()
        phase = run_mod.Phase()
        for inp in held_batch:
            phase.run_op(held, ctx, inp)
        failures += ["%s held-out: %s" % (held.name, p.strip())
                     for p in phase.problems]
        a, b = dev.shape(dev_batch), held.shape(held_batch)
        failures += ["%s held-out mix: %s" % (held.name, p)
                     for p in similar_mix(a, b)]
        print("held-out %-13s %d ops, %d failed; dev %s held %s" % (
            held.name, len(phase.lat_s), phase.failed, json.dumps(a),
            json.dumps(b)), flush=True)
    return failures


def similar_mix(a, b):
    """Held-out inputs: same size and kind of input as the benchmark deck."""
    problems = []
    if a["rank"] != b["rank"]:
        problems.append("rank %s vs %s" % (a["rank"], b["rank"]))
    if a.get("gamma_share") != b.get("gamma_share"):
        problems.append("gamma_share %s vs %s" % (a["gamma_share"], b["gamma_share"]))
    if "word_len_mean" in a and abs(a["word_len_mean"] - b["word_len_mean"]) > 1.5:
        problems.append("word_len_mean %s vs %s" % (a["word_len_mean"],
                                                     b["word_len_mean"]))
    if "entry_bits_max" in a and not (
            0.5 <= a["entry_bits_max"] / b["entry_bits_max"] <= 2):
        problems.append("entry_bits_max %s vs %s" % (a["entry_bits_max"],
                                                      b["entry_bits_max"]))
    return problems


def main():
    failures = []
    for workload in MOVES:
        line = traced_run(workload)
        metrics = {k: v["value"] for k, v in line["metrics"].items()}
        if not line["correct"]:
            failures.append("%s: traced run failed an output check" % workload)
        for layer in MOVES[workload]:
            if metrics[layer + ".calls"] < 1:
                failures.append("%s: %s recorded no call" % (workload, layer))
        for layer in ZERO.get(workload, []):
            if metrics[layer + ".calls"] != 0:
                failures.append("%s: %s recorded %d calls, predicted none"
                                % (workload, layer, metrics[layer + ".calls"]))
        if not metrics["trace.overhead"] > 0 or not metrics["cli.startup_ms"] > 0:
            failures.append("%s: overhead or startup not measured" % workload)
        print("traced %-13s ok=%s overhead=%.3f" % (
            workload, line["correct"], metrics["trace.overhead"]), flush=True)
    failures += held_out()
    for f in failures:
        print("FAIL " + f)
    print("selftest %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
