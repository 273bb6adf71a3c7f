"""hklat benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  The run draws its inputs from ``--seed``, sets up
(warm-up, repeated; the median is ``setup_s``), then runs ops one at a
time in a closed loop, in whole batches (see workloads.py), until
``--seconds`` of op time have passed.  Input generation and the exact
output checks happen between ops, outside every timing.

Times in the end-to-end metrics are in reference seconds: each set-up and
op is timed on the wall clock and scaled by the host speed measured next
to it by a reference probe (see speed.py), because this kind of host runs
the same work up to 1.6x slower from one few seconds to the next.  The
wall-clock figures are in the run record and on stderr.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs ops
untraced for half the time, then sets up again and replays the same
inputs with every layer wrapped (see spans.py), and prints the per-layer
metrics, including the overhead of tracing on those inputs.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A human-readable summary goes to stderr, and
the full record (environment, input shape, digests, extra figures, spans)
to ``.perfbench_out/`` in the checkout.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, perf_counter_ns

# bound before the library is imported, so that nothing it does changes it
from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# set-up repeats for at least SETUP_SPAN_S, so that its median does not
# rest on a few ms of one host-speed window
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SPAN_S = 3, 1000, 2.0
STARTUP_REPS = 3


def _fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "hklat", "__init__.py")):
        _fail("no library source at %s; run from the root of a checkout" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hklat
    if not os.path.abspath(hklat.__file__).startswith(SRC + os.sep):
        _fail("imported hklat from %s, not from %s" % (hklat.__file__, SRC))


def environment():
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        sha = r.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "platform": platform.platform(),
            "git_sha": sha,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "flint": importlib.util.find_spec("flint") is not None}


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def timed_setups(wl):
    """Repeat the set-up; return (wall-clock intervals, last ctx)."""
    spans, ctx, total = [], None, 0.0
    while (len(spans) < SETUP_MIN_REPS
           or (len(spans) < SETUP_MAX_REPS and total < SETUP_SPAN_S)):
        ctx = None
        t0 = perf_counter()
        ctx = wl.setup()
        spans.append((t0, perf_counter()))
        total += spans[-1][1] - t0
    return spans, ctx


class Phase:
    """Ops of one phase: latencies, failures, output digests."""

    def __init__(self):
        self.spans = []       # (start, end) of each op on the wall clock
        self.lat_s = []
        self.problems = []
        self.failed = 0
        self.digests = []     # sha256 of each op's canonical JSON output
        self.extra = []       # per-op figures reported outside the metrics

    def digest(self):
        """sha256 over the sorted per-op digests: independent of op order."""
        return hashlib.sha256("".join(sorted(self.digests)).encode()).hexdigest()

    def run_op(self, wl, ctx, inp):
        t0 = perf_counter()
        try:
            out = wl.op(ctx, inp)
        except Exception:
            self.spans.append((t0, perf_counter()))
            self.lat_s.append(self.spans[-1][1] - t0)
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return
        self.spans.append((t0, perf_counter()))
        self.lat_s.append(self.spans[-1][1] - t0)
        problems = wl.check(ctx, inp, out)
        if problems:
            self.failed += 1
            self.problems += problems
        self.digests.append(hashlib.sha256(wl.digest_text(out).encode()).hexdigest())
        if "verify_s" in out:
            self.extra.append({"verify_s": out["verify_s"], "k": out["nf"].k})


def measure(wl, ctx, source, seconds, inputs):
    """Closed loop over whole batches until `seconds` of op time; drawn
    inputs go to `inputs`."""
    phase, gen_s = Phase(), 0.0
    while sum(phase.lat_s) < seconds:
        t0 = perf_counter()
        batch = next(source)
        gen_s += perf_counter() - t0
        for inp in batch:
            inputs.append(inp)
            phase.run_op(wl, ctx, inp)
    return phase, gen_s


def wall_figures(setup_spans, phase):
    """The untraced run's metrics on the wall clock, for the record."""
    lat_ms = [1e3 * s for s in phase.lat_s]
    return {"setup_s": statistics.median(b - a for a, b in setup_spans),
            "ops_per_s": len(lat_ms) / sum(phase.lat_s),
            "op_p50_ms": statistics.median(lat_ms)}


def tail(lat_ms):
    """Highest percentile with at least 10 samples above it, above p50."""
    n = len(lat_ms)
    if n < 21:
        return None
    p = 100 * (n - 10) // n
    return {"p": p, "ms": sorted(lat_ms)[n * p // 100 - 1]}


def factor_figures(extra):
    """verify_p50_ms and cert_k over inputs outside Gamma (factor-k3n2)."""
    if not extra:
        return {}
    ks = [e["k"] for e in extra if e["k"]]
    return {"verify_p50_ms": 1e3 * statistics.median(e["verify_s"] for e in extra),
            "cert_k_mean": sum(ks) / len(ks) if ks else None,
            "cert_k_max": max(ks, default=None)}


def cli_startup_ms():
    from workloads import CliVerify
    times = []
    for _ in range(STARTUP_REPS):
        t0 = perf_counter()
        CliVerify().setup()
        times.append(1e3 * (perf_counter() - t0))
    return statistics.median(times)


def run(name, seed, seconds, trace):
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    source = wl.batches(seed)
    inputs = []
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    if not trace:
        sampler = wl.sampler = SpeedSampler()
        sampler.start()
        try:
            setup_spans, ctx = timed_setups(wl)
            phase, gen_s = measure(wl, ctx, source, seconds, inputs)
        finally:
            sampler.stop()
        setup_ref = [sampler.ref_seconds(a, b) for a, b in setup_spans]
        lat_ms = [1e3 * sampler.ref_seconds(a, b) for a, b in phase.spans]
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "ops_per_s": {"value": 1e3 * len(lat_ms) / sum(lat_ms), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        phases = [phase]
        record["setup_all_s"] = setup_ref
        record["op_ms"] = lat_ms
        record["wall"] = dict(wall_figures(setup_spans, phase),
                              op_ms=[1e3 * s for s in phase.lat_s],
                              probe_median_s=sampler.probe_median_s(),
                              probes=len(sampler.times))
        record["op_tail"] = tail(lat_ms)
        record.update(factor_figures(phase.extra))
    else:
        from spans import Tracer, per_layer_spec
        _, ctx = timed_setups(wl)
        # cli-verify runs in-process here, in both phases, so that its
        # spans are visible and the overhead compares like with like
        ctx["inproc"] = True
        # probes run in both phases, so that the overhead is a ratio of
        # reference seconds; they add the same few % to every span
        sampler = SpeedSampler()
        sampler.start()
        try:
            ref, gen_s = measure(wl, ctx, source, seconds / 2, inputs)
            startup_ms = cli_startup_ms()
            tracer = Tracer()
            tracer.install()
            try:
                t0 = perf_counter_ns()
                tctx = wl.setup()
                tctx["inproc"] = True
                traced = Phase()
                for i, inp in enumerate(inputs):
                    tracer.op_id = i
                    traced.run_op(wl, tctx, inp)
                wall_ns = perf_counter_ns() - t0
            finally:
                tracer.uninstall()
        finally:
            sampler.stop()
        overhead = (sum(sampler.ref_seconds(a, b) for a, b in traced.spans)
                    / sum(sampler.ref_seconds(a, b) for a, b in ref.spans))
        values = tracer.metrics(wall_ns, startup_ms, overhead)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in per_layer_spec()}
        phases = [ref, traced]
        record["layers"] = tracer.self_ms()
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, "%s-seed%d-spans.jsonl" % (name, seed))
        tracer.write_spans(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["span_count"] = len(tracer.spans)
    attempted = sum(len(p.lat_s) for p in phases)
    failed = sum(p.failed for p in phases)
    record.update({"input_shape": wl.shape(inputs), "gen_s": gen_s,
                   "attempted": attempted, "failed": failed,
                   "fail_rate": failed / attempted,
                   "problems": [x for p in phases for x in p.problems][:20],
                   "output_sha256": phases[-1].digest(),
                   "metrics": metrics})
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    import_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(WORKLOADS)))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    summary = {k: record[k] for k in ("workload", "seed", "input_shape", "gen_s",
                                      "fail_rate", "output_sha256")}
    summary.update({k: record.get(k) for k in ("verify_p50_ms", "cert_k_mean",
                                               "cert_k_max", "op_tail", "wall")
                    if record.get(k) is not None})
    print(json.dumps(summary), file=sys.stderr)
    for p in record["problems"]:
        print("perfbench: check failed: " + p.strip(), file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
