"""Per-layer tracing from outside the library.

`Tracer` wraps the public functions named in `TARGETS` in every ``hklat``
module namespace that binds them (``factor`` imports ``membership`` by
name, ``cli`` imports ``characters``, ...), and methods on their classes.
Each wrapped call records a span (name, start, end, parent span, op id)
in memory; self time is the span's duration minus the time covered by
its child spans.  `uninstall` puts every original binding back.
"""

import functools
import importlib
import json
import sys
from time import perf_counter_ns

# (metric prefix, module, attribute names); methods are "Class.method".
TARGETS = [
    ("linalg.mat_mul", "hklat.linalg", ["mat_mul"]),
    ("linalg.det", "hklat.linalg", ["det"]),
    ("linalg.rref", "hklat.linalg", ["rref"]),
    ("linalg.inverse", "hklat.linalg", ["inverse"]),
    ("linalg.smith_normal_form", "hklat.linalg", ["smith_normal_form"]),
    ("lattice.isom_mul", "hklat.lattice", ["QIsometry.__mul__"]),
    ("lattice.isom_det", "hklat.lattice", ["QIsometry.det"]),
    ("lattice.isom_inverse", "hklat.lattice", ["QIsometry.inverse"]),
    ("lattice.membership", "hklat.lattice", ["membership"]),
    ("lattice.nu_character", "hklat.lattice", ["nu_character"]),
    ("lattice.disc_action", "hklat.lattice", ["disc_action"]),
    ("transvect.reduce_to_canonical", "hklat.transvect", ["reduce_to_canonical"]),
    ("transvect.move_into_L", "hklat.transvect", ["move_into_L"]),
    ("factor.decompose", "hklat.factor", ["decompose"]),
    ("factor.cartan_dieudonne", "hklat.factor", ["cartan_dieudonne"]),
    ("factor.positive_reflection_rewrite", "hklat.factor",
     ["positive_reflection_rewrite"]),
    ("factor.reflect_times", "hklat.factor", ["reflect_times"]),
    ("factor.find_orthogonal_norm_vector", "hklat.factor",
     ["find_orthogonal_norm_vector"]),
    ("factor.verify_normal_form", "hklat.factor", ["verify_normal_form"]),
    ("snrep.apply_linear", "hklat.snrep", ["SymSpace.apply_linear"]),
    ("snrep.derivation_apply", "hklat.snrep", ["SymSpace.derivation_apply"]),
    ("snrep.kernel_basis", "hklat.snrep", ["SymSpace.kernel_basis"]),
    ("snrep.recover", "hklat.snrep", ["recover"]),
    ("snrep.compose_rule_check", "hklat.snrep", ["compose_rule_check"]),
    ("llv.ops", "hklat.llv", ["e_op", "b_field", "tau", "mu", "extend_to_llv"]),
    ("llv.dual_lefschetz_check", "hklat.llv", ["dual_lefschetz_check"]),
    ("llv.verify_kernel_identity", "hklat.llv", ["verify_kernel_identity"]),
    ("pontryagin.SHModel.init", "hklat.pontryagin", ["SHModel.__init__"]),
    ("pontryagin.to_words", "hklat.pontryagin", ["SHModel.to_words"]),
    ("pontryagin.cup", "hklat.pontryagin", ["SHModel.cup"]),
    ("pontryagin.rho_tau", "hklat.pontryagin", ["SHModel.rho_tau"]),
    ("pontryagin.apply_llv", "hklat.pontryagin", ["SHModel.apply_llv"]),
    ("pontryagin.conjugation_check", "hklat.pontryagin", ["conjugation_check"]),
    ("pontryagin.star_via", "hklat.pontryagin", ["star_via"]),
    ("jsonio.isometry_from_json", "hklat.jsonio", ["isometry_from_json"]),
    ("jsonio.normal_form_from_json", "hklat.jsonio", ["normal_form_from_json"]),
    ("jsonio.normal_form_to_json", "hklat.jsonio", ["normal_form_to_json"]),
    ("mukai.make_cyclic", "hklat.mukai", ["make_cyclic"]),
    ("mukai.verify_cyclic", "hklat.mukai", ["verify_cyclic"]),
]

# Derived per-layer metrics, beyond <target>.calls and <target>.self_pct.
EXTRA_METRICS = [
    ("linalg.max_den_bits", "bits"),
    ("transvect.word_len_mean", "count"),
    ("transvect.word_len_max", "count"),
    ("factor.verify_per_decompose", "ratio"),
    ("factor.cert_k_mean", "count"),
    ("factor.cert_k_max", "count"),
    ("snrep.apply_linear.dense_share", "ratio"),
    ("cli.startup_ms", "ms"),
    ("trace.overhead", "ratio"),
]


def per_layer_spec():
    """Every per-layer metric as (name, unit), in BENCHMARK.json order."""
    out = []
    for name, _, _ in TARGETS:
        out.append((name + ".calls", "count"))
        out.append((name + ".self_pct", "%"))
    return out + EXTRA_METRICS


class _Stat:
    __slots__ = ("calls", "self_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0


def _den_bits(matrix):
    return max((getattr(x, "denominator", 1).bit_length()
                for row in matrix for x in row), default=0)


class Tracer:
    """Installs span-recording wrappers; one instance per traced phase."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.stats = [_Stat() for _ in TARGETS]
        self.spans = []          # (span id, name idx, start ns, end ns, parent id, op id)
        self.stack = []          # [child ns, span id] per open span
        self.next_id = 0
        self.op_id = None
        self.max_den_bits = 0
        self.word_lens = []
        self.cert_ks = []
        self.dense_calls = 0
        self._undo = []          # (namespace, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, idx, fn, after=None, before=None):
        stat = self.stats[idx]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [0, sid]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.self_ns += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                tracer.spans.append((sid, idx, t0, t1, parent, tracer.op_id))
            if after is not None:
                after(result)
            return result
        traced.__wrapped_by_perfbench__ = True
        return traced

    def _hooks(self, name):
        if name == "linalg.mat_mul":
            def after(res):
                self.max_den_bits = max(self.max_den_bits, _den_bits(res))
            return None, after
        if name.startswith("transvect."):
            return None, lambda word: self.word_lens.append(len(word.steps))
        if name == "factor.decompose":
            def after(nf):
                if nf.k:
                    self.cert_ks.append(nf.k)
            return None, after
        if name == "snrep.apply_linear":
            def before(args):
                space, x = args[0], args[2]
                if space.n == 2 and len(x) > space.dim_v:
                    self.dense_calls += 1
            return before, None
        return None, None

    def install(self):
        for _, modname, _ in TARGETS:
            importlib.import_module(modname)
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "hklat" or n.startswith("hklat."))]
        for idx, (name, modname, attrs) in enumerate(TARGETS):
            mod = importlib.import_module(modname)
            before, after = self._hooks(name)
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrapper(idx, orig, after, before))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrapper(idx, orig, after, before)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, wrapped)
        self._check_installed(mods)

    def _check_installed(self, mods):
        """Fail loudly if a renamed or re-bound target escaped wrapping."""
        originals = {id(orig) for _, _, orig in self._undo}
        for m in mods:
            for key, val in vars(m).items():
                if id(val) in originals and not hasattr(val, "__wrapped_by_perfbench__"):
                    raise RuntimeError("unwrapped binding %s.%s" % (m.__name__, key))

    def uninstall(self):
        for ns, key, orig in reversed(self._undo):
            setattr(ns, key, orig)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_ms(self):
        return {name: {"calls": st.calls, "self_ms": st.self_ns / 1e6}
                for name, st in zip(self.names, self.stats)}

    def metrics(self, wall_ns, startup_ms, overhead):
        """The per-layer metric values; self time as a share of wall_ns."""
        out = {}
        for name, st in zip(self.names, self.stats):
            out[name + ".calls"] = st.calls
            out[name + ".self_pct"] = 100.0 * st.self_ns / wall_ns
        calls = {name: st.calls for name, st in zip(self.names, self.stats)}
        wl = self.word_lens
        out["linalg.max_den_bits"] = self.max_den_bits
        out["transvect.word_len_mean"] = sum(wl) / len(wl) if wl else 0.0
        out["transvect.word_len_max"] = max(wl, default=0)
        dec = calls["factor.decompose"]
        out["factor.verify_per_decompose"] = (
            calls["factor.verify_normal_form"] / dec if dec else 0.0)
        ks = self.cert_ks
        out["factor.cert_k_mean"] = sum(ks) / len(ks) if ks else 0.0
        out["factor.cert_k_max"] = max(ks, default=0)
        al = calls["snrep.apply_linear"]
        out["snrep.apply_linear.dense_share"] = self.dense_calls / al if al else 0.0
        out["cli.startup_ms"] = startup_ms
        out["trace.overhead"] = overhead
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["id", "name", "start_ns", "end_ns",
                                            "parent", "op"]}) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")
