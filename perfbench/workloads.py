"""The four benchmark workloads.

Each workload is a `Deck`: a fixed list of op inputs drawn from the
workload's pool seed with the benchmark's own generators (the library only
sees the generated matrices and JSON).  A run's seed shuffles the deck and
draws the test vectors of the exact checks; the run goes through whole
passes over the deck.  The deck is fixed because op costs differ up to
100x between inputs while a run holds 1-12 ops: fresh inputs per run
seed spread runs of the seed code by 13-33%, measuring the draw rather
than the code.  A workload built with another pool seed gives a held-out
deck.

Each workload has:

- ``deck()``: the fixed list of op inputs;
- ``setup()``: the untimed-for-ops warm-up whose median wall time is
  ``setup_s``; returns a context;
- ``op(ctx, inp)``: one timed operation, returning its output;
- ``check(ctx, inp, out)``: exact checks of the output, run outside the
  timed region; returns a list of problems (empty when correct);
- ``digest_text(out)``: canonical JSON of the output for the run's sha256;
- ``shape(inputs)``: the size and mix of the inputs actually used.
"""

import contextlib
import io as _io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from hklat import cli
from hklat import factor as fc
from hklat import jsonio as jio
from hklat import lattice as lt
from hklat import llv
from hklat import pontryagin as pg
from hklat import snrep as sn
from hklat import transvect as tv

import clirun

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
CLIRUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clirun.py")


def _entry_bits(matrix):
    return max(max(abs(Fraction(x).numerator).bit_length(),
                   Fraction(x).denominator.bit_length())
               for row in matrix for x in row)


def _rand_vec(rng, lat, bound=2):
    return lat.vec([rng.randint(-bound, bound) for _ in range(lat.rank)])


def _rand_primitive(rng, lat, bound=2):
    while True:
        v = _rand_vec(rng, lat, bound)
        if not v.is_zero() and v.is_primitive():
            return v


def _rand_transvection(rng, lat, bound=1):
    i, j = rng.choice(lat.u_blocks)
    e = lat.basis_vec(rng.choice([i, j]))
    while True:
        a = _rand_vec(rng, lat, bound)
        if not a.is_zero() and lat.pair_coords(e.coords, a.coords) == 0:
            return tv.eichler_transvection(lat, e, a)


def _reflection_word(rng, lat, count):
    """Product of `count` reflections in random anisotropic vectors."""
    f = lt.QIsometry.identity(lat)
    for _ in range(count):
        while True:
            v = _rand_vec(rng, lat)
            if v.norm() != 0:
                break
        f = fc.reflect(lat, v) * f
    return f


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Deck:
    """Batches of a fixed deck: one batch is one pass, in seed order."""

    sampler = None    # the run's SpeedSampler, set by run.py when untraced

    def __init__(self, pool_seed=None):
        self.pool_seed = self.POOL_SEED if pool_seed is None else pool_seed

    def batches(self, seed):
        rng = random.Random(seed)
        deck = self.deck()
        rng.shuffle(deck)
        while True:
            yield [dict(inp, check_seed=rng.getrandbits(32)) for inp in deck]


# -- factor-k3n2 ----------------------------------------------------------------


def _pair(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j]
               for i in range(len(x)) if x[i] for j in range(len(y)) if gram[i][j])


def _mat_vec(m, v):
    return [sum(r[j] * v[j] for j in range(len(v)) if r[j] and v[j]) for r in m]


class FactorK3n2(Deck):
    """Criterion-1 certificate round trip on K3n:2 (rank 23).

    The deck is the first DECK criterion-1 words (1-5 generators plus an
    optional orientation fix) of the stream seeded with POOL_SEED, drawn so
    that every fourth one lies in Gamma (the k = 0 membership path) and
    the others need the full pipeline.  Of the six full-pipeline words two
    take 2-3 s and four take 5-6 s on the seed code; with seven words the
    median op lies inside that cluster instead of straddling the gap,
    where noise on the two ops next to the gap moved it by up to 25%.
    """

    name = "factor-k3n2"
    GAMMA_EVERY = 4
    DECK = 7
    POOL_SEED = 1001

    def deck(self):
        rng = random.Random(self.pool_seed)
        lat = lt.preset("K3n", 2)
        out = []
        for i in range(self.DECK):
            want_gamma = i % self.GAMMA_EVERY == self.GAMMA_EVERY - 1
            while True:
                phi, ngens = self._word(rng, lat)
                in_gamma = phi.is_integral() and lt.membership(phi, "Gamma")[0]
                if in_gamma == want_gamma:
                    break
            out.append({"phi": jio.isometry_to_json(phi), "gens": ngens,
                        "in_gamma": in_gamma, "bits": _entry_bits(phi.matrix)})
        return out

    @staticmethod
    def _word(rng, lat):
        gens = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(3)
            if kind == 0:
                while True:
                    v = _rand_primitive(rng, lat)
                    nv = v.norm()
                    if nv != 0 and abs(nv) <= 12:
                        break
                r = fc.reflect(lat, v)
                gens.append(-r if rng.random() < 0.5 else r)
            elif kind == 1:
                gens.append(_rand_transvection(rng, lat))
            else:
                u = lat.vec([1, -2] + [0] * (lat.rank - 2))
                gens.append(fc.neg_reflection_u_delta(lat, u)
                            * _rand_transvection(rng, lat))
        phi = lt.QIsometry.identity(lat)
        for g in gens:
            phi = g * phi
        if lt.nu_character(phi) == -1:
            phi = fc.reflect(lat, lat.vec([1, -1] + [0] * (lat.rank - 2))) * phi
            gens.append("orientation")
        return phi, len(gens)

    def setup(self):
        lat = lt.preset("K3n", 2)
        # one untimed decompose fills the decompose_ref, l_part and disc
        # caches; this fixed input (k = 5) also takes the delta-fix and
        # positive-rewrite paths
        e = lat.basis_vec(0)
        delta = lat.basis_vec(lat.delta_index)
        warm = (tv.eichler_transvection(lat, e, delta)
                * fc.reflect(lat, lat.vec([0, 0, 1, 2] + [0] * 19)))
        fc.decompose(lat, warm)
        return {"lat": lat}

    def op(self, ctx, inp):
        lat = ctx["lat"]
        phi = jio.isometry_from_json(inp["phi"], lat)
        nf = fc.decompose(lat, phi)
        text = jio.dumps(jio.normal_form_to_json(nf))
        t0 = perf_counter()
        loaded = jio.normal_form_from_json(json.loads(text), lat)
        report = fc.verify_normal_form(loaded, phi)
        verify_s = perf_counter() - t0
        return {"nf": nf, "text": text, "report": report, "verify_s": verify_s}

    def check(self, ctx, inp, out):
        lat = ctx["lat"]
        nf, report = out["nf"], out["report"]
        problems = []
        if not report["ok"]:
            problems.append("verify_normal_form rejected the certificate")
        if (nf.k == 0) != inp["in_gamma"]:
            problems.append("k = %d for an input %s Gamma"
                            % (nf.k, "in" if inp["in_gamma"] else "outside"))
        di = lat.delta_index
        for u in nf.us:
            if not (u.is_integral() and u.is_primitive()):
                problems.append("u not primitive integral")
            if u.norm() < 2:
                problems.append("u of norm < 2")
            if u.coords[di] != 0:
                problems.append("u outside the L-part")
        for cert in nf.certificates:
            if cert.get("nu") != 1 or cert.get("disc") not in (1, -1):
                problems.append("gamma certificate without nu = 1, disc = +-1")
        problems += self._recompose(lat, inp, out["text"])
        return problems

    @staticmethod
    def _recompose(lat, inp, text):
        """Re-evaluate the emitted certificate on test vectors with plain
        Fractions, independently of the library's evaluate()."""
        obj = json.loads(text)
        gram = lat.gram
        gammas = [[[Fraction(c) for c in row] for row in g["matrix"]]
                  for g in obj["gammas"]]
        us = [[Fraction(c) for c in u["coords"]] for u in obj["us"]]
        phi = [[Fraction(c) for c in row] for row in inp["phi"]["matrix"]]
        if any(x.denominator != 1 for g in gammas for row in g for x in row):
            return ["a gamma is not integral"]
        rng = random.Random(inp["check_seed"])
        problems = []
        for _ in range(2):
            v = [Fraction(rng.randint(-3, 3)) for _ in range(lat.rank)]
            w = _mat_vec(gammas[0], v)
            for u, g in zip(us, gammas[1:]):
                c = 2 * _pair(gram, u, w) / _pair(gram, u, u)
                w = _mat_vec(g, [wi - c * ui for wi, ui in zip(w, u)])
            if obj["k"] % 2:
                w = [-x for x in w]
            if w != _mat_vec(phi, v):
                problems.append("certificate does not recompose to phi")
                break
        return problems

    def digest_text(self, out):
        return out["text"]

    def shape(self, inputs):
        n = len(inputs)
        return {"rank": 23, "inputs": n,
                "gamma_share": sum(i["in_gamma"] for i in inputs) / n,
                "word_len_mean": sum(i["gens"] for i in inputs) / n,
                "entry_bits_max": max(i["bits"] for i in inputs)}


# -- symrep-k3n2 ----------------------------------------------------------------


class SymrepK3n2(Deck):
    """Inverse Sym^2 functor on the extended K3n:2 lattice (d = 25).

    Each op has its own f, f1, f2, products of 2 reflections in random
    anisotropic vectors as in criterion 4.
    """

    name = "symrep-k3n2"
    DECK = 1
    POOL_SEED = 1004

    def deck(self):
        rng = random.Random(self.pool_seed)
        lat = llv.LLVSpace(lt.preset("K3n", 2)).lattice
        out = []
        for _ in range(self.DECK):
            f, f1, f2 = (_reflection_word(rng, lat, 2) for _ in range(3))
            out.append({"f": f.matrix, "f1": f1.matrix, "f2": f2.matrix,
                        "bits": max(_entry_bits(g.matrix) for g in (f, f1, f2))})
        return out

    def setup(self):
        space = llv.LLVSpace(lt.preset("K3n", 2))
        return {"space": space, "sym": sn.SymSpace(space.lattice, 2)}

    def op(self, ctx, inp):
        lat, sym = ctx["space"].lattice, ctx["sym"]
        f, f1, f2 = (lt.QIsometry(lat, inp[k], _trusted=True)
                     for k in ("f", "f1", "f2"))

        def phi(x):
            return sn.sym_scale(f.det(), sym.apply_linear(f.matrix, x))

        h = sn.recover(sym, sym, phi)
        composed = sn.compose_rule_check(sym, f1, f2, phi, h_phi=h)
        return {"f": f, "h": h, "composed": composed}

    def check(self, ctx, inp, out):
        problems = []
        if out["h"] != out["f"] and out["h"] != -out["f"]:
            problems.append("recover(det(f) Sym^2(f)) is not +-f")
        if out["composed"] is not True:
            problems.append("compose_rule_check returned False")
        return problems

    def digest_text(self, out):
        return jio.dumps(jio.isometry_to_json(out["h"]))

    def shape(self, inputs):
        return {"rank": 25, "inputs": len(inputs), "word_len_mean": 2,
                "entry_bits_max": max(i["bits"] for i in inputs)}


# -- shmodel-k3n2 ---------------------------------------------------------------


class ShmodelK3n2(Deck):
    """Pontryagin model SHModel(LLVSpace(K3n:2), 2): conjugation, star_via
    and the criterion-9 cup/star identities.

    Every op uses the same two element pairs; the isometry f (2
    reflections), the scale s and the random triple differ per op, and
    every other op composes with tau.
    """

    name = "shmodel-k3n2"
    DECK = 12
    POOL_SEED = 1009

    def deck(self):
        rng = random.Random(self.pool_seed)
        lat = lt.preset("K3n", 2)
        model = pg.SHModel(llv.LLVSpace(lat), 2)
        pairs = [(model.random_element(rng).data, model.random_element(rng).data)
                 for _ in range(2)]
        out = []
        for i in range(self.DECK):
            f = _reflection_word(rng, lat, 2)
            out.append({"f": f.matrix, "s": rng.choice([1, 2, 3]),
                        "tau": i % 2 == 1, "pairs": pairs,
                        "triple": [model.random_element(rng).data for _ in range(3)],
                        "bits": _entry_bits(f.matrix)})
        return out

    def setup(self):
        return {"model": pg.SHModel(llv.LLVSpace(lt.preset("K3n", 2)), 2)}

    def op(self, ctx, inp):
        model = ctx["model"]
        space = model.space
        f = lt.QIsometry(space.base, inp["f"], _trusted=True)
        g = llv.mu(space, inp["s"]) * llv.extend_to_llv(space, f)
        if inp["tau"]:
            g = llv.tau(space) * g
        pairs = [(model.element(x), model.element(y)) for x, y in inp["pairs"]]
        good, info = pg.conjugation_check(model, g, pairs)
        rev = g if inp["tau"] else llv.tau(space) * g
        via = [pg.star_via(model, rev, x, y) for x, y in pairs]
        direct = [x.star(y) for x, y in pairs]
        x, y, z = (model.element(d) for d in inp["triple"])
        one, pt = model.unit_cup(), model.unit_star()
        identities = {
            "unit": one.cup(x) == x and x.star(pt) == x,
            "commutative": x.cup(y) == y.cup(x) and x.star(y) == y.star(x),
            "associative": (x.cup(y).cup(z) == x.cup(y.cup(z))
                            and x.star(y).star(z) == x.star(y.star(z))),
            "rho_tau": x.cup(y).rho_tau() == x.rho_tau().star(y.rho_tau()),
        }
        return {"good": good, "kind": info["kind"], "via": via, "direct": direct,
                "identities": identities}

    def check(self, ctx, inp, out):
        problems = []
        if not out["good"]:
            problems.append("conjugation_check failed")
        if out["kind"] != (-1 if inp["tau"] else 1):
            problems.append("conjugation_check reported the wrong kind")
        if any(a != b for a, b in zip(out["via"], out["direct"])):
            problems.append("star_via differs from star")
        problems += ["identity %s failed" % k
                     for k, ok in out["identities"].items() if not ok]
        return problems

    def digest_text(self, out):
        return jio.dumps([jio.sym_elt_to_json("llv", 2, e.data) for e in out["via"]])

    def shape(self, inputs):
        return {"rank": 25, "inputs": len(inputs),
                "word_len_mean": 2 + sum(i["tau"] for i in inputs) / len(inputs),
                "entry_bits_max": max(i["bits"] for i in inputs)}


# -- cli-verify -----------------------------------------------------------------


class CliVerify(Deck):
    """`hklat verify all --seed N` as a subprocess, for N in a fixed list.

    The subprocess is a fresh interpreter running clirun.py, which is
    ``python3 -m hklat.cli`` plus the child's own speed probes.  The deck is the list of N (one op takes 9-16 s, so a run holds one);
    the pool seed, when given, replaces it by one held-out N.  With
    ``ctx["inproc"]`` set (the traced run) the command runs through
    ``hklat.cli.main`` in this process instead, so its spans are visible.
    """

    name = "cli-verify"
    VERIFY_SEEDS = (42,)
    POOL_SEED = None

    def deck(self):
        seeds = self.VERIFY_SEEDS if self.pool_seed is None else (self.pool_seed,)
        return [{"n": n} for n in seeds]

    def _run_cli(self, argv, timeout):
        """The CLI in a fresh interpreter (clirun.py); the parent's speed
        probes pause while the child's run."""
        if self.sampler:
            self.sampler.pause()
        try:
            r = subprocess.run([sys.executable, CLIRUN, *argv], capture_output=True,
                               text=True, env=_subprocess_env(), timeout=timeout)
        finally:
            if self.sampler:
                self.sampler.resume()
        head, _, last = r.stderr.rstrip("\n").rpartition("\n")
        if last.startswith(clirun.PROBE_TAG):
            r.stderr = head
            if self.sampler:
                self.sampler.add(*json.loads(last[len(clirun.PROBE_TAG):]))
        return r

    def setup(self):
        r = self._run_cli(["lattice", "preset", "--name", "K3"], timeout=60)
        if r.returncode != 0 or json.loads(r.stdout)["rank"] != 22:
            raise RuntimeError("hklat lattice preset failed: %s" % r.stderr[-500:])
        return {"inproc": False, "digests": {}}

    def op(self, ctx, inp):
        argv = ["verify", "all", "--seed", str(inp["n"])]
        if ctx["inproc"]:
            buf = _io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return {"rc": rc, "stdout": buf.getvalue()}
        try:
            r = self._run_cli(argv, timeout=150)
        except subprocess.TimeoutExpired:
            return {"rc": "timeout", "stdout": ""}
        return {"rc": r.returncode, "stdout": r.stdout}

    def check(self, ctx, inp, out):
        if out["rc"] != 0:
            return ["exit code %s" % out["rc"]]
        try:
            report = json.loads(out["stdout"])
        except json.JSONDecodeError:
            return ["stdout is not JSON"]
        problems = []
        if report.get("ok") is not True or report.get("seed") != inp["n"]:
            problems.append("report not ok for seed %d" % inp["n"])
        problems += ["item %s failed" % it["name"]
                     for it in report.get("items", []) if not it["ok"]]
        # the same seed must print the same bytes every time
        seen = ctx["digests"].setdefault(inp["n"], out["stdout"])
        if seen != out["stdout"]:
            problems.append("stdout differs between runs of seed %d" % inp["n"])
        return problems

    def digest_text(self, out):
        return out["stdout"]

    def shape(self, inputs):
        return {"rank": 23, "inputs": len(inputs),
                "verify_seeds": [i["n"] for i in inputs]}


WORKLOADS = {w.name: w for w in (FactorK3n2(), SymrepK3n2(), ShmodelK3n2(),
                                 CliVerify())}
