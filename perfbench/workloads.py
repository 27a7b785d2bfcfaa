"""The four benchmark workloads: inputs from a seed, requests, and their checks.

Every workload builds round ``i`` of its inputs from ``random.Random`` seeded
with ``"<seed>/<workload>/<i>"``, so one seed gives one sequence of inputs
whatever the speed of the program.  Every round holds the same request
kinds in the same order; only their random inputs differ.  Warm-up inputs
come from a fixed stream of their own, the same for every seed, so set-up
does the same work on every run, and never reach the timed rounds.

A workload object has ``tail_pct`` (the percentile reported as the tail),
``rss_rounds`` (peak memory is read after this many rounds, so that every
version of rbx is compared after the same work: the elimination cache
grows with the contexts seen), ``round(i)`` (called for i = 0, 1, 2, ...
in order: ``coords`` remembers every context it has drawn), ``warm_up()``,
``execute(req)`` (the timed part: calls into rbx only), ``check(req, out)``
(independent checks, ``None`` when right) and ``size(req, out)``
(generators and wire bytes of the returned result).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checkers as ck
from tracer import TRACE_MARK


class Failed(Exception):
    """The program did not return a result for a request (crash, error exit, timeout)."""


# -- random inputs -----------------------------------------------------------------

def rational(rng: random.Random, span: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def poly(rng: random.Random, deg: int, span: int = 5, max_den: int = 3) -> list:
    """A polynomial of exactly degree ``deg``."""
    cs = [rational(rng, span, max_den) for _ in range(deg)]
    lead = Fraction(0)
    while lead == 0:
        lead = rational(rng, span, max_den)
    return cs + [lead]


def rank(rows: list) -> int:
    mat = [list(row) for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col] / mat[r][col]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def independent(rs: list) -> bool:
    width = max(len(r) for r in rs)
    return rank([r + [Fraction(0)] * (width - len(r)) for r in rs]) == len(rs)


def stream(seed: int, name: str, i) -> random.Random:
    return random.Random(f"{seed}/{name}/{i}")


# -- synth ---------------------------------------------------------------------

# One round, in order.  The eight requests listed before the five
# independent m = 3 problems are faster than those and the eight after
# slower (measured), so the median request of a run is an m = 3 synthesis,
# not a boundary between two request kinds.
SYNTH_ROUND = (
    [("single", 1)] * 4
    + [("independent", 2)] * 2
    + [("distinct", 2, False), ("distinct", 2, True)]
    + [("independent", 3)] * 5
    + [("distinct", 3, False), ("distinct", 3, True)]
    + [("independent", 4)] * 2
    + [("independent", 5)] * 2
    + [("distinct", 4, False), ("distinct", 4, True)]
)


class Synth:
    name = "synth"
    tail_pct = 95
    rss_rounds = 8

    def __init__(self, seed: int, root: Path):
        import rbx

        self.rbx = rbx
        self.seed = seed

    def _ops(self, pairs):
        rbx = self.rbx
        return [rbx.AnalyticOp(a, rbx.Poly(tuple(r))) for a, r in pairs]

    def _request(self, rng, spec):
        kind, m = spec[0], spec[1]
        a = rational(rng, 6, 4)
        if kind == "single":
            src = [(rational(rng, 6, 4), poly(rng, rng.randint(0, 6)))]
            dst = [(rational(rng, 6, 4), poly(rng, rng.randint(0, 6)))]
        elif kind == "independent":
            src, dst = ([(a, r) for r in self._independent(rng, m)] for _ in range(2))
        else:
            src = [(a, r) for r in self._distinct(rng, m, spec[2])]
            dst = [(a, r) for r in self._distinct(rng, m, False)]
        label = kind if kind != "distinct" else f"distinct-{'dep' if spec[2] else 'ind'}"
        return {"kind": kind, "label": f"{label}-{m}", "m": m, "src": src, "dst": dst,
                "args": (self._ops(src), self._ops(dst))}

    @staticmethod
    def _independent(rng, m):
        while True:
            rs = [poly(rng, rng.randint(0, m + 1)) for _ in range(m)]
            if independent(rs):
                return rs

    @staticmethod
    def _distinct(rng, m, dependent):
        while True:
            rs = [poly(rng, rng.randint(0, m)) for _ in range(m)]
            if dependent:
                scale = Fraction(0)
                while scale in (0, 1):
                    scale = rational(rng, 4, 2)
                rs[-1] = ck.pscale(rs[0], scale)
            if len({tuple(r) for r in rs}) == m:
                return rs

    def round(self, i):
        rng = stream(self.seed, self.name, i)
        return [self._request(rng, spec) for spec in SYNTH_ROUND]

    def warm_up(self):
        rng = stream(0, self.name, "warm")
        for spec in [("single", 1), ("independent", 3), ("distinct", 3, True)]:
            self.execute(self._request(rng, spec))

    def execute(self, req):
        rbx = self.rbx
        src, dst = req["args"]
        if req["kind"] == "single":
            return rbx.solve_single(src[0], dst[0])
        if req["kind"] == "independent":
            return rbx.solve_tuple_independent(src, dst)
        return rbx.solve_distinct_tuple(src, dst)

    def wire(self, word):
        return self.rbx.word_to_json(word)

    def check(self, req, out):
        cap = 3 if req["kind"] == "single" else ck.tuple_cap(req["m"])
        return ck.check_word(self.wire(out), req["src"], req["dst"], cap)

    def size(self, req, out):
        return len(out), len(json.dumps(self.wire(out)))


# -- canon ---------------------------------------------------------------------

# Multiplier degree k, coefficient height class, base-point height class and
# identity-check degree d of the twelve requests of a round.  Coefficients:
# 0 small, 1 up to 2^10; base points: 0 small, 1 up to 60,
# 2 up to 10^6 within the divisor cap below.  The check at degree d
# dominates a request, so d is fixed per position: four requests each at
# 6, 9 and 12, which puts the median request inside the d = 9 group.
CANON_ROUND = [
    (k, coef, base, (6, 9, 12)[(j + k) % 3])
    for k in range(4)
    for j, (coef, base) in enumerate(((0, 0), (1, 1), (0, 2)))
]

# Poly.rational_roots enumerates divisors by trial division up to the square
# root of the constant term of the first image; inputs whose root exceeds
# this cap are redrawn so that no request takes more than about 0.2 s.
CANON_DIVISOR_CAP = 400_000


class Canon:
    name = "canon"
    tail_pct = 95
    rss_rounds = 10

    def __init__(self, seed: int, root: Path):
        import rbx

        self.rbx = rbx
        self.seed = seed

    def _request(self, rng, spec):
        k, coef_h, base_h, d = spec
        span, den = ((9, 3), (2**10, 7))[coef_h]
        while True:
            r = poly(rng, k, span, den)
            if base_h == 2:
                p = int(10 ** rng.uniform(2, 6))
                a = Fraction(rng.choice((-1, 1)) * p, rng.randint(1, 9))
            else:
                a = rational(rng, (6, 60)[base_h], (4, 9)[base_h])
            if divisor_scan(ck.truncation_images(a, r, 0)[0]) <= CANON_DIVISOR_CAP:
                break
        n = 2 * d + k + 1
        # Bumping the constant of image t > k breaks the coordinate equation
        # (t-1-k, 0), whose c_t coefficient (1/t + 1/(k+1)) r_k is nonzero, so
        # the identity must fail on a pair of degree <= d.
        t = rng.randint(k + 1, k + 1 + d)
        bumped = ck.truncation_images(a, r, n)
        bumped[t] = ck.padd(bumped[t], [rational(rng, 5, 3) or Fraction(1)])
        rbx = self.rbx
        return {
            "label": f"k{k}-coef{coef_h}-base{base_h}-d{d}", "a": a, "r": r, "d": d, "n": n,
            "op": rbx.AnalyticOp(a, rbx.Poly(tuple(r))),
            "bumped": rbx.TruncOp(tuple(rbx.Poly(tuple(p)) for p in bumped)),
        }

    def round(self, i):
        rng = stream(self.seed, self.name, i)
        return [self._request(rng, spec) for spec in CANON_ROUND]

    def warm_up(self):
        rng = stream(0, self.name, "warm")
        for spec in [(1, 0, 0, 6), (2, 1, 1, 9)]:
            self.execute(self._request(rng, spec))

    def execute(self, req):
        rbx = self.rbx
        trunc = req["op"].truncate(req["n"])
        holds = rbx.is_rb_upto(trunc, 0, req["d"])
        point = rbx.operator_to_point(trunc)
        bumped_holds = rbx.is_rb_upto(req["bumped"], 0, req["d"])
        return trunc, holds, point, bumped_holds

    def check(self, req, out):
        trunc, holds, point, bumped_holds = out
        return (
            ck.check_images([list(p.coeffs) for p in trunc.images], req["a"], req["r"])
            or ck.check_verdict(holds, True, "identity on the truncation")
            or ck.check_point((point.a, list(point.r.coeffs)), req["a"], req["r"])
            or ck.check_verdict(bumped_holds, False, "identity on the bumped truncation")
        )

    def size(self, req, out):
        point = out[2]
        return sum(1 for c in point.r.coeffs if c), len(json.dumps(point.to_json()))


def divisor_scan(first_image: list) -> int:
    """Square root of the constant of the first image's primitive integer form."""
    from math import gcd, isqrt, lcm

    den = 1
    for c in first_image:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in first_image]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return isqrt(abs(ints[0] // g))


# -- coords ----------------------------------------------------------------------

# A round asks one query on each of 16 hot contexts that every round
# reuses, and 4 on contexts new to the process (degrees 0..3).  Each query
# carries a fresh base point, a head (on the curve, or with one coordinate
# bumped) and a reduced-equation pair from COORDS_PAIRS.  Queries of degree
# 0 and 1 are cheap and those of degree 2 and 3 cost about the same, so the
# degrees of the hot contexts (3, 3, 8 and 6 queries of degree 0..3 per
# round, new contexts included) put the median query inside the degree-2
# and -3 queries, not on the step between degree 1 and 2, where it would
# jump with the mix.
COORDS_HOT_DEGREES = [0] * 2 + [1] * 2 + [2] * 7 + [3] * 5
COORDS_ROUND = [("hot", j, j % 2 == 1) for j in range(len(COORDS_HOT_DEGREES))] + [
    ("fresh", k, k % 2 == 1) for k in range(4)
]
COORDS_BUDGET = 8
# Reduced-equation pairs (n, m) by position in the round: the reduced
# equation's size grows with n + m, so fixing the pairs keeps the returned
# sizes from varying with the seed.
COORDS_PAIRS = [(n, m) for n in range(5) for m in range(n, n + 2)] * 2
# Coefficient span and largest denominator of hot contexts, and of new
# contexts by degree.  A constant or linear multiplier of the hot heights
# has only about 50 or 2,500 values, too few to stay new for the thousands
# of rounds a fast run may complete, so new contexts of degree 0 and 1 are
# drawn from wider ranges.  A new context is drawn again while it equals
# a hot, warm-up or earlier new one.
COORDS_HOT_HEIGHT = (9, 4)
COORDS_FRESH_HEIGHT = {0: (999, 16), 1: (99, 8), 2: (9, 4), 3: (9, 4)}
COORDS_FRESH_TRIES = 10_000


class Coords:
    name = "coords"
    tail_pct = 99
    rss_rounds = 50

    def __init__(self, seed: int, root: Path):
        import rbx

        self.rbx = rbx
        self.seed = seed
        self.seen = {tuple(r) for r in self._warm_contexts()}
        # The hot contexts are the same for every seed: each is queried in
        # every round, so a seed-drawn set would shift the cost of every
        # round of a run together, where base points and new contexts
        # average out over the rounds.
        rng = stream(0, self.name, "hot")
        self.hot = [self._new_context(rng, k, COORDS_HOT_HEIGHT) for k in COORDS_HOT_DEGREES]

    def _new_context(self, rng, deg, height) -> list:
        """A multiplier of degree ``deg`` that no earlier context of this process had."""
        for _ in range(COORDS_FRESH_TRIES):
            r = poly(rng, deg, *height)
            if tuple(r) not in self.seen:
                self.seen.add(tuple(r))
                return r
        raise RuntimeError(f"no new degree-{deg} context in {COORDS_FRESH_TRIES} draws")

    @staticmethod
    def _warm_contexts() -> list:
        # Leading coefficients with denominator 7 never occur in hot
        # contexts, whose denominators are at most 4.
        rng = stream(0, "coords", "warm")
        rs = []
        for k in range(4):
            r = poly(rng, k, *COORDS_HOT_HEIGHT)
            r[-1] = Fraction(rng.randint(1, 9), 7)
            rs.append(r)
        return rs

    def _request(self, rng, r, bump, pair):
        k = len(r) - 1
        a = rational(rng, 6, 4)
        c = ck.curve_coords(r, a, k + 2)
        if bump:
            j = rng.randint(0, k)
            head = c[: k + 1]
            head[j] += 1
            ext = list(head)
        else:
            head, ext = c[: k + 1], c
        return {"label": f"k{k}-{'bump' if bump else 'curve'}", "r": r, "a": a,
                "head": head, "ext": ext, "bump": bump, "n": pair[0], "m": pair[1],
                "ts": list(range(k + 1, k + 5)), "R": self.rbx.Poly(tuple(r))}

    def round(self, i):
        rng = stream(self.seed, self.name, i)
        reqs = []
        for pos, (where, j, bump) in enumerate(COORDS_ROUND):
            if where == "hot":
                r = self.hot[j]
            else:
                r = self._new_context(rng, j, COORDS_FRESH_HEIGHT[j])
            reqs.append(self._request(rng, r, bump, COORDS_PAIRS[pos % len(COORDS_PAIRS)]))
        return reqs

    def warm_up(self):
        rng = stream(0, self.name, "warm-queries")
        for k, r in enumerate(self._warm_contexts()):
            self.execute(self._request(rng, r, k % 2 == 1, COORDS_PAIRS[k]))

    def execute(self, req):
        rbx = self.rbx
        R = req["R"]
        elims = [rbx.elimination_polynomial(R, t) for t in req["ts"]]
        reduced = rbx.reduced_equation(R, req["n"], req["m"])
        vanishes = rbx.vanishes_on_curve(R, req["n"], req["m"])
        member = rbx.satisfies_system(R, req["head"], COORDS_BUDGET)
        base = rbx.recover_base_point(R, req["ext"])
        return elims, reduced, vanishes, member, base

    def check(self, req, out):
        elims, reduced, vanishes, member, base = out
        r, a = req["r"], req["a"]
        for t, e in zip(req["ts"], elims):
            bad = ck.check_elimination(e.terms, r, a, t)
            if bad:
                return bad
        want = True if not req["bump"] else ck.is_member(r, req["head"], COORDS_BUDGET)
        return (
            ck.check_reduced(reduced.terms, r, a)
            or ck.check_verdict(vanishes, True, "reduced equation vanishes on the curve")
            or ck.check_verdict(member, want, "membership")
            or ck.check_recovered(base, r, req["ext"], not req["bump"])
        )

    def size(self, req, out):
        elims, reduced, vanishes, member, base = out
        polys = elims + [reduced]
        wire = {"eliminate": [p.to_text() for p in elims], "reduce": reduced.to_text(),
                "vanishes": vanishes, "member": member,
                "a": None if base is None else str(base)}
        return sum(len(p.terms) for p in polys), len(json.dumps(wire))


# -- cli -----------------------------------------------------------------------

# Two request kinds fail at this commit, on fixed inputs:
# ``act --op -`` reads stdin twice and exits 2, and ``orbit --aut`` on a
# leading coefficient above 2^1024 overflows a float in the k-th root and
# exits 1 with a traceback.  Both are counted as failed until they pass.
CLI_ROUND = ["verify", "verify_bumped", "canon", "functional", "act", "transit", "orbit",
             "act_stdin", "orbit_big"]
CLI_TIMEOUT = 60
BIG_LEAD = (2**1030 + 1) ** 2
FIXED_WORD = [{"type": "GA", "nu": "1"}, {"type": "HB", "b": "0", "s": "x^2 - 3*x"},
              {"type": "GM", "mu": "-2/3"}]
FIXED_OP = (Fraction(1, 2), [Fraction(1), Fraction(0), Fraction(1)])


def op_json(a, r) -> dict:
    return {"a": str(a), "r": ck.format_poly(r)}


def op_from_json(data) -> tuple:
    return Fraction(data["a"]), ck.parse_poly(data["r"])


class Cli:
    name = "cli"
    tail_pct = 90
    rss_rounds = 8

    def __init__(self, seed: int, root: Path, traced: bool = False):
        self.seed = seed
        self.root = root
        self.dir = root / "perfbench" / "results" / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if traced:
            self.prefix = [sys.executable, str(root / "perfbench" / "cli_child.py")]
        else:
            self.prefix = [sys.executable, "-m", "rbx.cli"]
        self.child_traces: list = []
        self._files = 0

    def close(self):
        for p in self.dir.iterdir():
            p.unlink()
        self.dir.rmdir()

    def _file(self, payload) -> str:
        self._files += 1
        path = self.dir / f"{self._files % 64}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def _request(self, rng, kind):
        req = {"kind": kind, "label": kind, "stdin": None}
        if kind in ("verify", "verify_bumped", "canon", "functional"):
            k = rng.randint(0, 3 if kind != "functional" else 2)
            a, r = rational(rng, 6, 4), poly(rng, k)
            req.update(a=a, r=r)
        if kind == "verify":
            d = rng.randint(4, 6)
            req.update(d=d, argv=["verify", self._file(op_json(a, r)), "--degree", str(d)])
        elif kind == "verify_bumped":
            d = rng.randint(4, 6)
            images = ck.truncation_images(a, r, 2 * d + k + 1)
            t = rng.randint(k + 1, k + 1 + d)
            images[t] = ck.padd(images[t], [Fraction(1)])
            payload = {"N": len(images) - 1, "images": [ck.format_poly(p) for p in images]}
            req.update(d=d, argv=["verify", self._file(payload), "--degree", str(d)])
        elif kind == "canon":
            images = ck.truncation_images(a, r, k + 2)
            payload = {"N": len(images) - 1, "images": [ck.format_poly(p) for p in images]}
            req.update(argv=["canon", self._file(payload)])
        elif kind == "functional":
            req.update(argv=["functional", "check", f"r={ck.format_poly(r)}",
                             "--budget", str(COORDS_BUDGET)])
        elif kind == "act":
            ops = [(rational(rng, 6, 4), poly(rng, rng.randint(0, 3)))]
            word = random_word(rng)
            req.update(ops=ops, word=word,
                       argv=["act", "--word", self._file(word), "--op",
                             self._file(op_json(*ops[0]))])
        elif kind == "act_stdin":
            req.update(ops=[FIXED_OP], word=FIXED_WORD, stdin=json.dumps(op_json(*FIXED_OP)),
                       argv=["act", "--word", self._file(FIXED_WORD), "--op", "-"])
        elif kind == "transit":
            src = (rational(rng, 6, 4), poly(rng, rng.randint(0, 4)))
            dst = (rational(rng, 6, 4), poly(rng, rng.randint(0, 4)))
            req.update(src=src, dst=dst, argv=["transit", "--src", self._file(op_json(*src)),
                                               "--dst", self._file(op_json(*dst)),
                                               "--mode", "single"])
        elif kind in ("orbit", "orbit_big"):
            if kind == "orbit":
                src = (rational(rng, 6, 4), poly(rng, rng.randint(1, 4)))
                mu = Fraction(0)
                while mu == 0:
                    mu = rational(rng, 4, 3)
                word = [{"type": "GA", "nu": str(rational(rng, 6, 4))},
                        {"type": "GM", "mu": str(mu)}]
                dst = ck.replay_word(word, [src])[0]
            else:
                src = (Fraction(0), [Fraction(1), Fraction(0), Fraction(1)])
                dst = (Fraction(0), [Fraction(1), Fraction(0), Fraction(BIG_LEAD)])
            req.update(src=src, dst=dst, argv=["orbit", "--aut", self._file(op_json(*src)),
                                               self._file(op_json(*dst))])
        return req

    def round(self, i):
        rng = stream(self.seed, self.name, i)
        return [self._request(rng, kind) for kind in CLI_ROUND]

    def warm_up(self):
        rng = stream(0, self.name, "warm")
        self.execute(self._request(rng, "verify"))

    def execute(self, req):
        try:
            proc = subprocess.run(
                self.prefix + req["argv"], input=req["stdin"], capture_output=True,
                text=True, cwd=self.root, env=self.env, timeout=CLI_TIMEOUT,
            )
        except subprocess.TimeoutExpired as exc:
            raise Failed(f"{req['kind']}: timed out") from exc
        return proc

    def record_trace(self, proc):
        """Collect the span totals a traced child printed on stderr."""
        for line in proc.stderr.splitlines():
            if line.startswith(TRACE_MARK):
                self.child_traces.append(json.loads(line[len(TRACE_MARK):]))

    @staticmethod
    def outcome(req, proc):
        """Raise Failed when the process crashed or refused valid input."""
        if proc.returncode == 2 or "Traceback" in proc.stderr or proc.returncode not in (0, 1):
            lines = [x for x in proc.stderr.splitlines() if not x.startswith(TRACE_MARK)]
            last = lines[-1:] or [""]
            raise Failed(f"{req['kind']}: exit {proc.returncode}: {last[0]}")

    def check(self, req, proc):
        kind, code = req["kind"], proc.returncode
        try:
            lines = [json.loads(x) for x in proc.stdout.splitlines()]
        except json.JSONDecodeError:
            return f"{kind}: stdout is not JSON lines"
        if kind in ("verify", "verify_bumped"):
            want = kind == "verify"
            if code != (0 if want else 1) or len(lines) != 1:
                return f"{kind}: exit {code}"
            out = lines[0]
            return (ck.check_verdict(out.get("holds"), want, kind)
                    or (None if out.get("degree") == req["d"] else f"{kind}: wrong degree"))
        if code != 0 and kind != "functional":
            return f"{kind}: exit {code}"
        if kind == "canon":
            a, r = op_from_json(lines[0])
            return ck.check_point((a, r), req["a"], req["r"])
        if kind == "functional":
            return check_functional_lines(lines, code, req["r"])
        if kind in ("act", "act_stdin"):
            want = ck.replay_word(req["word"], req["ops"])[0]
            return None if op_from_json(lines[0]) == want else f"{kind}: wrong image"
        out = lines[0]
        if kind == "transit":
            if not out.get("verified"):
                return "transit: word not verified"
            return ck.check_word(out["word"], [req["src"]], [req["dst"]], 3)
        if not out.get("in_orbit"):
            return f"{kind}: pair reported outside the orbit"
        return ck.check_word(out["word"], [req["src"]], [req["dst"]], 2)

    @staticmethod
    def size(req, proc):
        """Generators and bytes of the word that ``transit`` and ``orbit`` print."""
        if req["kind"] not in ("transit", "orbit", "orbit_big"):
            return None
        word = json.loads(proc.stdout)["word"]
        return len(word), len(json.dumps(word))


def check_functional_lines(lines, code, r) -> "str | None":
    """Verdict lines of ``functional check``: five curve samples, each with its bumps."""
    k = len(r) - 1
    samples = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 2)]
    per = 1 + (k + 1 if k else 0)
    if len(lines) != per * len(samples):
        return f"functional: {len(lines)} verdict lines, expected {per * len(samples)}"
    ok = True
    for s, a in enumerate(samples):
        curve = lines[s * per]
        if curve["member_Mr"] is not True or curve["a"] is None or Fraction(curve["a"]) != a:
            return f"functional: curve head at a = {a} not accepted with its base point"
        head = ck.curve_coords(r, a, k + 1)
        for j in range(k + 1 if k else 0):
            bumped = list(head)
            bumped[j] += 1
            line = lines[s * per + 1 + j]
            member = ck.is_member(r, bumped, COORDS_BUDGET)
            bad = ck.check_verdict(line["member_Mr"], member, f"bump {j} at a = {a}") or (
                ck.check_recovered(None if line["a"] is None else Fraction(line["a"]),
                                   r, bumped, False))
            if bad:
                return f"functional: {bad}"
            ok = ok and not member
    if code != (0 if ok else 1):
        return f"functional: exit {code}"
    return None


def random_word(rng) -> list:
    """A valid wire-form word of three to six generators."""
    word = []
    for _ in range(rng.randint(3, 6)):
        kind = rng.choice(("HB", "HB2", "GA", "GM"))
        if kind in ("HB", "HB2"):
            b = rational(rng, 3, 2)
            s = ck.pmul([-b, Fraction(1)], poly(rng, rng.randint(0, 2), 3, 2))
            word.append({"type": kind, "b": str(b), "s": ck.format_poly(s)})
        elif kind == "GA":
            word.append({"type": kind, "nu": str(rational(rng, 4, 3))})
        else:
            mu = Fraction(0)
            while mu == 0:
                mu = rational(rng, 3, 2)
            word.append({"type": kind, "mu": str(mu)})
    return word


WORKLOADS = {"synth": Synth, "canon": Canon, "coords": Coords, "cli": Cli}
