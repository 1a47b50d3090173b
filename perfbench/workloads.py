"""Seeded instance sets for the three workloads.

A workload is a list of rounds; a round is a fixed list of ops run one
after another.  Every op is either a CLI call (``argv`` for
``assoform.cli.main`` with ``--json``) or a direct call of
``assoform.stability.torus_destabilizer`` on a generated dual form.  Each
op carries what a correct program must answer (``expect``), so the checks
in ``checks.py`` need no elimination.  Only ``random.Random(seed)`` feeds
the generators: one seed gives byte-identical files and ops.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from algebra import (certainly_regular, linear_substitute, monomials, mul,
                     power, solve, system_text)

ROUNDS = 2

# op time limits in seconds; malformed input must be rejected at once
LIMIT_HEAVY = 60.0
LIMIT_OP = 20.0
LIMIT_MALFORMED = 0.5
LIMIT_DEFECT = 1.0

COEFFS = range(-3, 4)
NONZERO = [c for c in COEFFS if c]


def _x(n):
    return [f"x{i + 1}" for i in range(n)]


def _random_form(rng, n, d, monos=None) -> dict:
    while True:
        f = {m: Fraction(rng.choice(COEFFS)) for m in monos or monomials(n, d)}
        f = {m: c for m, c in f.items() if c}
        if f:
            return f


def _regular_sequence(rng, n, d) -> list[dict]:
    while True:
        gs = [_random_form(rng, n, d) for _ in range(n)]
        if certainly_regular(gs, n, d):
            return gs


def _embed(f: dict, n: int, offset: int) -> dict:
    """A form on a block of variables, placed at `offset` in n variables."""
    return {(0,) * offset + m + (0,) * (n - offset - len(m)): c for m, c in f.items()}


class Builder:
    """Collects the ops and input files of one workload instance set."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.files: dict[str, str | bytes] = {}
        self.rounds: list[list[dict]] = []
        self.defects: list[dict] = []

    def file(self, name: str, content) -> str:
        path = f"in/{name}"
        self.files[path] = content
        return path

    def cli(self, ops, oid, group, argv, expect, limit=LIMIT_OP, chain=None):
        op = {"id": oid, "group": group, "kind": "cli",
              "argv": ["--json", *argv], "expect": expect, "limit": limit}
        if chain:
            op["chain"] = chain
        ops.append(op)


# -- assoc-grid ----------------------------------------------------------------

# cells (n, d) with instances per round; (5,2) is out of reach (see README)
ASSOC_CELLS = [((2, 13), 8), ((4, 2), 10), ((3, 4), 2), ((3, 5), 1)]


def _assoc_then_perp(b: Builder, ops, tag, group, n, d, gs, limit):
    path = b.file(f"{tag}.txt", system_text(gs, _x(n)))
    b.cli(ops, f"{tag}-assoc", f"assoc {group}", ["assoc", path],
          {"exit": 0, "check": "assoc", "n": n, "d": d, "gens": _gens(gs)}, limit)
    perp_path = f"in/{tag}-form.txt"
    b.cli(ops, f"{tag}-perp", f"perp {group}", ["perp", perp_path],
          {"exit": 0, "check": "perp", "n": n, "d": d}, limit,
          chain={"from": f"{tag}-assoc", "path": perp_path, "nvars": n})


def assoc_grid(seed: int, tiny: bool = False) -> Builder:
    b = Builder("assoc-grid", seed)
    for r in range(1 if tiny else ROUNDS):
        ops: list[dict] = []
        cells = [((2, 3), 1), ((3, 2), 1)] if tiny else ASSOC_CELLS
        # shuffled, so that each cell's ops are spread over the whole round
        instances = [(n, d, i) for (n, d), count in cells for i in range(count)]
        b.rng.shuffle(instances)
        for n, d, i in instances:
            gs = _regular_sequence(b.rng, n, d)
            _assoc_then_perp(b, ops, f"r{r}-{n}x{d}-{i}", f"{n}x{d}", n, d, gs,
                             LIMIT_HEAVY)
        b.rounds.append(ops)
    return b


# -- hull-stability ------------------------------------------------------------

# unstable dual forms (n, degree, support size): the KKT search of the
# destabilizer tries every active subset of size < n-1 first, then every
# (n-1)-subset up to the optimal one, which is placed last, so each form
# costs exactly sum_{k<n} C(s, k) square solves.
HULL_UNSTABLE = [(3, 12, 36), (4, 5, 12)] + [(5, 4, 10)] * 7
HULL_INSIDE = [(3, 9, 20), (4, 6, 24), (5, 5, 20), (4, 5, 16), (3, 12, 30)]
# every degree once, then a block of one degree so that the median op of
# the workload is a binary-stability call on comparable inputs
BINARY_DEGREES = list(range(8, 25)) + [16] * 68
UNSTABLE_COPIES = 3


def _weight(rng, n) -> list[int]:
    while True:
        u = [rng.randint(-3, 3) for _ in range(n - 1)]
        u.append(-sum(u))
        if any(u) and math.gcd(*u) == 1:
            return u


def _unstable_form(rng, n, deg, size):
    """A dual form whose canonical destabilizer is known in advance.

    Picks a primitive weight u and n-1 'active' monomials a_t on one level
    u.a = c > 0 such that 2u/c = sum lam_t a_t + mu (1..1) with every lam_t
    > 0 (the KKT conditions of min |v|^2 s.t. v.a >= 1, sum v = 0); all
    other support monomials lie strictly above that level.  The optimum is
    then v = u/c, and the program must return u.
    """
    monos = monomials(n, deg)
    while True:
        u = _weight(rng, n)
        levels: dict[int, list] = {}
        for m in monos:
            levels.setdefault(sum(w * e for w, e in zip(u, m)), []).append(m)
        for c in sorted(v for v in levels if v > 0):
            above = [m for v, ms in levels.items() if v > c for m in ms]
            if len(levels[c]) < n - 1 or len(above) < size - (n - 1):
                continue
            for _ in range(20):
                active = rng.sample(levels[c], n - 1)
                system = [[Fraction(a[i]) for a in active] + [Fraction(1)]
                          for i in range(n)]
                sol = solve(system, [Fraction(2 * w, c) for w in u])
                if sol is not None and all(lam > 0 for lam in sol[:n - 1]):
                    rest = rng.sample(above, size - (n - 1))
                    support = rest + active
                    terms = [[list(m), rng.choice(NONZERO)] for m in support]
                    return terms, u


def _inside_form(rng, n, deg, size):
    """Random support plus every pure power: the balanced point is inside."""
    pure = [tuple(deg if i == j else 0 for j in range(n)) for i in range(n)]
    rest = [m for m in monomials(n, deg) if m not in pure]
    support = rng.sample(rest, size - n) + pure
    return [[list(m), rng.choice(NONZERO)] for m in support]


def _linear_factors(rng, count):
    """Pairwise non-proportional binary linear forms (a, b) ~ a*x1 + b*x2."""
    seen, out = set(), []
    while len(out) < count:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a, b) == (0, 0):
            continue
        g = math.gcd(a, b) * (1 if (a, b) > (0, 0) else -1)
        key = (a // g, b // g)
        if key not in seen:
            seen.add(key)
            out.append((a, b))
    return out


def _binary_product(rng, mults):
    """prod (a_i x1 + b_i x2)^{m_i} over distinct roots; exact root profile."""
    f = {(0, 0): Fraction(1)}
    for (a, b), m in zip(_linear_factors(rng, len(mults)), mults):
        lin = {m_: Fraction(c) for m_, c in (((1, 0), a), ((0, 1), b)) if c}
        f = mul(f, power(lin, m, 2))
    profile: dict[int, int] = {}
    for m in mults:
        profile[m] = profile.get(m, 0) + 1
    return f, sorted(([m, k] for m, k in profile.items()), reverse=True)


def _verdict(mults, deg):
    top = max(mults)
    if 2 * top > deg:
        return "Unstable"
    if 2 * top < deg:
        return "Stable"
    return "PolystableNotStable" if sorted(mults) == [top, top] else \
        "SemistableNotPolystable"


def _binary_op(b: Builder, ops, tag, mults, limit=LIMIT_OP):
    f, profile = _binary_product(b.rng, mults)
    path = b.file(f"{tag}.txt", system_text([f], _x(2)))
    deg = sum(mults)
    b.cli(ops, tag, "binary-stability", ["binary-stability", path],
          {"exit": 0, "check": "binary", "degree": deg,
           "verdict": _verdict(mults, deg), "multiplicities": profile}, limit)


def hull_stability(seed: int, tiny: bool = False) -> Builder:
    b = Builder("hull-stability", seed)
    unstable, inside, degrees = ([(3, 6, 8)], [(3, 6, 8)], [8]) if tiny else \
        (HULL_UNSTABLE, HULL_INSIDE, BINARY_DEGREES)
    for r in range(1 if tiny else ROUNDS):
        ops: list[dict] = []
        for i, (n, deg, size) in enumerate(unstable * (1 if tiny else UNSTABLE_COPIES)):
            terms, u = _unstable_form(b.rng, n, deg, size)
            ops.append({"id": f"r{r}-unstable-{i}", "group": f"destabilizer n={n}",
                        "kind": "hull", "form": {"nvars": n, "terms": terms},
                        "expect": {"exit": 0, "check": "hull", "weights": u},
                        "limit": LIMIT_HEAVY})
        for i, (n, deg, size) in enumerate(inside):
            ops.append({"id": f"r{r}-inside-{i}", "group": "balanced inside hull",
                        "kind": "hull",
                        "form": {"nvars": n, "terms": _inside_form(b.rng, n, deg, size)},
                        "expect": {"exit": 0, "check": "hull", "weights": None},
                        "limit": LIMIT_OP})
        for i, deg in enumerate(degrees):
            heavy = deg // 2 + 1 + b.rng.randint(0, 2)
            rest, mults = deg - heavy, [heavy]
            while rest:
                m = b.rng.randint(1, min(rest, 3))
                mults.append(m)
                rest -= m
            _binary_op(b, ops, f"r{r}-binary-{i}", mults)
        b.rng.shuffle(ops)
        b.rounds.append(ops)
    return b


# -- cli-session ---------------------------------------------------------------

SESSION_CELLS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3),
                 (4, 2)]
MALFORMED = {
    "empty": "",
    "no-header": "x1^2\nx2^2\n",
    "undeclared": "vars: x1 x2\nx1^2\nx3^2\n",
    "dangling-op": "vars: x1 x2\nx1^2 +\nx2^2\n",
    "implicit-mul": "vars: x1 x2\n2x1^2\nx2^2\n",
    "open-paren": "vars: x1 x2\n(x1 + x2\nx2^2\n",
    "zero-denominator": "vars: x1 x2\n(1/0)*x1^2\nx2^2\n",
    "duplicate-vars": "vars: x1 x1\nx1^2\nx1^2\n",
    "symbolic-exponent": "vars: x1 x2\nx1^x2\nx2^2\n",
    "stray-char": "vars: x1 x2\nx1^2 # x2\nx2^2\n",
}
MALFORMED_COMMANDS = ["assoc", "regseq", "hilbert", "koszul-check", "audit"]

# ROADMAP item 5: inputs the program should answer with a contract exit code
# at once but does not yet.  Run after the timed loop of every cli-session run.
DEFECTS = [
    ("audit-one-variable", ["audit"], "vars: x1\nx1^3\n", [0, 1, 2]),
    ("deep-nesting", ["regseq"],
     "vars: x1 x2\n" + "(" * 3000 + "x1" + ")" * 3000 + "^2\nx2^2\n", [1]),
    ("huge-power", ["regseq"], "vars: x1 x2\n(x1 + x2)^3000\nx2^2\n", [1, 2]),
    ("not-utf8", ["regseq"], b"vars: x1 x2\nx1^2\xff\nx2^2\n", [1]),
    ("negative-degree-cap", ["hilbert", "--degree-cap", "-1"],
     "vars: x1 x2\nx1^2\nx2^2\n", [1]),
    ("negative-trials", ["audit", "--trials", "-5"], "vars: x1 x2\nx1^2\nx2^2\n", [1]),
]


def _rational_matrix(rng, n, bits):
    """Invertible n x n matrix of rationals p/q with |p|, q below 2^bits."""
    top = 2 ** bits - 1
    while True:
        m = [[Fraction(rng.randint(-top, top), rng.randint(1, top)) for _ in range(n)]
             for _ in range(n)]
        if solve(m, [Fraction(0)] * n) is not None:
            return m


def _gens(gs):
    return [[[list(m), str(c)] for m, c in g.items()] for g in gs]


def _session_regular(b: Builder, ops, r, n, d):
    tag = f"r{r}-{n}x{d}"
    gs = _regular_sequence(b.rng, n, d)
    path = b.file(f"{tag}.txt", system_text(gs, _x(n)))
    cell = f"{n}x{d}"
    _assoc_then_perp(b, ops, tag, cell, n, d, gs, LIMIT_OP)
    b.cli(ops, f"{tag}-hilbert", f"hilbert {cell}", ["hilbert", path],
          {"exit": 0, "check": "hilbert", "n": n, "d": d})
    b.cli(ops, f"{tag}-regseq", f"regseq {cell}", ["regseq", path],
          {"exit": 0, "check": "regseq", "n": n, "d": d, "regular": True})
    b.cli(ops, f"{tag}-koszul", f"koszul-check {cell}", ["koszul-check", path],
          {"exit": 0, "check": "koszul", "n": n, "d": d})
    b.cli(ops, f"{tag}-stability", f"stability {cell}", ["stability", path],
          {"exit": 0, "check": "stability", "n": n, "d": d, "gens": _gens(gs)})
    seed = b.rng.randint(0, 999)
    b.cli(ops, f"{tag}-audit", f"audit {cell}",
          ["audit", path, "--trials", "6", "--seed", str(seed)],
          {"exit": 0, "check": "audit", "n": n, "d": d, "trials": 6, "seed": seed})


def _session_split(b: Builder, ops, r, n, d):
    """Direct sums for decompose, and split shapes for degenerate."""
    tag = f"r{r}-{n}x{d}"
    cell = f"{n}x{d}"
    split = b.rng.randint(1, n - 1)
    head = _regular_sequence(b.rng, split, d)
    tail = _regular_sequence(b.rng, n - split, d)
    gs = [_embed(g, n, 0) for g in head] + [_embed(g, n, split) for g in tail]
    path = b.file(f"{tag}-sum.txt", system_text(gs, _x(n)))
    b.cli(ops, f"{tag}-decompose", f"decompose {cell}",
          ["decompose", path, "--split", str(split)],
          {"exit": 0, "check": "decompose", "n": n, "d": d, "split": split})
    # degenerate: tail generators in the tail variables, head ones dense
    # with a regular truncation
    while True:
        dense = [_random_form(b.rng, n, d) for _ in range(split)]
        limit = [{m: c for m, c in g.items() if not any(m[split:])} for g in dense]
        if all(limit) and certainly_regular([{m[:split]: c for m, c in g.items()}
                                             for g in limit], split, d):
            break
    gs = dense + [_embed(g, n, split) for g in tail]
    path = b.file(f"{tag}-shape.txt", system_text(gs, _x(n)))
    b.cli(ops, f"{tag}-degenerate", f"degenerate {cell}",
          ["degenerate", path, "--split", str(split)],
          {"exit": 0, "check": "degenerate", "n": n, "d": d,
           "limit": _gens(limit + gs[split:])})


def _session_tall(b: Builder, ops, r, n, d, bits, koszul):
    """A regular system after a rational change of coordinates."""
    tag = f"r{r}-tall-{n}x{d}"
    cell = f"tall {n}x{d}"
    gs = _regular_sequence(b.rng, n, d)
    matrix = _rational_matrix(b.rng, n, bits)
    gs = [linear_substitute(g, matrix, n) for g in gs]
    path = b.file(f"{tag}.txt", system_text(gs, _x(n)))
    b.cli(ops, f"{tag}-regseq", f"regseq {cell}", ["regseq", path],
          {"exit": 0, "check": "regseq", "n": n, "d": d, "regular": True})
    b.cli(ops, f"{tag}-hilbert", f"hilbert {cell}", ["hilbert", path],
          {"exit": 0, "check": "hilbert", "n": n, "d": d})
    b.cli(ops, f"{tag}-assoc", f"assoc {cell}", ["assoc", path],
          {"exit": 0, "check": "assoc", "n": n, "d": d, "gens": _gens(gs)})
    if koszul:
        b.cli(ops, f"{tag}-koszul", f"koszul-check {cell}", ["koszul-check", path],
              {"exit": 0, "check": "koszul", "n": n, "d": d})


def _session_nonregular(b: Builder, ops, r, n, d):
    """Two generators share a linear factor, so the forms have a common zero."""
    tag = f"r{r}-nonreg-{n}x{d}"
    cell = f"non-regular {n}x{d}"
    lin = _random_form(b.rng, n, 1)
    gs = [mul(lin, _random_form(b.rng, n, d - 1)) for _ in range(2)]
    gs += [_random_form(b.rng, n, d) for _ in range(n - 2)]
    path = b.file(f"{tag}.txt", system_text(gs, _x(n)))
    b.cli(ops, f"{tag}-regseq", f"regseq {cell}", ["regseq", path],
          {"exit": 2, "check": "regseq", "n": n, "d": d, "regular": False})
    b.cli(ops, f"{tag}-koszul", f"koszul-check {cell}", ["koszul-check", path],
          {"exit": 2, "check": "koszul-fails", "n": n, "d": d})
    b.cli(ops, f"{tag}-assoc", f"assoc {cell}", ["assoc", path],
          {"exit": 2, "check": "rejected"})


def _session_quartics(b: Builder, ops, r, i):
    """A smooth quartic and its image under an integer change of coordinates."""
    tag = f"r{r}-quartic-{i}"
    f, _ = _binary_product(b.rng, [1, 1, 1, 1])
    while True:
        m = [[b.rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
            break
    g = linear_substitute(f, m, 2)
    pf = b.file(f"{tag}-F.txt", system_text([f], _x(2)))
    pg = b.file(f"{tag}-G.txt", system_text([g], _x(2)))
    b.cli(ops, f"{tag}-mather-yau", "mather-yau", ["mather-yau", pf, pg],
          {"exit": 0, "check": "mather-yau"})


SESSION = {
    "regular": SESSION_CELLS,
    "split": [(2, 3), (2, 5), (3, 2), (3, 3), (4, 2)],
    "binary": [[1, 1, 1, 1, 1, 1], [3, 2, 1], [4, 2, 1, 1], [2, 2, 2, 1, 1], [5, 3],
               [4, 4], [3, 3, 1, 1]],
    "quartic pairs": 2,
    "tall": [(2, 4, 10, True), (3, 2, 12, True), (3, 3, 2, True), (4, 2, 3, False)],
    "non-regular": [(2, 3), (2, 4), (3, 2)],
    "malformed": list(MALFORMED),
}
SESSION_COPIES = 6
SESSION_TINY = {"regular": [(2, 2)], "split": [(2, 3)], "binary": [[3, 2, 1]],
                "quartic pairs": 1, "tall": [(2, 3, 4, True)], "non-regular": [(2, 3)],
                "malformed": ["empty", "undeclared"]}


def cli_session(seed: int, tiny: bool = False) -> Builder:
    b = Builder("cli-session", seed)
    spec = SESSION_TINY if tiny else SESSION
    for rnd in range(1 if tiny else ROUNDS):
        ops: list[dict] = []
        for copy in range(1 if tiny else SESSION_COPIES):
            r = f"{rnd}c{copy}"
            for n, d in spec["regular"]:
                _session_regular(b, ops, r, n, d)
            for n, d in spec["split"]:
                _session_split(b, ops, r, n, d)
            for i, mults in enumerate(spec["binary"]):
                _binary_op(b, ops, f"r{r}-binary-{i}", mults)
            for i in range(spec["quartic pairs"]):
                _session_quartics(b, ops, r, i)
            for n, d, bits, koszul in spec["tall"]:
                _session_tall(b, ops, r, n, d, bits, koszul)
            for n, d in spec["non-regular"]:
                _session_nonregular(b, ops, r, n, d)
            for i, name in enumerate(spec["malformed"]):
                command = MALFORMED_COMMANDS[(i + copy) % len(MALFORMED_COMMANDS)]
                path = b.file(f"r{r}-malformed-{name}.txt", MALFORMED[name])
                b.cli(ops, f"r{r}-malformed-{name}", "malformed", [command, path],
                      {"exit": 1, "check": "rejected"}, LIMIT_MALFORMED)
            b.cli(ops, f"r{r}-missing-file", "malformed",
                  ["regseq", f"in/r{r}-does-not-exist.txt"],
                  {"exit": 1, "check": "rejected"}, LIMIT_MALFORMED)
        b.rng.shuffle(ops)
        _order_chains(ops)
        b.rounds.append(ops)
    for name, argv, text, codes in DEFECTS:
        path = b.file(f"defect-{name}.txt", text)
        b.cli(b.defects, f"defect-{name}", "known defect", [argv[0], path, *argv[1:]],
              {"exit": codes, "check": "defect"}, LIMIT_DEFECT)
    return b


def _order_chains(ops):
    """Keep each chained op (perp of a returned form) after its source."""
    position = {op["id"]: i for i, op in enumerate(ops)}
    for op in list(ops):
        chain = op.get("chain")
        if chain and position[chain["from"]] > position[op["id"]]:
            ops.remove(op)
            ops.insert(ops.index(next(o for o in ops if o["id"] == chain["from"])) + 1, op)
            position = {o["id"]: i for i, o in enumerate(ops)}


WORKLOADS = {"assoc-grid": assoc_grid, "hull-stability": hull_stability,
             "cli-session": cli_session}
