"""Command-line front end.

Subcommands wrap each pipeline: assoc, perp, hilbert, regseq, koszul-check,
decompose, degenerate, stability, binary-stability, mather-yau, audit.
Input files are UTF-8 system files (see parsing); output is human-readable
text or, with --json, a report of the shape

    {"command": ..., "nvars": ..., "d": ..., "nu": ..., "result": ...}

plus a "seed" key for seeded commands.  Rationals are rendered as exact
"p/q" strings.  Exit codes: 0 success, 1 parse/usage error, 2 precondition
failure (e.g. a non-regular input where a regular sequence is required).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .ideals import GradedIdeal, hilbert_function, is_regular_sequence, \
    koszul_exactness_check
from .inverse_system import (NotRegularSequence, SingularHypersurface,
                             associated_form, perp_piece)
from .invariants import mather_yau_point, points_equal
from .linalg import QMatrix
from .parsing import InputSystem, ParseError, parse_system
from .poly import Polynomial, Space, dim_degree, monomials_of_degree
from .stability import (OnePS, RootWitness, binary_stability,
                        recognize_decomposable, degeneration_limit,
                        semistability_audit, torus_destabilizer)

USAGE_EXIT = 1
PRECONDITION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the interface contract
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _fr(x: Fraction) -> str:
    return str(Fraction(x))


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="assoform",
                     description="Associated forms of balanced complete "
                                 "intersections, exactly over Q.")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, nfiles=1, degree_cap=False):
        p = sub.add_parser(name, help=help_text)
        if nfiles == 1:
            p.add_argument("file", help="input system file")
        else:
            p.add_argument("files", nargs="+", help="input system file(s)")
        if degree_cap:
            p.add_argument("--degree-cap", type=_non_negative, default=None,
                           help="highest graded degree to compute")
        return p

    add("assoc", "associated form of a regular sequence")
    add("perp", "apolar ideal pieces of a single dual form", degree_cap=True)
    add("hilbert", "Hilbert function of the quotient by the given forms",
        degree_cap=True)
    add("regseq", "certify that the forms are a regular sequence")
    add("koszul-check", "graded exactness of the Koszul complex", degree_cap=True)
    p = add("decompose", "decomposability recognition certificate")
    p.add_argument("--split", type=int, default=None,
                   help="split index b; all of 1..n-1 when omitted")
    p = add("degenerate", "limit of the direct-sum degeneration")
    p.add_argument("--split", type=int, required=True, help="block size a")
    add("stability", "stability analysis of the associated form")
    add("binary-stability", "exact GIT classification of one binary form")
    add("mather-yau", "compare the invariant points of one or two quartics",
        nfiles=2)
    p = add("audit", "randomized semistability audit")
    p.add_argument("--trials", type=_non_negative, default=20,
                   help="number of sampled 1-PS")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    return parser


def _load(path: str) -> InputSystem:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        col = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(f"{path} is not valid UTF-8 ({exc.reason})", line, col) from exc
    # the newline translation of text-mode reading
    return parse_system(text.replace("\r\n", "\n").replace("\r", "\n"))


def _single_form(system: InputSystem, what: str) -> Polynomial:
    if len(system.polynomials) != 1:
        raise ValueError(f"{what} expects exactly one polynomial, "
                         f"got {len(system.polynomials)}")
    return system.polynomials[0]


def _common_degree(system: InputSystem) -> int:
    degrees = set()
    for g in system.polynomials:
        if g.is_zero() or not g.is_homogeneous():
            raise ValueError("all polynomials must be nonzero and homogeneous")
        degrees.add(g.degree())
    if len(degrees) != 1:
        raise ValueError("all polynomials must have the same degree")
    return degrees.pop()


def _basis_renders(basis: QMatrix, nvars: int, k: int, names) -> list[str]:
    monos = monomials_of_degree(nvars, k)
    out = []
    for row in basis.entries:
        poly = Polynomial(nvars, Space.PRIMAL, dict(zip(monos, row)))
        out.append(poly.render(list(names)))
    return out


def _witness_json(witness):
    if witness is None:
        return None
    if isinstance(witness, OnePS):
        return {"type": "one_ps", "weights": list(witness.weights)}
    if isinstance(witness, RootWitness):
        return {"type": "root", "multiplicity": witness.multiplicity,
                "factor": witness.factor.render()}
    raise TypeError(f"unknown witness type {type(witness)!r}")


def _run_assoc(args, out):
    system = _load(args.file)
    d = _common_degree(system)
    assoc = associated_form(system.polynomials)
    out.text(assoc.form.render())
    return {"nvars": system.nvars, "d": d, "nu": assoc.nu,
            "result": {"form": assoc.form.render(),
                       "normalized_form": assoc.form.normalized().render()}}, 0


def _run_perp(args, out):
    system = _load(args.file)
    f = _single_form(system, "perp").retag(Space.DUAL)
    if f.is_zero() or not f.is_homogeneous():
        raise ValueError("perp expects a nonzero homogeneous form")
    nu = f.degree()
    k_max = min(nu + 1, args.degree_cap) if args.degree_cap is not None else nu + 1
    dims, hilbert = [], []
    for k in range(k_max + 1):
        piece = perp_piece(f, k)
        dims.append(piece.rows)
        hilbert.append(dim_degree(f.nvars, k) - piece.rows)
        out.text(f"degree {k}: dim (f_perp)_{k} = {piece.rows}, "
                 f"dim quotient = {hilbert[-1]}")
    return {"nvars": f.nvars, "d": nu, "nu": nu,
            "result": {"dims": dims, "quotient_hilbert": hilbert}}, 0


def _run_hilbert(args, out):
    system = _load(args.file)
    d = _common_degree(system)
    n = system.nvars
    ideal = GradedIdeal(n, d, system.polynomials)
    bound = args.degree_cap if args.degree_cap is not None else n * (d - 1) + 1
    data = hilbert_function(ideal, bound)
    out.text(" ".join(str(v) for v in data.values))
    return {"nvars": n, "d": d, "nu": n * (d - 1),
            "result": {"values": list(data.values)}}, 0


def _run_regseq(args, out):
    system = _load(args.file)
    d = _common_degree(system)
    regular = is_regular_sequence(system.polynomials)
    if regular:
        out.text("REGULAR SEQUENCE")
    else:
        out.text("NOT a regular sequence: the forms have a non-trivial "
                 "common zero over the algebraic closure")
    return {"nvars": system.nvars, "d": d, "nu": system.nvars * (d - 1),
            "result": {"regular": regular}}, 0 if regular else PRECONDITION_EXIT


def _run_koszul(args, out):
    system = _load(args.file)
    d = _common_degree(system)
    n = system.nvars
    k_max = args.degree_cap if args.degree_cap is not None else n * (d - 1) + d
    exact = koszul_exactness_check(system.polynomials, k_max)
    out.text(f"Koszul complex exact away from degree 0 up to graded degree "
             f"{k_max}: {'yes' if exact else 'NO'}")
    return {"nvars": n, "d": d, "nu": n * (d - 1),
            "result": {"exact": exact, "k_max": k_max}}, \
        0 if exact else PRECONDITION_EXIT


def _run_decompose(args, out):
    system = _load(args.file)
    d = _common_degree(system)
    n = system.nvars
    ideal = GradedIdeal(n, d, system.polynomials)
    splits = [args.split] if args.split is not None else list(range(1, n))
    certificate = None
    for b in splits:
        cert = recognize_decomposable(ideal, b)
        if cert is not None:
            certificate = cert
            break
    if certificate is None:
        out.text("no decomposition certificate in the given coordinates "
                 f"(tried splits {splits})")
        result = {"certificate": None, "tried": splits}
    else:
        gens = [g.render(list(system.names)) for g in certificate.generators]
        out.text(f"decomposable at split b = {certificate.split_index}; "
                 f"extracted generators: {', '.join(gens)}")
        result = {"certificate": {"split": certificate.split_index,
                                  "generators": gens,
                                  "condition_a": certificate.condition_a,
                                  "condition_b": certificate.condition_b},
                  "tried": splits}
    return {"nvars": n, "d": d, "nu": n * (d - 1), "result": result}, 0


def _run_degenerate(args, out):
    system = _load(args.file)
    d = _common_degree(system)
    limit = degeneration_limit(system.polynomials, args.split)
    renders = [g.render(list(system.names)) for g in limit]
    for text in renders:
        out.text(text)
    return {"nvars": system.nvars, "d": d, "nu": system.nvars * (d - 1),
            "result": {"limit": renders}}, 0


def _run_stability(args, out):
    system = _load(args.file)
    d = _common_degree(system)
    n = system.nvars
    assoc = associated_form(system.polynomials)
    destab = torus_destabilizer(assoc.form)
    result = {"form": assoc.form.render(),
              "torus_destabilizer": list(destab.weights) if destab else None}
    if destab is None:
        out.text("no diagonal destabilizer in the given coordinates "
                 "(semistability evidence)")
    else:
        out.text(f"DESTABILIZED by weights {destab.weights}")
    if n == 2:
        report = binary_stability(assoc.form)
        result["binary"] = {
            "verdict": report.verdict.value,
            "witness": _witness_json(report.witness),
            "multiplicities": [list(pair) for pair in report.multiplicities],
        }
        out.text(f"binary classification: {report.verdict.value}")
    return {"nvars": n, "d": d, "nu": assoc.nu, "result": result}, 0


def _run_binary_stability(args, out):
    system = _load(args.file)
    f = _single_form(system, "binary-stability").retag(Space.DUAL)
    report = binary_stability(f)
    out.text(report.verdict.value)
    result = {"verdict": report.verdict.value,
              "witness": _witness_json(report.witness),
              "multiplicities": [list(pair) for pair in report.multiplicities]}
    return {"nvars": f.nvars, "d": f.degree(), "nu": f.degree(),
            "result": result}, 0


def _run_mather_yau(args, out):
    if len(args.files) not in (1, 2):
        raise ValueError("mather-yau takes one or two input files")
    points = []
    for path in args.files:
        system = _load(path)
        F = _single_form(system, "mather-yau")
        points.append(mather_yau_point(F))
    coords = [[_fr(c) for c in p.coordinates] for p in points]
    result = {"points": coords}
    code = 0
    if len(points) == 2:
        equal = points_equal(points[0], points[1])
        result["equal"] = equal
        out.text("EQUAL" if equal else "DIFFERENT")
    else:
        out.text(f"[{' : '.join(coords[0])}]")
    return {"nvars": 2, "d": 3, "nu": 4, "result": result}, code


def _run_audit(args, out):
    system = _load(args.file)
    d = _common_degree(system)
    report = semistability_audit(system.polynomials, args.trials, args.seed)
    out.text(f"sampled {report.trials} one-parameter subgroups (seed {report.seed})")
    out.text(f"all minimum dual weights <= 0: {report.all_mins_nonpositive}")
    out.text(f"grevlex partial-sum inequalities hold: {report.grevlex_ok}")
    if report.decomposable_split is not None:
        out.text(f"decomposable in given coordinates at b = {report.decomposable_split}")
    else:
        out.text("no given-coordinate decomposition certificate; samples "
                 f"admitting a limit: {list(report.limit_admitting)}")
    result = {
        "all_mins_nonpositive": report.all_mins_nonpositive,
        "grevlex_ok": report.grevlex_ok,
        "min_monomial": list(report.min_monomial) if report.min_monomial else None,
        "decomposable_split": report.decomposable_split,
        "limit_admitting": list(report.limit_admitting),
        "samples": [{"weights": list(s.weights), "dual_min": s.dual_min,
                     "dual_max": s.dual_max, "admits_limit": s.admits_limit}
                    for s in report.samples],
    }
    return {"nvars": report.nvars, "d": report.d, "nu": report.nu,
            "seed": report.seed, "result": result}, 0


_HANDLERS = {
    "assoc": _run_assoc,
    "perp": _run_perp,
    "hilbert": _run_hilbert,
    "regseq": _run_regseq,
    "koszul-check": _run_koszul,
    "decompose": _run_decompose,
    "degenerate": _run_degenerate,
    "stability": _run_stability,
    "binary-stability": _run_binary_stability,
    "mather-yau": _run_mather_yau,
    "audit": _run_audit,
}


class _Output:
    """Collects human-readable lines; suppressed under --json."""

    def __init__(self, json_mode: bool):
        self.json_mode = json_mode
        self.lines: list[str] = []

    def text(self, line: str):
        if not self.json_mode:
            self.lines.append(line)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    out = _Output(args.json)
    try:
        payload, code = _HANDLERS[args.command](args, out)
    except ParseError as exc:
        print(f"assoform: parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        print(f"assoform: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (NotRegularSequence, SingularHypersurface) as exc:
        print(f"assoform: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    except ValueError as exc:
        print(f"assoform: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    if args.json:
        report = {"command": args.command, **payload}
        print(json.dumps(report, sort_keys=True))
    else:
        for line in out.lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
