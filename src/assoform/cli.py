"""Command-line front end.

One table, COMMANDS, lists the subcommands (assoc, perp, hilbert, regseq,
koszul-check, decompose, degenerate, stability, binary-stability,
mather-yau, audit): for each its help text, its arguments, how its input is
read and its handler.  main reads and validates the input once (a system
file becomes one GradedIdeal, perp and binary-stability read one dual form,
mather-yau one quartic per file), builds the report header, and runs the
handler, which returns the "result" value.  Input files are UTF-8 system
files (see parsing); output is human-readable text or, with --json, a
report of the shape

    {"command": ..., "nvars": ..., "d": ..., "nu": ..., "result": ...}

plus a "seed" key for seeded commands.  Rationals are rendered as exact
"p/q" strings.  Exit codes: 0 success, 1 parse/usage error, 2 precondition
failure (e.g. a non-regular input where a regular sequence is required).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from .ideals import (GradedIdeal, hilbert_function, is_regular_sequence,
                     koszul_exactness_check)
from .inverse_system import apolar_hilbert, associated_form
from .invariants import mather_yau_point, points_equal
from .parsing import MAX_TRIALS, InputSystem, ParseError, parse_system, split_lines
from .poly import Polynomial, Space, dim_degree
from .stability import (OnePS, RootWitness, binary_stability,
                        recognize_decomposable, degeneration_limit,
                        semistability_audit, torus_destabilizer)

USAGE_EXIT = 1
PRECONDITION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the interface contract
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _non_negative(text: str, most: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    if most is not None and value > most:
        raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
    return value


def _load(path: str) -> InputSystem:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return parse_system(data.decode("utf-8"))
    except UnicodeDecodeError as exc:  # the bad byte's place, as parse_system counts lines
        lines = split_lines(data[:exc.start].decode("utf-8"))
        raise ParseError(f"{path} is not valid UTF-8 ({exc.reason})", len(lines),
                         len(lines[-1]) + 1) from exc


def _single_form(system: InputSystem, what: str) -> Polynomial:
    if len(system.polynomials) != 1:
        raise ValueError(f"{what} expects exactly one polynomial, "
                         f"got {len(system.polynomials)}")
    return system.polynomials[0]


# -- inputs: each reader returns (subject for the handler, report header) ------


class _System(NamedTuple):
    ideal: GradedIdeal
    names: tuple[str, ...]


def _read_system(args):
    system = _load(args.file)
    ideal = GradedIdeal.of(system.polynomials)
    return _System(ideal, system.names), {"nvars": ideal.nvars, "d": ideal.d,
                                          "nu": ideal.nu}


def _read_form(args):
    # catalecticants and binary_stability reject inhomogeneous forms
    f = _single_form(_load(args.file), args.command).retag(Space.DUAL)
    if f.is_zero():
        raise ValueError(f"{args.command} expects a nonzero form")
    return f, {"nvars": f.nvars, "d": f.degree(), "nu": f.degree()}


def _read_quartics(args):
    # lazy: each file is read just before its point is computed, so the
    # first failing file decides the exit code
    paths = [args.file] if args.other is None else [args.file, args.other]
    forms = (_single_form(_load(path), "mather-yau") for path in paths)
    return forms, {"nvars": 2, "d": 3, "nu": 4}


# -- handlers: (subject, args, out) -> the report's "result"; text lines go to out


def _witness_json(witness):
    if witness is None:
        return None
    if isinstance(witness, OnePS):
        return {"type": "one_ps", "weights": list(witness.weights)}
    if isinstance(witness, RootWitness):
        return {"type": "root", "multiplicity": witness.multiplicity,
                "factor": witness.factor.render()}
    raise TypeError(f"unknown witness type {type(witness)!r}")


def _binary_json(report) -> dict:
    return {"verdict": report.verdict.value,
            "witness": _witness_json(report.witness),
            "multiplicities": [list(pair) for pair in report.multiplicities]}


def _top_degree(args, default: int) -> int:
    # --degree-cap lowers the command's top degree, never raises it
    return default if args.degree_cap is None else min(args.degree_cap, default)


def _assoc(system, args, out):
    form = associated_form(system.ideal).form
    text = form.render()
    out.append(text)
    return {"form": text, "normalized_form": form.normalized().render()}


def _perp(f, args, out):
    hilbert = apolar_hilbert(f, _top_degree(args, f.degree() + 1))
    dims = [dim_degree(f.nvars, k) - h for k, h in enumerate(hilbert)]
    for k, (dim, h) in enumerate(zip(dims, hilbert)):
        out.append(f"degree {k}: dim (f_perp)_{k} = {dim}, dim quotient = {h}")
    return {"dims": dims, "quotient_hilbert": hilbert}


def _hilbert(system, args, out):
    values = hilbert_function(system.ideal, _top_degree(args, system.ideal.nu + 1))
    out.append(" ".join(str(v) for v in values))
    return {"values": list(values)}


def _regseq(system, args, out):
    regular = is_regular_sequence(system.ideal)
    if regular:
        out.append("REGULAR SEQUENCE")
    else:
        out.append("NOT a regular sequence: the forms have a non-trivial "
                   "common zero over the algebraic closure")
    return {"regular": regular}


def _koszul(system, args, out):
    ideal = system.ideal
    k_max = _top_degree(args, ideal.nu + ideal.d)
    exact = koszul_exactness_check(ideal, k_max)
    out.append(f"Koszul complex exact away from degree 0 up to graded degree "
               f"{k_max}: {'yes' if exact else 'NO'}")
    return {"exact": exact, "k_max": k_max}


def _decompose(system, args, out):
    ideal = system.ideal
    splits = [args.split] if args.split is not None else list(range(1, ideal.nvars))
    certificate = next(filter(None, (recognize_decomposable(ideal, b) for b in splits)),
                       None)
    if certificate is None:
        out.append("no decomposition certificate in the given coordinates "
                   f"(tried splits {splits})")
        return {"certificate": None, "tried": splits}
    gens = [g.render(list(system.names)) for g in certificate.generators]
    out.append(f"decomposable at split b = {certificate.split_index}; "
               f"extracted generators: {', '.join(gens)}")
    # both recognition conditions hold on every certificate: see recognize_decomposable
    return {"certificate": {"split": certificate.split_index, "generators": gens,
                            "condition_a": True, "condition_b": True},
            "tried": splits}


def _degenerate(system, args, out):
    limit = degeneration_limit(system.ideal, args.split)
    renders = [g.render(list(system.names)) for g in limit]
    for text in renders:
        out.append(text)
    return {"limit": renders}


def _stability(system, args, out):
    form = associated_form(system.ideal).form
    destab = torus_destabilizer(form)
    result = {"form": form.render(),
              "torus_destabilizer": list(destab.weights) if destab else None}
    if destab is None:
        out.append("no diagonal destabilizer in the given coordinates "
                   "(semistability evidence)")
    else:
        out.append(f"DESTABILIZED by weights {destab.weights}")
    if form.nvars == 2:
        report = binary_stability(form)
        result["binary"] = _binary_json(report)
        out.append(f"binary classification: {report.verdict.value}")
    return result


def _binary_stability(f, args, out):
    report = binary_stability(f)
    out.append(report.verdict.value)
    return _binary_json(report)


def _mather_yau(forms, args, out):
    points = [mather_yau_point(F) for F in forms]
    coords = [[str(c) for c in p.coordinates] for p in points]
    result = {"points": coords}
    if len(points) == 2:
        result["equal"] = points_equal(*points)
        out.append("EQUAL" if result["equal"] else "DIFFERENT")
    else:
        out.append(f"[{' : '.join(coords[0])}]")
    return result


def _audit(system, args, out):
    report = semistability_audit(system.ideal, args.trials, args.seed)
    out.append(f"sampled {args.trials} one-parameter subgroups (seed {args.seed})")
    out.append(f"all minimum dual weights <= 0: {report.all_mins_nonpositive}")
    out.append(f"grevlex partial-sum inequalities hold: {report.grevlex_ok}")
    if report.decomposable_split is not None:
        out.append(f"decomposable in given coordinates at b = {report.decomposable_split}")
    else:
        out.append("no given-coordinate decomposition certificate; samples "
                   f"admitting a limit: {list(report.limit_admitting)}")
    return asdict(report)  # json writes its tuples as lists


# -- the command table ---------------------------------------------------------

_FILE = (("file",), {"help": "input system file"})
_DEGREE_CAP = (("--degree-cap",), {"type": _non_negative, "default": None,
                                   "help": "highest graded degree to compute, at most "
                                           "the default top degree"})


@dataclass(frozen=True)
class _Command:
    help: str
    read: Callable      # args -> (subject, header)
    run: Callable       # (subject, args, out) -> result
    arguments: tuple = (_FILE,)  # (flags, options) pairs for add_argument
    verdict: str | None = None  # result key whose false value exits 2


COMMANDS = {
    "assoc": _Command("associated form of a regular sequence", _read_system, _assoc),
    "perp": _Command("apolar ideal pieces of a single dual form", _read_form, _perp,
                     (_FILE, _DEGREE_CAP)),
    "hilbert": _Command("Hilbert function of the quotient by the given forms",
                        _read_system, _hilbert, (_FILE, _DEGREE_CAP)),
    "regseq": _Command("certify that the forms are a regular sequence",
                       _read_system, _regseq, verdict="regular"),
    "koszul-check": _Command("graded exactness of the Koszul complex", _read_system,
                             _koszul, (_FILE, _DEGREE_CAP), verdict="exact"),
    "decompose": _Command(
        "decomposability recognition certificate", _read_system, _decompose,
        (_FILE, (("--split",), {"type": int, "default": None,
                                "help": "split index b; all of 1..n-1 when omitted"}))),
    "degenerate": _Command(
        "limit of the direct-sum degeneration", _read_system, _degenerate,
        (_FILE, (("--split",), {"type": int, "required": True, "help": "block size a"}))),
    "stability": _Command("stability analysis of the associated form", _read_system,
                          _stability),
    "binary-stability": _Command("exact GIT classification of one binary form",
                                 _read_form, _binary_stability),
    "mather-yau": _Command(
        "compare the invariant points of one or two quartics", _read_quartics,
        _mather_yau,
        (_FILE, (("other",), {"nargs": "?", "help": "a second input system file"}))),
    "audit": _Command(
        "randomized semistability audit", _read_system, _audit,
        (_FILE,
         (("--trials",), {"type": lambda text: _non_negative(text, MAX_TRIALS), "default": 20,
                          "help": "number of sampled 1-PS"}),
         (("--seed",), {"type": int, "default": 0, "help": "sampling seed"}))),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="assoform",
                     description="Associated forms of balanced complete "
                                 "intersections, exactly over Q.")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    command = COMMANDS[args.command]
    out: list[str] = []  # the human-readable report, printed without --json
    try:
        subject, header = command.read(args)
        result = command.run(subject, args, out)
    except ParseError as exc:
        print(f"assoform: parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        print(f"assoform: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ValueError as exc:  # includes NotRegularSequence and SingularHypersurface
        print(f"assoform: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    except MemoryError:  # a last resort: the input outgrew the available memory
        print(f"assoform: {args.command}: out of memory; the input is too large",
              file=sys.stderr)
        return PRECONDITION_EXIT
    if args.json:
        if "seed" in args:
            header["seed"] = args.seed
        print(json.dumps({"command": args.command, **header, "result": result},
                         sort_keys=True))
    else:
        for line in out:
            print(line)
    return PRECONDITION_EXIT if command.verdict and not result[command.verdict] else 0


if __name__ == "__main__":
    sys.exit(main())
