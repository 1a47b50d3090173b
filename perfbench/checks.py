"""Exact checks of the program's reports; none of them needs elimination.

``check(op, outcome)`` returns None when the answer is right and
a one-line reason otherwise.  A report is right when the exit code is the
expected one, the JSON has the contract keys, and the result satisfies an
identity that determines it (apolarity and normalization for the
associated form, the Hilbert series for perp/hilbert, a destabilizer known
by construction, ...).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from algebra import (apolar_apply, dim_degree, jacobian_det, pairing,
                     parse_rendered, series_hilbert)


def _z(n):
    return [f"z{i + 1}" for i in range(n)]


def _gens(expect):
    return [{tuple(m): Fraction(c) for m, c in g} for g in expect["gens"]]


def _shape(report, command, n, d, nu):
    if report.get("command") != command:
        return f"command {report.get('command')!r}, expected {command!r}"
    got = (report.get("nvars"), report.get("d"), report.get("nu"))
    if got != (n, d, nu):
        return f"(nvars, d, nu) = {got}, expected {(n, d, nu)}"
    return None


def _assoc_form(form_text, expect):
    """None iff every g_i kills A under apolarity and <det Jac, A> = nu!."""
    n, d = expect["n"], expect["d"]
    nu = n * (d - 1)
    form = parse_rendered(form_text, _z(n))
    if not form or any(sum(m) != nu for m in form):
        return "associated form is zero or not of degree nu"
    gs = _gens(expect)
    for i, g in enumerate(gs):
        if apolar_apply(g, form):
            return f"g_{i + 1} does not annihilate the associated form"
    if pairing(jacobian_det(gs, n), form) != math.factorial(nu):
        return "<det Jac, A> != nu!"
    return None


def _destabilizer(weights, form):
    if sum(weights) != 0 or not any(weights):
        return "destabilizer weights do not sum to zero or all vanish"
    if math.gcd(*weights) != 1:
        return "destabilizer weights are not primitive"
    if any(sum(w * e for w, e in zip(weights, m)) <= 0 for m in form):
        return "destabilizer is not strictly positive on the support"
    return None


def _check_assoc(report, expect):
    n, d = expect["n"], expect["d"]
    return (_shape(report, "assoc", n, d, n * (d - 1))
            or _assoc_form(report["result"]["form"], expect))


def _check_perp(report, expect):
    n, d = expect["n"], expect["d"]
    nu = n * (d - 1)
    series = series_hilbert(n, d, nu + 1)
    result = report["result"]
    if result["quotient_hilbert"] != series:
        return "apolar quotient dims differ from ((1-t^d)/(1-t))^n"
    if result["dims"] != [dim_degree(n, k) - h for k, h in enumerate(series)]:
        return "apolar ideal dims differ from the Hilbert series"
    return _shape(report, "perp", n, nu, nu)


def _check_hilbert(report, expect):
    n, d = expect["n"], expect["d"]
    nu = n * (d - 1)
    if report["result"]["values"] != series_hilbert(n, d, nu + 1):
        return "Hilbert function differs from ((1-t^d)/(1-t))^n"
    return _shape(report, "hilbert", n, d, nu)


def _check_regseq(report, expect):
    n, d = expect["n"], expect["d"]
    if report["result"]["regular"] is not expect["regular"]:
        return f"regular = {report['result']['regular']}, expected {expect['regular']}"
    return _shape(report, "regseq", n, d, n * (d - 1))


def _check_koszul(report, expect, exact=True):
    n, d = expect["n"], expect["d"]
    nu = n * (d - 1)
    result = report["result"]
    if result["exact"] is not exact or result["k_max"] != nu + d:
        return f"koszul exact = {result['exact']} up to {result['k_max']}"
    return _shape(report, "koszul-check", n, d, nu)


def _check_stability(report, expect):
    n, d = expect["n"], expect["d"]
    result = report["result"]
    problem = (_shape(report, "stability", n, d, n * (d - 1))
               or _assoc_form(result["form"], expect))
    if problem:
        return problem
    weights = result["torus_destabilizer"]
    if weights is not None:
        problem = _destabilizer(weights, parse_rendered(result["form"], _z(n)))
    if not problem and (n == 2) != ("binary" in result):
        problem = "binary classification present iff n = 2 was violated"
    return problem


def _check_audit(report, expect):
    n, d = expect["n"], expect["d"]
    result = report["result"]
    if report.get("seed") != expect["seed"] or len(result["samples"]) != expect["trials"]:
        return "audit seed or sample count differs from the request"
    if not (result["all_mins_nonpositive"] and result["grevlex_ok"]):
        return "audit reports a positive minimum weight or a grevlex violation"
    return _shape(report, "audit", n, d, n * (d - 1))


def _check_decompose(report, expect):
    n, d, b = expect["n"], expect["d"], expect["split"]
    cert = report["result"]["certificate"]
    if cert is None or cert["split"] != b:
        return "no decomposition certificate for a direct sum"
    gens = [parse_rendered(g, [f"x{i + 1}" for i in range(n)]) for g in cert["generators"]]
    if len(gens) != n - b or any(any(m[:b]) for g in gens for m in g):
        return "certificate generators are not n-b forms in the tail variables"
    return _shape(report, "decompose", n, d, n * (d - 1))


def _check_degenerate(report, expect):
    n, d = expect["n"], expect["d"]
    names = [f"x{i + 1}" for i in range(n)]
    got = [parse_rendered(g, names) for g in report["result"]["limit"]]
    if got != _gens({"gens": expect["limit"]}):
        return "degeneration limit differs from the truncated head block"
    return _shape(report, "degenerate", n, d, n * (d - 1))


def _check_binary(report, expect):
    result = report["result"]
    if result["verdict"] != expect["verdict"]:
        return f"verdict {result['verdict']}, expected {expect['verdict']}"
    if result["multiplicities"] != expect["multiplicities"]:
        return f"root profile {result['multiplicities']}, expected {expect['multiplicities']}"
    deg = expect["degree"]
    return _shape(report, "binary-stability", 2, deg, deg)


def _check_mather_yau(report, expect):
    if report["result"].get("equal") is not True:
        return "a quartic and its image under GL(2) compare DIFFERENT"
    return _shape(report, "mather-yau", 2, 3, 4)


def _check_hull(report, expect):
    if report != expect["weights"]:
        return f"destabilizer {report}, expected {expect['weights']}"
    return None


_REPORT_CHECKS = {
    "assoc": _check_assoc, "perp": _check_perp, "hilbert": _check_hilbert,
    "regseq": _check_regseq, "koszul": _check_koszul,
    "koszul-fails": lambda r, e: _check_koszul(r, e, exact=False),
    "stability": _check_stability, "audit": _check_audit,
    "decompose": _check_decompose, "degenerate": _check_degenerate,
    "binary": _check_binary, "mather-yau": _check_mather_yau, "hull": _check_hull,
}


def check(op: dict, outcome: dict) -> str | None:
    """Why the op's outcome is wrong, or None if it is right."""
    expect = op["expect"]
    if outcome["status"] != "ok":
        return f"{outcome['status']}: {outcome.get('detail', '')}".strip()
    if "Traceback" in outcome.get("stderr", ""):
        return "traceback on stderr"
    codes = expect["exit"] if isinstance(expect["exit"], list) else [expect["exit"]]
    if outcome["exit"] not in codes:
        return f"exit {outcome['exit']}, expected {expect['exit']}"
    if expect["check"] in ("rejected", "defect"):
        if outcome["stdout"]:
            return "a rejected input produced a report"
        return None
    try:
        report = json.loads(outcome["stdout"])
        return _REPORT_CHECKS[expect["check"]](report, expect)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"
