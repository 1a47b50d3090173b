"""Hilbert-Mumford weight analysis, torus destabilizers, and decomposability.

One-parameter subgroups are integer weight vectors summing to zero.  All
operations here take weights acting on the form's own variables; a monomial
z^a picks up weight sum(u_i a_i) when z_i is scaled by t^{u_i}, so the
t -> 0 limit exists iff the minimum support weight is >= 0 and the limit is
zero iff it is > 0.  Callers analyzing a dual form against a 1-PS chosen on
the primal side must negate the weights once (the torus acts with opposite
weights on the dual basis); semistability_audit does that conversion
internally.

A diagonal destabilizer exists iff the balanced point c = (deg/n, ..., deg/n)
lies outside the convex hull of the support exponents.  One exact run of
Wolfe's min-norm-point algorithm (Math. Programming 11 (1976) 128-149)
decides both questions: with p the point of conv{a - c} nearest the origin,
p = 0 iff c is in the hull, and otherwise p/|p|^2 is the minimum-norm point
of {u . a >= 1, sum u = 0}, the returned certificate.  Every answer is
checked exactly: p is a positive convex combination of the support, and
every support point lies on the far side of the hyperplane through p
normal to it.  Uniqueness of p makes the output deterministic and
equivariant under simultaneous permutation of variables.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .ideals import (GradedIdeal, intersect_with_coordinates,
                     is_regular_sequence, min_nonideal_monomial,
                     vectors_to_polynomials)
from .inverse_system import NotRegularSequence, associated_form
from .linalg import from_rows, solve_square
from .poly import Mono, Polynomial, Space, grevlex_key, monomials_of_degree


@dataclass(frozen=True)
class OnePS:
    """Diagonal one-parameter subgroup: integer weights with zero sum."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("empty weight vector")
        if sum(self.weights) != 0:
            raise ValueError("weights must sum to zero")
        if not any(self.weights):
            raise ValueError("weights must not all vanish")

    def negated(self) -> OnePS:
        return OnePS(tuple(-w for w in self.weights))


class Verdict(Enum):
    STABLE = "Stable"
    POLYSTABLE_NOT_STABLE = "PolystableNotStable"
    SEMISTABLE_NOT_POLYSTABLE = "SemistableNotPolystable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class RootWitness:
    """A projective root of too-high multiplicity (binary instability data)."""

    multiplicity: int
    factor: Polynomial


@dataclass(frozen=True)
class StabilityReport:
    verdict: Verdict
    witness: OnePS | RootWitness | None
    multiplicities: tuple[tuple[int, int], ...]  # (multiplicity, distinct roots)


@dataclass(frozen=True)
class DecompositionCertificate:
    """Split witness: generators of I_d inside the last n-b variables."""

    split_index: int
    generators: tuple[Polynomial, ...]


def support_weight_range(f: Polynomial, u: OnePS) -> tuple[int, int]:
    """Min and max of the u-weight over the support of f."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no support weights")
    if len(u.weights) != f.nvars:
        raise ValueError("weight vector arity does not match the polynomial")
    weights = [sum(w * e for w, e in zip(u.weights, mono)) for mono in f.terms]
    return min(weights), max(weights)


def limit_exists(f: Polynomial, u: OnePS) -> bool:
    """Whether t -> 0 under z_i -> t^{u_i} z_i has a finite limit on f."""
    return support_weight_range(f, u)[0] >= 0


# -- exact min-norm point and destabilizer ------------------------------------


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def _combine(points, corral, weights) -> list[Fraction]:
    return [sum(w * points[i][k] for i, w in zip(corral, weights))
            for k in range(len(points[0]))]


def _min_norm_point(points: list[tuple[int, ...]]):
    """Wolfe's algorithm in exact arithmetic: the point of conv(points) nearest 0.

    Returns (x, corral, weights) with x = sum weights[k] * points[corral[k]],
    every weight positive.  Ties go to the lowest index, so the run is
    deterministic; the nearest point itself is unique.
    """
    start = min(range(len(points)), key=lambda i: _dot(points[i], points[i]))
    corral, weights = [start], [Fraction(1)]
    x = list(points[start])
    while any(x):
        j = min(range(len(points)), key=lambda i: _dot(points[i], x))
        if _dot(points[j], x) >= _dot(x, x):
            break
        corral.append(j)
        weights.append(Fraction(0))
        while True:  # minor cycle: affine minimizer of the corral
            m = len(corral)
            bordered = [[_dot(points[i], points[k]) for k in corral] + [1] for i in corral]
            bordered.append([1] * m + [0])
            sol = solve_square(from_rows(bordered), [0] * m + [1])
            if sol is None:
                raise ArithmeticError("Wolfe corral lost affine independence")
            alpha = sol[:m]
            if all(a > 0 for a in alpha):
                weights = list(alpha)
                break
            theta = min(w / (w - a) for w, a in zip(weights, alpha) if a <= 0)
            weights = [(1 - theta) * w + theta * a for w, a in zip(weights, alpha)]
            corral = [i for i, w in zip(corral, weights) if w > 0]
            weights = [w for w in weights if w > 0]
        x = _combine(points, corral, weights)
    return x, corral, weights


def torus_destabilizer(f: Polynomial) -> OnePS | None:
    """An integer 1-PS giving every support monomial strictly positive weight.

    Returns None iff none exists, i.e. iff the balanced exponent point lies
    in the convex hull of the support.  The certificate is canonical: the
    minimum-norm rational solution scaled to a primitive integer vector.

    Wolfe's algorithm runs on the integer points b = n*a - deg*(1..1), the
    support shifted by the balanced point and scaled by n.  Their nearest
    point x is 0 iff the balanced point is in the hull; otherwise x points
    the same way as the minimum-norm separating weight.  Both outcomes are
    checked exactly: x is a positive convex combination of the b's, and
    b.x >= |x|^2 for every b.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no destabilizer")
    n = f.nvars
    deg = f.degree()
    points = [tuple(n * e - deg for e in mono) for mono in f.terms]
    x, corral, weights = _min_norm_point(points)
    if min(weights) <= 0 or sum(weights) != 1 or _combine(points, corral, weights) != x:
        raise ArithmeticError("min-norm point is not a convex combination of the support")
    norm = _dot(x, x)
    if any(_dot(p, x) < norm for p in points):
        raise ArithmeticError("min-norm point does not separate the support")
    if not any(x):
        return None
    scale = math.lcm(*(v.denominator for v in x))
    ints = [int(v * scale) for v in x]
    g = math.gcd(*ints)
    result = OnePS(tuple(v // g for v in ints))
    if any(_dot(result.weights, mono) <= 0 for mono in f.terms):
        raise ArithmeticError("destabilizer certificate failed verification")
    return result


# -- exact binary-form classification ----------------------------------------

# univariate polynomials over Q: coefficient lists, lowest degree first


def _unorm(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _udeg(p: list[Fraction]) -> int:
    return len(p) - 1


def _uderiv(p: list[Fraction]) -> list[Fraction]:
    return _unorm([c * i for i, c in enumerate(p)][1:])


def _udivmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while rem and len(rem) >= len(b):
        c = rem[-1] * inv
        k = len(rem) - len(b)
        quot[k] = c
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
        rem = _unorm(rem)
    return _unorm(quot), rem


def _udiv_exact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    q, r = _udivmod(a, b)
    if r:
        raise ArithmeticError("expected exact univariate division")
    return q


def _ugcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _udivmod(a, b)[1]
    if not a:
        return []
    inv = 1 / a[-1]
    return [c * inv for c in a]  # monic for determinism


def squarefree_decomposition(p: list[Fraction]) -> list[tuple[int, list[Fraction]]]:
    """Yun's algorithm: p = lc * product of q_i^i with q_i monic squarefree."""
    p = _unorm(list(p))
    if _udeg(p) < 1:
        return []
    inv = 1 / p[-1]
    p = [c * inv for c in p]
    out = []
    g = _ugcd(p, _uderiv(p))
    b = _udiv_exact(p, g)
    c = _udiv_exact(_uderiv(p), g)
    i = 1
    while _udeg(b) > 0:
        d = _unorm([x - y for x, y in itertools.zip_longest(c, _uderiv(b),
                                                            fillvalue=Fraction(0))])
        q = _ugcd(b, d)
        if _udeg(q) > 0:
            out.append((i, q))
        b = _udiv_exact(b, q)
        c = _udiv_exact(d, q)
        i += 1
    return out


def _dehomogenize(f: Polynomial) -> list[Fraction]:
    """f(t, 1) as a univariate coefficient list."""
    coeffs = [Fraction(0)] * (f.degree() + 1)
    for (i, _j), c in f.terms.items():
        coeffs[i] = c
    return _unorm(coeffs)


def _homogenize(p: list[Fraction], degree: int, space: Space) -> Polynomial:
    terms = {(i, degree - i): c for i, c in enumerate(p) if c != 0}
    return Polynomial(2, space, terms)


def binary_stability(f: Polynomial) -> StabilityReport:
    """Exact GIT classification of a nonzero binary form.

    Root multiplicities over the algebraic closure come from a squarefree
    decomposition of f(t, 1) plus the multiplicity of the root at infinity.
    Stable iff every multiplicity is below deg/2; unstable iff one exceeds
    it; on the boundary, polystable exactly for two distinct roots of
    multiplicity deg/2 each.
    """
    if f.nvars != 2:
        raise ValueError("binary_stability expects a binary form")
    if f.is_zero():
        raise ValueError("the zero form has no stability type")
    if not f.is_homogeneous():
        raise ValueError("binary_stability expects a homogeneous form")
    m = f.degree()
    if m < 1:
        raise ValueError("constant forms have no stability type")
    p = _dehomogenize(f)
    profile: dict[int, int] = {}
    factors: list[tuple[int, Polynomial]] = []
    for mult, q in squarefree_decomposition(p):
        profile[mult] = profile.get(mult, 0) + _udeg(q)
        factors.append((mult, _homogenize(q, _udeg(q), f.space)))
    inf_mult = m - _udeg(p)
    if inf_mult > 0:
        profile[inf_mult] = profile.get(inf_mult, 0) + 1
        factors.append((inf_mult, Polynomial.variable(2, 1, f.space)))
    multiplicities = tuple(sorted(profile.items(), reverse=True))
    max_mult = multiplicities[0][0]

    if 2 * max_mult > m:
        witness: OnePS | RootWitness | None = torus_destabilizer(f)
        if witness is None:
            heavy = next(fac for mult, fac in factors if mult == max_mult)
            witness = RootWitness(max_mult, heavy)
        return StabilityReport(Verdict.UNSTABLE, witness, multiplicities)
    if 2 * max_mult < m:
        return StabilityReport(Verdict.STABLE, None, multiplicities)
    if multiplicities == ((max_mult, 2),):
        return StabilityReport(Verdict.POLYSTABLE_NOT_STABLE, None, multiplicities)
    return StabilityReport(Verdict.SEMISTABLE_NOT_POLYSTABLE, None, multiplicities)


# -- decomposability ----------------------------------------------------------


def recognize_decomposable(ideal: GradedIdeal, b: int) -> DecompositionCertificate | None:
    """Check the two-part recognition certificate for a split at index b.

    (A) the image of I modulo the last n-b variables is a balanced complete
    intersection in the first b variables, equivalently I_d meets the span
    of monomials involving the last variables in dimension exactly n-b;
    (B) the ((n-b)(d-1)+1)-st power of the ideal of the last variables is
    contained in I, checked on pure monomials in its generating degree.
    On success the certificate carries a basis of I_d in the small subring.
    """
    n, d = ideal.nvars, ideal.d
    if not 1 <= b <= n - 1:
        raise ValueError("split index must satisfy 1 <= b <= n-1")
    if not is_regular_sequence(ideal):
        raise NotRegularSequence("decomposability certificate needs a balanced "
                                 "complete intersection")
    basis = ideal.graded_piece(d)
    monos_d = monomials_of_degree(n, d)

    touches_tail = [sum(m[b:]) > 0 for m in monos_d]
    if intersect_with_coordinates(basis, touches_tail).rows != n - b:
        return None  # (A) fails
    power = (n - b) * (d - 1) + 1  # >= d, since b < n
    if min_nonideal_monomial(ideal, power, restrict=(b, power)) is not None:
        return None  # (B) fails: a pure monomial in the last variables lies outside I

    pure_tail = [sum(m[:b]) == 0 for m in monos_d]
    extracted = intersect_with_coordinates(basis, pure_tail)
    if extracted.rows != n - b:
        raise RuntimeError("conditions (A) and (B) hold but the extracted subspace "
                           f"has dimension {extracted.rows}, expected {n - b}")
    gens = tuple(vectors_to_polynomials(extracted, monos_d, n, Space.PRIMAL))
    return DecompositionCertificate(b, gens)


def degeneration_limit(gs, a: int) -> tuple[Polynomial, ...]:
    """Limit of the 1-PS degeneration to a direct sum.

    Requires the last n-a generators to involve only the last n-a
    variables; the limit keeps them and sets the last variables to zero in
    the first block.  The result is checked to be a regular sequence.
    """
    gs = list(gs)
    n = gs[0].nvars
    if not 1 <= a <= n - 1:
        raise ValueError("split index must satisfy 1 <= a <= n-1")
    for i, g in enumerate(gs[a:], start=a + 1):
        if any(sum(m[:a]) > 0 for m in g.terms):
            raise ValueError(
                f"generator {i} uses the first {a} variables; not of the "
                "hypothesized shape")
    limit = []
    for g in gs[:a]:
        truncated = Polynomial(n, Space.PRIMAL,
                               {m: c for m, c in g.terms.items() if sum(m[a:]) == 0})
        limit.append(truncated)
    limit.extend(gs[a:])
    if any(g.is_zero() for g in limit) or not is_regular_sequence(limit):
        raise NotRegularSequence("the degeneration limit is not a regular sequence; "
                                 "the input was not a regular sequence as hypothesized")
    return tuple(limit)


# -- randomized semistability audit -------------------------------------------


@dataclass(frozen=True)
class WeightSample:
    """One sampled x-space 1-PS and its effect on the associated form."""

    weights: tuple[int, ...]  # sorted ascending, acting on x
    dual_min: int             # min support weight of A(U) under the negated weights
    dual_max: int
    admits_limit: bool        # dual_min >= 0


@dataclass(frozen=True)
class AuditReport:
    nvars: int
    d: int
    nu: int
    seed: int
    trials: int
    samples: tuple[WeightSample, ...]
    all_mins_nonpositive: bool
    min_monomial: Mono | None
    grevlex_ok: bool
    decomposable_split: int | None
    limit_admitting: tuple[int, ...]


def semistability_audit(gs, trials: int, seed: int) -> AuditReport:
    """Sampled Hilbert-Mumford evidence for the associated form of gs.

    Every sampled 1-PS on x-space should give the dual form a non-positive
    minimum weight (semistability); the grevlex-minimal non-ideal monomial
    must satisfy the partial-sum inequalities; when no decomposition split
    is certified in the given coordinates, samples admitting a limit are
    recorded (for an indecomposable intersection none should, over the
    closure).
    """
    assoc = associated_form(gs)  # raises NotRegularSequence if not regular
    ideal = assoc.ideal
    n, d = ideal.nvars, ideal.d
    if n < 2:
        raise ValueError("the audit needs at least 2 variables: the only "
                         "zero-sum weight in one variable is 0")
    nu = assoc.nu
    rng = random.Random(seed)

    samples = []
    for _ in range(trials):
        while True:
            w = tuple(rng.randint(-5, 5) for _ in range(n))
            if any(w) and sum(w) == 0:
                break
        w = tuple(sorted(w))
        dual = OnePS(w).negated()
        lo, hi = support_weight_range(assoc.form, dual)
        samples.append(WeightSample(w, lo, hi, lo >= 0))

    # I_nu is the kernel of omega, so the degree-nu monomials outside I are
    # exactly the support of A
    mono = min(assoc.form.terms, key=grevlex_key)
    grevlex_ok = all(sum(mono[:i]) <= i * (d - 1) for i in range(1, n + 1))

    split = None
    for b in range(1, n):
        if recognize_decomposable(ideal, b) is not None:
            split = b
            break

    limit_admitting = tuple(i for i, s in enumerate(samples) if s.admits_limit)
    return AuditReport(
        nvars=n, d=d, nu=nu, seed=seed, trials=trials,
        samples=tuple(samples),
        all_mins_nonpositive=all(s.dual_min <= 0 for s in samples),
        min_monomial=mono,
        grevlex_ok=grevlex_ok,
        decomposable_split=split,
        limit_admitting=limit_admitting,
    )
