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
of {u . a >= 1, sum u = 0}, the returned certificate.  The run is on the
integer points b = n(a - c) and holds their nearest point n p as X/s, X an
integer vector and s > 0 an integer, so each major cycle searches the
support in integers.  Every answer is checked exactly on X and s: the
weights are positive, sum to 1 and combine the b's to X/s, and every b
lies on the far side of the hyperplane through X/s normal to it, (b.X) s
>= X.X.  Uniqueness of p makes the output deterministic and equivariant
under simultaneous permutation of variables.

Membership in I follows inverse_system's duality rule: the audit's
grevlex-least monomial outside I_nu is that of A.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .ideals import (GradedIdeal, intersect_with_coordinates, is_regular_sequence,
                     vectors_to_polynomials)
from .inverse_system import NotRegularSequence, associated_form
from .linalg import canonical_kernel, integer_vector
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


# -- exact min-norm point and destabilizer ------------------------------------


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def _combine(points, corral, weights) -> list:
    return [sum(w * points[i][k] for i, w in zip(corral, weights))
            for k in range(len(points[0]))]


def _min_norm_point(points: list[tuple[int, ...]]):
    """Wolfe's algorithm in exact arithmetic: the point of conv(points) nearest 0.

    Returns (X, s, corral, weights): the nearest point x = X/s, X integer and
    s > 0, is sum weights[k] * points[corral[k]], every weight positive.
    Each major cycle scales the minor cycle's weights to integers once, so
    its search runs in integers.  Ties go to the lowest index, so the run is
    deterministic; the nearest point itself is unique.
    """
    start = min(range(len(points)), key=lambda i: _dot(points[i], points[i]))
    corral, weights = [start], [Fraction(1)]
    X, s = list(points[start]), 1
    while any(X):
        j = min(range(len(points)), key=lambda i: _dot(points[i], X))
        if _dot(points[j], X) * s >= _dot(X, X):  # b_j.x >= |x|^2, times s^2
            break
        corral.append(j)
        weights.append(Fraction(0))
        while True:  # minor cycle: affine minimizer of the corral
            m = len(corral)  # the Gram matrix bordered by ones, with the right side (0..0, 1)
            bordered = [dict(enumerate([_dot(points[i], points[k]) for k in corral] + [1]))
                        for i in corral] + [dict(enumerate([1] * m + [0, 1]))]
            free, kernel = canonical_kernel(bordered, m + 2, m + 2)
            if free != [m + 1]:  # the solution is minus the kernel vector of the right side
                raise ArithmeticError("Wolfe corral lost affine independence")
            alpha = [Fraction(-a, kernel[0][m + 1]) for a in kernel[0][:m]]
            if all(a > 0 for a in alpha):
                weights = alpha
                break
            theta = min(w / (w - a) for w, a in zip(weights, alpha) if a <= 0)
            weights = [(1 - theta) * w + theta * a for w, a in zip(weights, alpha)]
            corral = [i for i, w in zip(corral, weights) if w > 0]
            weights = [w for w in weights if w > 0]
        scaled = integer_vector(weights)[1]  # s * weights; they sum to 1, so to s
        X, s = _combine(points, corral, scaled), sum(scaled)
    return X, s, corral, weights


def torus_destabilizer(f: Polynomial) -> OnePS | None:
    """An integer 1-PS giving every support monomial strictly positive weight.

    Returns None iff none exists, i.e. iff the balanced exponent point lies
    in the convex hull of the support.  The certificate is canonical: the
    minimum-norm rational solution scaled to a primitive integer vector.

    Wolfe's algorithm runs on the integer points b = n*a - deg*(1..1), the
    support shifted by the balanced point and scaled by n.  Their nearest
    point x = X/s (X integer, s > 0) is 0 iff the balanced point is in the
    hull; otherwise X points the same way as the minimum-norm separating
    weight.  Both outcomes are checked exactly: the weights are positive,
    sum to 1 and combine the b's to X/s, and (b.X) s >= X.X for every b.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no destabilizer")
    n = f.nvars
    deg = f.degree()
    points = [tuple(n * e - deg for e in mono) for mono in f.terms]
    X, s, corral, weights = _min_norm_point(points)
    if (min(weights) <= 0 or sum(weights) != 1
            or [s * v for v in _combine(points, corral, weights)] != X):
        raise ArithmeticError("min-norm point is not a convex combination of the support")
    norm = _dot(X, X)
    if s <= 0 or any(_dot(p, X) * s < norm for p in points):
        raise ArithmeticError("min-norm point does not separate the support")
    if not any(X):
        return None
    g = math.gcd(*X)
    result = OnePS(tuple(v // g for v in X))
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


def _urem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The remainder of a modulo a nonzero b."""
    rem = list(a)
    inv = 1 / b[-1]
    while len(rem) >= len(b):
        c = rem[-1] * inv
        k = len(rem) - len(b)
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
        rem = _unorm(rem)
    return rem


def _ugcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The monic gcd of a nonzero a and b."""
    while b:
        a, b = b, _urem(a, b)
    inv = 1 / a[-1]
    return [c * inv for c in a]  # monic for determinism


def _dehomogenize(f: Polynomial) -> list[Fraction]:
    """f(t, 1) as a univariate coefficient list."""
    coeffs = [Fraction(0)] * (f.degree() + 1)
    for (i, _j), c in f.terms.items():
        coeffs[i] = c
    return _unorm(coeffs)


def _homogenize(p: list[Fraction], space: Space) -> Polynomial:
    degree = _udeg(p)
    return Polynomial(2, space, {(i, degree - i): c for i, c in enumerate(p) if c != 0})


def binary_stability(f: Polynomial) -> StabilityReport:
    """Exact GIT classification of a nonzero binary form.

    Root multiplicities over the algebraic closure come from a gcd chain of
    derivatives: with g_0 the monic f(t, 1) and g_k = gcd(g_{k-1}, g_{k-1}'),
    a root of multiplicity mu divides g_k exactly mu - k times, so
    deg g_k - deg g_{k+1} roots have multiplicity above k, and for the
    largest finite multiplicity M, g_{M-1} is the product of the roots of
    multiplicity M.  The root at infinity has multiplicity deg f - deg g_0.
    Stable iff every multiplicity is below deg/2; unstable iff one exceeds
    it; on the boundary, polystable exactly for two distinct roots of
    multiplicity deg/2 each.

    An unstable form's witness is its one heavy root.  The 1-PS (w, -w)
    gives z1^i z2^(deg-i) the weight w(2i - deg), so it destabilizes f
    exactly when z1^(deg//2+1) divides f (w > 0) or z2^(deg//2+1) does
    (w < 0): for a heavy root z1 = 0 it is (1, -1), at infinity (-1, 1),
    and any other heavy root is a RootWitness with its linear factor.
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
    inv = 1 / p[-1]
    chain = [[c * inv for c in p]]
    while _udeg(chain[-1]) > 0:
        chain.append(_ugcd(chain[-1], _uderiv(chain[-1])))
    # above[k]: the number of finite roots of multiplicity above k
    above = [_udeg(g) - _udeg(h) for g, h in zip(chain, chain[1:])] + [0]
    profile = {k: above[k - 1] - above[k] for k in range(1, len(above))
               if above[k - 1] > above[k]}
    inf_mult = m - _udeg(p)
    if inf_mult > 0:
        profile[inf_mult] = profile.get(inf_mult, 0) + 1
    multiplicities = tuple(sorted(profile.items(), reverse=True))
    max_mult = multiplicities[0][0]

    if 2 * max_mult > m:  # one heavy root: infinity, or g_{M-1} = t - r
        if inf_mult == max_mult:
            witness: OnePS | RootWitness = OnePS((-1, 1))
        elif chain[max_mult - 1][0] == 0:
            witness = OnePS((1, -1))
        else:
            witness = RootWitness(max_mult, _homogenize(chain[max_mult - 1], f.space))
        return StabilityReport(Verdict.UNSTABLE, witness, multiplicities)
    if 2 * max_mult < m:
        return StabilityReport(Verdict.STABLE, None, multiplicities)
    if multiplicities == ((max_mult, 2),):
        return StabilityReport(Verdict.POLYSTABLE_NOT_STABLE, None, multiplicities)
    return StabilityReport(Verdict.SEMISTABLE_NOT_POLYSTABLE, None, multiplicities)


# -- decomposability ----------------------------------------------------------


def recognize_decomposable(ideal: GradedIdeal, b: int) -> DecompositionCertificate | None:
    """The split certificate at index b: the RREF basis of E = I_d meet k[y]_d.

    With y = x_{b+1}..x_n, a regular sequence has one exactly when dim E =
    n-b, and then (A) I_d meets V, the span of the degree-d monomials with
    some y, in dimension n-b, and (B) (y)^N lies in I, N = (n-b)(d-1)+1.
    Proof: I + (y) is m-primary, so I_d maps onto at least b dimensions of
    k[x_1..x_b]_d and dim E <= dim(I_d meet V) <= n-b; equality gives (A).
    Were E(p) = 0 at some p != 0 in y-space, b forms completing E to a basis
    of I_d would, on the span of the first b axes and p, be b forms in b+1
    variables with a common nonzero zero, where E vanishes too: a zero of I.
    So E is a regular sequence in k[y], and k[y]_N lies in (E), giving (B).
    The tests check the converse against a route deciding (A) and (B) apart.
    """
    n, d = ideal.nvars, ideal.d
    if not 1 <= b <= n - 1:
        raise ValueError("split index must satisfy 1 <= b <= n-1")
    if not is_regular_sequence(ideal):
        raise NotRegularSequence("decomposability certificate needs a balanced "
                                 "complete intersection")
    monos_d = monomials_of_degree(n, d)
    tail = intersect_with_coordinates(ideal._macaulay_rows(d), len(monos_d),
                                      [sum(m[:b]) == 0 for m in monos_d])
    if tail.rows != n - b:
        return None
    gens = tuple(vectors_to_polynomials(tail, monos_d, n, Space.PRIMAL))
    return DecompositionCertificate(b, gens)


def degeneration_limit(gs, a: int) -> tuple[Polynomial, ...]:
    """Limit of the 1-PS degeneration to a direct sum.

    Requires the last n-a generators to involve only the last n-a
    variables; the limit keeps them and sets the last variables to zero in
    the first block.  gs is a list of forms or a GradedIdeal; the result is
    checked to be a regular sequence.
    """
    ideal = GradedIdeal.of(gs)
    gs, n = ideal.generators, ideal.nvars
    if not 1 <= a <= n - 1:
        raise ValueError("split index must satisfy 1 <= a <= n-1")
    for i, g in enumerate(gs[a:], start=a + 1):
        if any(sum(m[:a]) > 0 for m in g.terms):
            raise ValueError(
                f"generator {i} uses the first {a} variables; not of the "
                "hypothesized shape")
    limit = [Polynomial(n, Space.PRIMAL, {m: c for m, c in g.terms.items() if sum(m[a:]) == 0})
             for g in gs[:a]]
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
    """The audit's findings; dataclasses.asdict of it is the CLI's JSON result."""

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
    closure).  Each call solves omega, also on a GradedIdeal.
    """
    assoc = associated_form(gs)  # raises NotRegularSequence if not regular
    ideal = assoc.ideal
    n, d = ideal.nvars, ideal.d
    if n < 2:
        raise ValueError("the audit needs at least 2 variables: the only "
                         "zero-sum weight in one variable is 0")
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

    mono = min(assoc.form.terms, key=grevlex_key)
    grevlex_ok = all(sum(mono[:i]) <= i * (d - 1) for i in range(1, n + 1))

    split = None
    for b in range(1, n):
        if recognize_decomposable(ideal, b) is not None:
            split = b
            break

    limit_admitting = tuple(i for i, s in enumerate(samples) if s.admits_limit)
    return AuditReport(
        samples=tuple(samples),
        all_mins_nonpositive=all(s.dual_min <= 0 for s in samples),
        min_monomial=mono,
        grevlex_ok=grevlex_ok,
        decomposable_split=split,
        limit_admitting=limit_admitting,
    )
