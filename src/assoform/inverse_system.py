"""Associated forms and Macaulay inverse systems of balanced complete intersections.

For a regular sequence g_1..g_n of degree-d forms, the quotient algebra is
Gorenstein Artin with socle degree nu = n(d-1).  Its top graded piece is a
line spanned by the image of det Jac(g_1..g_n), so there is a unique
functional omega on S_nu killing I_nu with omega(det Jac) = 1.  The
associated form is

    A(g_1..g_n) = sum over |a| = nu of (nu!/a!) omega(x^a) z^a,

the expansion of omega((x_1 z_1 + ... + x_n z_n)^nu).  It is a Macaulay
inverse system of the quotient: the apolar ideal of A recovers I in every
degree.  Both normalizations the literature uses are kept consistent here:
omega(det Jac) = 1 by construction, and the pairing of det Jac against the
form equals nu!, asserted at construction time.  A and omega determine each
other through omega(x^a) = (a!/nu!) A_a, so omega is stored only as A and
read off it on demand.

Once regularity is certified, omega spans the kernel of I_nu's integer
product rows: GradedIdeal.socle_kernel lifts it p-adically and keeps it
only if it kills every row over Z, else reads it off the exact RREF.

The catalecticant of f (row z^a, column x^c) holds f_{a+c} (a+c)!/a!; row
z^a scaled by a!, same kernel, holds b! f_b at b = a + c.  For f = A that is
nu! omega(x^b): nu! times the Hankel matrix of omega (Iarrobino and Kanev,
Power Sums, Gorenstein Algebras, and Determinantal Loci, 1999), built as
integer rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .ideals import DEGREE_CAP, DegreeCapError, GradedIdeal, is_regular_sequence
from .linalg import QMatrix, null_space
from .poly import (ZERO, Mono, Polynomial, Space, integer_terms, jacobian_det,
                   mono_factorial, monomials_of_degree, pairing)


class NotRegularSequence(ValueError):
    """The given forms do not cut out a balanced complete intersection."""


class SingularHypersurface(ValueError):
    """The gradient of the given form is not a regular sequence."""


@dataclass(frozen=True)
class HilbertPointFunctional:
    """The functional on S_nu vanishing on I_nu, normalized on det Jac.

    values holds the nonzero evaluations on degree-nu monomials.
    """

    nvars: int
    degree: int
    values: dict[Mono, Fraction]

    def __call__(self, f: Polynomial) -> Fraction:
        if f.nvars != self.nvars or not f.is_homogeneous(self.degree):
            raise ValueError(f"functional expects a degree-{self.degree} form")
        return sum((c * self.values[m] for m, c in f.terms.items()
                    if m in self.values), Fraction(0))


@dataclass(frozen=True)
class AssociatedForm:
    """The dual form A(g_1..g_n) and its ideal.

    ideal is the GradedIdeal the form was solved on; its cached graded
    pieces and ranks serve later questions about the same intersection.
    """

    form: Polynomial
    ideal: GradedIdeal = field(compare=False, repr=False)

    @property
    def source(self) -> tuple[Polynomial, ...]:
        return self.ideal.generators

    @property
    def nu(self) -> int:
        return self.ideal.nu

    @property
    def omega(self) -> HilbertPointFunctional:
        """The normalizing functional, read off A: omega(x^a) = (a!/nu!) A_a."""
        nu_fact = math.factorial(self.nu)
        return HilbertPointFunctional(
            self.form.nvars, self.nu,
            {m: c * mono_factorial(m) / nu_fact for m, c in self.form.terms.items()})


def associated_form(gs) -> AssociatedForm:
    """The associated form of a regular sequence, via the multinomial expansion.

    gs is a list of forms or a GradedIdeal; regularity is certified and
    omega solved for on that one ideal.
    """
    ideal = GradedIdeal.of(gs)
    if not is_regular_sequence(ideal):
        raise NotRegularSequence(
            "the forms have a non-trivial common zero (not a regular sequence)")
    n, nu = ideal.nvars, ideal.nu
    kernel = ideal.socle_kernel()
    if len(kernel) != 1:
        raise RuntimeError(
            f"I_nu has codimension {len(kernel)}, expected 1 for a complete intersection")
    raw = {m: x for m, x in zip(monomials_of_degree(n, nu), kernel[0]) if x}
    jac = jacobian_det(ideal.generators)
    scale = sum((c * raw[m] for m, c in jac.terms.items() if m in raw), ZERO)
    if scale == 0:
        raise RuntimeError("det Jac lies in I_nu; impossible for a regular sequence")
    # A_a = (nu!/a!) omega(x^a), with omega = raw / scale
    nu_fact = math.factorial(nu)
    form = Polynomial(n, Space.DUAL, {m: nu_fact * x / (scale * mono_factorial(m))
                                      for m, x in raw.items()})
    if form.is_zero():
        raise RuntimeError("associated form vanished; impossible for a regular sequence")
    if pairing(jac, form) != nu_fact:
        raise RuntimeError("normalization check failed: <det Jac, A> != nu!")
    return AssociatedForm(form, ideal)


def hilbert_point_functional(gs) -> HilbertPointFunctional:
    """The unique functional killing I_nu with omega(det Jac) = 1."""
    return associated_form(gs).omega


def catalecticant(f: Polynomial, k: int) -> QMatrix:
    """Integer matrix of the map S_k -> D_{nu-k}, g -> g acting on f; Cat_{nu-k} = Cat_k^T.

    Refused for deg f > DEGREE_CAP.  See the module docstring for the rows.
    """
    if f.is_zero():
        raise ValueError("the zero form has no apolar ideal piece")
    if f.space is not Space.DUAL or not f.is_homogeneous():
        raise ValueError("perp_piece expects a homogeneous dual form")
    if k < 0:
        raise ValueError("degree must be non-negative")
    n, nu = f.nvars, f.degree()
    if nu > DEGREE_CAP:
        raise DegreeCapError(f"form degree {nu} exceeds the supported bound {DEGREE_CAP}")
    weighted = integer_terms({b: c * mono_factorial(b) for b, c in f.terms.items()})[1]
    src = monomials_of_degree(n, k)
    rows = tuple(tuple(weighted.get(tuple(x + y for x, y in zip(a, c)), 0) for c in src)
                 for a in monomials_of_degree(n, nu - k))
    return QMatrix(len(rows), len(src), rows)


def perp_piece(f: Polynomial, k: int) -> QMatrix:
    """Canonical basis of the degree-k piece of the apolar ideal of f: ker Cat_k."""
    return null_space(catalecticant(f, k))


def macaulay_roundtrip(gs) -> bool:
    """Whether the apolar ideal of A(gs) reproduces (gs) in all degrees <= nu+1."""
    assoc = associated_form(gs)
    return all(perp_piece(assoc.form, k) == assoc.ideal.graded_piece(k)
               for k in range(assoc.nu + 2))


def _lift(f: Polynomial, nvars: int, offset: int) -> Polynomial:
    """Embed a form on a variable block into the full ring."""
    pad_left = (0,) * offset
    pad_right = (0,) * (nvars - offset - f.nvars)
    return Polynomial(nvars, f.space,
                      {pad_left + m + pad_right: c for m, c in f.terms.items()})


def direct_sum_assoc(gs1, gs2) -> AssociatedForm:
    """Associated form of a direct sum via the product formula.

    For blocks of sizes a and n-a in disjoint variables, the associated form
    of the concatenation equals binom(n(d-1), a(d-1)) times the product of
    the block forms; this is returned without ever solving on the big ring.
    Each block is a list of forms or a GradedIdeal.
    """
    block1, block2 = GradedIdeal.of(gs1), GradedIdeal.of(gs2)
    a, n = block1.nvars, block1.nvars + block2.nvars
    if block2.d != block1.d:
        raise ValueError("both blocks must have the same generator degree")
    ideal = GradedIdeal.of([_lift(g, n, 0) for g in block1.generators]
                           + [_lift(g, n, a) for g in block2.generators])
    try:
        a1 = associated_form(block1)
        a2 = associated_form(block2)
    except NotRegularSequence as exc:
        raise NotRegularSequence(f"block is not a regular sequence: {exc}") from exc
    scalar = math.comb(ideal.nu, a1.nu)
    form = scalar * (_lift(a1.form, n, 0) * _lift(a2.form, n, a))
    return AssociatedForm(form, ideal)


def milnor_associated_form(F: Polynomial) -> AssociatedForm:
    """Associated form of the Milnor algebra of a smooth hypersurface form."""
    from .poly import partial
    if F.is_zero() or not F.is_homogeneous() or F.degree() < 2:
        raise ValueError("expected a homogeneous form of degree at least 2")
    grads = [partial(F, i) for i in range(F.nvars)]
    if any(g.is_zero() for g in grads):
        raise SingularHypersurface("a partial derivative vanishes identically")
    try:
        return associated_form(grads)
    except NotRegularSequence:
        raise SingularHypersurface(
            "the gradient has a non-trivial common zero (singular hypersurface)") from None
