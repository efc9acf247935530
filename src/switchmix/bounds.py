"""Closed-form mixing-time bound calculators.

The polynomial factors are kept as exact integers/rationals; only the
logarithmic factor is numeric, evaluated with the standard library's
``decimal`` at 40 significant digits and reported to 25.  All logarithms are
natural - the framework these bounds come from is stated in nats, and the
choice only moves constants.

Undirected, for a graphical sequence with d_min >= 1 and
3 <= d_max <= sqrt(M)/3:

    tau(eps) <= d_max^14 * M^9 * (M/2 * ln M + ln(1/eps))

Directed, for a switch-irreducible digraphical sequence with r_min >= 1 and
2 <= r_max <= sqrt(m)/4:

    tau(eps) <= 1/4 * r_max^16 * m^11 * (m * ln m + ln(1/eps))

Both arise as rho * ell * (ln(1/pi*) + ln(1/eps)) from a multicommodity-flow
load bound.  ``flow_components`` is the one place those factors are written;
``FlowComponents.product_bound`` is their product.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Context, Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple


_WORKING = Context(prec=40)
_REPORTED = Context(prec=25, rounding=ROUND_HALF_UP)


def _decimal(x) -> Decimal:
    """Ints convert exactly, Fractions to working precision, floats via repr."""
    if isinstance(x, Fraction):
        return _WORKING.divide(Decimal(x.numerator), Decimal(x.denominator))
    if isinstance(x, float):
        return Decimal(repr(x))
    return Decimal(x)


class FlowComponents(NamedTuple):
    directed: bool
    log_pi_star_bound_weight: Fraction  # ln(1/pi*) <= weight * ln(count)
    log_pi_star_count: int
    ell_bound: Fraction  # longest flow path
    one_over_Q: int | None  # exact 1/(pi* P) per transition, modulo |Omega|
    encoding_ratio_bound: Fraction  # |encodings| / |Omega|
    load_bound: Fraction  # rho(f)

    def log_part(self, eps) -> Decimal:
        """weight * ln(count) + ln(1/eps), which bounds ln(1/pi*) + ln(1/eps);
        ValueError unless 0 < eps < 1."""
        if not 0 < eps < 1:
            raise ValueError("eps must lie in (0,1)")
        with localcontext(_WORKING):
            term = (1 / _decimal(eps)).ln()
            # degenerate counts only occur with weight 0, where the term vanishes
            if self.log_pi_star_bound_weight:
                weight = _decimal(self.log_pi_star_bound_weight)
                term += weight * Decimal(self.log_pi_star_count).ln()
            return term

    def product_bound(self, eps) -> Decimal:
        """rho * ell * (ln(1/pi*) + ln(1/eps)): the mixing bound at eps, which
        ``seq.hypotheses()`` says whether the theorem guarantees."""
        with localcontext(_WORKING):
            return _decimal(self.load_bound * self.ell_bound) * self.log_part(eps)


def nstr(x: Decimal) -> str:
    """A value as the CLI reports it: 25 significant digits, rounded half up,
    trailing zeros dropped; fixed-point for decimal exponents in (-8, 25),
    otherwise ``d.ddde+N``.  The same string ``mpmath.nstr(x, 25)`` gives."""
    if not x:
        return "0.0"
    x = _REPORTED.plus(x)
    sign, digits, _ = x.as_tuple()
    digits = "".join(map(str, digits)).ljust(25, "0")
    e = x.adjusted()
    fixed = -8 < e < 25
    if fixed and e < 0:
        digits = "0" * -e + digits
    point = e + 1 if fixed and e >= 0 else 1
    tail = digits[point:].rstrip("0") or "0"
    return "-" * sign + digits[:point] + "." + tail + ("" if fixed else f"e{e:+d}")


def flow_components(seq) -> FlowComponents:
    if seq.directed:
        m = seq.m
        r = seq.r_max
        return FlowComponents(
            directed=True,
            log_pi_star_bound_weight=Fraction(m),
            log_pi_star_count=m,
            ell_bound=Fraction(m),
            one_over_Q=m * (m - 1) // 2,
            encoding_ratio_bound=Fraction(m**8, 8),
            load_bound=Fraction(r**16 * m**10, 4),
        )
    d = seq
    return FlowComponents(
        directed=False,
        log_pi_star_bound_weight=Fraction(d.M, 2),
        log_pi_star_count=d.M,
        ell_bound=Fraction(d.M, 2),
        one_over_Q=6 * d.a if d.a is not None else None,
        encoding_ratio_bound=Fraction(2 * d.M**6),
        load_bound=Fraction(2 * d.d_max**14 * d.M**8),
    )

