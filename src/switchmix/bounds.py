"""Closed-form mixing-time bound calculators.

The polynomial factors are kept as exact integers/rationals; only the
logarithmic factor is numeric, evaluated with mpmath at 120 bits.  All
logarithms are natural - the framework these bounds come from is stated in
nats, and the choice only moves constants.

Undirected, for a graphical sequence with d_min >= 1 and
3 <= d_max <= sqrt(M)/3:

    tau(eps) <= d_max^14 * M^9 * (M/2 * ln M + ln(1/eps))

Directed, for a switch-irreducible digraphical sequence with r_min >= 1 and
2 <= r_max <= sqrt(m)/4:

    tau(eps) <= 1/4 * r_max^16 * m^11 * (m * ln m + ln(1/eps))

Both arise as rho * ell * (ln(1/pi*) + ln(1/eps)) from a multicommodity-flow
load bound; ``flow_components`` exposes the individual factors so the product
can be checked against ``mixing_bound`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .degseq import DegreeSequence, DirectedDegreeSequence

PRECISION_BITS = 120


def _mpf(x):
    """Exact conversion of ints/Fractions; floats go through their repr."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    if isinstance(x, float):
        return mpmath.mpf(str(x))
    return mpmath.mpf(x)


def _log_factor(count, weight, eps):
    # weight * ln(count) + ln(1/eps); degenerate counts only occur with
    # weight 0, where the state-space term vanishes
    term = mpmath.log(1 / _mpf(eps))
    if weight:
        term += _mpf(weight) * mpmath.log(_mpf(count))
    return term


@dataclass
class FlowComponents:
    directed: bool
    size_bound: Fraction  # upper bound on |Omega|
    log_pi_star_bound_weight: Fraction  # ln(1/pi*) <= weight * ln(count)
    log_pi_star_count: int
    ell_bound: Fraction  # longest flow path
    one_over_Q: int | None  # exact 1/(pi* P) per transition, modulo |Omega|
    encoding_ratio_bound: Fraction  # |encodings| / |Omega|
    load_bound: Fraction  # rho(f)

    def product_bound(self, eps):
        """rho * ell * (ln(1/pi*) + ln(1/eps)): must equal mixing_bound."""
        with mpmath.workprec(PRECISION_BITS):
            poly = self.load_bound * self.ell_bound
            return _mpf(poly) * _log_factor(
                self.log_pi_star_count, self.log_pi_star_bound_weight, eps
            )


@dataclass
class BoundReport:
    directed: bool
    eps: float
    applicability: dict
    formula: str
    poly_part: Fraction
    log_part: object  # mpf
    value: object  # mpf


def nstr(x, digits: int = 25) -> str:
    """An mpf as the CLI reports it: ``digits`` significant digits."""
    return mpmath.nstr(x, digits)


def _size_bound_undirected(d: DegreeSequence) -> Fraction:
    # pairing-model count: M! / (2^(M/2) (M/2)! prod d_j!)
    if d.M % 2:
        return Fraction(0)
    num = math.factorial(d.M)
    den = 2 ** (d.M // 2) * math.factorial(d.M // 2)
    for dj in d.degrees:
        den *= math.factorial(dj)
    return Fraction(num, den)


def flow_components(seq) -> FlowComponents:
    if isinstance(seq, DirectedDegreeSequence):
        m = seq.m
        r = seq.r_max
        return FlowComponents(
            directed=True,
            size_bound=Fraction(math.factorial(m)),
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
        size_bound=_size_bound_undirected(d),
        log_pi_star_bound_weight=Fraction(d.M, 2),
        log_pi_star_count=d.M,
        ell_bound=Fraction(d.M, 2),
        one_over_Q=6 * d.a if d.a is not None else None,
        encoding_ratio_bound=Fraction(2 * d.M**6),
        load_bound=Fraction(2 * d.d_max**14 * d.M**8),
    )


def mixing_bound(seq, eps) -> BoundReport:
    """Worst-start mixing-time upper bound at total-variation tolerance eps.

    The bound is reported even when the degree hypotheses fail; the
    ``applicability`` flags say whether it is actually guaranteed.
    """
    eps_f = float(eps)
    if not 0.0 < eps_f < 1.0:
        raise ValueError("eps must lie in (0,1)")
    directed = isinstance(seq, DirectedDegreeSequence)
    if directed:
        m = seq.m
        flags = seq.classify()
        applicability = {
            "digraphical": flags["digraphical"],
            "r_min_ok": seq.r_min >= 1,
            "r_max_ok": seq.r_max >= 2,
            "density_ok": 16 * seq.r_max**2 <= m,
            "note": "switch-irreducibility is reported by switch_connectivity",
        }
        applicability["applicable"] = (
            flags["digraphical"]
            and applicability["r_min_ok"]
            and applicability["r_max_ok"]
            and applicability["density_ok"]
        )
        poly = Fraction(seq.r_max**16 * m**11, 4)
        count, weight = m, Fraction(m)
        formula = "theorem-directed"
    else:
        flags = seq.classify()
        applicability = {
            "graphical": flags["graphical"],
            "d_min_ok": seq.d_min >= 1,
            "d_max_ok": seq.d_max >= 3,
            "density_ok": 9 * seq.d_max**2 <= seq.M,
            "applicable": flags["theorem1_applicable"],
        }
        poly = Fraction(seq.d_max**14 * seq.M**9)
        count, weight = seq.M, Fraction(seq.M, 2)
        formula = "theorem-undirected"
    with mpmath.workprec(PRECISION_BITS):
        log_part = _log_factor(count, weight, eps)
        value = _mpf(poly) * log_part
    return BoundReport(
        directed=directed,
        eps=eps_f,
        applicability=applicability,
        formula=formula,
        poly_part=poly,
        log_part=log_part,
        value=value,
    )
