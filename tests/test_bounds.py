import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest

from switchmix import (
    DegreeSequence,
    DirectedDegreeSequence,
    enum_states,
    flow_components,
)
from switchmix.bounds import nstr

from conftest import log_pi_star_term_bounds, random_graphical_sequence


def test_theorem_undirected_value():
    d = DegreeSequence([3] * 28)
    assert d.hypotheses()["applicable"]
    value = flow_components(d).product_bound(0.01)
    with mpmath.workprec(200):
        ref = mpmath.mpf(3) ** 14 * mpmath.mpf(84) ** 9 * (
            42 * mpmath.log(84) + mpmath.log(100)
        )
        assert abs(mpmath.mpf(str(value)) - ref) / ref < mpmath.mpf(10) ** -30


def test_theorem_directed_value():
    dd = DirectedDegreeSequence([(2, 2)] * 32)
    assert dd.hypotheses()["applicable"]  # 16 * 4 = 64 <= m = 64
    value = flow_components(dd).product_bound(0.01)
    with mpmath.workprec(200):
        ref = (
            mpmath.mpf(1) / 4
            * mpmath.mpf(2) ** 16
            * mpmath.mpf(64) ** 11
            * (64 * mpmath.log(64) + mpmath.log(100))
        )
        assert abs(mpmath.mpf(str(value)) - ref) / ref < mpmath.mpf(10) ** -30


def test_bound_monotone_in_eps():
    for seq in (DegreeSequence([3] * 28), DirectedDegreeSequence([(2, 2)] * 32)):
        comps = flow_components(seq)
        assert comps.product_bound(0.001) > comps.product_bound(0.01)


def test_bound_eps_validation():
    for seq in (DegreeSequence([3, 3, 3, 3]), DirectedDegreeSequence([(1, 1)] * 3)):
        comps = flow_components(seq)
        for eps in (0, 1, 1.5, -0.1, -1, 2, Fraction(3, 2), float("nan")):
            with pytest.raises(ValueError, match="eps must lie in"):
                comps.log_part(eps)
            with pytest.raises(ValueError, match="eps must lie in"):
                comps.product_bound(eps)


def test_bound_reported_even_when_inapplicable():
    d = DegreeSequence([3, 3, 3, 3])
    assert not d.hypotheses()["applicable"]  # 9*9 = 81 > 12
    assert flow_components(d).product_bound(0.01) > 0


def test_product_identity_exact():
    for seq in (
        DegreeSequence([3] * 28),
        DegreeSequence([3, 3, 3, 3]),
        DegreeSequence([2, 2, 1, 1]),
        DirectedDegreeSequence([(2, 2)] * 32),
        DirectedDegreeSequence([(1, 1)] * 3),
    ):
        comps = flow_components(seq)
        poly = comps.load_bound * comps.ell_bound
        with localcontext(Context(prec=40)):
            for eps in (0.01, 0.001, Fraction(1, 3)):
                product = Decimal(poly.numerator) / Decimal(poly.denominator) * comps.log_part(eps)
                assert comps.product_bound(eps) == product


def test_flow_component_fields():
    d = DegreeSequence([3, 3, 3, 3])
    fc = flow_components(d)
    assert (fc.log_pi_star_bound_weight, fc.log_pi_star_count) == (6, 12)
    assert fc.ell_bound == Fraction(6)
    assert fc.one_over_Q == 6 * d.a
    assert fc.encoding_ratio_bound == 2 * 12**6
    assert fc.load_bound == 2 * 3**14 * 12**8

    dd = DirectedDegreeSequence([(1, 1), (1, 1)])
    fcd = flow_components(dd)
    assert (fcd.log_pi_star_bound_weight, fcd.log_pi_star_count) == (2, 2)
    assert fcd.one_over_Q == 1  # binom(m,2) with m = 2
    assert fcd.encoding_ratio_bound == Fraction(2**8, 8)
    assert fcd.load_bound == Fraction(1 * 2**10, 4)
    assert fcd.ell_bound == Fraction(2)


def test_size_bound_dominates_enumeration(rng):
    checked = 0
    while checked < 12:
        n = rng.randint(2, 7)
        d = random_graphical_sequence(rng, n, rng.uniform(0.2, 0.8))
        states = enum_states(d)
        if not states:
            continue
        assert log_pi_star_term_bounds(len(states), flow_components(d))
        checked += 1
    # directed: |Omega| <= m^m
    for pairs in ([(1, 1)] * 4, [(2, 2)] * 4, [(1, 1)] * 3):
        dd = DirectedDegreeSequence(pairs)
        assert log_pi_star_term_bounds(len(enum_states(dd)), flow_components(dd))


def test_nstr_matches_mpmath():
    # dyadic values m * 2**k are exact both as a Decimal and as a 400-bit
    # mpf, so both formatters round the same number
    rng = random.Random(25)
    values = [
        Decimal(0),
        Decimal("1234567890123456789012344.5"),  # a tie at the 26th digit
        Decimal("9999999999999999999999999.5"),  # rounds up across 10**25
    ]
    with localcontext(Context(prec=400)), mpmath.workprec(400):
        for exponent in range(-20, 61):
            for _ in range(40):
                m = rng.getrandbits(rng.randint(1, 120)) | 1
                k = math.floor((exponent - math.log10(m)) / math.log10(2)) + rng.randint(0, 3)
                values.append(Decimal(m) * Decimal(2) ** k)
        assert {v.adjusted() for v in values[3:]} >= set(range(-20, 61))
        assert [nstr(v) for v in values] == [mpmath.nstr(mpmath.mpf(str(v)), 25) for v in values]
    assert nstr(values[1]) == "1234567890123456789012345.0"  # half up, not half even
    assert nstr(values[2]) == "1.0e+25"
