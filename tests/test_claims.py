"""The abstract's checkable sentences, one test each (the README's Claims
table names them).  Claim 1, the undirected hypotheses at their exact
boundaries, is ``test_degseq.py::test_hypotheses_at_their_exact_boundaries``;
claim 3, power-law density-bounded sequences, has no test yet.

The regular-case bounds below are quoted from the cited papers; a misquoted
constant moves the 1/2 or the 1/200 these tests assert.
"""

import itertools
import math
from decimal import Decimal, localcontext

import pytest

from switchmix import DegreeSequence, DirectedDegreeSequence, flow_components

EPS = "0.01"  # product_bound reads a float through its repr, so both sides use this decimal


def _regular_bound(coefficient, d, n, power_n) -> Decimal:
    """coefficient * n^power_n * (dn ln(dn) + ln(1/eps)) at 40 digits; the
    caller folds the power of d into ``coefficient``."""
    with localcontext() as ctx:
        ctx.prec = 40
        dn = Decimal(d * n)
        return coefficient * Decimal(n) ** power_n * (dn * dn.ln() + (1 / Decimal(EPS)).ln())


@pytest.mark.parametrize("d", [3, 4, 6])
@pytest.mark.parametrize("n", [1000, 10_000, 100_000])
def test_claim_2_undirected_bound_is_a_factor_n_over_the_regular_case(d, n):
    """"Only a factor n larger than that established in the regular case."

    Cooper, Dyer and Greenhill (2007, "Sampling regular graphs and a
    peer-to-peer network", Combin. Probab. Comput. 16, as corrected in 2012)
    bound the switch chain on d-regular graphs by
        tau(eps) <= d^23 n^8 (dn ln(dn) + ln(1/eps)).
    On [d]*n the library's d_max^14 M^9 (M/2 ln M + ln(1/eps)) is that times
    n (dn/2 ln(dn) + ln(1/eps)) / (dn ln(dn) + ln(1/eps)), which tends to
    n/2 from above; at n >= 1000 it is within 1% of n/2.
    """
    bound = flow_components(DegreeSequence([d] * n)).product_bound(float(EPS))
    ratio = bound / _regular_bound(Decimal(d) ** 23, d, n, 8) / n
    assert Decimal("0.5") < ratio < Decimal("0.505")


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_claim_5_directed_bound_is_order_m_squared_over_the_regular_case(d, n):
    """"An order of m^2 larger than that established in the regular case."

    Greenhill (2011, "A polynomial bound on the mixing time of a Markov
    chain for sampling regular directed graphs", Electron. J. Combin. 18)
    bounds the directed switch chain on d-in, d-out regular digraphs by
        tau(eps) <= 50 d^25 n^9 (dn ln(dn) + ln(1/eps)).
    On [(d,d)]*n the library's 1/4 r_max^16 m^11 (m ln m + ln(1/eps)) has
    the same logarithmic factor (m = dn), so the ratio is exactly
    d^2 n^2 / 200 = m^2/200.
    """
    m = d * n
    bound = flow_components(DirectedDegreeSequence([(d, d)] * n)).product_bound(float(EPS))
    ratio = bound / _regular_bound(50 * Decimal(d) ** 25, d, n, 9) / (m * m)
    assert abs(ratio * 200 - 1) < Decimal("1e-25")


def test_claim_4_not_all_semi_degrees_1_is_r_max_at_least_2():
    """Directed hypotheses: semi-degrees positive, at most sqrt(m)/4, and not
    all equal to 1.  Given r_min >= 1, "not all 1" is ``r_max_ok`` (r_max >=
    2), and "at most sqrt(m)/4" is ``density_ok`` (16 r_max^2 <= m), on every
    balanced sequence of up to 4 vertices with semi-degrees 1..3, and on the
    all-1 and one-2 sequences at the density boundary's scale.  Switch-
    irreducibility is not among ``hypotheses()``: ``irreducible`` reports it.
    """
    seqs = [
        DirectedDegreeSequence(pairs)
        for n in range(1, 5)
        for pairs in itertools.combinations_with_replacement(itertools.product(range(1, 4), repeat=2), n)
        if sum(a for a, _ in pairs) == sum(b for _, b in pairs)
    ]
    seqs += [DirectedDegreeSequence([(1, 1)] * 65), DirectedDegreeSequence([(2, 2)] + [(1, 1)] * 63)]
    for seq in seqs:
        flags = seq.hypotheses()
        semis = seq.ins + seq.outs
        assert flags["r_min_ok"] == (min(semis) >= 1)
        assert flags["r_max_ok"] == (not all(x == 1 for x in semis)), seq
        assert flags["density_ok"] == (4 * max(semis) <= math.isqrt(seq.m)), seq
