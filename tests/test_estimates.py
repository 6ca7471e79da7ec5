"""Frozen-value tests for the V/W estimate formulas.

The expected numbers below were frozen from independent evaluations of the
closed forms (direct summation with math.comb, no shared code with the
incremental implementation) and cross-checked against the published tables.
One cell deserves a note: at n = 16 the published lower value reads 3625,
which exceeds the published upper value 3432 and contradicts the sandwich
property the estimates satisfy by construction. Direct evaluation of the
lower sum gives 3265 (3625 with two digits transposed), which does respect
the sandwich, so 3265 is the value frozen here; the acceptance run reports
the cell explicitly.
"""

import math

import pytest

from spernerlib.bigcomb import binom, fixed_ratio, left_adjoint, sci_approx
from spernerlib.errors import InputError, ResourceLimitError
from spernerlib.sperner_estimates import (ESTIMATE_MAX_N, EstimatePair,
                                          asp_bracket, lower_v, lower_w,
                                          ratio_report, sp_bracket, upper_v,
                                          upper_w, w_bottom_size)

W_LOWER = [1, 1, 2, 6, 9, 17, 36, 66, 120, 234, 456, 876, 1680, 3265,
           6340, 12330, 23960, 46766, 91224, 178388, 348656, 683130,
           1337896, 2625364, 5149872, 10119348, 19877904, 39104856]
W_UPPER = [1, 2, 3, 6, 10, 20, 37, 70, 132, 252, 480, 924, 1775, 3432,
           6630, 12870, 24967, 48620, 94631, 184756, 360554, 705432,
           1379671, 2704156, 5298418, 10400600, 20410200, 40116600]

V_LOWER = [1, 1, 2, 4, 7, 13, 24, 46, 86, 166, 314, 610, 1163, 2269]
V_UPPER = [1, 1, 2, 4, 7, 14, 25, 48, 90, 173, 326, 632, 1201, 2340]


def test_w_bottom_size():
    assert [w_bottom_size(n) for n in range(3, 11)] == [0, 1, 1, 2, 2, 3, 4, 4]


def test_w_table_3_to_30():
    for i, n in enumerate(range(3, 31)):
        assert lower_w(n) == W_LOWER[i], n
        assert upper_w(n) == W_UPPER[i], n


def test_v_table_2_to_15():
    for i, n in enumerate(range(2, 16)):
        assert lower_v(n) == V_LOWER[i], n
        assert upper_v(n) == V_UPPER[i], n


# --- the earlier sums, kept as oracles for the single-pass evaluations --------

def stepped_lower_w(n):
    """lower_w as a double sum over blocks, the inner binomial stepped in j.

    O(n^2) big-integer steps; the library's single pass replaced it.
    """
    h = w_bottom_size(n)
    total = 0
    for i in range(n // 3):
        avail = n - 3 * i - 3   # ground elements past the first i+1 blocks
        pow3 = 1                # 3^j
        cplace = 1              # C(i, j)
        ctail = 0               # C(avail, h + j - 3i), stepped in j
        for j in range(i + 1):
            low = h - 3 * i + j
            if low > avail:
                break
            if low == 0:
                ctail = 1
            elif low > 0:
                if j == 0:
                    ctail = binom(avail, low)
                else:
                    ctail = ctail * (avail - low + 1) // low
            if low >= 0:
                total += pow3 * cplace * ctail
            pow3 *= 3
            cplace = cplace * (i - j) // (j + 1)
    return total


def comb_sum_lower_v(n):
    """lower_v as its defining sum, one math.comb per term."""
    q = (n - 1) // 2
    return sum(math.comb(n - 2 - 2 * i, q - 2 * i) for i in range(q // 2 + 1))


# n = 1..400 and the sizes of the paper's big tables
ORACLE_NS = list(range(1, 401)) + [2022, 2023, 2024]


def test_lower_w_against_direct_summation():
    # independent evaluation: plain nested sum, no running binomials
    def c(a, b):
        return math.comb(a, b) if 0 <= b <= a else 0

    def direct(n):
        h = w_bottom_size(n)
        total = 0
        for i in range(n // 3):
            for j in range(i + 1):
                total += 3 ** j * c(i, j) * c(n - 3 * i - 3, h + j - 3 * i)
        return total

    for n in range(3, 60):
        assert lower_w(n) == direct(n), n


def test_lower_w_against_the_stepped_sum():
    for n in ORACLE_NS:
        assert lower_w(n) == stepped_lower_w(n), n


def test_upper_w_against_direct_formula():
    for n in range(3, 60):
        num = n * math.comb(n - 1, (n - 1) // 2)
        assert upper_w(n) == num // (3 * n - 2 - 2 * (n // 2)), n


def test_lower_v_against_direct_summation():
    for n in ORACLE_NS[1:]:
        assert lower_v(n) == comb_sum_lower_v(n), n


@pytest.mark.slow
def test_lower_estimates_against_the_oracle_sums_at_4096():
    assert lower_w(4096) == stepped_lower_w(4096)
    assert lower_v(4096) == comb_sum_lower_v(4096)


def test_domain_errors():
    with pytest.raises(InputError):
        lower_w(0)
    with pytest.raises(InputError):
        upper_w(-3)
    with pytest.raises(InputError):
        lower_v(1)
    with pytest.raises(InputError):
        upper_v(1)


def test_estimates_refuse_n_past_the_cap():
    for estimate in (lower_w, upper_w, lower_v, upper_v):
        with pytest.raises(ResourceLimitError):
            estimate(ESTIMATE_MAX_N + 1)
    with pytest.raises(ResourceLimitError):
        sp_bracket("w", 10 ** 7)
    # a target above upper_v(2^16) has its adjoint past the cap
    with pytest.raises(ResourceLimitError):
        asp_bracket("v", upper_v(ESTIMATE_MAX_N) + 1)


def test_big_n_w_values_to_seven_digits():
    assert sci_approx(lower_w(2022)) == "2.136194e606"
    assert sci_approx(upper_w(2022)) == "2.136987e606"
    assert sci_approx(lower_w(2023)) == "4.271332e606"
    assert sci_approx(upper_w(2023)) == "4.272916e606"
    assert sci_approx(lower_w(2024)) == "8.540554e606"
    assert sci_approx(upper_w(2024)) == "8.543720e606"


def test_big_n_w_ratios_to_nine_places():
    assert fixed_ratio(upper_w(2022), lower_w(2022), 9) == "1.000371103"
    assert fixed_ratio(upper_w(2023), lower_w(2023), 9) == "1.000370920"
    assert fixed_ratio(upper_w(2024), lower_w(2024), 9) == "1.000370737"


def test_big_n_v_values_and_ratios():
    assert sci_approx(lower_v(2022)) == "2.848220e606"
    assert sci_approx(upper_v(2022)) == "2.848846e606"
    assert sci_approx(lower_v(2023)) == "5.695500e606"
    assert sci_approx(upper_v(2023)) == "5.696752e606"
    assert fixed_ratio(upper_v(2022), lower_v(2022), 9) == "1.000219853"
    assert fixed_ratio(upper_v(2023), lower_v(2023), 9) == "1.000219780"


def test_v_ratio_three_places_small():
    assert fixed_ratio(upper_v(14), lower_v(14), 3) == "1.033"
    assert fixed_ratio(upper_v(15), lower_v(15), 3) == "1.031"


# --- bracket plumbing -------------------------------------------------------

def test_sp_bracket():
    pair = sp_bracket("w", 10)
    assert pair == EstimatePair(10, 66, 70)
    assert not pair.exact
    assert sp_bracket("v", 6) == EstimatePair(6, 7, 7)
    assert sp_bracket("v", 6).exact
    with pytest.raises(InputError):
        sp_bracket("w", 2)
    with pytest.raises(InputError):
        sp_bracket("x", 5)


def test_asp_bracket_w_table():
    expected_lo = [3, 4, 5, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8, 8]
    expected_hi = [3, 5, 6, 6, 6, 6, 7, 7, 7, 8, 8, 8, 8, 8, 8]
    for k in range(1, 16):
        assert asp_bracket("w", k) == (expected_lo[k - 1], expected_hi[k - 1]), k


def test_asp_bracket_spot_values():
    assert asp_bracket("v", 2) == (4, 4)
    assert asp_bracket("v", 2022) == (15, 15)
    assert asp_bracket("w", 2022) == (16, 16)
    assert asp_bracket("v", 3 * 10 ** 606) == (2023, 2023)
    assert asp_bracket("w", 5 * 10 ** 606) == (2024, 2024)
    with pytest.raises(InputError):
        asp_bracket("w", 0)


def test_asp_bracket_is_galois_adjoint_of_the_estimates():
    # lo side pairs with the upper estimate, hi side with the lower one;
    # both estimates count 0 below their formula domains
    def up(n):
        return upper_w(n) if n >= 3 else 0

    def lo_est(n):
        return lower_w(n) if n >= 1 else 0

    for k in (1, 2, 3, 7, 100, 12345):
        lo, hi = asp_bracket("w", k)
        assert up(lo) >= k and (lo == 0 or up(lo - 1) < k)
        assert lo_est(hi) >= k and (hi == 0 or lo_est(hi - 1) < k)


def test_ratio_report():
    assert ratio_report("w", 10) == "1.061"
    assert ratio_report("v", 14, places=9) == "1.032674119"
    assert ratio_report("w", 3) == "1.000"


def test_asp_bracket_hi_search_from_lo_matches_plain_adjoint():
    # asp_bracket starts the hi search at lo; the plain search from 0 must
    # give the same hi
    ks = list(range(1, 5000)) + [m * 10 ** e for e in range(3, 701, 9)
                                 for m in (1, 3, 5, 9)]
    for kind, lower, start in (("w", lower_w, 1), ("v", lower_v, 2)):
        def mono(n):
            return lower(n) if n >= start else 0
        for k in ks:
            assert asp_bracket(kind, k)[1] == left_adjoint(mono, k), (kind, k)
