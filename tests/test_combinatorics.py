from fractions import Fraction

import pytest

from hyperzeta.combinatorics import (
    coeff_c,
    gen_F,
    multi_harmonic,
    multi_harmonic_by_enumeration,
)


def test_multi_harmonic_conventions():
    assert multi_harmonic(0, 3) == 0
    assert multi_harmonic(5, 0) == 1
    assert multi_harmonic(0, 0) == 1


def test_multi_harmonic_small_value():
    # chains (1,1), (1,2), (2,2): 1 + 1/2 + 1/4
    assert multi_harmonic(2, 2) == Fraction(7, 4)


def test_multi_harmonic_recurrence_exact():
    for k in range(1, 13):
        for mu in range(1, 9):
            assert (
                k * multi_harmonic(k, mu)
                == multi_harmonic(k, mu - 1) + k * multi_harmonic(k - 1, mu)
            )


def test_multi_harmonic_vs_enumeration():
    for k in range(9):
        for mu in range(9):
            assert multi_harmonic(k, mu) == multi_harmonic_by_enumeration(k, mu)


def test_harmonic_numbers():
    assert multi_harmonic(0, 1) == 0
    assert multi_harmonic(2, 1) == Fraction(3, 2)
    assert multi_harmonic(4, 1) == Fraction(25, 12)


def test_coeff_c_values():
    for m in range(1, 5):
        for k in range(5):
            sign = Fraction((-1) ** k)
            from math import factorial

            assert coeff_c(m, 0, k) == sign / factorial(k)
    assert coeff_c(1, 1, 1) == -1
    assert coeff_c(2, 1, 2) == Fraction(3, 2)


def test_coeff_c_out_of_range():
    with pytest.raises(IndexError):
        coeff_c(2, 3, 1)


def test_gen_F_matches_multi_harmonic():
    for k in range(11):
        series = gen_F(k, 11)
        for mu in range(11):
            assert series[mu] == multi_harmonic(k, mu)


def test_gen_F_closed_form():
    # F_k(s) = k!/(1-s)_k; check k=2 coefficients against partial fractions
    series = gen_F(2, 6)
    # 1/((1-s)(1-s/2)) = sum_mu H_2(mu) s^mu = sum (2 - 2^-mu ... ) check a value
    s = Fraction(1, 3)
    direct = Fraction(1) / ((1 - s) * (1 - s / 2))
    # truncation error is bounded by the tail; compare partial sums instead
    partial = sum(series[mu] * s ** mu for mu in range(6))
    assert abs(direct - partial) < Fraction(1, 100)
    # and exactness of the first coefficients
    assert series[0] == 1
    assert series[1] == Fraction(3, 2)
