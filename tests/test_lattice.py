"""Divisor classes as plain data, and exact surd-sign decisions."""
from __future__ import annotations

import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri.effectivity import SpecializationConfig, alpha_lower_bound, d_sequence
from seshadri.lattice import (
    DomainError,
    InvalidInput,
    QuadraticExpr,
    compare_values,
    sign_of,
)

Q = Fraction


class TestDivisorClass:
    """t*L - m_1*E_1 - ... - m_n*E_n enters as (degree, mults); a class on
    no points is rejected wherever it enters."""

    def test_empty_class_rejected(self):
        cfg = SpecializationConfig.default(10)
        with pytest.raises(InvalidInput):
            d_sequence(1, (), cfg)
        with pytest.raises(InvalidInput):
            alpha_lower_bound((), cfg)


class TestSignOf:
    def test_zero_coefficients(self):
        assert sign_of(QuadraticExpr(0, 0, 7)) == 0

    def test_sqrt_ten_beats_three(self):
        assert sign_of(QuadraticExpr(-3, 1, 10)) == 1

    def test_nef_level_identity_is_exactly_zero(self):
        # at the level e where the test class meets C(177,56,0) with value 0,
        # t/(mn+k) equals sqrt((1 - 1/(e*n))/n) exactly
        e = Q(313600, 3100)
        n = 10
        q = (1 - 1 / (e * n)) / n
        assert sign_of(QuadraticExpr(Q(177, 560), -1, q)) == 0

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            QuadraticExpr(1, 1, -1)

    def test_against_high_precision_numerics(self):
        getcontext().prec = 80
        rnd = random.Random(20260809)
        checked = 0
        while checked < 10_000:
            a = Q(rnd.randint(-10**6, 10**6), rnd.randint(1, 10**4))
            b = Q(rnd.randint(-10**6, 10**6), rnd.randint(1, 10**4))
            q = Q(rnd.randint(0, 10**6), rnd.randint(1, 10**4))
            val = (Decimal(a.numerator) / a.denominator
                   + (Decimal(b.numerator) / b.denominator)
                   * (Decimal(q.numerator) / q.denominator).sqrt())
            if abs(val) <= Decimal(10) ** -30:
                continue
            want = 1 if val > 0 else -1
            assert sign_of(QuadraticExpr(a, b, q)) == want
            checked += 1

    @given(st.fractions(), st.fractions())
    def test_pure_rational_agrees(self, a, q):
        got = sign_of(QuadraticExpr(a, 0, abs(q)))
        assert got == (a > 0) - (a < 0)


class TestCompareRationalSqrt:
    """compare_values on a rational p against sqrt(a), a >= 0."""

    @staticmethod
    def compare(p, a):
        return compare_values(Q(p), QuadraticExpr(0, 1, a))

    def test_exact_square(self):
        assert self.compare(3, 9) == 0

    def test_22_sevenths_below_sqrt_ten(self):
        assert self.compare(Q(22, 7), 10) == -1

    def test_blocker_slope_below_sqrt_ten(self):
        # 177/56 < sqrt(10) since 31329 < 31360: C(177,56,0) is abnormal
        assert self.compare(Q(177, 56), 10) == -1

    def test_negative_is_always_less(self):
        assert self.compare(-5, 0) == -1
        assert self.compare(Q(-1, 3), 100) == -1

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            self.compare(1, -1)

    @settings(max_examples=300)
    @given(st.fractions(), st.fractions(min_value=0))
    def test_equal_iff_nonnegative_exact_root(self, p, a):
        got = self.compare(p, a)
        assert (got == 0) == (p >= 0 and p * p == a)


def test_compare_values_mixed_kinds():
    assert compare_values(Q(3), QuadraticExpr(0, 1, 9)) == 0
    assert compare_values(QuadraticExpr(0, 1, 10), Q(3)) == 1
    with pytest.raises(DomainError):
        compare_values(QuadraticExpr(0, 1, 2), QuadraticExpr(0, 1, 3))
