"""Candidate enumeration and e-values."""
from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_candidates,
    candidate_mults,
    enumerate_szcor_literal,
    k_range_literal,
    passes_testlem,
)
from seshadri.candidates import CandidateTriple, e_value, enumerate_szcor, szcor_b, szcor_c
from seshadri.lattice import DomainError, InvalidInput, ceil_sqrt, is_square
from seshadri.tables import TABLE_A

Q = Fraction


class TestFinitenessTest:
    def test_uniform_cubic_passes(self):
        assert passes_testlem((1,) * 10, 3, 1) is True

    def test_degree_four_fails_upper_window(self):
        assert passes_testlem((1,) * 10, 4, 1) is False

    def test_all_zero_vector_rejected(self):
        with pytest.raises(InvalidInput):
            passes_testlem((0,) * 10, 3, 1)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(DomainError):
            passes_testlem((1,) * 10, 3, 0)


@st.composite
def _n_and_window_below_or_across_n(draw):
    """(n, m_lo, m_hi): n in 10..20000, square or not, and a window of at
    most 200 m that lies below n or straddles it."""
    n = draw(st.one_of(st.integers(10, 20000), st.integers(4, 141).map(lambda s: s * s)))
    width = draw(st.integers(0, 199))
    if width and draw(st.booleans()):
        m_lo = draw(st.integers(max(1, n - width), n - 1))
    else:
        m_lo = draw(st.integers(1, max(1, n - 1 - width)))
    return n, m_lo, m_lo + width


class TestEnumeration:
    def test_reproduces_embedded_table(self):
        cands = enumerate_szcor(10, 182)
        got = [(c.t, c.m, c.k) for c in cands]
        want = [(r.t, r.m, r.k) for r in TABLE_A]
        assert got == want

    def test_n11_contains_its_blocker(self):
        cands = enumerate_szcor(11, 32)
        assert (106, 32, 0) in [(c.t, c.m, c.k) for c in cands]

    def test_nonzero_k_candidate_satisfies_square_identity(self):
        cands = {(c.t, c.m, c.k) for c in enumerate_szcor(10, 25)}
        assert (80, 25, 3) in cands
        assert 2 * 25 * 3 == 80 * 80 - 25 * 25 * 10

    def test_matches_brute_force(self):
        for n in range(10, 21):
            got = sorted((c.t, c.m, c.k) for c in enumerate_szcor(n, 30))
            assert got == brute_force_candidates(n, 30), f"n={n}"

    def test_at_most_one_nonzero_k_per_small_m(self):
        for n in range(10, 21):
            seen = {}
            for c in enumerate_szcor(n, min(n - 1, 30)):
                if c.k != 0:
                    assert c.m not in seen, (n, c)
                    seen[c.m] = c

    def test_square_identity_for_all_small_m_outputs(self):
        for n in (10, 12, 15, 19):
            for c in enumerate_szcor(n, 40):
                if c.k != 0 and c.m < n:
                    assert c.t ** 2 - c.m ** 2 * n == 2 * c.m * c.k, c

    def test_sorted_and_deterministic(self):
        a = enumerate_szcor(13, 60)
        b = enumerate_szcor(13, 60)
        assert a == b
        assert a == sorted(a, key=CandidateTriple.sort_key)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            enumerate_szcor(9, 10)
        with pytest.raises(DomainError):
            enumerate_szcor(10, 0)
        for m_min in (0, -3):
            with pytest.raises(DomainError):
                enumerate_szcor(10, 5, m_min)

    def test_matches_literal_scan_on_both_sides_of_n(self):
        # m_max below n exercises only the pinned branch; above n, the t-driven one
        rnd = random.Random(31)
        t_driven = 0
        for n in sorted(rnd.sample(range(10, 261), 60)):
            for m_max in (rnd.randint(1, n - 1), n, rnd.randint(n + 1, 3 * n)):
                got = enumerate_szcor(n, m_max)
                assert got == enumerate_szcor_literal(n, m_max), (n, m_max)
                t_driven += sum(1 for c in got if c.k != 0 and c.m >= n)
        assert t_driven > 0

    @pytest.mark.parametrize("n, m_max", [(1000, 2048), (2000, 5000), (3001, 6000), (10001, 12000)])
    def test_matches_literal_scan_at_large_n(self, n, m_max):
        want = enumerate_szcor_literal(n, m_max)
        assert enumerate_szcor(n, m_max) == want
        for a in (512, n - 1, n):
            joined = enumerate_szcor(n, a) + enumerate_szcor(n, m_max, a + 1)
            assert sorted(joined, key=CandidateTriple.sort_key) == want, a

    @pytest.mark.parametrize("n", [16, 25, 36, 100, 10000])
    def test_matches_literal_scan_for_square_n(self, n):
        # m^2*n = (m*sqrt(n))^2 leaves the remainder r = 0 at every m: no
        # k = 0 class, and degree t = m*sqrt(n) gives no k != 0 class
        for m_max in (n // 2, n - 1, n, n + min(n, 100)):
            assert enumerate_szcor(n, m_max) == enumerate_szcor_literal(n, m_max), (n, m_max)

    @settings(max_examples=200, deadline=None)
    @given(_n_and_window_below_or_across_n())
    def test_window_matches_literal_scan(self, case):
        n, m_lo, m_hi = case
        want = [c for c in enumerate_szcor_literal(n, m_hi) if c.m >= m_lo]
        assert enumerate_szcor(n, m_hi, m_lo) == want

    def test_ranges_concatenate_to_the_full_scan(self):
        # the seeded grid above, each m_max split at a random point
        rnd = random.Random(31)
        for n in sorted(rnd.sample(range(10, 261), 60)):
            for b in (rnd.randint(1, n - 1), n, rnd.randint(n + 1, 3 * n)):
                a = rnd.randint(1, b)
                joined = enumerate_szcor(n, a) + enumerate_szcor(n, b, a + 1)
                assert sorted(joined, key=CandidateTriple.sort_key) == enumerate_szcor_literal(n, b), (n, a, b)

    @staticmethod
    def _check_k_window(n, m):
        # every k admitted by (b) has |k| <= K = isqrt((nm - 1) // (n - 1)),
        # and K itself is admitted
        k_max = isqrt((n * m - 1) // (n - 1))
        ks = list(k_range_literal(n, m))
        assert max(ks) == k_max and min(ks) >= -k_max, (n, m)

    def test_closed_form_k_bounds_on_a_small_grid(self):
        for n in range(10, 41):
            for m in range(1, 301):
                self._check_k_window(n, m)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(10, 20000), st.integers(1, 40000))
    def test_closed_form_k_bounds_match_literal_range(self, n, m):
        self._check_k_window(n, m)

    def test_every_output_passes_finiteness_test_at_its_own_level(self):
        # at delta = 1/(2e - 2/n), strictly inside the abnormality range
        for n in (10, 11, 13, 17, 20):
            for c in enumerate_szcor(n, 40):
                e = e_value(c)
                delta = 1 / (2 * e - Q(2, n))
                assert passes_testlem(candidate_mults(c), c.t, delta), (n, c)


class TestEValue:
    def test_unit_level(self):
        assert e_value(CandidateTriple(10, 3, 1, 0)) == 1

    def test_exact_values(self):
        assert e_value(CandidateTriple(10, 6, 2, -1)) == Q(361, 10)
        assert e_value(CandidateTriple(10, 22, 7, 0)) == Q(49, 6)
        c = CandidateTriple(10, 177, 56, 0)
        assert e_value(c) == Q(313600, 3100)
        assert c.n * e_value(c) == Q(313600, 310)

    def test_positive_on_all_enumerated(self):
        for n in (10, 14, 18):
            for c in enumerate_szcor(n, 50):
                assert e_value(c) > 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(10, 2000).filter(lambda n: not is_square(n)), st.integers(1, 400))
    def test_nonzero_k_lies_above_m_times_n_minus_1(self, n, m_max):
        # every k != 0 candidate up to m_max; and, since the module docstring
        # proves e > m(n - 1) from (b) and (c) alone, every class meeting
        # them at m = m_max, whether or not it is enumerated
        for c in enumerate_szcor(n, m_max):
            assert c.k == 0 or e_value(c) > c.m * (n - 1), c
        m = m_max
        for k in range(1 - m, m + 1):
            if k == 0 or not szcor_b(n, m, k):
                continue
            base = m * m * n + 2 * m * k
            for t in range(ceil_sqrt(base), isqrt((n * base + k * k - 1) // n) + 1):
                if szcor_c(n, t, m, k):
                    assert e_value(CandidateTriple(n, t, m, k)) > m * (n - 1), (t, m, k)

    def test_rejects_class_on_nef_side(self):
        # 170*sqrt(19) exceeds 39*19, so this class is not abnormal
        with pytest.raises(DomainError):
            e_value(CandidateTriple(19, 170, 39, 0))

