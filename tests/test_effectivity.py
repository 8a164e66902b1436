"""Unloading engine, specialization traces, degree bounds, exclusions."""
from __future__ import annotations

import random
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seshadri.bounds as bounds
import seshadri.exclusions as exclusions
from conftest import (
    alpha_lower_bound_literal,
    ceil_frac,
    ceil_r_config,
    criterion_literal,
    head_sums_list,
    interior_lows_list,
    step_normal_form_literal,
    unload_literal,
)
from seshadri.bounds import compute_bound
from seshadri.candidates import CandidateTriple
from seshadri.effectivity import (
    SpecializationConfig,
    _balanced,
    _from_runs,
    _head_sums,
    _passes,
    _step_runs,
    _to_runs,
    alpha_lb_closed,
    alpha_lower_bound,
    d_sequence,
    semiuniformize,
)
from seshadri.exclusions import (
    ExclusionDb,
    ExplicitClass,
    UniformBound,
    default_db,
    is_excluded,
)
from seshadri.lattice import DomainError, InvalidInput, is_square
from seshadri.render import render_trace
from seshadri.tables import TABLE_B


def nonsquare_range(lo, hi):
    return [n for n in range(lo, hi + 1) if not is_square(n)]


class TestConfig:
    def test_defaults(self):
        assert SpecializationConfig.default(10) == SpecializationConfig(10, 3, 9)
        assert SpecializationConfig.default(14) == SpecializationConfig(14, 3, 11)
        assert SpecializationConfig.default(98) == SpecializationConfig(98, 9, 89)
        assert [SpecializationConfig.default(n).g for n in (10, 14, 98)] == [1, 1, 28]

    def test_ceil_override(self):
        cfg = ceil_r_config(14)
        assert cfg.r == 12

    def test_r_cannot_exceed_n(self):
        with pytest.raises(InvalidInput):
            SpecializationConfig(n=10, d=3, r=11)


class TestUnload:
    def test_step_shortcut_matches_generic_unload(self):
        rnd = random.Random(4242)
        for _ in range(1500):
            n = rnd.randint(2, 14)
            r = rnd.randint(1, n)
            b = sorted((rnd.randint(0, 8) for _ in range(n)), reverse=True)
            via_runs = _from_runs(_step_runs(_to_runs(b), r))
            w = list(b)
            for i in range(r):
                w[i] -= 1
            assert via_runs == unload_literal(w)


class TestDSequence:
    def test_uniform_cubic_trace(self):
        cfg = SpecializationConfig.default(10)
        tr = d_sequence(3, (1,) * 10, cfg)
        assert tr.j == 1 and tr.omega_prime == 2 and len(tr.steps) == 3
        assert tr.steps[0].t == 3 and tr.steps[0].dot_c == 0
        assert tr.steps[1].t == 0 and tr.steps[1].dot_c == -1
        assert tr.steps[1].mults == (1,) + (0,) * 9
        assert tr.steps[2].t == -3 and tr.steps[2].mults == (0,) * 10

    def test_stops_immediately_below_curve_degree(self):
        cfg = SpecializationConfig.default(10)
        tr = d_sequence(2, (1,) * 10, cfg)
        assert tr.j == 0 and tr.omega_prime == 2 and len(tr.steps) == 3

    def test_uniform_steps_match_closed_shape(self):
        # every recorded class is (t - i*d)L - (m - i + q)(E_1+...+E_n) + A_rho
        # with i*(n - r) = q*n + rho
        for n, m, t in ((10, 7, 21), (13, 9, 30), (18, 11, 44)):
            cfg = SpecializationConfig.default(n)
            tr = d_sequence(t, (m,) * n, cfg)
            for step in tr.steps[: tr.omega_prime]:
                i = step.index
                q, rho = divmod(i * (n - cfg.r), n)
                base = m - i + q
                want = tuple(base + 1 if j < rho else base for j in range(n))
                assert step.mults == want, (n, m, t, i)

    @pytest.mark.parametrize("t0", [-7, -1, 0, 1, 2])
    def test_degree_below_d_records_to_omega(self, t0):
        cfg = SpecializationConfig.default(13)  # d = 3, r = 10
        mults = (4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 0, 0)
        tr = d_sequence(t0, mults, cfg)
        assert tr.j == 0
        assert tr.steps[-1].index == tr.omega_prime > 0
        b = list(mults)
        for i, step in enumerate(tr.steps):
            assert step.index == i and step.t == t0 - i * cfg.d
            assert step.mults == tuple(b)
            assert any(b) is (i < tr.omega_prime)
            step_normal_form_literal(b, cfg.r)

    def test_omega_before_j_records_to_j(self):
        cfg = SpecializationConfig.default(10)
        tr = d_sequence(30, (1,) * 10, cfg)
        assert tr.j == 10 and tr.omega_prime == 2 and len(tr.steps) == 11
        assert all(step.mults == (0,) * 10 for step in tr.steps[2:])

    def test_degree_steps_down_by_d(self):
        cfg = SpecializationConfig.default(11)
        tr = d_sequence(20, (5,) * 11, cfg)
        for a, b in zip(tr.steps, tr.steps[1:]):
            assert b.t == a.t - cfg.d

    def test_trace_with_r_equal_to_n(self):
        # the witness degree of alpha >= 16 for C(t, 4, -2) at n = 20, with
        # the curve through all n points
        cfg = SpecializationConfig(20, 4, 20)
        mults = semiuniformize(20, 4, -2)
        assert alpha_lower_bound(mults, cfg) == 16
        assert render_trace(d_sequence(15, mults, cfg)) == (
            "   i    t_i   D_i.C  multiplicities\n"
            "   0     15     -18  (4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 2)\n"
            "   1     11     -14  (3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 1)\n"
            "   2      7     -10  (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0)\n"
            "   3      3      -7  (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0)\n"
            "   4     -1      -4  (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)\n"
            "j = 3, omega' = 4\n"
        )

    def test_requires_normal_form(self):
        cfg = SpecializationConfig.default(10)
        with pytest.raises(InvalidInput):
            d_sequence(3, (1,) * 9 + (2,), cfg)
        with pytest.raises(InvalidInput):
            d_sequence(3, (1,) * 9 + (-1,), cfg)
        for wrong_length in ((), (1,) * 9, (1,) * 11):
            with pytest.raises(InvalidInput):
                d_sequence(3, wrong_length, cfg)


def criterion(t, mults, cfg):
    """The criterion for degree t, as alpha_lower_bound decides it."""
    return _passes(t, cfg, _head_sums(mults, cfg, max(t, 0) // cfg.d))


class TestCriterion:
    def test_uniform_cubic_holds(self):
        cfg = SpecializationConfig.default(10)
        assert criterion(3, (1,) * 10, cfg) is True

    def test_degree_four_fails_at_start(self):
        cfg = SpecializationConfig.default(10)
        assert criterion(4, (1,) * 10, cfg) is False

    def test_degree_two_holds_via_final_inequality(self):
        cfg = SpecializationConfig.default(10)
        assert criterion(2, (1,) * 10, cfg) is True


class TestAlphaBounds:
    def test_ten_simple_points(self):
        cfg = SpecializationConfig.default(10)
        assert alpha_lower_bound((1,) * 10, cfg) == 4

    def test_uniform_56(self):
        cfg = SpecializationConfig.default(10)
        assert alpha_lower_bound((56,) * 10, cfg) == 169

    def test_nine_double_points_plus_one(self):
        # the generic engine beats the closed form (6) by one here
        cfg = SpecializationConfig.default(10)
        assert alpha_lower_bound((2,) * 9 + (1,), cfg) == 7

    def test_all_mass_beyond_specialized_points_gives_one(self):
        cfg = SpecializationConfig.default(10)
        assert alpha_lower_bound((1,) + (0,) * 9, cfg) == 1

    def test_all_zero_rejected(self):
        cfg = SpecializationConfig.default(10)
        with pytest.raises(InvalidInput):
            alpha_lower_bound((0,) * 10, cfg)

    @pytest.mark.parametrize("bad", [2.5, "3", True])
    def test_non_integer_multiplicities_rejected(self, bad):
        # these were truncated by int(): (2.5,) * 10 gave 7, the bound of (2,) * 10
        cfg = SpecializationConfig.default(10)
        mults = (5,) * 9 + (bad,)
        with pytest.raises(InvalidInput, match="integers"):
            alpha_lower_bound(mults, cfg)
        with pytest.raises(InvalidInput, match="integers"):
            d_sequence(3, mults, cfg)

    def test_closed_form_goldens(self):
        cfg = SpecializationConfig.default(10)
        assert alpha_lb_closed(1, 0, cfg) == 4
        assert alpha_lb_closed(56, 0, cfg) == 169
        assert alpha_lb_closed(25, 0, cfg) == 76
        assert alpha_lb_closed(2, -1, cfg) == 6

    def test_closed_form_domain(self):
        cfg = SpecializationConfig.default(10)
        with pytest.raises(DomainError):
            alpha_lb_closed(3, 2, cfg)  # k^2 > m
        with pytest.raises(DomainError):
            alpha_lb_closed(12, 2, cfg)  # k != 0 with m >= n
        with pytest.raises(DomainError):
            alpha_lb_closed(1, 0, SpecializationConfig.default(9))  # no default specialization below n = 10

    def test_even_gap_variant_selected(self):
        # n = 18 has d = 4 and even positive n - d^2, so the k < 0 bound drops
        # the k term: floor((10*16 + 2)/4) = 40 beats floor((10*16 - 3 + 2)/4) = 39
        assert alpha_lb_closed(10, -3, SpecializationConfig.default(18)) == 41
        # n = 19 has odd n - d^2; the standard numerator applies
        assert alpha_lb_closed(10, -3, SpecializationConfig.default(19)) == 43


def _configs(n):
    return (SpecializationConfig.default(n), ceil_r_config(n))


def _full_r(n):
    base = SpecializationConfig.default(n)
    return SpecializationConfig(n=n, d=base.d, r=n)


def _sorted_with_prefix_zeros(rnd, n, r):
    """Nonincreasing vector whose zeros start inside the first r entries."""
    support = rnd.randint(1, max(1, r - 1))
    head = sorted((rnd.randint(1, 40) for _ in range(support)), reverse=True)
    return tuple(head) + (0,) * (n - support)


class TestAlphaMatchesListOracle:
    """alpha_lower_bound against the list walk kept in conftest, which
    re-walks the whole trace for every scanned t."""

    @pytest.mark.parametrize("regime", ["k=0", "k>0", "k<0"])
    def test_semiuniform_vectors(self, regime):
        rnd = random.Random({"k=0": 11, "k>0": 12, "k<0": 13}[regime])
        ns = nonsquare_range(10, 120)
        for _ in range(60):
            n = rnd.choice(ns)
            m = rnd.randint(1, 40)
            kmax = isqrt(m)
            k = {"k=0": 0, "k>0": rnd.randint(1, max(1, kmax)), "k<0": -rnd.randint(1, m)}[regime]
            mults = semiuniformize(n, m, k)
            for cfg in _configs(n):
                assert alpha_lower_bound(mults, cfg) == alpha_lower_bound_literal(mults, cfg), (n, m, k, cfg)

    def test_sorted_vectors_with_zeros_in_the_specialized_prefix(self):
        # zeros inside the first r entries step to -1 and are clamped back to 0
        rnd = random.Random(14)
        for _ in range(150):
            n = rnd.randint(10, 120)
            for cfg in _configs(n):
                mults = _sorted_with_prefix_zeros(rnd, n, cfg.r)
                assert alpha_lower_bound(mults, cfg) == alpha_lower_bound_literal(mults, cfg), (mults, cfg)

    def test_arbitrary_sorted_vectors(self):
        rnd = random.Random(15)
        for _ in range(150):
            n = rnd.randint(10, 120)
            mults = tuple(sorted((rnd.randint(0, 30) for _ in range(n)), reverse=True))
            if mults[0] == 0:
                continue
            for cfg in _configs(n) + (_full_r(n),):
                assert alpha_lower_bound(mults, cfg) == alpha_lower_bound_literal(mults, cfg), (mults, cfg)

    def test_r_equals_n(self):
        rnd = random.Random(16)
        for _ in range(80):
            n = rnd.randint(10, 120)
            cfg = _full_r(n)
            m = rnd.randint(1, 40)
            k = rnd.randint(-m, isqrt(m))
            mults = semiuniformize(n, m, k)
            assert alpha_lower_bound(mults, cfg) == alpha_lower_bound_literal(mults, cfg), (n, m, k)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(10, 60),
        st.lists(st.integers(0, 25), min_size=1, max_size=60),
        st.sampled_from(["floor", "ceil", "full"]),
    )
    def test_fuzz(self, n, raw, which):
        mults = tuple(sorted((raw * n)[:n], reverse=True))
        if mults[0] == 0:
            mults = (1,) + mults[1:]
        cfg = {"floor": SpecializationConfig.default, "ceil": ceil_r_config,
               "full": _full_r}[which](n)
        assert alpha_lower_bound(mults, cfg) == alpha_lower_bound_literal(mults, cfg)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(10, 60), st.integers(-5, 200), st.lists(st.integers(0, 12), min_size=1, max_size=60))
    def test_criterion_holds_fuzz(self, n, t, raw):
        mults = tuple(sorted((raw * n)[:n], reverse=True))
        for cfg in _configs(n):
            assert criterion(t, mults, cfg) is criterion_literal(t, mults, cfg)

    def test_trace_classes_match_list_walk(self):
        rnd = random.Random(17)
        for _ in range(100):
            n = rnd.randint(10, 60)
            cfg = rnd.choice(_configs(n) + (_full_r(n),))
            mults = sorted((rnd.randint(0, 9) for _ in range(n)), reverse=True)
            tr = d_sequence(rnd.randint(0, 60), tuple(mults), cfg)
            b = list(mults)
            for step in tr.steps:
                assert step.mults == tuple(b)
                assert step.dot_c == cfg.d * step.t - sum(b[: cfg.r])
                step_normal_form_literal(b, cfg.r)


def _sums_of(mults, cfg, count):
    """S_0..S_count as read from the bounded walk."""
    walk = _head_sums(mults, cfg, count)
    return [walk.at(i) for i in range(count + 1)]


def _walk_sums(mults, r, count):
    """S_0..S_count from the conftest list walk, one full step at a time."""
    b = list(mults)
    sums = []
    for _ in range(count + 1):
        sums.append(sum(b[:r]))
        step_normal_form_literal(b, r)
    return sums


def _first_balanced(mults, r, limit):
    """Index of the first balanced D_i on the list walk, or None."""
    b = list(mults)
    for i in range(limit + 1):
        if b[0] - b[-1] <= 1:
            return i
        step_normal_form_literal(b, r)
    return None


class TestHeadSumsClosedForm:
    """_head_sums finishes the walk in closed form once the vector is
    balanced; every case is compared with the list walk in conftest."""

    def test_turns_balanced_mid_walk(self):
        rnd = random.Random(21)
        for _ in range(80):
            n = rnd.randint(10, 120)
            m = rnd.randint(3, 60)
            mults = semiuniformize(n, m, -rnd.randint(2, m - 1))
            for cfg in _configs(n) + (_full_r(n),):
                count = 3 * m
                b = _first_balanced(mults, cfg.r, count)
                assert b is not None and b >= 1
                assert _sums_of(mults, cfg, count) == _walk_sums(mults, cfg.r, count), (mults, cfg)

    def test_large_k_fallback_stays_at_three_runs(self):
        rnd = random.Random(22)
        for _ in range(60):
            n = rnd.randint(10, 120)
            m = rnd.randint(2, 60)
            k = rnd.randint(isqrt(m) + 1, 3 * m)
            mults = semiuniformize(n, m, k)
            assert mults == (m + k,) + (m,) * (n - 1)
            for cfg in _configs(n):
                if cfg.r < n:
                    assert len(_step_runs(_to_runs(mults), cfg.r)) == 3
                count = (sum(mults) + n) // cfg.r + 2
                assert _sums_of(mults, cfg, count) == _walk_sums(mults, cfg.r, count), (mults, cfg)

    def test_total_below_r_clamps_to_zero(self):
        for n in (10, 11, 37, 99):
            for cfg in _configs(n) + (_full_r(n),):
                r = cfg.r
                for total in range(1, r):
                    v, a = divmod(total, n)
                    balanced = (v + 1,) * a + (v,) * (n - a)
                    assert _sums_of(balanced, cfg, 3) == [total, 0, 0, 0]
                    spiky = tuple(sorted([total - total // 2, total // 2] + [0] * (n - 2), reverse=True))
                    assert _sums_of(spiky, cfg, 3) == _walk_sums(spiky, r, 3)

    def test_count_past_the_zero_step(self):
        rnd = random.Random(23)
        for _ in range(60):
            n = rnd.randint(10, 80)
            mults = tuple(sorted((rnd.randint(0, 6) for _ in range(n)), reverse=True))
            for cfg in _configs(n) + (_full_r(n),):
                # a nonzero vector loses at least 1 per step
                count = sum(mults) + rnd.randint(2, 20)
                sums = _sums_of(mults, cfg, count)
                assert sums == _walk_sums(mults, cfg.r, count), (mults, cfg)
                assert len(sums) == count + 1 and sums[-2:] == [0, 0]

    def test_balanced_vectors_give_the_closed_form(self):
        for n in (10, 12, 50):
            for cfg in _configs(n) + (_full_r(n),):
                r = cfg.r
                for total in range(0, 4 * n + 3):
                    v, a = divmod(total, n)
                    mults = (v + 1,) * a + (v,) * (n - a)
                    assert _balanced(_to_runs(mults))
                    assert _sums_of(mults, cfg, 0) == [r * v + min(a, r)]
                    count = total // r + 2
                    assert _sums_of(mults, cfg, count) == _walk_sums(mults, r, count)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(10, 60),
        st.lists(st.integers(0, 25), min_size=1, max_size=60),
        st.sampled_from(["floor", "ceil", "full"]),
        st.integers(0, 80),
    )
    def test_fuzz(self, n, raw, which, count):
        mults = tuple(sorted((raw * n)[:n], reverse=True))
        cfg = {"floor": SpecializationConfig.default, "ceil": ceil_r_config,
               "full": _full_r}[which](n)
        assert _sums_of(mults, cfg, count) == _walk_sums(mults, cfg.r, count)


def _assert_matches_list_oracle(mults, cfg, count):
    """S_i and the prefix minima of the bounded walk, for every i <= count,
    against the full lists of the conftest oracle; returns the walk."""
    walk = _head_sums(mults, cfg, count)
    sums = head_sums_list(mults, cfg.r, count)
    assert [walk.at(i) for i in range(count + 1)] == sums, (mults, cfg, count)
    assert [walk.low(i) for i in range(count + 1)] == interior_lows_list(sums, cfg.d), (mults, cfg, count)
    return walk


def _cut_k(cfg):
    """K = floor(r(n - r)/(n*d^2 - r^2)) + 1, or None when n*d^2 <= r^2."""
    slope = cfg.n * cfg.d ** 2 - cfg.r ** 2
    return cfg.r * (cfg.n - cfg.r) // slope + 1 if slope > 0 else None


def _balanced_vector(n, total):
    v, a = divmod(total, n)
    return (v + 1,) * a + (v,) * (n - a)


class TestBoundedWalk:
    """The walk stores entries only up to min(count, b + K - 1, z - 1) and
    reads the rest in closed form; compared with the full-list oracle (the
    balanced closed form built to count) and with the list walk."""

    def test_balanced_mid_walk(self):
        rnd = random.Random(41)
        cut = 0
        for _ in range(80):
            n = rnd.choice(nonsquare_range(10, 400))
            m = rnd.randint(3, 200)
            mults = semiuniformize(n, m, -rnd.randint(2, m - 1))
            for cfg in _configs(n) + (_full_r(n),):
                count = 3 * m + rnd.randint(0, 5)
                b = _first_balanced(mults, cfg.r, count)
                assert b is not None and b >= 1
                walk = _assert_matches_list_oracle(mults, cfg, count)
                cut += len(walk.sums) < count + 1
        assert cut > 0

    def test_zero_before_at_and_after_the_cut(self):
        # balanced from step 0, so b = 0 and z = ceil(T/r); K is fixed by cfg
        seen = set()
        for n in nonsquare_range(10, 120):
            cfg = SpecializationConfig.default(n)
            k = _cut_k(cfg)
            for z in range(max(1, k - 2), k + 3):
                for total in (cfg.r * (z - 1) + 1, cfg.r * z):
                    mults = _balanced_vector(n, total)
                    for count in (z - 1, z, z + 3):
                        walk = _assert_matches_list_oracle(mults, cfg, count)
                        assert len(walk.sums) == min(count, k - 1, z - 1) + 1
                    seen.add((z > k) - (z < k))
        assert seen == {-1, 0, 1}

    def test_last_entry_before_the_cut_can_set_the_minimum(self):
        # configurations where a_{K-1} is a strict new prefix minimum: the
        # cut at b + K - 1 is the tightest that holds
        tight = 0
        for n in nonsquare_range(10, 40):
            for d in range(1, 7):
                for r in range(1, n + 1):
                    cfg = SpecializationConfig(n, d, r)
                    k = _cut_k(cfg)
                    if k is None or k < 2:
                        continue
                    for total in range(r * (k - 1) + 1, 3 * n):
                        mults = _balanced_vector(n, total)
                        lows = interior_lows_list(head_sums_list(mults, r, k), d)
                        if lows[k - 1] < lows[k - 2]:
                            tight += 1
                            _assert_matches_list_oracle(mults, cfg, k + 2)
        assert tight > 100

    def test_zero_step_joins_the_minima(self):
        # T < r: the vector is zero after one step, and a_1 = d^2 < a_0 = T
        for n in nonsquare_range(10, 200):
            cfg = SpecializationConfig.default(n)
            for total in range(cfg.d ** 2 + 1, cfg.r):
                walk = _assert_matches_list_oracle(_balanced_vector(n, total), cfg, 4)
                assert walk.low(1) == cfg.d ** 2 < walk.low(0)

    def test_count_below_the_cut_stores_everything(self):
        rnd = random.Random(42)
        for _ in range(100):
            n = rnd.choice(nonsquare_range(10, 300))
            cfg = SpecializationConfig.default(n)
            k = _cut_k(cfg)
            mults = _balanced_vector(n, cfg.r * (k + 1) + rnd.randint(0, 40 * n))
            count = rnd.randint(0, k - 1)
            walk = _assert_matches_list_oracle(mults, cfg, count)
            assert len(walk.sums) == count + 1

    @pytest.mark.parametrize("which", ["ceil", "full", "square"])
    def test_no_cut_without_a_positive_slope(self, which):
        # n*d^2 <= r^2: no K, and the store runs to z - 1 (at least to b)
        rnd = random.Random(43)
        for _ in range(60):
            if which == "square":
                d = rnd.randint(4, 15)
                cfg = SpecializationConfig(d * d, d, d * d)
            else:
                n = rnd.choice(nonsquare_range(10, 300))
                cfg = ceil_r_config(n) if which == "ceil" else _full_r(n)
            assert _cut_k(cfg) is None
            n = cfg.n
            m = rnd.randint(1, 60)
            mults = semiuniformize(n, m, rnd.randint(-m, isqrt(m)))
            count = sum(mults) // cfg.r + rnd.randint(-3, 3)
            walk = _assert_matches_list_oracle(mults, cfg, max(count, 0))
            b = _first_balanced(mults, cfg.r, max(count, 0))
            if b is not None:
                zero = b - (-walk.total // cfg.r)
                assert len(walk.sums) == max(min(max(count, 0), zero - 1), b) + 1

    def test_large_n_stores_at_most_b_plus_k(self):
        # K is 23 at n = 2000, 1445 at n = 2914 and 111 at n = 3001
        for n, m, k in ((2000, 3000, -7), (2914, 30000, 0), (3001, 3000, 5)):
            cfg = SpecializationConfig.default(n)
            mults = semiuniformize(n, m, k)
            count = sum(mults) // cfg.r + 2
            walk = _assert_matches_list_oracle(mults, cfg, count)
            assert len(walk.sums) <= walk.start + _cut_k(cfg) < count // 10

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(10, 80),
        st.lists(st.integers(0, 40), min_size=1, max_size=80),
        st.integers(-1, 2),
        st.integers(0, 3),
        st.integers(0, 120),
    )
    def test_fuzz(self, n, raw, d_shift, r_shift, count):
        mults = tuple(sorted((raw * n)[:n], reverse=True))
        base = SpecializationConfig.default(n)
        d = max(1, base.d + d_shift)
        r = min(n, max(1, isqrt(d * d * n) + r_shift))
        cfg = SpecializationConfig(n, d, r)
        walk = _assert_matches_list_oracle(mults, cfg, count)
        walked = _walk_sums(mults, r, min(count, 60))
        assert [walk.at(i) for i in range(len(walked))] == walked


class TestSemiuniformize:
    def test_positive_k(self):
        assert semiuniformize(10, 25, 3) == (26,) * 3 + (25,) * 7

    def test_negative_k(self):
        assert semiuniformize(10, 2, -1) == (2,) * 9 + (1,)

    def test_zero_k(self):
        assert semiuniformize(12, 4, 0) == (4,) * 12

    def test_fallback_for_large_positive_k(self):
        # k^2 > m: the semiuniform trick is invalid, use the raw sorted vector
        assert semiuniformize(10, 3, 2) == (5,) + (3,) * 9
        # k > n: the mass from the first point cannot spread over n points
        assert semiuniformize(10, 150, 12) == (162,) + (150,) * 9

    def test_semiuniform_beyond_n_points(self):
        assert semiuniformize(10, 100, 8) == (101,) * 8 + (100,) * 2


def _domain_sample(rnd, count):
    """Seeded sample of (n, m, k) with nonsquare 10 <= n <= 40, 1 <= m <= 30,
    |k| <= sqrt(m)."""
    ns = nonsquare_range(10, 40)
    out = []
    while len(out) < count:
        n = rnd.choice(ns)
        m = rnd.randint(1, 30)
        kmax = isqrt(m)
        k = rnd.randint(-kmax, kmax)
        if m + k < 0:
            continue
        out.append((n, m, k))
    return out


class TestTraceInvariants:
    def test_dot_c_bounded_and_omega_formula(self):
        rnd = random.Random(31337)
        for n, m, k in _domain_sample(rnd, 1100):
            cfg = SpecializationConfig.default(n)
            d, r, g = cfg.d, cfg.r, cfg.g
            delta = n - d * d
            if k >= 0:
                mults = (m + 1,) * k + (m,) * (n - k)
            else:
                mults = (m,) * (n - 1) + (m + k,)
            total = m * n + k
            t = rnd.choice([1, (m * r + k + g - 1) // d, isqrt(m * m * n), total // d + 1])
            tr = d_sequence(t, mults, cfg)
            assert tr.omega_prime == ceil_frac(total, r), (n, m, k, t)
            for step in tr.steps[: tr.omega_prime]:
                assert step.dot_c <= d * t - (m * r + k), (n, m, k, t, step)
                if k < 0 and delta > 0 and delta % 2 == 0:
                    assert step.dot_c <= d * t - m * r, (n, m, k, t, step)

    def test_generic_bound_dominates_closed_form(self):
        rnd = random.Random(271828)
        checked = 0
        for n, m, k in _domain_sample(rnd, 2500):
            if k * k > m or (k != 0 and m >= n):
                continue
            cfg = SpecializationConfig.default(n)
            assert alpha_lower_bound(semiuniformize(n, m, k), cfg) >= alpha_lb_closed(m, k, cfg)
            checked += 1
        assert checked >= 1000


class TestUniformClosedForm:
    """alpha_lb_closed(m, 0, cfg) is the walk's bound for the uniform vector
    under the default configuration (proof in the effectivity docstring)."""

    def test_matches_the_walk_on_a_grid(self):
        for n in range(10, 200):
            cfg = SpecializationConfig.default(n)
            for m in range(1, 200):
                assert alpha_lb_closed(m, 0, cfg) == alpha_lower_bound((m,) * n, cfg), (n, m)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(10, 10**4), st.integers(1, 2 * 10**5))
    @example(10**4, 2 * 10**5)  # square n: r = n, and the walk has no cut
    @example(9999, 199999)
    @example(10, 1)
    def test_matches_the_walk(self, n, m):
        cfg = SpecializationConfig.default(n)
        assert alpha_lb_closed(m, 0, cfg) == alpha_lower_bound((m,) * n, cfg)

    def test_matches_the_s_loop_it_replaced(self):
        # reference: the closed form with s found by stepping up from 0
        def closed_with_loop(n, m, k):
            cfg = SpecializationConfig.default(n)
            d, r, g = cfg.d, cfg.r, cfg.g
            u, rho = divmod(m * n + k, r)
            if rho == 0:
                u, rho = u - 1, r
            s = 0
            while s + 1 < d and (s + 2) * (s + 3) <= 2 * rho:
                s += 1
            delta = n - d * d
            even_gap = k < 0 and delta > 0 and delta % 2 == 0
            numer = m * r + g - 1 if even_gap else m * r + k + g - 1
            return 1 + min(numer // d, s + u * d)

        for n in range(10, 70):
            cfg = SpecializationConfig.default(n)
            for m in range(1, 3 * n):
                ks = range(-isqrt(m), isqrt(m) + 1) if m < n else (0,)
                for k in ks:
                    assert alpha_lb_closed(m, k, cfg) == closed_with_loop(n, m, k), (n, m, k)


def _refuse_walk(mults, cfg):
    raise AssertionError(f"walk called for {mults[:3]}... under {cfg}")


class TestClosedFormRouting:
    """is_excluded decides k = 0 under the default configuration in closed
    form, and sends everything else to the walk."""

    def test_uniform_default_class_never_walks(self, monkeypatch):
        monkeypatch.setattr(exclusions, "alpha_lower_bound", _refuse_walk)
        empty = ExclusionDb(entries=(), enabled_sources=frozenset())
        res = is_excluded(CandidateTriple(10, 3, 1, 0), empty)
        assert res == (True, "specialization-criterion(d=3,r=9)")
        assert is_excluded(CandidateTriple(10, 177, 56, 0), empty).excluded is False

    def test_the_driver_walks_exactly_its_nonzero_k_decisions(self, monkeypatch):
        walks = []
        to_walk = []
        real_walk, real_decide = exclusions.alpha_lower_bound, bounds.is_excluded

        def walk(mults, cfg):
            walks.append(mults)
            return real_walk(mults, cfg)

        def decide(c, db):
            if db.ruling(c) is None:
                to_walk.append(c.k != 0)
            return real_decide(c, db)

        monkeypatch.setattr(exclusions, "alpha_lower_bound", walk)
        monkeypatch.setattr(bounds, "is_excluded", decide)
        for n in (10, 11, 12, 47, 98, 1000):
            compute_bound(n)
        assert 0 < len(walks) == sum(to_walk) < len(to_walk)

    def test_nonzero_k_reaches_the_walk(self, monkeypatch):
        monkeypatch.setattr(exclusions, "alpha_lower_bound", _refuse_walk)
        empty = ExclusionDb(entries=(), enabled_sources=frozenset())
        with pytest.raises(AssertionError, match="walk called"):
            is_excluded(CandidateTriple(14, 4, 1, 1), empty)


class TestExclusionDb:
    def test_default_rulings(self):
        db = default_db()
        assert is_excluded(CandidateTriple(10, 22, 7, 0), db).reason == "CCMO"
        assert is_excluded(CandidateTriple(10, 79, 25, 0), db).reason == "Miranda"
        assert is_excluded(CandidateTriple(10, 6, 2, -1), db).reason == "unique-cubic"

    def test_blocker_is_never_excluded(self):
        db = default_db()
        assert is_excluded(CandidateTriple(10, 177, 56, 0), db).excluded is False

    def test_engine_cannot_rule_out_the_miranda_class(self):
        db = ExclusionDb(entries=(), enabled_sources=frozenset())
        res = is_excluded(CandidateTriple(10, 79, 25, 0), db)
        assert res.excluded is False

    def test_engine_reason_names_parameters(self):
        db = ExclusionDb(entries=(), enabled_sources=frozenset())
        res = is_excluded(CandidateTriple(14, 4, 1, 1), db)
        assert res.excluded and res.reason == "specialization-criterion(d=3,r=11)"

    def test_uniform_entry_never_touches_nonzero_k(self):
        db = ExclusionDb(
            entries=(UniformBound(n_min=10, m_max=1000, source="X"),),
            enabled_sources=frozenset({"X"}),
        )
        assert db.ruling(CandidateTriple(10, 80, 25, 3)) is None
        assert db.ruling(CandidateTriple(10, 79, 25, 0)) == "X"

    def test_disabling_a_source_removes_its_rulings(self):
        db = default_db()
        c = CandidateTriple(10, 22, 7, 0)
        assert db.ruling(c) == "CCMO"
        assert db.with_sources(disable=("CCMO",)).ruling(c) is None

    @pytest.mark.parametrize("enable, disable", [
        (("Mirand",), ()),
        ((), ("Mirand",)),
        (("Mirand",), ("Miranda",)),
    ])
    def test_with_sources_rejects_a_source_no_entry_carries(self, enable, disable):
        with pytest.raises(InvalidInput, match=r"no entry carries the source\(s\) \['Mirand'\]"):
            default_db().with_sources(enable=enable, disable=disable)

    def test_json_round_trip(self):
        db = default_db()
        again = ExclusionDb.from_json(db.to_json())
        assert again == db
        assert again.to_json() == db.to_json()
        assert db.with_sources(enable=("Dumnicki",)).to_json() != db.to_json()

    def test_empty_source_rejected(self):
        with pytest.raises(InvalidInput):
            ExclusionDb(entries=(ExplicitClass(10, 3, 1, 0, ""),), enabled_sources=frozenset())

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInput):
            ExclusionDb.from_json('{"entries": [{"kind": "magic"}], "enabled_sources": []}')

    def test_one_sided_on_every_reference_blocker(self):
        # no class reported as a blocker in the embedded table may be excluded
        # under the same database configuration
        db = default_db()
        for row in TABLE_B:
            s = row.m * row.n
            if s * s <= row.n * row.t * row.t:
                continue  # nef-side rows are not candidates at all
            c = CandidateTriple(row.n, row.t, row.m, 0)
            assert is_excluded(c, db).excluded is False, row
