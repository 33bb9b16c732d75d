import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrhq import bounds, cli
from vrhq.errors import DegenerateScale

from tests.oracles import bound_oracle, pascal_binomial


@pytest.fixture(scope="module")
def comb_rows():
    """C(n, i) for i = 0..n by math.comb, one call per term, independent of
    the running binomial ratio; built once for the large rows."""
    return {n: [math.comb(n, i) for i in range(n + 1)] for n in (1024, 5000)}


def ratio_steps(n):
    """C(n, 0), C(n, 1), ..., C(n, n), read back from the running tails as
    tail(r - 1) - tail(r) = C(n, r), with tail(-1) = 2^n and tail(n) = 0."""
    tails = list(bounds._running_tails(n))
    return [a - b for a, b in zip([1 << n] + tails, tails + [0])]


class TestBinomial:
    """The binomials the running tail steps through, against the Pascal
    triangle of tests.oracles."""

    def test_examples(self):
        assert ratio_steps(7)[1] == 7  # C(7, 1)
        assert ratio_steps(8)[7] == 8  # C(8, 7)
        # frozen from the Pascal-triangle oracle
        assert pascal_binomial(20, 17) == 1140
        assert ratio_steps(20)[17] == 1140  # C(20, 17)

    def test_out_of_range_is_zero(self, monkeypatch):
        # one tail per r in 0..n-1; r >= n is the empty sum, never walked
        for n in (1, 2, 9):
            assert len(list(bounds._running_tails(n))) == n
        walked = []
        monkeypatch.setattr(bounds, "_running_tails", walked.append)
        assert bounds.tail_degree(9, 9) == bounds.tail_degree(9, 12) == 0
        assert walked == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bounds.tail_degree(-1, 0)
        with pytest.raises(ValueError):
            bounds.tail_degree(3, -2)

    def test_matches_pascal_oracle(self):
        for n in range(1, 26):
            assert ratio_steps(n) == [pascal_binomial(n, i) for i in range(n + 1)]

    def test_large_is_exact(self, comb_rows):
        for n, row in comb_rows.items():
            assert ratio_steps(n) == row
        assert ratio_steps(1024)[512] % 2 == 0  # C(1024, 512)
        tails = list(bounds._running_tails(1024))
        assert (tails[0], tails[-1]) == ((1 << 1024) - 1, 1)


class TestTailDegree:
    def test_examples(self):
        assert bounds.tail_degree(7, 5) == 8
        assert bounds.tail_degree(6, 4) == 7
        for n in (1, 4, 9):
            assert bounds.tail_degree(n, n) == 0
            assert bounds.tail_degree(n, n + 3) == 0

    def test_two_summations_agree(self, comb_rows):
        # the tail against 2^n - head and against the direct tail sum, both
        # by math.comb, which shares nothing with the running ratio
        for n in range(1, 65):
            for r in range(0, n + 3):
                direct = sum(math.comb(n, i) for i in range(r + 1, n + 1))
                head = sum(math.comb(n, i) for i in range(0, r + 1))
                assert bounds.tail_degree(n, r) == direct == (1 << n) - head
        for n, row in comb_rows.items():
            for r in (0, 5, n // 2 - 1, n // 2, n // 2 + 1, n - 1):
                direct, head = sum(row[r + 1:]), sum(row[:r + 1])
                assert bounds.tail_degree(n, r) == direct == (1 << n) - head, (n, r)

    def test_bound_command_sums_once(self, monkeypatch, capsys, comb_rows):
        calls = []
        original = bounds.tail_degree

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bounds, "tail_degree", spy)
        assert cli.main(["bound", "--n", "5000", "--r", "2500"]) == 0
        assert calls == [(5000, 2500)]
        alpha = json.loads(capsys.readouterr().out)["result"]["alpha"]
        assert alpha["denominator"] == sum(comb_rows[5000][2501:])
        assert alpha["numerator"] == 1 << 4999


class TestExactRatio:
    def test_alpha_examples(self):
        a = bounds.alpha(7, 5)
        assert (a.numerator, a.denominator) == (64, 8)
        assert a.is_integer and a.numerator // a.denominator == 8

        b = bounds.alpha(8, 6)
        assert (b.numerator, b.denominator) == (128, 9)
        assert not b.is_integer and b.numerator // b.denominator == 14

        c = bounds.alpha(2, 1)
        assert (c.numerator, c.denominator) == (2, 1)

    def test_stored_unreduced(self):
        a = bounds.alpha(7, 5)
        assert a.denominator == 8  # not reduced to 8/1

    def test_degenerate_scale(self):
        with pytest.raises(DegenerateScale):
            bounds.alpha(4, 4)
        with pytest.raises(DegenerateScale):
            bounds.alpha(4, 9)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            bounds.ExactRatio(1, 0)
        with pytest.raises(ValueError):
            bounds.ExactRatio(-1, 2)


class TestConnectivityBound:
    def test_published_examples(self):
        assert bounds.connectivity_lower_bound(7, 5) == 6
        assert bounds.connectivity_lower_bound(8, 6) == 13

    def test_small_cases(self):
        assert bounds.connectivity_lower_bound(2, 1) == 0
        for n in range(2, 11):
            assert bounds.connectivity_lower_bound(n, 0) == -1

    def test_contractible_iff_r_ge_n(self):
        assert bounds.connectivity_lower_bound(3, 3) is None
        assert bounds.connectivity_lower_bound(3, 7) is None
        assert bounds.connectivity_lower_bound(3, 2) is not None

    def test_flagged_row(self):
        # exact arithmetic: floor(2^19 / 21) - 1
        assert (1 << 19) // 21 == 24966
        assert bounds.connectivity_lower_bound(20, 18) == 24965

    def test_closed_form_at_r_equals_n_minus_1(self):
        for n in range(1, 61):
            c = bounds.connectivity_lower_bound(n, n - 1)
            assert c == (1 << (n - 1)) - 2

    def test_monotone_in_r(self):
        for n in range(1, 33):
            values = [bounds.connectivity_lower_bound(n, r)
                      for r in range(0, n)]
            assert values == sorted(values)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_k_is_largest_integer_below_alpha(self, n, data):
        r = data.draw(st.integers(min_value=0, max_value=n - 1))
        c = bounds.connectivity_lower_bound(n, r)
        k = c + 1
        a = bounds.alpha(n, r)
        # strict inequality k < alpha <= k + 1, by cross-multiplication
        assert k * a.denominator < a.numerator
        assert (k + 1) * a.denominator >= a.numerator

    def test_matches_fraction_oracle(self):
        for n in range(1, 26):
            for r in range(0, n + 2):
                assert bounds.connectivity_lower_bound(n, r) == bound_oracle(n, r)

    def test_exact_at_n_1024(self):
        a = bounds.alpha(1024, 512)
        assert a.numerator == 1 << 1023
        assert a.denominator == bounds.tail_degree(1024, 512)
        assert bounds.connectivity_lower_bound(1024, 1023) == (1 << 1023) - 2

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.connectivity_lower_bound(0, 0)
        with pytest.raises(ValueError):
            bounds.connectivity_lower_bound(3, -1)


class TestReferenceTable:
    def test_agreement_flags(self):
        rows = bounds.reference_table()
        assert len(rows) == 8
        assert [(n, r, printed) for n, r, _, printed in rows] == list(bounds.PUBLISHED_ROWS)
        agrees = [c == printed for _, _, c, printed in rows]
        assert agrees == [True] * 7 + [False]
        assert rows[2][2:] == (24, 24)
        assert rows[5][2] == 6897
        assert rows[7][2:] == (24965, 24964)

    def test_grid_table(self):
        assert len(bounds.grid_table(3, 2)) == 6
        assert bounds.grid_table(1) == [(1, 0, -1)]

    def test_grid_table_validation(self):
        with pytest.raises(ValueError):
            bounds.grid_table(0)
        with pytest.raises(ValueError):
            bounds.grid_table(3, -1)
        assert len(bounds.grid_table(3, 0)) == 3


class TestCounterexampleScan:
    def test_examples(self):
        assert bounds.counterexample_scan(6) == []
        assert (7, 5, 6) in bounds.counterexample_scan(7)
        scan8 = bounds.counterexample_scan(8)
        assert (7, 5, 6) in scan8 and (8, 6, 13) in scan8

    def test_matches_fraction_oracle(self):
        for n_max in (2, 6, 9, 12):
            want = [(n, r, bound_oracle(n, r))
                    for n in range(2, n_max + 1)
                    for r in range(0, n - 1)
                    if bound_oracle(n, r) >= r + 1]
            assert bounds.counterexample_scan(n_max) == want

    def test_sorted_and_validated(self):
        scan = bounds.counterexample_scan(12)
        assert scan == sorted(scan)
        with pytest.raises(ValueError):
            bounds.counterexample_scan(1)


class TestConsistencyCheck:
    def test_no_violations(self):
        assert bounds.consistency_check_2r(8) == []
        assert bounds.consistency_check_2r(20) == []
        assert bounds.consistency_check_2r(200) == []

    def test_single_pair(self):
        c = bounds.connectivity_lower_bound(7, 5)
        assert c == 6 <= (1 << 5) - 2

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.consistency_check_2r(1)


GRID_N = 120


@pytest.fixture(scope="module")
def per_pair():
    """connectivity_lower_bound on every pair n <= GRID_N, r <= n - 1."""
    return {(n, r): bounds.connectivity_lower_bound(n, r)
            for n in range(1, GRID_N + 1) for r in range(n)}


class TestGrid:
    """The running-tail generator behind the grid scans, against the
    single-pair bound and the per-pair loops the scans used to run."""

    def test_matches_connectivity_lower_bound(self, per_pair):
        got = list(bounds._grid(1, GRID_N))
        assert [(n, r) for n, r, _ in got] == sorted(per_pair)
        assert {(n, r): c for n, r, c in got} == per_pair

    def test_matches_fraction_oracle(self):
        for n, r, c in bounds._grid(1, 40):
            assert c == bound_oracle(n, r)

    @pytest.mark.parametrize("r_max", [None, 0, 7, GRID_N - 1, 500])
    def test_grid_table_matches_per_pair_loop(self, per_pair, r_max):
        want = []
        for n in range(1, GRID_N + 1):
            top = n - 1 if r_max is None else min(r_max, n - 1)
            for r in range(0, top + 1):
                want.append((n, r, per_pair[n, r]))
        assert bounds.grid_table(GRID_N, r_max) == want

    def test_counterexample_scan_matches_per_pair_loop(self, per_pair):
        want = []
        for n in range(2, GRID_N + 1):
            for r in range(0, n - 1):
                if per_pair[n, r] >= r + 1:
                    want.append((n, r, per_pair[n, r]))
        assert bounds.counterexample_scan(GRID_N) == want

    def test_consistency_check_matches_per_pair_loop(self, per_pair):
        want = []
        for n in range(3, GRID_N + 1):
            for r in range(1, n - 1):
                if per_pair[n, r] > (1 << r) - 2:
                    want.append((n, r, per_pair[n, r]))
        assert bounds.consistency_check_2r(GRID_N) == want

    def test_grid_walks_only_as_far_as_asked(self, monkeypatch):
        drawn = Counter()
        original = bounds._running_tails

        def spy(n):
            for tail in original(n):
                drawn[n] += 1
                yield tail

        monkeypatch.setattr(bounds, "_running_tails", spy)
        bounds.grid_table(300, 2)
        assert drawn == {n: min(n, 3) for n in range(1, 301)}
        drawn.clear()
        bounds.grid_table(300)
        assert drawn == {n: n for n in range(1, 301)}

    def test_scans_make_no_per_pair_calls(self, monkeypatch):
        calls = []
        for name in ("tail_degree", "connectivity_lower_bound"):
            def spy(*args, _name=name, _original=getattr(bounds, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(bounds, name, spy)
        bounds.grid_table(100)
        bounds.counterexample_scan(100)
        bounds.consistency_check_2r(100)
        assert calls == []
        # the spies do see the single-pair path
        bounds.connectivity_lower_bound(7, 5)
        assert calls == ["connectivity_lower_bound", "tail_degree"]
