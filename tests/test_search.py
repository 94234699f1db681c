"""Exhaustive scans, orbit invariance, and the ball-versus-AND comparison."""

import json
import types

import numpy as np
import pytest

from mostinf import search
from mostinf.cube import (
    BooleanFunction,
    _hadamard_inplace,
    _popcount,
    and_k,
    dictator,
    hamming_ball,
    lex,
    mutual_information_direct,
    symmetric_mi,
)
from mostinf.entropy import binary_entropy, gaussian_isoperimetric, osw_bound
from mostinf.search import (
    _batched_mi,
    _bits_matrix,
    ball_profile_for_mean,
    exhaustive_verify,
    fixed_mean_max,
    lex_failure_scan,
)


def fwht_smoothed_entropy(tables, alpha):
    """Reference E_y h(T_rho f(y)): smooth every row by two Walsh-Hadamard
    transforms."""
    size = tables.shape[-1]
    coeffs = _hadamard_inplace(tables.astype(float)) / size
    coeffs *= (1.0 - 2.0 * alpha) ** _popcount(np.arange(size))
    smoothed = np.clip(_hadamard_inplace(coeffs), 0.0, 1.0)
    return binary_entropy(smoothed).mean(axis=-1)


def fwht_batched_mi(tables, alpha):
    """Reference route to the mutual information of every row."""
    return (binary_entropy(tables.mean(axis=-1))
            - fwht_smoothed_entropy(tables, alpha))


def all_tables(n):
    size = 1 << n
    return _bits_matrix(np.arange(1 << size, dtype=np.int64), size)


def split_halves(table_ints, n, i):
    """0/1 rows of f0 and f1, the tables restricted to x_i = 0 and x_i = 1:
    the columns j with bit i of j clear, and set, in increasing order."""
    bits = _bits_matrix(table_ints, 1 << n)
    side = np.arange(1 << n) >> i & 1
    return bits[:, side == 0], bits[:, side == 1]


def split_bound(table_ints, n, alpha, i):
    """U_i(f) = h((|f0| + |f1|) / 2^n) - (H(f0) + H(f1)) / 2 of the split
    of each table on coordinate i."""
    low, high = split_halves(table_ints, n, i)
    mean = (low.sum(axis=-1) + high.sum(axis=-1)) / (1 << n)
    return binary_entropy(mean) - 0.5 * (fwht_smoothed_entropy(low, alpha)
                                         + fwht_smoothed_entropy(high, alpha))


def unpruned_scan(n, alpha, state, chunk_size, max_chunks):
    """Oracle: the scan loop with every even table through the kernel, from
    a checkpoint state; returns the state it would store."""
    state = dict(state)
    full = (1 << (1 << n)) - 1
    end = min(1 << ((1 << n) - 1), state["next"] + max_chunks * chunk_size)
    for lo in range(state["next"], end, chunk_size):
        hi = min(lo + chunk_size, end)
        reps = np.arange(lo, hi, dtype=np.int64) << 1
        mi = _batched_mi(_bits_matrix(reps, 1 << n), alpha)
        chunk_max = float(np.max(mi))
        if chunk_max > state["max_mi"] + search.TIE_TOL:
            state["max_mi"] = chunk_max
            state["witnesses"] = []
        hits = reps[mi >= state["max_mi"] - search.TIE_TOL]
        near = np.concatenate((hits[:search.ARGMAX_CAP],
                               hits[-search.ARGMAX_CAP:] ^ full))
        state["witnesses"] = sorted(
            set(state["witnesses"]) | set(near.tolist()))[:search.ARGMAX_CAP]
        state["next"] = hi
        state["scanned"] = 2 * hi
    return state


def count_kernel_rows(monkeypatch):
    """Rows sent through ``search._batched_mi`` from now on, in a list."""
    rows = [0]
    kernel = search._batched_mi

    def counting(tables, alpha):
        rows[0] += tables.shape[0]
        return kernel(tables, alpha)
    monkeypatch.setattr(search, "_batched_mi", counting)
    return rows


class TestCountVectorKernel:
    ALPHAS = [0.0, 0.03, 0.1, 0.17, 0.24, 0.3, 0.37, 0.45, 0.5]

    def test_bits_matrix_layout(self):
        ints = np.array([0, 1, 6, (1 << 31) | 5], dtype=np.int64)
        bits = _bits_matrix(ints, 32)
        assert bits.dtype == np.uint8
        expect = (ints[:, None] >> np.arange(32)[None, :]) & 1
        assert np.array_equal(bits, expect)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_fwht_reference_on_every_table(self, n):
        tables = all_tables(n)
        for alpha in self.ALPHAS:
            got = _batched_mi(tables, alpha)
            want = fwht_batched_mi(tables, alpha)
            assert np.max(np.abs(got - want)) <= 1e-14, alpha

    def test_n5_chunk_matches_direct(self):
        rng = np.random.default_rng(11)
        ints = rng.integers(0, 1 << 32, 300, dtype=np.int64)
        tables = _bits_matrix(ints, 32)
        for alpha in (0.1, 0.24, 0.41):
            mi = _batched_mi(tables, alpha)
            for row, value in zip(tables, mi):
                direct = mutual_information_direct(BooleanFunction(5, row),
                                                   alpha)
                assert abs(value - direct) <= 1e-14

    def test_complement_pairs_bit_identical(self):
        tables = all_tables(4)
        rng = np.random.default_rng(12)
        rows5 = _bits_matrix(rng.integers(0, 1 << 32, 4096, dtype=np.int64),
                             32)
        for alpha in self.ALPHAS:
            mi = _batched_mi(tables, alpha)
            # Row t and row 2^16 - 1 - t are complements.
            assert np.array_equal(mi, mi[::-1]), alpha
            assert np.array_equal(_batched_mi(rows5, alpha),
                                  _batched_mi(1 - rows5, alpha)), alpha

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_constant_tables_exactly_zero(self, n):
        const = np.array([[0] * (1 << n), [1] * (1 << n)], dtype=np.uint8)
        for alpha in self.ALPHAS:
            assert np.all(_batched_mi(const, alpha) == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_mean_entropy_table_is_bit_equal(self, n):
        size = 1 << n
        want = binary_entropy(np.arange(size + 1) / size)
        got = search._mean_entropy(size)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_mean_term_read_from_the_table(self):
        # The looked-up h(|f| / 2^n) gives the MI of the direct entropy
        # call bit for bit, at every n and on the probe's 64-row shape.
        rng = np.random.default_rng(23)
        for n in range(1, 6):
            size = 1 << n
            tables = rng.integers(0, 2, (64, size), dtype=np.uint8)
            for alpha in self.ALPHAS:
                ones, smoothed = search._kernel_terms(tables, alpha)
                want = binary_entropy(ones / size) - smoothed
                assert np.array_equal(_batched_mi(tables, alpha), want), n

    def test_rejects_more_than_five_bits(self):
        with pytest.raises(ValueError):
            _batched_mi(np.zeros((2, 64), dtype=np.uint8), 0.1)
        with pytest.raises(ValueError):
            _batched_mi(np.zeros((2, 12), dtype=np.uint8), 0.1)

    def test_strong_data_processing_bound(self):
        # I(f(X); Y) <= (1 - 2 alpha)^2 h(E f) for every Boolean f.
        tables = all_tables(4)
        h_mean = binary_entropy(tables.mean(axis=-1))
        for alpha in (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            mi = _batched_mi(tables, alpha)
            slack = (1.0 - 2.0 * alpha) ** 2 * h_mean - mi
            assert slack.min() >= -1e-14, alpha


class TestExhaustiveVerify:
    def test_n2_alpha03(self):
        report = exhaustive_verify(2, 0.3)
        assert report.max_mi == pytest.approx(1 - binary_entropy(0.3),
                                              abs=1e-12)
        assert report.bound_satisfied
        assert report.argmax_is_dictators
        assert len(report.argmax) == 4
        assert report.functions_scanned == 16

    def test_n2_independent_channel(self):
        report = exhaustive_verify(2, 0.5)
        assert report.max_mi == pytest.approx(0.0, abs=1e-12)

    def test_n4_small_alpha(self):
        report = exhaustive_verify(4, 0.1)
        assert report.bound_satisfied
        assert report.argmax_is_dictators
        assert report.functions_scanned == 65536

    @pytest.mark.parametrize("n", [2, 3])
    def test_max_monotone_in_alpha(self, n):
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        vals = [exhaustive_verify(n, a).max_mi for a in grid]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            exhaustive_verify(1, 0.3)
        with pytest.raises(ValueError):
            exhaustive_verify(6, 0.3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.37, 0.5])
    def test_matches_scan_of_every_table(self, n, alpha):
        # Oracle: every table, complements included, in one kernel call.
        mi = _batched_mi(all_tables(n), alpha)
        max_mi = float(np.max(mi))
        winners = np.nonzero(mi >= max_mi - search.TIE_TOL)[0]
        full = (1 << (1 << n)) - 1
        dictators = {dictator(n, i).table_int() for i in range(1, n + 1)}
        dictators |= {t ^ full for t in dictators}
        report = exhaustive_verify(n, alpha)
        assert report.max_mi == max_mi
        assert report.argmax == winners[:search.ARGMAX_CAP].tolist()
        assert report.functions_scanned == 1 << (1 << n)
        assert report.argmax_is_dictators == \
            (set(winners.tolist()) == dictators)
        assert report.argmax_is_dictators == (0.0 < alpha < 0.5)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.37, 0.5])
    def test_chunked_resume_equals_one_shot(self, tmp_path, alpha):
        ckpt = str(tmp_path / "scan.json")
        for _ in range(7):  # 32 chunks of 1024, at most 5 per call
            report = exhaustive_verify(4, alpha, checkpoint=ckpt,
                                       chunk_size=1024, max_chunks=5)
            assert report.bound_satisfied == (
                report.functions_scanned == 1 << 16)
        assert report == exhaustive_verify(4, alpha)

    def test_one_chunk_scan_is_quiet(self, capsys):
        for n in (2, 3, 4):
            exhaustive_verify(n, 0.2)
        assert capsys.readouterr() == ("", "")

    def test_bad_chunking_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_verify(4, 0.1, chunk_size=0)
        with pytest.raises(ValueError):
            exhaustive_verify(4, 0.1, max_chunks=-1)
        with pytest.raises(ValueError):  # above the cap
            exhaustive_verify(5, 0.3, chunk_size=search.MAX_CHUNK + 1,
                              max_chunks=1)

    def test_empty_slice_reports_the_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "scan.json")
        with pytest.raises(ValueError):  # nothing scanned, nothing stored
            exhaustive_verify(4, 0.1, checkpoint=ckpt, max_chunks=0)
        partial = exhaustive_verify(4, 0.1, checkpoint=ckpt, chunk_size=1024,
                                    max_chunks=3)
        assert partial.functions_scanned == 2 * 3 * 1024
        assert exhaustive_verify(4, 0.1, checkpoint=ckpt, chunk_size=1024,
                                 max_chunks=0) == partial


class TestHalfSplitBound:
    # For a split on any coordinate i, h is concave and
    # T f(b, y') = (1 - alpha) T f_b(y') + alpha T f_(1-b)(y'), so
    # E h(T f) >= (H(f0) + H(f1)) / 2 and I(f) <= U_i(f).
    ALPHAS = [0.0, 0.1, 0.37, 0.5]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bound_holds_on_every_n4_table(self, alpha):
        ints = np.arange(1 << 16, dtype=np.int64)
        mi = _batched_mi(_bits_matrix(ints, 16), alpha)
        for i in range(4):
            assert np.all(mi <= split_bound(ints, 4, alpha, i) + 1e-14), i

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bound_holds_on_sampled_n5_tables(self, alpha):
        rng = np.random.default_rng(31)
        ints = rng.integers(0, 1 << 32, 1 << 16, dtype=np.int64)
        mi = _batched_mi(_bits_matrix(ints, 32), alpha)
        for i in range(5):
            assert np.all(mi <= split_bound(ints, 5, alpha, i) + 1e-14), i

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complement_fill_equals_a_full_build(self, n):
        half = 1 << (n - 1)
        tables = _bits_matrix(np.arange(1 << half, dtype=np.int64), half)
        for alpha in (0.0, 0.05, 0.1, 0.3, 0.37, 0.45, 0.5):
            ones, ent = search._half_bounds(n, alpha)
            want_ones, want_ent = search._kernel_terms(tables, alpha)
            assert np.array_equal(ones, want_ones), alpha
            assert np.array_equal(ent, want_ent), alpha

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_coordinate_halves_match_the_reference(self, n):
        # Swapping coordinates i and n - 1 is an involution that permutes
        # the table's bits as it permutes the indices.  The swapped table's
        # low and high halves are f0 and f1 of the split on i with their
        # other coordinates in one shared order, so the scan's terms read
        # their ones counts and, H being invariant, their H.
        half = 1 << (n - 1)
        ints = np.arange(1 << (1 << n), dtype=np.int64) if n < 5 else \
            np.random.default_rng(32).integers(0, 1 << 32, 1 << 12,
                                               dtype=np.int64)
        j = np.arange(1 << n)
        for i in range(n - 1):
            swapped = search._swap_top(ints, i, n)
            assert np.array_equal(search._swap_top(swapped, i, n), ints), i
            flip = ((j >> i) ^ (j >> (n - 1))) & 1
            index = j ^ flip * ((1 << i) | half)
            assert np.array_equal(_bits_matrix(swapped, 1 << n),
                                  _bits_matrix(ints, 1 << n)[:, index]), i
            for g, want in zip((swapped & ((1 << half) - 1), swapped >> half),
                               split_halves(ints, n, i)):
                for alpha in self.ALPHAS:
                    ones, ent = search._half_bounds(n, alpha)
                    assert np.array_equal(ones[g], want.sum(axis=1))
                    assert np.max(np.abs(
                        ent[g] - fwht_smoothed_entropy(want, alpha))) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_scan_terms_match_the_reference(self, n):
        half = 1 << (n - 1)
        ints = np.arange(1 << half, dtype=np.int64)
        for alpha in self.ALPHAS:
            ones, ent = search._half_bounds(n, alpha)
            assert np.array_equal(ones, _bits_matrix(ints, half).sum(axis=1))
            want = fwht_smoothed_entropy(_bits_matrix(ints, half), alpha)
            assert np.max(np.abs(ent - want)) <= 1e-14


class TestPrunedScan:
    TOTAL = 1 << 31  # even n = 5 tables

    @staticmethod
    def start(alpha, lo):
        return {"n": 5, "alpha": alpha, "next": lo, "max_mi": -1.0,
                "witnesses": [], "scanned": 2 * lo}

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.45])
    @pytest.mark.parametrize("chunk_size", [1000, 3 * 2048])
    @pytest.mark.parametrize("where", ["first", "middle", "dictator", "last"])
    def test_n5_chunk_equals_the_oracle(self, tmp_path, alpha, chunk_size,
                                        where):
        index = {"first": 0, "middle": self.TOTAL // 2 + 12345,
                 "dictator": 0xAAAAAAAA >> 1, "last": self.TOTAL - 1}[where]
        lo = index // chunk_size * chunk_size
        state = self.start(alpha, lo)
        ckpt = tmp_path / "scan.json"
        ckpt.write_text(json.dumps(state))
        report = exhaustive_verify(5, alpha, checkpoint=str(ckpt),
                                   chunk_size=chunk_size, max_chunks=1)
        want = unpruned_scan(5, alpha, state, chunk_size, 1)
        assert json.loads(ckpt.read_text()) == want
        assert report.max_mi == want["max_mi"]
        full = (1 << 32) - 1
        assert report.argmax == sorted(
            set(want["witnesses"])
            | {t ^ full for t in want["witnesses"]})[:search.ARGMAX_CAP]
        if where == "dictator":
            assert 0xAAAAAAAA in report.argmax
            assert report.max_mi == _batched_mi(
                _bits_matrix(np.array([0xAAAAAAAA]), 32), alpha)[0]

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.45])
    @pytest.mark.parametrize("chunk_size", [1000, 3 * 2048])
    def test_resumed_n5_slice_equals_the_oracle(self, tmp_path, alpha,
                                                chunk_size):
        # Three chunks across the half boundary at table 2^16, in two calls.
        lo = (1 << 15) - chunk_size - 7
        state = self.start(alpha, lo)
        ckpt = tmp_path / "scan.json"
        ckpt.write_text(json.dumps(state))
        exhaustive_verify(5, alpha, checkpoint=str(ckpt),
                          chunk_size=chunk_size, max_chunks=2)
        report = exhaustive_verify(5, alpha, checkpoint=str(ckpt),
                                   chunk_size=chunk_size, max_chunks=1)
        want = unpruned_scan(5, alpha, state, chunk_size, 3)
        assert json.loads(ckpt.read_text()) == want
        assert report.max_mi == want["max_mi"]
        assert report.functions_scanned == 2 * (lo + 3 * chunk_size)

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1, 0.37, 0.49, 0.5])
    def test_n4_scan_equals_the_oracle(self, tmp_path, alpha):
        # n = 4 has three coordinates below the top one to filter on.
        start = {"n": 4, "alpha": alpha, "next": 0, "max_mi": -1.0,
                 "witnesses": [], "scanned": 0}
        ckpt = tmp_path / "one.json"
        report = exhaustive_verify(4, alpha, checkpoint=str(ckpt))
        want = unpruned_scan(4, alpha, start, 1 << 15, 1)
        assert json.loads(ckpt.read_text()) == want
        assert report.max_mi == want["max_mi"]
        ckpt = tmp_path / "chunked.json"
        state = start
        for _ in range(2):  # 32 chunks of 1024, 16 per call
            exhaustive_verify(4, alpha, checkpoint=str(ckpt),
                              chunk_size=1024, max_chunks=16)
            state = unpruned_scan(4, alpha, state, 1024, 16)
            assert json.loads(ckpt.read_text()) == state

    def test_default_chunks_from_the_start_equal_the_oracle(self, tmp_path):
        # At alpha = 0.45 the kernel evaluates 38.6 % of the first default
        # chunk and 24.6 % of the second, so the most tables reach the
        # coordinate cascade there.
        ckpt = tmp_path / "scan.json"
        report = exhaustive_verify(5, 0.45, checkpoint=str(ckpt),
                                   max_chunks=2)
        want = unpruned_scan(5, 0.45, self.start(0.45, 0), 1 << 16, 2)
        assert json.loads(ckpt.read_text()) == want
        assert report.max_mi == want["max_mi"]
        assert report.functions_scanned == 1 << 18

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.45])
    def test_near_tie_below_a_stored_maximum_is_kept(self, tmp_path, alpha):
        # The dictator 0xAAAAAAAA has equal halves, so its U equals its MI
        # up to rounding.  A stored maximum TIE_TOL / 2 above that MI makes
        # it a near-tie, which only a slack above TIE_TOL keeps.
        dictator_mi = float(_batched_mi(
            _bits_matrix(np.array([0xAAAAAAAA]), 32), alpha)[0])
        lo = (0xAAAAAAAA >> 1) // 1000 * 1000
        state = dict(self.start(alpha, lo),
                     max_mi=dictator_mi + 0.5 * search.TIE_TOL)
        ckpt = tmp_path / "scan.json"
        ckpt.write_text(json.dumps(state))
        report = exhaustive_verify(5, alpha, checkpoint=str(ckpt),
                                   chunk_size=1000, max_chunks=1)
        assert json.loads(ckpt.read_text()) == \
            unpruned_scan(5, alpha, state, 1000, 1)
        assert 0xAAAAAAAA in report.argmax

    def test_kernel_sees_few_rows_at_small_alpha(self, monkeypatch):
        rows = count_kernel_rows(monkeypatch)
        exhaustive_verify(4, 0.1)
        assert 0 < rows[0] <= 4096  # of 32,768 even tables

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
    def test_kernel_sees_only_tables_every_bound_keeps(self, monkeypatch,
                                                       alpha):
        # One n = 4 chunk: after the probe, a table reaches the kernel only
        # if U_i reaches the cut on every coordinate i.
        rows = count_kernel_rows(monkeypatch)
        report = exhaustive_verify(4, alpha)
        ints = np.arange(0, 1 << 16, 2, dtype=np.int64)
        least = np.min([split_bound(ints, 4, alpha, i) for i in range(4)],
                       axis=0)
        kept = least >= report.max_mi - search.PRUNE_SLACK - 1e-12
        assert rows[0] <= search.PRUNE_PROBE + np.count_nonzero(kept)

    def test_kernel_sees_every_row_at_half(self, monkeypatch):
        # At alpha = 1/2, T f is constant and U >= 0 = I by concavity.
        rows = count_kernel_rows(monkeypatch)
        exhaustive_verify(4, 0.5)
        assert rows[0] == 1 << 15

    def test_progress_reports_the_evaluated_share(self, capsys, monkeypatch):
        rows = count_kernel_rows(monkeypatch)
        exhaustive_verify(5, 0.2, chunk_size=1024, max_chunks=3)
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.endswith(f", evaluated {100 * rows[0] / 3072:.1f}%")
        assert rows[0] < 3072


class TestFixedMeanMax:
    def test_empty_support(self):
        report = fixed_mean_max(3, 0, 0.2)
        assert report.max_mi == pytest.approx(0.0, abs=1e-12)

    def test_n2_balanced_maximizers_are_dictators(self):
        report = fixed_mean_max(2, 2, 0.3)
        assert report.functions_scanned == 6
        assert report.argmax_is_dictators
        assert lex(2, 2).table_int() in report.argmax

    def test_n4_mean_quarter_subcube_is_maximal(self):
        # Scan-derived: the 24 codimension-2 subcube indicators are exactly
        # the maximizers at this mean, and lex(4, 4) is one of them.
        report = fixed_mean_max(4, 4, 0.3)
        assert lex(4, 4).table_int() in report.argmax
        assert len(report.argmax) == 24
        assert report.max_mi == pytest.approx(
            mutual_information_direct(and_k(4, 2), 0.3), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_complement_symmetry(self, m):
        a = fixed_mean_max(3, m, 0.22).max_mi
        b = fixed_mean_max(3, 8 - m, 0.22).max_mi
        assert a == pytest.approx(b, abs=1e-12)

    def test_unbiased_obeys_published_bound(self):
        for n in (2, 3, 4):
            for alpha in (0.25, 0.3, 0.35, 0.4, 0.45):
                report = fixed_mean_max(n, 1 << (n - 1), alpha)
                assert report.max_mi <= osw_bound(alpha) + 1e-9

    def test_range_error(self):
        with pytest.raises(ValueError):
            fixed_mean_max(3, 9, 0.2)


def random_orbit_image(f, rng):
    """Apply a random signed coordinate permutation and optional complement."""
    n = f.n
    perm = rng.permutation(n) + 1
    mask = int(rng.integers(0, 1 << n))
    j = np.arange(1 << n)
    source = np.zeros(1 << n, dtype=np.int64)
    for i, target in enumerate(perm, start=1):
        source |= (((j >> (n - i)) & 1).astype(np.int64)) << (n - int(target))
    bits = f.bits[source ^ mask]
    if rng.integers(2):
        bits = 1 - bits
    return BooleanFunction(n, bits, f.convention)


class TestOrbitInvariance:
    def test_orbit_and_mi_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            f = BooleanFunction(4, rng.integers(0, 2, 16))
            g = random_orbit_image(f, rng)
            for alpha in (0.15, 0.37):
                assert mutual_information_direct(g, alpha) == pytest.approx(
                    mutual_information_direct(f, alpha), abs=1e-12)


class TestBallProfile:
    def test_exact_mean(self):
        for n, k in ((100, 3), (500, 8)):
            prof = ball_profile_for_mean(n, 2.0 ** (-k))
            import math
            from mostinf.cube import _log_binom
            q = np.exp(_log_binom(n, np.arange(n + 1)) - n * math.log(2.0))
            assert float(q @ prof.levels) == pytest.approx(2.0 ** (-k),
                                                           rel=1e-12)

    def test_full_then_fractional_structure(self):
        prof = ball_profile_for_mean(200, 0.125)
        lv = prof.levels
        boundary = np.nonzero((lv > 0) & (lv < 1))[0]
        assert boundary.size <= 1
        if boundary.size:
            b = boundary[0]
            assert np.all(lv[:b] == 1.0)
            assert np.all(lv[b + 1:] == 0.0)


    def test_fractional_profile_is_a_lower_bound(self):
        # h is concave and the channel commutes with coordinate
        # permutations, so averaging the boundary level can only lose
        # information: the profile's MI is at most the Boolean ball's.
        for n in range(10, 16):
            for k in range(2, 6):
                ones = 1 << (n - k)
                profile = ball_profile_for_mean(n, ones / 2 ** n)
                assert symmetric_mi(profile, 0.1) <= \
                    mutual_information_direct(hamming_ball(n, ones), 0.1)


class TestLexFailure:
    def test_majority_does_not_beat_dictator(self):
        rec = lex_failure_scan(1, 101, 0.3)
        assert not rec.ball_wins

    def test_witness_at_large_k_small_rho(self):
        rec = lex_failure_scan(10, 1000, 0.49)
        assert rec.ball_wins
        assert rec.mi_ball > rec.mi_and

    def test_w1_limit_ratio_at_k10(self):
        mu = 2.0 ** (-10)
        ratio = gaussian_isoperimetric(mu) ** 2 / (mu ** 2 * 10)
        assert ratio == pytest.approx(1.1, abs=0.05)
        assert ratio > 1.0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            lex_failure_scan(25, 100, 0.3)
        with pytest.raises(ValueError):
            lex_failure_scan(5, 2500, 0.3)


class TestScanN5:
    def test_chunked_slice_and_resume(self, tmp_path):
        ckpt = tmp_path / "scan.json"
        first = exhaustive_verify(5, 0.3, checkpoint=str(ckpt),
                                  chunk_size=2048, max_chunks=2)
        assert first.functions_scanned == 2 * 2 * 2048
        assert not first.bound_satisfied  # unfinished scan never certifies
        resumed = exhaustive_verify(5, 0.3, checkpoint=str(ckpt),
                                    chunk_size=2048, max_chunks=1)
        assert resumed.functions_scanned == 2 * 3 * 2048
        fresh = exhaustive_verify(5, 0.3, chunk_size=2048 * 3, max_chunks=1)
        assert resumed.max_mi == pytest.approx(fresh.max_mi, abs=1e-15)

    def test_alpha_mismatch_rejected(self, tmp_path):
        ckpt = tmp_path / "scan.json"
        exhaustive_verify(5, 0.3, checkpoint=str(ckpt), chunk_size=1024,
                          max_chunks=1)
        with pytest.raises(ValueError):
            exhaustive_verify(5, 0.2, checkpoint=str(ckpt), chunk_size=1024,
                              max_chunks=1)

    def test_checkpoint_records_n_and_rejects_other_n(self, tmp_path):
        ckpt = tmp_path / "scan.json"
        exhaustive_verify(5, 0.3, checkpoint=str(ckpt), chunk_size=1024,
                          max_chunks=1)
        state = json.loads(ckpt.read_text())
        assert state["n"] == 5 and state["alpha"] == 0.3
        state["n"] = 4
        ckpt.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="n=4"):
            exhaustive_verify(5, 0.3, checkpoint=str(ckpt), chunk_size=1024,
                              max_chunks=1)

    def test_stale_temp_file_does_not_change_resume(self, tmp_path):
        ckpt = tmp_path / "scan.json"
        exhaustive_verify(5, 0.3, checkpoint=str(ckpt), chunk_size=2048,
                          max_chunks=2)
        stale = tmp_path / "scan.json.tmp"
        stale.write_text('{"n": 5, "alpha": 0.3, "next": 99')
        resumed = exhaustive_verify(5, 0.3, checkpoint=str(ckpt),
                                    chunk_size=2048, max_chunks=1)
        fresh = exhaustive_verify(5, 0.3, chunk_size=2048 * 3, max_chunks=1)
        assert resumed.functions_scanned == fresh.functions_scanned
        assert resumed.max_mi == fresh.max_mi
        assert resumed.argmax == fresh.argmax
        assert not stale.exists()

    def test_truncated_checkpoint_is_one_line_value_error(self, tmp_path):
        ckpt = tmp_path / "scan.json"
        exhaustive_verify(5, 0.3, checkpoint=str(ckpt), chunk_size=1024,
                          max_chunks=1)
        text = ckpt.read_text()
        ckpt.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError) as exc:
            exhaustive_verify(5, 0.3, checkpoint=str(ckpt), chunk_size=1024,
                              max_chunks=1)
        assert type(exc.value) is ValueError
        assert str(ckpt) in str(exc.value)
        assert "\n" not in str(exc.value)

    # n = 3 has 2^7 = 128 representatives and 2^8 = 256 tables.
    @pytest.mark.parametrize("key,value", [
        ("next", "x"), ("next", 2.5), ("next", None), ("next", True),
        ("next", -4), ("next", 500), ("next", 129), ("scanned", 3),
        ("scanned", 32.0), ("max_mi", "a"), ("max_mi", True),
        ("max_mi", None), ("max_mi", float("nan")), ("witnesses", 7),
        ("witnesses", [1, "x"]), ("witnesses", [256]), ("witnesses", [-1]),
        ("witnesses", [True]), ("witnesses", [1.0])])
    def test_bad_checkpoint_value_is_one_line_value_error(self, tmp_path,
                                                          key, value):
        ckpt = tmp_path / "scan.json"
        exhaustive_verify(3, 0.1, checkpoint=str(ckpt), chunk_size=16,
                          max_chunks=1)
        state = json.loads(ckpt.read_text())
        state[key] = value
        ckpt.write_text(json.dumps(state))
        with pytest.raises(ValueError) as exc:
            exhaustive_verify(3, 0.1, checkpoint=str(ckpt), chunk_size=16)
        assert type(exc.value) is ValueError
        assert str(ckpt) in str(exc.value)
        assert "\n" not in str(exc.value)

    def test_checkpoint_at_the_last_representative_is_accepted(self,
                                                               tmp_path):
        ckpt = tmp_path / "scan.json"
        full = exhaustive_verify(3, 0.1, checkpoint=str(ckpt), chunk_size=16)
        state = json.loads(ckpt.read_text())
        assert (state["next"], state["scanned"]) == (128, 256)
        assert exhaustive_verify(3, 0.1, checkpoint=str(ckpt),
                                 chunk_size=16) == full

    def test_resumes_a_checkpoint_with_even_witnesses_only(self, tmp_path):
        # Checkpoints written before complements were stored hold the
        # least even winners only; the report adds their complements.
        ckpt = tmp_path / "scan.json"
        first = exhaustive_verify(5, 0.3, checkpoint=str(ckpt),
                                  chunk_size=2048, max_chunks=2)
        state = json.loads(ckpt.read_text())
        state["witnesses"] = [t for t in state["witnesses"] if t % 2 == 0]
        ckpt.write_text(json.dumps(state))
        resumed = exhaustive_verify(5, 0.3, checkpoint=str(ckpt),
                                    chunk_size=2048, max_chunks=0)
        assert resumed == first
        resumed = exhaustive_verify(5, 0.3, checkpoint=str(ckpt),
                                    chunk_size=2048, max_chunks=1)
        fresh = exhaustive_verify(5, 0.3, chunk_size=2048 * 3, max_chunks=1)
        assert resumed == fresh

    def test_progress_goes_to_stderr(self, capsys, monkeypatch):
        exhaustive_verify(5, 0.3, chunk_size=1024, max_chunks=3)
        out, err = capsys.readouterr()
        assert out == ""
        # Well under the reporting interval: only the closing line.
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scan_n5: 3/2097152 chunks, ")
        assert "tables/s, ETA" in lines[0]
        monkeypatch.setattr(search, "PROGRESS_EVERY_S", 0.0)
        exhaustive_verify(5, 0.3, chunk_size=1024, max_chunks=3)
        assert len(capsys.readouterr().err.splitlines()) == 4

    def test_eta_follows_the_recent_rate(self, capsys, monkeypatch):
        # A slow first chunk, then fast ones: each line's rate and ETA come
        # from the chunks since the line before, not from the whole call.
        clock = [0.0]
        pruned = search._pruned_mi

        def timed(lo, *args):
            clock[0] += 8.0 if lo == 0 else 0.125
            return pruned(lo, *args)
        monkeypatch.setattr(search, "_pruned_mi", timed)
        monkeypatch.setattr(search, "time",
                            types.SimpleNamespace(monotonic=lambda: clock[0]))
        monkeypatch.setattr(search, "PROGRESS_EVERY_S", 0.0)
        exhaustive_verify(5, 0.3, chunk_size=1024, max_chunks=3)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 4
        assert " 256 tables/s, " in lines[0]
        # 2 (2^31 - 3072) tables left at 2048 tables per 0.125 s; the
        # closing line, after no further chunk, keeps that rate.
        for line in lines[2:]:
            assert " 1.638e+04 tables/s, ETA 262144 s, " in line, line

    def test_early_chunks_contain_lex_values(self):
        # The first representatives include the all-zeros and low-index
        # tables; their best value is a valid lower bound for the full max.
        part = exhaustive_verify(5, 0.25, chunk_size=4096, max_chunks=1)
        full_bound = 1 - binary_entropy(0.25)
        assert part.max_mi <= full_bound + 1e-12