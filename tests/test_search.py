"""Exhaustive scans, canonical forms, and the ball-versus-AND comparison."""

import json

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
    canonical_form,
    exhaustive_verify,
    fixed_mean_max,
    lex_failure_scan,
)


def fwht_batched_mi(tables, alpha):
    """Reference route: smooth every row by two Walsh-Hadamard transforms."""
    size = tables.shape[-1]
    coeffs = _hadamard_inplace(tables.astype(float)) / size
    coeffs *= (1.0 - 2.0 * alpha) ** _popcount(np.arange(size))
    smoothed = np.clip(_hadamard_inplace(coeffs), 0.0, 1.0)
    return (binary_entropy(tables.mean(axis=-1))
            - binary_entropy(smoothed).mean(axis=-1))


def all_tables(n):
    size = 1 << n
    return _bits_matrix(np.arange(1 << size, dtype=np.int64), size)


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


class TestFixedMeanMax:
    def test_empty_support(self):
        report = fixed_mean_max(3, 0, 0.2)
        assert report.max_mi == pytest.approx(0.0, abs=1e-12)

    def test_n2_balanced_maximizers_are_dictators(self):
        report = fixed_mean_max(2, 2, 0.3)
        assert report.functions_scanned == 6
        assert report.argmax_is_dictators
        assert report.lex_attains

    def test_n4_mean_quarter_subcube_is_maximal(self):
        # Scan-derived: the 24 codimension-2 subcube indicators are exactly
        # the maximizers at this mean, and lex(4, 4) is one of them.
        report = fixed_mean_max(4, 4, 0.3)
        assert report.lex_attains
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


class TestCanonicalForm:
    def test_dictators_share_form(self):
        base = canonical_form(dictator(3, 1).reread("zero_one"))
        for i in (2, 3):
            assert canonical_form(dictator(3, i).reread("zero_one")) == base

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = BooleanFunction(4, rng.integers(0, 2, 16))
            c = canonical_form(f)
            assert canonical_form(c) == c

    def test_complement_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = BooleanFunction(3, rng.integers(0, 2, 8))
            assert canonical_form(f.complement()) == canonical_form(f)

    def test_orbit_and_mi_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            f = BooleanFunction(4, rng.integers(0, 2, 16))
            g = random_orbit_image(f, rng)
            assert canonical_form(g) == canonical_form(f)
            for alpha in (0.15, 0.37):
                assert mutual_information_direct(g, alpha) == pytest.approx(
                    mutual_information_direct(f, alpha), abs=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            canonical_form(BooleanFunction(6, np.zeros(64, dtype=np.uint8)))


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

    def test_early_chunks_contain_lex_values(self):
        # The first representatives include the all-zeros and low-index
        # tables; their best value is a valid lower bound for the full max.
        part = exhaustive_verify(5, 0.25, chunk_size=4096, max_chunks=1)
        full_bound = 1 - binary_entropy(0.25)
        assert part.max_mi <= full_bound + 1e-12