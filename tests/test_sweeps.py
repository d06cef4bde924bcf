import hashlib
import importlib

import pytest

import fibwork.sweeps as sweeps
from fibwork.fibonomial import qfibonomial
from fibwork.qpoly import Polynomial
from fibwork.sweeps import (
    CSV_COLUMNS,
    FIBOCAT_CSV_COLUMNS,
    analyze_pair,
    conjecture_pairs,
    fibocatalan_sweep,
    oracle_check,
    poly_checksum,
    shape_record,
    verify_conjecture,
)
from fibwork.tilings import EnumerationCapExceeded


def test_conjecture_pairs_grid():
    pairs = conjecture_pairs(max_sum=5, square_max=3)
    base = {(m, s - m) for s in range(2, 6) for m in range(1, s)}
    assert set(pairs) == base | {(3, 3)}
    assert len(pairs) == len(set(pairs))


def test_analyze_pair_record_for_3_3():
    rec = analyze_pair((3, 3, None))
    assert (rec.m, rec.n) == (3, 3)
    assert rec.degree == 12
    assert rec.peak_coeff == "8"
    assert rec.symmetric and rec.unimodal
    assert rec.log_concave is False
    assert rec.timed_out is False
    assert rec.csv_row()[: len(CSV_COLUMNS) - 1] == [3, 3, 12, "8", True, True, False]


def test_log_concavity_census_up_to_sum_20():
    # recorded data, not a claim: on this range (3, n) with n >= 3 fails
    # exactly when n is not 2 mod 3, and (4, 4) is the only other failure
    not_log_concave = {
        (3, 3), (3, 4), (4, 4), (3, 6), (3, 7), (3, 9), (3, 10), (3, 12),
        (3, 13), (3, 15), (3, 16),
    }
    for m in range(1, 11):
        for n in range(m, 21 - m):
            rec = shape_record(m, n, qfibonomial(m, n), 0.0)
            assert rec.symmetric and rec.unimodal, (m, n)
            assert rec.log_concave == ((m, n) not in not_log_concave), (m, n)


def test_poly_checksum_distinguishes():
    a = poly_checksum(qfibonomial(3, 3))
    b = poly_checksum(qfibonomial(4, 2))
    assert a != b
    assert a == poly_checksum(qfibonomial(3, 3))
    assert len(a) == 64


def test_poly_checksum_spanning_chunks_matches_one_shot_hash():
    p = Polynomial(range(1, 150_001))  # three chunks, the last one partial
    one_shot = hashlib.sha256(",".join(map(str, p.coeffs)).encode()).hexdigest()
    assert poly_checksum(p) == one_shot


def test_verify_conjecture_small_grid_passes():
    report = verify_conjecture(max_sum=8, square_max=5)
    assert report.ok
    assert len(report.records) == len(conjecture_pairs(8, 5))
    assert all(r.symmetric and r.unimodal for r in report.records)


def test_verify_conjecture_parallel_matches_sequential():
    seq = verify_conjecture(max_sum=8, square_max=4, jobs=1)
    par = verify_conjecture(max_sum=8, square_max=4, jobs=3)

    def key(rows):
        return sorted((r.m, r.n, r.checksum, r.degree) for r in rows)

    assert key(seq.records) == key(par.records)


def _without(record, *names):
    d = dict(vars(record))
    for name in names:
        del d[name]
    return d


def test_verify_conjecture_builds_each_key_once(monkeypatch):
    calls = []

    def counted(args):
        calls.append(args[:2])
        return analyze_pair(args)

    monkeypatch.setattr(sweeps, "analyze_pair", counted)
    report = verify_conjecture(max_sum=8, square_max=5)
    pairs = conjecture_pairs(8, 5)
    keys = list(dict.fromkeys((max(m, n), min(m, n)) for m, n in pairs))
    assert calls == keys
    assert (len(calls), len(report.records)) == (len(keys), len(pairs)) == (17, 29)
    assert [(r.m, r.n) for r in report.records] == pairs


def test_verify_conjecture_mirrored_record_equals_its_twin():
    by_pair = {(r.m, r.n): r for r in verify_conjecture(max_sum=9, square_max=0).records}
    for (m, n), record in by_pair.items():
        twin = by_pair[n, m]
        # a mirrored record shares the wall time of its twin's build
        assert _without(record, "m", "n") == _without(twin, "m", "n")
        fresh = analyze_pair((m, n, None))
        assert _without(record, "wall_time_ms") == _without(fresh, "wall_time_ms")


def test_oracle_check_counts_and_passes():
    report = oracle_check(max_sum=6)
    assert report.ok
    assert report.pairs_checked == 28  # all (m, n) with m + n <= 6
    assert report.n2_rows_checked == 4  # m in 1..4


def test_oracle_check_passes_past_the_old_tiling_count_refusal():
    # (5,7) has 16,776,144 tilings, but the tiling sum visits none of them
    report = oracle_check(max_sum=12)
    assert report.ok
    assert report.pairs_checked == 91  # all (m, n) with m + n <= 12
    assert report.n2_rows_checked == 10  # m in 1..10


def test_oracle_check_refuses_before_any_pair(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a pair was computed before the refusal")

    monkeypatch.setattr(sweeps, "tiling_polynomial", no_work)
    monkeypatch.setattr(sweeps, "decompose", no_work)
    with pytest.raises(EnumerationCapExceeded) as exc:
        oracle_check(max_sum=19)
    # only the chain walk enumerates: the first two-row board over the cap
    assert (exc.value.m, exc.value.n) == (17, 2)
    assert exc.value.projected == 10_803_704
    assert str(exc.value) == (
        "enumerating (17,2) means 10803704 tilings, above the cap 10000000"
    )


def test_fibocatalan_sweep_builds_one_qfibonomial_per_key(monkeypatch):
    # the package re-exports a function named fibonomial over the module name
    fibonomial = importlib.import_module("fibwork.fibonomial")
    calls = []

    def counted(m, n):
        calls.append((m, n))
        return qfibonomial(m, n)

    monkeypatch.setattr(fibonomial, "qfibonomial", counted)
    monkeypatch.setattr(sweeps, "qfibonomial", counted)
    report = fibocatalan_sweep(max_sum=10)
    pairs = [(r.m, r.n) for r in report.rows]
    assert pairs == conjecture_pairs(10, 0)
    assert calls == list(dict.fromkeys((max(m, n), min(m, n)) for m, n in pairs))
    assert (len(calls), len(report.rows)) == (25, 45)
    by_pair = {(r.m, r.n): r for r in report.rows}
    for (m, n), row in by_pair.items():
        assert _without(row, "m", "n") == _without(by_pair[n, m], "m", "n")


def test_fibocatalan_sweep_shape():
    report = fibocatalan_sweep(max_sum=8)
    assert report.ok
    assert len(report.rows) == 28
    by_pair = {(r.m, r.n): r for r in report.rows}
    assert by_pair[(2, 2)].divisible is True
    assert by_pair[(2, 2)].telescoping_match is True
    assert by_pair[(3, 3)].divisible is False
    assert by_pair[(3, 3)].gcd == 3
    assert by_pair[(3, 3)].telescoping_match is None
    assert len(FIBOCAT_CSV_COLUMNS) == 8
