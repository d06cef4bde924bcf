import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from fibwork.products import (
    NECESSITY_VIOLATION,
    SUFFICIENCY_VIOLATION,
    ProductSpec,
    gain_count,
    loss_count,
    pair_product_coeffs,
    product_unimodal_predicate,
    scaled_pair_unimodal,
    scan_products,
    triple_product_unimodal,
)
from fibwork.qpoly import is_symmetric, is_unimodal, mul, q_analog


def test_spec_polynomial_is_the_plain_product():
    spec = ProductSpec((3, 3), 2, 4)
    direct = mul(mul(q_analog(3), q_analog(3)), q_analog(2, r=4))
    assert spec.polynomial() == direct


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ProductSpec((0,), 2, 2)
    with pytest.raises(ValueError):
        ProductSpec((2,), 0, 2)
    with pytest.raises(ValueError):
        ProductSpec((2,), 2, 0)


def test_pair_product_closed_form_exhaustive():
    for a in range(1, 31):
        for b in range(1, 31):
            assert pair_product_coeffs(a, b) == mul(q_analog(a), q_analog(b))


@given(st.integers(1, 120), st.integers(1, 120))
@settings(max_examples=40)
def test_pair_product_closed_form_random(a, b):
    assert pair_product_coeffs(a, b) == mul(q_analog(a), q_analog(b))


def test_pair_product_rejects_zero():
    with pytest.raises(ValueError):
        pair_product_coeffs(0, 3)


def test_scaled_pair_criterion_small_box():
    for a in range(1, 16):
        for b in range(1, 9):
            for r in range(1, 5):
                product = ProductSpec((a,), b, r).polynomial()
                uni, _ = is_unimodal(product)
                assert scaled_pair_unimodal(a, b, r) == uni, (a, b, r)


def test_scaled_pair_known_failure():
    # [3]_q [3]_{q^2} = 1 + q + 2q^2 + q^3 + 2q^4 + q^5 + q^6 dips at q^3
    assert not scaled_pair_unimodal(3, 3, 2)
    p = ProductSpec((3,), 3, 2).polynomial()
    assert p.coeffs == (1, 1, 2, 1, 2, 1, 1)
    assert is_unimodal(p) == (False, 3)


def test_triple_criterion_small_box():
    for a in range(1, 13):
        for b in range(1, 13):
            for c in range(1, 13):
                product = ProductSpec((a, b), c, 2).polynomial()
                uni, _ = is_unimodal(product)
                assert triple_product_unimodal(a, b, c) == uni, (a, b, c)
                assert is_symmetric(product)


def test_gain_loss_match_coefficient_differences():
    for a in range(1, 12, 2):
        for b in range(a, 12):
            for c in range(1, 12):
                coeffs = ProductSpec((a, b), c, 2).polynomial()
                top = coeffs.degree
                for k in range(top):
                    diff = coeffs[k + 1] - coeffs[k]
                    assert diff == gain_count(k, a, c) - loss_count(k, a, b, c)


def test_gain_count_window():
    # a=3, c=2: shifts l in {0, 1}; gain iff ceil((k-1)/2) <= l <= (k+1)/2
    assert gain_count(0, 3, 2) == 1
    assert gain_count(1, 3, 2) == 2
    assert gain_count(5, 3, 2) == 0
    assert loss_count(0, 3, 5, 2) == 0


def test_predicate_examples():
    assert product_unimodal_predicate(ProductSpec((4,), 3, 2))  # r | a
    assert product_unimodal_predicate(ProductSpec((3, 3), 3, 2))  # b <= 1+1+1
    assert not product_unimodal_predicate(ProductSpec((3, 3, 3, 3), 2, 4))


def test_counterexample_is_unimodal_but_fails_predicate():
    spec = ProductSpec((3, 3, 3, 3), 2, 4)
    p = spec.polynomial()
    assert p.coeffs == (1, 4, 10, 16, 20, 20, 20, 20, 20, 16, 10, 4, 1)
    assert is_unimodal(p) == (True, None)
    assert not product_unimodal_predicate(spec)


@pytest.mark.parametrize(
    "base,coeffs",
    [
        (2, (1, 6, 15, 21, 21, 21, 21, 15, 6, 1)),
        (3, (1, 6, 15, 21, 21, 21, 22, 21, 21, 21, 15, 6, 1)),
    ],
)
def test_six_squares_times_a_cube_analog_is_unimodal_but_fails_predicate(base, coeffs):
    # [2]_q^6 [b]_{q^3}: necessity fails at r = 3 (k = 6), checked with plain mul
    p = q_analog(base, r=3)
    for _ in range(6):
        p = mul(p, q_analog(2))
    assert p.coeffs == coeffs
    assert is_unimodal(p) == (True, None)
    assert not product_unimodal_predicate(ProductSpec((2,) * 6, base, 3))


def test_scan_small_box_has_no_findings():
    report = scan_products(k_max=2, r_max=2, value_max=5)
    # k in {1,2}, r = 2: 5*5 + 15*5 = 100 specs
    assert report.checked == 100
    assert report.findings == []


def test_scan_finds_the_counterexample():
    report = scan_products(k_max=4, r_max=4, value_max=3)
    assert report.sufficiency_violations == []
    hits = [
        f
        for f in report.necessity_violations
        if f.spec == ProductSpec((3, 3, 3, 3), 2, 4)
    ]
    assert len(hits) == 1
    assert hits[0].unimodal and not hits[0].predicate


def reference_scan(k_max, r_max, value_max):
    """Spec by spec: the full product, is_unimodal and the public predicate."""
    checked, findings = 0, []
    for k in range(1, k_max + 1):
        for r in range(2, r_max + 1):
            for combo in itertools.combinations_with_replacement(
                range(1, value_max + 1), k
            ):
                for b in range(1, value_max + 1):
                    spec = ProductSpec(combo, b, r)
                    uni, _ = is_unimodal(spec.polynomial())
                    pred = product_unimodal_predicate(spec)
                    checked += 1
                    if uni != pred:
                        kind = SUFFICIENCY_VIOLATION if pred else NECESSITY_VIOLATION
                        findings.append((kind, combo, b, r, uni, pred))
    return checked, findings


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize(
    "box",
    [
        (4, 4, 4),
        (2, 5, 9),
        (5, 3, 3),
        (5, 5, 5),
        (4, 6, 7),
        (1, 9, 4),  # r > len P at most strides: no base reaches the shifted comparison
        (2, 8, 10),  # long runs of bases decided by the bound alone
        (6, 3, 3),  # holds [2]_q^6 [b]_{q^3} for b = 2 and 3
    ],
)
def test_scan_matches_per_spec_reference(box, jobs):
    checked, expected = reference_scan(*box)
    report = scan_products(*box, jobs=jobs)
    assert report.checked == checked
    got = [
        (f.kind, f.spec.plain_factors, f.spec.base, f.spec.stride, f.unimodal,
         f.predicate)
        for f in report.findings
    ]
    assert got == expected


def series_over_r_analog(p, r, length):
    """The power series P / [r]_q = P (1 - q) / (1 - q^r) to `length` terms."""
    d = [c - (p[i - 1] if i else 0) for i, c in enumerate(p)] + [-p[-1]]
    d += [0] * (length - len(d))
    f = []
    for i in range(length):
        f.append(d[i] + (f[i - r] if i >= r else 0))
    return f


def test_unimodal_exactly_when_the_quotient_by_r_analog_is_nonnegative_to_the_middle():
    # an observation of this code, not a theorem: P [b]_{q^r} is unimodal
    # iff F = P / [r]_q has no negative coefficient at degree <= len // 2;
    # only "unimodal => F >= 0 there" is proved, so the scan does not use it
    checked = dips = 0
    for k in range(1, 7):
        for combo in itertools.combinations_with_replacement(range(1, 7), k):
            p = ProductSpec(combo, 1, 2).polynomial().coeffs  # b = 1: P itself
            for r in range(2, 7):
                f = series_over_r_analog(p, r, len(p) + 5 * r)
                for b in range(1, 7):
                    product = ProductSpec(combo, b, r).polynomial()
                    uni, _ = is_unimodal(product)
                    middle = len(product.coeffs) // 2
                    assert uni == (min(f[: middle + 1]) >= 0), (combo, b, r)
                    checked += 1
                    dips += not uni
    assert (checked, dips) == (27_690, 5_943)


def test_extended_scan_is_pinned():
    # the findings file of `lab-scan --budget extended`; the digest was
    # taken from a scan that built every product and called is_unimodal
    report = scan_products(5, 6, 15)
    assert report.checked == 1_162_725
    assert len(report.sufficiency_violations) == 0
    assert len(report.necessity_violations) == 2_334
    text = "".join(f.to_json_line() + "\n" for f in report.findings)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "eba85356817e0181a9a3968577f6711244eafc58e0fcf746b26803eb01c14622"
    )


def test_scan_parallel_matches_sequential():
    seq = scan_products(k_max=3, r_max=3, value_max=4)
    par = scan_products(k_max=3, r_max=3, value_max=4, jobs=3)
    assert seq.checked == par.checked
    assert seq.findings == par.findings


def test_finding_json_line_schema():
    report = scan_products(k_max=4, r_max=4, value_max=3)
    line = report.necessity_violations[0].to_json_line()
    obj = json.loads(line)
    assert set(obj) == {"kind", "a", "b", "r", "unimodal", "predicate"}
    assert obj["kind"] in (SUFFICIENCY_VIOLATION, NECESSITY_VIOLATION)
    assert isinstance(obj["a"], list)
