import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fibwork.cli as cli
import fibwork.sweeps as sweeps
from fibwork.cache import ENV_VAR, PolyCache, cache_key, resolve_cache_dir
from fibwork.fibonomial import qfibonomial
from fibwork.qpoly import Polynomial
from fibwork.sweeps import (
    CSV_COLUMNS,
    FIBOCAT_CSV_COLUMNS,
    SweepRecord,
    VerifyReport,
    analyze_pair,
    poly_checksum,
)
from fibwork.tilings import enumerate_tilings, weight_degree


@pytest.fixture(autouse=True)
def _no_ambient_cache_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def run(argv):
    return cli.main(argv)


# -- cache ----------------------------------------------------------------


def test_resolve_cache_dir_precedence(monkeypatch, tmp_path):
    assert resolve_cache_dir(None).name == ".fibwork-cache"
    assert resolve_cache_dir("there") == Path("there")
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "enved"))
    assert resolve_cache_dir("there") == tmp_path / "enved"


def test_cache_key_is_canonical():
    assert cache_key("op", {"a": 1, "b": 2}) == cache_key("op", {"b": 2, "a": 1})
    assert cache_key("op", {"a": 1}) != cache_key("op", {"a": 2})
    assert cache_key("x", {"a": 1}) != cache_key("y", {"a": 1})


def test_cache_round_trip_is_bit_identical(tmp_path):
    cache = PolyCache(tmp_path / "c")
    rng = random.Random(99)
    for i in range(50):
        coeffs = [str(rng.randrange(-(10**25), 10**25))
                  for _ in range(rng.randrange(1, 30))]
        params = {"i": i, "tag": "roundtrip"}
        path = cache.put("test-op", params, coeffs)
        stored = path.read_bytes()
        assert cache.get("test-op", params) == coeffs
        assert path.read_bytes() == stored  # reads never rewrite
        entry = json.loads(stored)
        assert all(isinstance(c, str) for c in entry["coeffs"])
    assert cache.get("test-op", {"i": -1, "tag": "roundtrip"}) is None


@pytest.mark.parametrize(
    "coeffs",
    [["01", "2"], ["+1", "2"], [" 1", "2"], ["1 ", "2"], ["1_0", "2"],
     ["\uff11", "2"], ["-0", "2"], ["", "2"], ["1,2"], ["1,", "2"], []],
    ids=["leading-zero", "plus", "space", "trailing-space", "underscore",
         "non-ascii-digit", "minus-zero", "empty-string", "comma-inside",
         "trailing-comma", "empty-list"],
)
def test_cache_get_refuses_strings_str_would_not_write(tmp_path, coeffs):
    cache = PolyCache(tmp_path / "c")
    params = {"tag": "respelled"}
    path = cache.put("test-op", params, ["1", "2"])
    assert cache.get("test-op", params) == ["1", "2"]
    assert cache.last_checksum == _digest("1,2")
    path.write_text(_edit_entry(
        path.read_text(), coeffs=coeffs, checksum=_digest(",".join(coeffs))
    ))
    assert cache.get("test-op", params) is None


def _spelled_by_str(data):
    try:
        return all(str(int(e)).encode() == e for e in data.split(b","))
    except ValueError:
        return False


def test_cache_spelling_check_agrees_with_str_on_every_short_list():
    from itertools import product

    from fibwork.cache import _spelled_as_str

    for length in range(9):
        for chars in product(b"01-,", repeat=length):
            data = bytes(chars)
            assert _spelled_as_str(data) is _spelled_by_str(data), data


def test_cache_spelling_check_keeps_no_state_per_element():
    import tracemalloc

    from fibwork.cache import _spelled_as_str

    data = b",".join([b"12345678901234567890", b"-7", b"0"] * 100_000)
    tracemalloc.start()
    try:
        assert _spelled_as_str(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the framed copy and translate's output buffer, 2.6 MB each; a pattern
    # repeated per element would keep about 240 B for each of 300,000
    assert peak < 3 * len(data)


def _syntax_newer_than_3_10(pattern):
    """Possessive quantifiers (*+, ++, ?+, }+) and atomic groups ((?>) outside
    character classes: regex syntax that Python 3.10's re rejects."""
    found = []
    i, in_class = 0, False
    while i < len(pattern):
        c = pattern[i]
        if c == "\\":
            i += 2
            continue
        if in_class:
            in_class = c != "]"
        elif c == "[":
            in_class = True
            # a "]" first in the class (after any "^") is a literal
            i += 2 if pattern[i + 1:i + 2] == "^" else 1
            if pattern[i:i + 1] == "]":
                i += 1
            continue
        elif pattern.startswith("(?>", i):
            found.append("(?>")
        elif c in "*+?}" and pattern[i + 1:i + 2] == "+":
            found.append(c + "+")
        i += 1
    return found


def _regex_literals_in_src():
    """(file, pattern) for every str or bytes literal passed as the pattern
    of an re.<function> call in the package source."""
    import ast

    src = Path(cli.__file__).resolve().parent
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                pattern = node.args[0].value
                if isinstance(pattern, bytes):
                    pattern = pattern.decode("latin-1")
                out.append((path.name, pattern))
    return out


def test_regex_literals_compile_on_python_3_10():
    # pyproject admits Python 3.10, whose re rejects possessive quantifiers
    # and atomic groups at import time
    literals = _regex_literals_in_src()
    assert "cache.py" in {f for f, _ in literals}
    assert [(f, p) for f, p in literals if _syntax_newer_than_3_10(p)] == []
    # the scan itself sees what 3.10 rejects, and only that
    assert _syntax_newer_than_3_10(r"(?:0|-?[1-9][0-9]*+)(?:,[0-9]++)*+") == [
        "*+", "++", "*+"
    ]
    assert _syntax_newer_than_3_10(r"a?+(?>b)c{2}+") == ["?+", "(?>", "}+"]
    assert _syntax_newer_than_3_10(r"[*+][]+][^]?+]\++(?:a)+") == []


def test_cli_fibonomial_uses_and_fills_cache(tmp_path, capsys):
    out = tmp_path / "out.json"
    cdir = tmp_path / "cache"
    rc = run(["fibonomial", "2", "2", "--cache-dir", str(cdir), "--out", str(out)])
    assert rc == 0
    first = json.loads(out.read_text())
    assert first["coeffs"] == ["1", "2", "2", "1"]
    assert first["cached"] is False
    assert first["record"]["m"] == 2 and first["record"]["symmetric"] is True
    assert len(list(cdir.glob("*.json"))) == 1
    rc = run(["fibonomial", "2", "2", "--cache-dir", str(cdir), "--out", str(out)])
    assert rc == 0
    second = json.loads(out.read_text())
    assert second["cached"] is True
    assert second["coeffs"] == first["coeffs"]
    assert second["record"]["checksum"] == first["record"]["checksum"]


def _digest(joined):
    return hashlib.sha256(joined.encode()).hexdigest()


def _edit_entry(text, **changes):
    entry = json.loads(text)
    entry.update(changes)
    return json.dumps({k: v for k, v in entry.items() if v is not None})


def _respell(text, constant_term):
    coeffs = json.loads(text)["coeffs"]
    coeffs[0] = constant_term
    return _edit_entry(text, coeffs=coeffs, checksum=_digest(",".join(coeffs)))


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: len(text) // 2],  # truncated write
        lambda text: '{"coeffs":["1","2"]}',  # tampered: no version/op/params
        lambda text: _edit_entry(text, coeffs=["1", "2"]),  # header intact
        lambda text: _edit_entry(text, checksum=None),  # checksum dropped
        lambda text: _edit_entry(  # checksum matches, degree does not
            text, coeffs=["1", "2", "0"], checksum=_digest("1,2,0")
        ),
        lambda text: _edit_entry(text, coeffs=[], checksum=_digest("")),  # zero
        # checksum and length match (qfibonomial(3,3) has 13 coefficients)
        lambda text: _edit_entry(
            text, coeffs=["1"] * 12 + ["x"], checksum=_digest("1," * 12 + "x")
        ),
        lambda text: _edit_entry(
            text, coeffs="1" * 13, checksum=_digest(",".join("1" * 13))
        ),
        # 13 strings that decode to the zero polynomial
        lambda text: _edit_entry(
            text, coeffs=["0"] * 13, checksum=_digest(",".join(["0"] * 13))
        ),
        # 13 strings, but the trailing zero leaves degree 11
        lambda text: _edit_entry(
            text, coeffs=["1"] * 12 + ["0"], checksum=_digest("1," * 12 + "0")
        ),
        # the right polynomial, its constant term spelled "01"
        lambda text: _respell(text, "01"),
        # one shape field altered under the stored shape checksum
        lambda text: _edit_entry(
            text, shape={**json.loads(text)["shape"], "log_concave": True}
        ),
    ],
    ids=["truncated", "tampered", "altered-coeffs", "no-checksum",
         "wrong-degree", "zero", "not-integers", "not-a-list",
         "zero-padded", "trailing-zero", "respelled", "altered-shape"],
)
def test_cli_bad_cache_entry_is_a_miss_and_rewritten(tmp_path, damage):
    out = tmp_path / "out.json"
    cdir = tmp_path / "cache"
    argv = ["fibonomial", "3", "3", "--cache-dir", str(cdir), "--out", str(out)]
    assert run(argv) == 0
    uncached = json.loads(out.read_text())
    (entry,) = cdir.glob("*.json")
    stored = json.loads(entry.read_text())
    assert stored["checksum"] == uncached["record"]["checksum"]
    entry.write_text(damage(entry.read_text()))
    assert run(argv) == 0
    repaired = json.loads(out.read_text())
    assert repaired["coeffs"] == uncached["coeffs"]
    assert repaired["cached"] is False
    del repaired["record"]["wall_time_ms"], uncached["record"]["wall_time_ms"]
    assert repaired["record"] == uncached["record"]
    rewritten = json.loads(entry.read_text())
    del rewritten["created"], stored["created"]
    assert rewritten == stored
    assert run(argv) == 0
    assert json.loads(out.read_text())["cached"] is True


@pytest.mark.parametrize(
    "coeffs,shape",
    [
        # 13 strings, the last "0": the polynomial has degree 11
        (lambda c: c[:-1] + ["0"], lambda s: s),
        (lambda c: c[:-1], lambda s: s),  # 12 strings
        (lambda c: c, lambda s: {**s, "degree": 11}),
        (lambda c: c, lambda s: {k: v for k, v in s.items() if k != "unimodal"}),
        (lambda c: c, lambda s: {**s, "extra": 1}),
        (lambda c: c, lambda s: list(s)),
        (lambda c: c, lambda s: None),
    ],
    ids=["trailing-zero", "short", "shape-degree", "shape-missing-field",
         "shape-extra-field", "shape-not-a-dict", "no-shape"],
)
def test_cli_sealed_entry_of_another_polynomial_is_a_miss(tmp_path, coeffs, shape):
    # entries written through PolyCache.put, so every digest matches
    out = tmp_path / "out.json"
    cdir = tmp_path / "cache"
    argv = ["fibonomial", "3", "3", "--cache-dir", str(cdir), "--out", str(out)]
    assert run(argv) == 0
    uncached = json.loads(out.read_text())
    (entry,) = cdir.glob("*.json")
    stored = json.loads(entry.read_text())
    PolyCache(cdir).put(
        "qfibonomial", {"m": 3, "n": 3}, coeffs(stored["coeffs"]),
        shape(stored["shape"]),
    )
    assert run(argv) == 0
    repaired = json.loads(out.read_text())
    del repaired["record"]["wall_time_ms"], uncached["record"]["wall_time_ms"]
    assert repaired == uncached  # a miss, rebuilt
    assert run(argv) == 0
    assert json.loads(out.read_text())["cached"] is True


def test_cli_cache_env_overrides_flag(tmp_path, monkeypatch):
    envdir = tmp_path / "from-env"
    monkeypatch.setenv(ENV_VAR, str(envdir))
    rc = run(
        ["fibonomial", "3", "2", "--cache-dir", str(tmp_path / "ignored"),
         "--out", str(tmp_path / "o.json")]
    )
    assert rc == 0
    assert envdir.exists() and list(envdir.glob("*.json"))
    assert not (tmp_path / "ignored").exists()


# -- fibonomial output formats ---------------------------------------------


def test_cli_fibonomial_csv(tmp_path):
    out = tmp_path / "row.csv"
    rc = run(
        ["fibonomial", "3", "3", "--format", "csv",
         "--cache-dir", str(tmp_path / "c"), "--out", str(out)]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1][:4] == ["3", "3", "12", "8"]
    assert rows[1][4:7] == ["True", "True", "False"]


def test_cli_fibonomial_stdout(capsys, tmp_path):
    rc = run(["fibonomial", "1", "1", "--cache-dir", str(tmp_path / "c")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coeffs"] == ["1"]


def test_cli_fibonomial_record_matches_analyze_pair(tmp_path):
    out = tmp_path / "q54.json"
    rc = run(["fibonomial", "5", "4", "--cache-dir", str(tmp_path / "c"),
              "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())["record"]
    expected = analyze_pair((5, 4, None)).to_dict()
    del record["wall_time_ms"], expected["wall_time_ms"]
    assert record == expected


def _without_wall_time(text, fmt):
    if fmt == "json":
        return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)
    rows = list(csv.reader(io.StringIO(text)))
    ms = list(CSV_COLUMNS).index("ms")
    return [row[:ms] + row[ms + 1:] for row in rows]


@pytest.mark.parametrize("m,n", [(1, 1), (3, 3), (9, 7), (10, 10)])
def test_cli_fibonomial_hit_reports_as_the_miss_did(m, n, tmp_path):
    # the hit reports the entry's strings and checksum without reformatting;
    # (10,10) peaks at 93,930,799,532,119,220, above 2^53
    poly = qfibonomial(m, n)
    out = tmp_path / "report"
    for fmt in ("json", "csv"):
        argv = ["fibonomial", str(m), str(n), "--format", fmt,
                "--cache-dir", str(tmp_path / fmt), "--out", str(out)]
        reports = []
        for _ in range(2):
            assert run(argv) == 0
            reports.append(_without_wall_time(out.read_text(), fmt))
        miss, hit = reports
        if fmt == "csv":
            assert hit == miss
            continue
        miss, hit = json.loads(miss), json.loads(hit)
        assert (miss.pop("cached"), hit.pop("cached")) == (False, True)
        assert hit == miss
        assert hit["coeffs"] == [str(c) for c in poly.coeffs]
        assert hit["record"]["checksum"] == poly_checksum(poly)
        assert hit["record"]["peak_coeff"] == str(max(poly.coeffs))


@pytest.mark.parametrize("m,n", [(3, 3), (10, 10)])
def test_cli_fibonomial_hit_reports_the_stored_shape_without_arithmetic(
    m, n, tmp_path, monkeypatch
):
    out = tmp_path / "report.json"
    argv = ["fibonomial", str(m), str(n), "--cache-dir", str(tmp_path / "c"),
            "--out", str(out)]
    assert run(argv) == 0
    miss = json.loads(out.read_text())

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit built or checked a polynomial")

    # a hit builds no Polynomial (so runs no int() on a coefficient) and
    # calls no shape predicate
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    for name in ("is_symmetric", "is_unimodal", "is_log_concave"):
        monkeypatch.setattr(sweeps, name, refuse)
    assert run(argv) == 0
    hit = json.loads(out.read_text())
    assert (miss["cached"], hit["cached"]) == (False, True)
    del miss["record"]["wall_time_ms"], hit["record"]["wall_time_ms"]
    assert hit["record"] == miss["record"]
    assert hit["coeffs"] == miss["coeffs"]


@pytest.mark.parametrize("m,n", [(-1, 2), (2, -1), (2, -5)])
def test_cli_fibonomial_negative_side_is_refused_before_the_cache(
    m, n, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # the default cache directory would land here
    argv = ["fibonomial", str(m), str(n)]
    for tail in ([], ["--cache-dir", str(tmp_path / "c")]):
        assert run(argv + tail) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: qfibonomial needs m, n >= 0, got ({m}, {n})\n"
    assert list(tmp_path.iterdir()) == []


# (30000, 1) has F_30001 coefficients, a number of over 4300 digits
@pytest.mark.parametrize("m,n", [(20, 20), (30000, 1)])
def test_cli_fibonomial_over_the_cap_is_refused_before_the_cache(
    m, n, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # the default cache directory would land here
    assert run(["fibonomial", str(m), str(n)]) == 2
    assert capsys.readouterr().err == (
        f"refused: qfibonomial({m}, {n}) has more than 50000000 coefficients\n"
    )
    assert list(tmp_path.iterdir()) == []


# the first pair over the cap, by increasing sum and then the squares
@pytest.mark.parametrize(
    "argv,pair",
    [(["verify-conjecture", "--max-sum", "40"], "(4, 33)"),
     (["verify-conjecture", "--max-sum", "10", "--square-max", "19"], "(19, 19)"),
     (["fibocatalan-sweep", "--max-sum", "40"], "(4, 33)")],
)
def test_cli_sweep_over_the_cap_is_refused_before_any_pair(
    argv, pair, tmp_path, monkeypatch, capsys
):
    def no_work(m, n):
        raise AssertionError("qfibonomial called before the refusal")

    monkeypatch.setattr(sweeps, "qfibonomial", no_work)
    out = tmp_path / "report"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"refused: qfibonomial{pair} has more than 50000000 coefficients\n"
    assert not out.exists()


# -- sweeps through the CLI --------------------------------------------------


def test_cli_verify_conjecture_small(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = run(
        ["verify-conjecture", "--max-sum", "8", "--square-max", "4",
         "--out", str(out)]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "0 failures" in err
    payload = json.loads(out.read_text())
    assert payload["failures"] == 0
    assert all(r["symmetric"] and r["unimodal"] for r in payload["records"])


def test_cli_verify_conjecture_csv_header(tmp_path):
    out = tmp_path / "verify.csv"
    rc = run(
        ["verify-conjecture", "--max-sum", "6", "--square-max", "3",
         "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) > 1


def test_cli_verify_conjecture_reports_finding(monkeypatch, capsys, tmp_path):
    bad = SweepRecord(
        m=9, n=9, degree=1, peak_coeff="1", symmetric=False, unimodal=True,
        log_concave=False, wall_time_ms=0, checksum="x",
    )
    monkeypatch.setattr(
        cli, "verify_conjecture",
        lambda **kw: VerifyReport(records=[bad], failures=[bad]),
    )
    rc = run(["verify-conjecture", "--out", str(tmp_path / "v.json")])
    assert rc == 1
    assert "FINDING: (9,9)" in capsys.readouterr().err


def test_cli_oracle_check(capsys):
    rc = run(["oracle-check", "--max-sum", "5"])
    assert rc == 0
    assert "0 mismatches" in capsys.readouterr().err


def test_cli_oracle_check_runs_boards_over_the_enumeration_cap(capsys):
    rc = run(["oracle-check", "--max-sum", "12"])
    assert rc == 0
    assert capsys.readouterr().err == (
        "oracle-check: 91 pairs and 10 two-row decompositions checked, 0 mismatches\n"
    )


def test_cli_oracle_check_refuses_a_chain_walk_over_the_cap(capsys):
    assert run(["oracle-check", "--max-sum", "19"]) == 2
    assert capsys.readouterr().err == (
        "refused: enumerating (17,2) means 10803704 tilings, above the cap 10000000\n"
    )


def test_cli_fibocatalan_sweep_csv(tmp_path, capsys):
    out = tmp_path / "cat.csv"
    rc = run(["fibocatalan-sweep", "--max-sum", "8", "--format", "csv",
              "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == list(FIBOCAT_CSV_COLUMNS)
    assert "0 violations" in capsys.readouterr().err


def test_cli_lab_scan_jsonl(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    rc = run(
        ["lab-scan", "--k-max", "4", "--r-max", "4", "--value-max", "3",
         "--out", str(out)]
    )
    assert rc == 0  # necessity findings are not failures
    lines = out.read_text().splitlines()
    objs = [json.loads(line) for line in lines]
    assert all(set(o) == {"kind", "a", "b", "r", "unimodal", "predicate"} for o in objs)
    assert any(
        o["a"] == [3, 3, 3, 3] and o["b"] == 2 and o["r"] == 4 for o in objs
    )
    assert "0 sufficiency violations" in capsys.readouterr().err


# -- render ------------------------------------------------------------------


def test_cli_render_first_tiling(tmp_path):
    out = tmp_path / "t.svg"
    rc = run(["render", "4", "4", "--out", str(out)])
    assert rc == 0
    doc = out.read_text()
    assert doc.startswith("<svg") and "q^0" in doc


def test_cli_render_by_index_hits_reference_tiling(tmp_path):
    target = None
    for i, t in enumerate(enumerate_tilings(4, 4)):
        if (
            t.profile.heights == (0, 0, 3, 4)
            and t.above_rows == ((2,), (), (), ())
            and t.below_columns == ((), (), (), (2,))
        ):
            target = i
            assert weight_degree(t) == 25
            break
    assert target is not None
    out = tmp_path / "ref.svg"
    rc = run(["render", "4", "4", "--select", str(target), "--out", str(out)])
    assert rc == 0
    assert "q^25" in out.read_text()


def test_cli_render_chain_gallery(tmp_path):
    out = tmp_path / "chains.svg"
    rc = run(["render", "3", "2", "--select", "chains", "--out", str(out)])
    assert rc == 0
    assert "sig=" in out.read_text()


def test_cli_render_usage_errors(capsys, tmp_path):
    assert run(["render", "3", "3", "--select", "chains"]) == 2
    assert run(["render", "2", "2", "--select", "nope"]) == 2
    assert run(["render", "2", "2", "--select", "999"]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err


def test_cli_render_refuses_huge_board(capsys):
    assert run(["render", "10", "10"]) == 2
    assert "refused" in capsys.readouterr().err


# -- chains ------------------------------------------------------------------


def test_cli_chains_table(capsys, tmp_path):
    gallery = tmp_path / "g.svg"
    rc = run(["chains", "3", "--out", str(gallery)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chains: m=3, 3 blocks, 15 tilings" in out
    assert out.count("degrees [") == 3
    assert gallery.read_text().startswith("<svg")


def test_cli_chain_outputs_are_pinned(capsys, tmp_path):
    # full bytes of `chains 6` and of the m = 5 gallery: how the chains are
    # built must not change what the CLI writes
    assert run(["chains", "6"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "8ac4a0b10fc449737229b7572acf80ab229969f3e0dbb16131355d5f249c9188"
    )
    svg = tmp_path / "chains.svg"
    assert run(["render", "5", "2", "--select", "chains", "--out", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "fe56afd8fdc00a9a0157c1636e6059801dca5ed56b7900cc5424cb38adaafb98"
    )


# -- plumbing ----------------------------------------------------------------


def test_cli_io_error_exit_code(tmp_path, capsys):
    rc = run(
        ["fibonomial", "2", "2", "--cache-dir", str(tmp_path / "c"),
         "--out", "/nonexistent-dir/q/x.json"]
    )
    assert rc == 3
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,summary",
    [
        # a flag left out takes its preset's value
        (["verify-conjecture"], "92 pairs (m+n <= 14, squares <= 8)"),
        (["verify-conjecture", "--max-sum", "4"], "(m+n <= 4, squares <= 8)"),
        (["fibocatalan-sweep"], "66 pairs (m+n <= 12)"),
        (["lab-scan"], "(k <= 3, r <= 3, values <= 8)"),
        (["oracle-check", "--budget", "extended"], "oracle-check: 66 pairs"),
        # an explicit flag beats the preset
        (["verify-conjecture", "--budget", "extended", "--max-sum", "4",
          "--square-max", "3"], "(m+n <= 4, squares <= 3)"),
        (["fibocatalan-sweep", "--budget", "extended", "--max-sum", "5"],
         "10 pairs (m+n <= 5)"),
        (["lab-scan", "--budget", "extended", "--k-max", "1", "--r-max", "2",
          "--value-max", "3"], "(k <= 1, r <= 2, values <= 3)"),
        (["oracle-check", "--budget", "extended", "--max-sum", "3"],
         "oracle-check: 10 pairs"),
    ],
)
def test_cli_budget_preset_fills_only_omitted_flags(argv, summary, tmp_path, capsys):
    out = [] if argv[0] == "oracle-check" else ["--out", str(tmp_path / "out")]
    assert run(argv + out) == 0
    assert summary in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fibonomial", "-1", "3"],
        ["fibonomial", "3", "-2"],
        ["chains", "0"],
        ["render", "-1", "2"],
        ["verify-conjecture", "--jobs", "0"],
        ["verify-conjecture", "--jobs", "-3"],
    ],
)
def test_cli_bad_numbers_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default cache directory lands here
    try:
        rc = run(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        rc = exc.code
    assert rc == 2


@pytest.mark.parametrize(
    "command,flag,least",
    [
        ("verify-conjecture", "--max-sum", 2),
        ("verify-conjecture", "--square-max", 0),
        ("fibocatalan-sweep", "--max-sum", 2),
        ("oracle-check", "--max-sum", 0),
        ("lab-scan", "--k-max", 1),
        ("lab-scan", "--r-max", 2),
        ("lab-scan", "--value-max", 1),
        ("lab-scan", "--jobs", 1),
    ],
)
def test_cli_range_bound_below_least_value_exits_2(
    command, flag, least, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([command, flag, str(least - 1)])
    assert exc.value.code == 2
    assert f"must be at least {least}" in capsys.readouterr().err
    assert run([command, flag, str(least)]) == 0


def parser_outcome(parser, argv, capsys):
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


ONE_COMMAND_ARGVS = {
    "fibonomial": ["3", "4", "--format", "csv", "--out", "-"],
    "verify-conjecture": ["--max-sum", "9", "--jobs", "2"],
    "oracle-check": ["--budget", "extended"],
    "render": ["2", "3", "--select", "chains"],
    "fibocatalan-sweep": ["--max-sum", "5"],
    "lab-scan": ["--k-max", "2", "--value-max", "4"],
    "chains": ["5"],
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_cli_parser_for_one_command_reads_as_the_full_parser(command, capsys):
    # main builds only the sub-parser its first argument names
    full, one = cli.build_parser(), cli.build_parser(command)
    assert one.format_usage() == full.format_usage()
    assert "{" + ",".join(cli.COMMANDS) + "}" in full.format_usage()
    for tail in (ONE_COMMAND_ARGVS[command], ["-h"], ["--no-such-flag"], []):
        argv = [command, *tail]
        assert parser_outcome(one, argv, capsys) == parser_outcome(full, argv, capsys)


def _run_alone(argv, cwd):
    """Exit code, stdout and stderr of one CLI call in a process of its own."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "fibwork.cli", *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    return out.returncode, out.stdout, out.stderr


def _run_here(argv, capsys):
    try:
        rc = run(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_reused_parser_carries_no_state_between_calls(
    tmp_path, monkeypatch, capsys
):
    for command in (*cli.COMMANDS, None, "no-such-command"):
        assert cli.build_parser(command) is cli.build_parser(command)
    assert cli.build_parser("no-such-command") is cli.build_parser()
    sequences = [
        # a flag set by one call must not stay set for the next
        (["fibonomial", "3", "3", "--format", "csv", "--out", "-"],
         ["fibonomial", "3", "3", "--out", "-"]),
        # each call fills its unset flags from its own preset
        (["oracle-check", "--budget", "extended"], ["oracle-check"]),
        (["fibonomial", "3", "3", "--no-such-flag"],
         ["fibonomial", "3", "3", "--no-such-flag"]),
    ]
    outcomes = []
    for i, sequence in enumerate(sequences):
        for j, argv in enumerate(sequence):
            # each call gets its own default cache directory, so each misses
            here, alone = tmp_path / f"here-{i}-{j}", tmp_path / f"alone-{i}-{j}"
            here.mkdir(), alone.mkdir()
            monkeypatch.chdir(here)
            got = _run_here(argv, capsys)
            want = _run_alone(argv, alone)
            fmt = "csv" if "csv" in argv else "json"
            assert (got[0], _without_wall_time(got[1], fmt), got[2]) == (
                want[0], _without_wall_time(want[1], fmt), want[2]
            ), argv
            outcomes.append(got)
    (csv_rc, csv_out, _), (json_rc, json_out, _) = outcomes[0:2]
    assert csv_rc == json_rc == 0
    assert csv_out.startswith("m,n,")
    assert json.loads(json_out)["record"]["degree"] == 12
    assert "oracle-check: 66 pairs" in outcomes[2][2]
    assert "oracle-check: 45 pairs" in outcomes[3][2]
    (rc1, _, err1), (rc2, _, err2) = outcomes[4:6]
    assert rc1 == rc2 == 2
    assert err1 == err2 and "unrecognized arguments: --no-such-flag" in err1


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --jobs > 1 needs concurrent.futures.process and multiprocessing;
    # a one-shot request would otherwise spend tens of ms importing them
    code = (
        "import sys, fibwork.cli\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "fibwork" in capsys.readouterr().out


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
