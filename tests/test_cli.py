import json
import os
import shutil
import stat
import subprocess
import sys
import time
import tracemalloc
import zlib

import pytest

from refined_chord import (
    DegreeError,
    RefinedPolynomial,
    canonical_key,
    cp2_degree,
    make_degree,
    refined_invariant,
)
from refined_chord.cli import (
    CACHE_ENV,
    CacheFormatError,
    CacheVersionError,
    PARSE_DIGIT_GUARD,
    PARSE_END_GUARD,
    ParseError,
    load_cache,
    main,
    parse_degree,
    parse_vector,
    render_partition,
    save_cache,
)


def test_parse_p2_macro():
    assert parse_degree("P2:3") == cp2_degree(3, [1, 1, 1])
    assert parse_degree("P2:2:2") == cp2_degree(2, [2])
    assert parse_degree("P2:4:2,1,1") == cp2_degree(4, [2, 1, 1])


def test_parse_p1xp1_macro():
    assert parse_degree("P1xP1:1,2") == make_degree(
        [(-1, 0)] * 2 + [(1, 0)] * 2 + [(0, -1), (0, 1)]
    )
    assert parse_degree("P1xP1:2,1") == make_degree(
        [(-1, 0), (1, 0)] + [(0, -1)] * 2 + [(0, 1)] * 2
    )


def test_parse_vector_list():
    assert parse_degree("(-1,0)^2,(0,-2),(1,1)^2") == cp2_degree(2, [2])
    assert parse_degree("(-1, 0), (0, -1), (1, 1)") == cp2_degree(1, [1])


def test_parse_unicode_minus():
    assert parse_degree("(−1,0),(0,−1),(1,1)") == cp2_degree(1, [1])


def test_parse_validation_errors_propagate():
    with pytest.raises(DegreeError, match=r"vectors sum to \(1,0\), not \(0,0\)"):
        parse_degree("(1,0)")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_degree("(-1,0),(oops)")
    assert err.value.pos == 7
    with pytest.raises(ParseError):
        parse_degree("(-1,0)^0,(1,0)")
    with pytest.raises(ParseError):
        parse_degree("")
    with pytest.raises(ParseError):
        parse_degree("P2:x")
    with pytest.raises(ParseError):
        parse_degree("P1xP1:3")
    # macro errors point at the offending token
    with pytest.raises(ParseError) as err:
        parse_degree("P2:3:1,x")
    assert err.value.pos == 7
    assert "(at position 7)" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_degree("P1xP1:2,x")
    assert err.value.pos == 8
    with pytest.raises(ParseError) as err:
        parse_degree("P2:x")
    assert err.value.pos == 3
    with pytest.raises(ParseError) as err:
        parse_degree("P1xP1:12,0")
    assert err.value.pos == 9


@pytest.mark.parametrize(
    "spec,message,pos",
    [
        # the macro fields take the vector grammar's integers, -?\d+, only
        ("P2:1_0", "expected an integer degree, got '1_0'", 3),
        ("P2: 3", "expected an integer degree, got ' 3'", 3),
        ("P2:+3", "expected an integer degree, got '+3'", 3),
        ("P2:3:1_0", "expected an integer partition part, got '1_0'", 5),
        ("P2:3:2, 1", "expected an integer partition part, got ' 1'", 7),
        ("P2:3:+2,1", "expected an integer partition part, got '+2'", 5),
        ("P1xP1:1_0,2", "expected an integer count, got '1_0'", 6),
        ("P1xP1: 2,3", "expected an integer count, got ' 2'", 6),
        ("P1xP1:2,+3", "expected an integer count, got '+3'", 8),
        ("P1xP1:12,0", "P1xP1 counts must be positive, got 12,0", 9),
        ("P1xP1:-1,2", "P1xP1 counts must be positive, got -1,2", 6),
        # a field too many points at the macro itself
        ("P2:1:1:1", "malformed P2 macro, expected P2:d or P2:d:l1,l2,...", 0),
    ],
)
def test_macro_field_grammar(spec, message, pos):
    with pytest.raises(ParseError) as err:
        parse_degree(spec)
    assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)


@pytest.mark.parametrize(
    "spec,pos",
    [
        ("(1,0)^1000000,(-1000000,0)", 0),
        ("(1,0)^5000,(-1,0)^5000,(0,1),(0,-1)", 23),
        ("P2:10000000", 3),
        ("P2:3334", 3),
        ("P2:10000000:10000000", 3),
        ("P1xP1:10000000,1", 6),
        ("P1xP1:2500,2501", 6),
    ],
)
def test_end_bound_refuses_before_building(spec, pos):
    # counted from exponents and macro sizes, before a list is expanded
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_degree(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (str(err.value), err.value.pos) == (
        f"more than {PARSE_END_GUARD} ends (at position {pos})",
        pos,
    )
    assert peak < 200_000


def test_end_bound_admits_its_own_size():
    assert parse_degree("(1,0)^5000,(-1,0)^5000").m == PARSE_END_GUARD
    assert parse_degree("P1xP1:2500,2500").m == PARSE_END_GUARD
    assert parse_degree("P2:3333").m == 9999


def test_compute_refuses_too_many_ends(capsys):
    assert main(["compute", "P2:10000000"]) == 2
    assert f"more than {PARSE_END_GUARD} ends" in capsys.readouterr().err


_LONG = "1" * (PARSE_DIGIT_GUARD + 1)


@pytest.mark.parametrize(
    "spec,pos",
    [
        ("P2:" + _LONG, 3),
        ("P2:3:" + _LONG, 5),
        ("P1xP1:2," + _LONG, 8),
        ("P1xP1:" + _LONG + ",2", 6),
        (f"({_LONG},0),(-1,0)", 1),
        (f"(1, -{_LONG}),(-1,0)", 4),
        (f"(1,0)^{_LONG},(-1,0)", 5),
    ],
    ids=["degree", "part", "count-b", "count-a", "x", "y", "exponent"],
)
def test_digit_bound_refuses_long_fields(spec, pos):
    # refused before int(), whose own limit would raise a plain ValueError
    with pytest.raises(ParseError) as err:
        parse_degree(spec)
    assert (str(err.value), err.value.pos) == (
        f"more than {PARSE_DIGIT_GUARD} digits (at position {pos})",
        pos,
    )


def test_digit_bound_admits_its_own_size(capsys):
    big = "1" + "0" * (PARSE_DIGIT_GUARD - 1)
    assert parse_degree(f"({big},1),(-{big},-1)").vectors[1] == (int(big), 1)
    assert parse_degree(f"(1,0)^0{'0' * (PARSE_DIGIT_GUARD - 2)}1,(-1,0)").m == 2
    assert parse_vector(f"(-{big},0)") == (-int(big), 0)
    with pytest.raises(ParseError, match=f"more than {PARSE_DIGIT_GUARD} digits"):
        parse_vector(f"(0,{big}0)")
    assert main(["compute", "P2:" + _LONG]) == 2
    assert f"more than {PARSE_DIGIT_GUARD} digits (at position 3)" in (
        capsys.readouterr().err
    )


_EXPONENT_ERROR = "exponent must be a positive integer"
_COMMA_ERROR = "expected ',' between vectors"
_VECTOR_ERROR = "expected a vector '(x,y)'"


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("(1,0)^", (_EXPONENT_ERROR, 5)),
        ("(1,0)^0,(-1,0)", (_EXPONENT_ERROR, 5)),
        ("(1,0)^ 2,(-2,0)", (_EXPONENT_ERROR, 5)),
        ("(1,0)^x", (_EXPONENT_ERROR, 5)),
        ("(1,0) ^2,(-2,0)", (_COMMA_ERROR, 6)),
        ("(1,0)(-1,0)", (_COMMA_ERROR, 5)),
        ("(1,0)^2x", (_COMMA_ERROR, 7)),
        ("(1,0),,(-1,0)", (_VECTOR_ERROR, 6)),
        (",(1,0),(-1,0)", (_VECTOR_ERROR, 0)),
        ("(1,0),(-1,0),", ((-1, 0), (1, 0))),
        ("  (1,0) , (-1,0)  ", ((-1, 0), (1, 0))),
        ("(1,0),( -1 , 0 )", ((-1, 0), (1, 0))),
        ("(1,0)^01,(-1,0)", ((-1, 0), (1, 0))),
        ("(1, 0)^2,(-2,0)", ((-2, 0), (1, 0), (1, 0))),
        ("(1,0)^2 ,(-2,0)", ((-2, 0), (1, 0), (1, 0))),
        # an Arabic-Indic digit three, which \d accepts
        ("(٣,0),(-3,0)", ((-3, 0), (3, 0))),
    ],
)
def test_vector_list_grammar(spec, expected):
    # each spec gives its sorted vectors, or a ParseError's message and
    # position
    if isinstance(expected[0], str):
        message, pos = expected
        with pytest.raises(ParseError) as err:
            parse_degree(spec)
        assert (str(err.value), err.value.pos) == (
            f"{message} (at position {pos})",
            pos,
        )
    else:
        assert parse_degree(spec).vectors == expected


def test_render_partition():
    assert render_partition((1, 1, 1)) == "1^3"
    assert render_partition((2, 1, 1)) == "2,1^2"
    assert render_partition((4,)) == "4"
    assert render_partition((2, 2)) == "2^2"


def test_compute_text(capsys):
    assert main(["compute", "P2:3"]) == 0
    assert capsys.readouterr().out.strip() == "q + 7 + q^-1"


def test_compute_json(capsys):
    assert main(["compute", "P2:2:2", "--format", "json"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == '{"1":"1","-1":"1"}'
    assert json.loads(out) == {"1": "1", "-1": "1"}


def test_compute_base_case(capsys):
    assert main(["compute", "(1,0),(−1,0)"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_compute_explicit_ends(capsys):
    assert main(["compute", "P2:3", "--v1", "(-1,0)", "--vm", "(1,1)"]) == 0
    assert capsys.readouterr().out.strip() == "q + 7 + q^-1"


def test_compute_refuses_a_malformed_end_vector(capsys):
    assert main(["compute", "P2:1", "--v1", "(1,x)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a vector '(x,y)', got '(1,x)'" in captured.err


def test_compute_refuses_a_missing_end_of_a_two_end_degree(capsys):
    assert main(["compute", "(1,0),(-1,0)", "--v1", "(5,5)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: (5, 5) cannot be removed")


def test_compute_parse_error_exit_code(capsys):
    assert main(["compute", "(1,0)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_verify_agrees(capsys):
    assert main(["verify", "P2:2:2", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "agree" in out and "MISMATCH" not in out


def test_verify_conic(capsys):
    assert main(["verify", "P2:2"]) == 0
    out = capsys.readouterr().out
    assert out.count("(agree)") == 3


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_verify_refuses_fewer_than_one_seed(capsys, seeds):
    # no oracle run means nothing was verified
    assert main(["verify", "P2:3", "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --seeds must be at least 1")


def test_verify_guard_exit_code(capsys):
    assert main(["verify", "P2:5"]) == 2
    assert "guard" in capsys.readouterr().err


def test_verify_refuses_large_entries_before_running(capsys):
    # 12 ends pass the end guard, but the pair-sum guard refuses the degree
    # before the recursion runs; the oracle would take about 14 s
    t0 = time.perf_counter()
    assert main(["verify", "(-9,2)^4,(2,-9)^4,(7,7)^4"]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert "pair sum" in captured.err and "guard" in captured.err
    assert captured.out == ""


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    import refined_chord.cli as cli

    monkeypatch.setattr(
        cli, "oracle_invariant", lambda d, seed=0, max_ends=10: RefinedPolynomial({0: 99})
    )
    assert main(["verify", "P2:1"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    import refined_chord.cli as cli

    parser = cli._build_parser()
    built = cli._build_parser.cache_info().misses
    path = tmp_path / "memo.jsonl"
    assert main(["compute", "P2:2", "--cache-path", str(path)]) == 0
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 0
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().misses == built
    assert capsys.readouterr().out.splitlines() == ["1", "q + 7 + q^-1"]
    # the commands still look up what they call when they run
    monkeypatch.setattr(
        cli, "oracle_invariant", lambda d, seed=0, max_ends=10: RefinedPolynomial({0: 99})
    )
    assert main(["verify", "P2:1"]) == 1
    assert cli._build_parser() is parser
    assert "MISMATCH" in capsys.readouterr().out
    # and the environment is read at call time
    env_path = tmp_path / "env-memo.jsonl"
    monkeypatch.setenv(CACHE_ENV, str(env_path))
    assert main(["compute", "P2:2"]) == 0
    assert env_path.exists()


def test_table_single_row(capsys):
    assert main(["table", "--max-degree", "1"]) == 0
    assert capsys.readouterr().out.strip() == "N_1(1) = 1"


def test_table_degree_three(capsys):
    assert main(["table", "--max-degree", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "N_1(1) = 1",
        "N_2(1^2) = 1",
        "N_2(2) = q^(1/2) + q^(-1/2)",
        "N_3(1^3) = q + 7 + q^-1",
        "N_3(2,1) = q^(3/2) + 6*q^(1/2) + 6*q^(-1/2) + q^(-3/2)",
        "N_3(3) = q^2 + 5*q + 6 + 5*q^-1 + q^-2",
    ]


def test_table_guard(capsys):
    assert main(["table", "--max-degree", "9"]) == 2
    assert "guard" in capsys.readouterr().err


def test_table_refuses_max_degree_zero(capsys):
    assert main(["table", "--max-degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max degree must be at least 1" in captured.err


def test_cache_round_trip(tmp_path):
    path = tmp_path / "memo.jsonl"
    cache = {
        "(-1,0);(0,-1);(1,1)": RefinedPolynomial({0: 1}),
        "big": RefinedPolynomial({3: 10**30, -3: -(10**30)}),
    }
    save_cache(str(path), cache)
    loaded = load_cache(str(path))
    assert loaded == cache


def test_cache_save_failure_keeps_old_file(tmp_path):
    path = tmp_path / "memo.jsonl"
    save_cache(str(path), {"(-1,0);(0,-1);(1,1)": RefinedPolynomial({0: 1})})
    before = path.read_bytes()

    class Unserializable(RefinedPolynomial):
        def items(self):
            raise RuntimeError("serialization failed")

    cache = {
        "a": RefinedPolynomial({0: 1}),
        "b": RefinedPolynomial({1: 1, -1: 1}),
        "c": Unserializable({0: 2}),
    }
    with pytest.raises(RuntimeError):
        save_cache(str(path), cache)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["memo.jsonl"]


def _signed(body: str) -> str:
    """``body`` under a version-5 header whose checksum matches it, as an
    edit that recomputes the checksum leaves a file: the entry checks still
    apply."""
    crc = zlib.crc32(body.encode("utf-8"))
    return json.dumps({"version": 5, "crc32": crc}) + "\n" + body


# the bytes of a version-5 file; a faster writer must not drift from them
GOLDEN_BODY = (
    '["(-1,0);(-1,0);(-1,0);(0,-1);(0,-1);(0,-1);(1,1);(1,1);(1,1)", '
    '2, [1, 7, 1]]\n'
    '["(-2,-2);(0,2);(2,0)", 3, [1, 1, 1, 1]]\n'
    '["big", 3, [1000000000000000000000000000000, 0, 0, '
    '-1000000000000000000000000000000]]\n'
)
GOLDEN_CACHE = (
    '{"version": 5, "crc32": 729238363}\n' + GOLDEN_BODY
)
GOLDEN_ENTRIES = {
    "(-1,0);(-1,0);(-1,0);(0,-1);(0,-1);(0,-1);(1,1);(1,1);(1,1)":
        RefinedPolynomial({2: 1, 0: 7, -2: 1}),
    "(-2,-2);(0,2);(2,0)": RefinedPolynomial({3: 1, 1: 1, -1: 1, -3: 1}),
    "big": RefinedPolynomial({3: 10**30, -3: -(10**30)}),
}


def test_cache_golden_bytes(tmp_path):
    path = tmp_path / "memo.jsonl"
    save_cache(str(path), dict(reversed(GOLDEN_ENTRIES.items())))
    assert path.read_bytes() == GOLDEN_CACHE.encode("utf-8")
    assert load_cache(str(path)) == GOLDEN_ENTRIES


@pytest.mark.parametrize(
    "key", ['quote"back\\slash', "caf\u00e9 \u2212 \U0001d11e", "tab\tnew\nline"]
)
def test_cache_line_matches_json_dumps(tmp_path, key):
    # loaded keys can be any string, so escaping must match json.dumps
    poly = RefinedPolynomial({3: 10**30, 1: 2, -1: 2, -3: 10**30})
    path = tmp_path / "memo.jsonl"
    save_cache(str(path), {key: poly})
    expected = _signed(json.dumps([key, 3, [10**30, 2, 2, 10**30]]) + "\n")
    assert path.read_bytes() == expected.encode("utf-8")
    assert load_cache(str(path)) == {key: poly}


def test_cache_save_refuses_mixed_parity_and_keeps_old_file(tmp_path):
    # a line holds the coefficients of every other half-exponent only
    path = tmp_path / "memo.jsonl"
    save_cache(str(path), GOLDEN_ENTRIES)
    before = path.read_bytes()
    cache = {**load_cache(str(path)), "mixed": RefinedPolynomial({1: 1, 0: 1, -1: 1})}
    with pytest.raises(ValueError, match="'mixed'"):
        save_cache(str(path), cache)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["memo.jsonl"]


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("\n", "\n\n  \n"),  # blank lines
        lambda text: text.replace("\n", "  \n"),  # trailing spaces
        lambda text: text.replace("\n", "\r\n"),  # CRLF line endings
        lambda text: text.rstrip("\n"),  # no final newline
    ],
    ids=["blank-lines", "trailing-spaces", "crlf", "no-final-newline"],
)
def test_cache_loader_tolerates_whitespace(tmp_path, edit):
    # an edit of the body, whitespace included, fails the checksum; under a
    # recomputed checksum the entries decode as they did before the edit
    path = tmp_path / "memo.jsonl"
    path.write_bytes(edit(GOLDEN_CACHE).encode("utf-8"))
    with pytest.raises(CacheFormatError, match="modified or torn"):
        load_cache(str(path))
    path.write_bytes(_signed(edit(GOLDEN_BODY)).encode("utf-8"))
    assert load_cache(str(path)) == GOLDEN_ENTRIES
    # entries are written back from the values they were read from
    save_cache(str(path), load_cache(str(path)))
    assert path.read_bytes() == GOLDEN_CACHE.encode("utf-8")


def test_cache_loader_empty_file(tmp_path):
    path = tmp_path / "memo.jsonl"
    path.write_text("")
    assert load_cache(str(path)) == {}
    save_cache(str(path), {})
    assert path.read_text() == _signed("")
    assert load_cache(str(path)) == {}


def test_cache_loader_zero_polynomials(tmp_path):
    # a vanishing invariant is stored with no coefficients; a file may hold
    # only such
    path = tmp_path / "memo.jsonl"
    text = _signed('["a", 0, []]\n["b", 0, []]\n')
    path.write_text(text)
    loaded = load_cache(str(path))
    assert loaded == {"a": RefinedPolynomial(), "b": RefinedPolynomial()}
    save_cache(str(path), loaded)
    assert path.read_text() == text
    save_cache(str(path), {"a": RefinedPolynomial(), "b": RefinedPolynomial()})
    assert path.read_text() == text
    path.write_text(_signed(GOLDEN_BODY + '["zero", 0, []]\n'))
    assert load_cache(str(path)) == {**GOLDEN_ENTRIES, "zero": RefinedPolynomial()}


_ENTRY = '["(-1,0);(0,-1);(1,1)", 0, [1]]'
_OTHER = '["(-2,-2);(0,2);(2,0)", 1, [1, 1]]'
_DEEP = "[" * 100_000 + "]" * 100_000
# bad headers, refused as line 1 before any checksum is computed
_HEADER_CASES = {
    "array-header": '[1]\n' + _ENTRY + '\n',
    "no-version": '{}\n' + _ENTRY + '\n',
    "blank-header": '\n' + _signed(_ENTRY + '\n'),
    # nesting too deep for the JSON decoder, which raises RecursionError
    "deep-header": _DEEP + "\n" + _ENTRY + "\n",
}
# bodies under a matching checksum, so each reaches the entry checks
_BODY_CASES = {
    # a version-1 entry under a version-5 header
    "array-entry": '{"key": "k", "poly": {"0": "1"}}\n',
    "no-poly": _ENTRY + '\n["k", 0]\n',
    "no-key": '[0, [1]]\n',
    "poly-not-object": '["k", 0, {"0": 1}]\n',
    "extra-field": '["k", 0, [1], 1]\n',
    "number-key": '[5, 0, []]\n',
    "two-entries": _ENTRY + ", " + _OTHER + "\n",
    "entry-over-two-lines": _ENTRY[:-2] + "\n" + _ENTRY[-2:] + "\n",
    "torn-last-line": _ENTRY + "\n" + _OTHER[:30],
    "non-integer-coefficient": '\n["k", 0, ["1.5"]]\n',
    # int() would read these as 1; a coefficient must be a JSON integer
    "float-coefficient": _ENTRY + '\n["k", 0, [1.5]]\n',
    "boolean-coefficient": '["k", 2, [true, 0, 1]]\n',
    "float-exponent": '["k", 0.0, [1]]\n',
    "boolean-exponent": '["k", false, [1]]\n',
    # Python's int() reads these, but JSON has no such integers
    "plus-coefficient": '["k", 0, [+5]]\n',
    "space-coefficient": '["k", 0, [" 5"]]\n',
    "underscore-coefficient": '["k", 0, [1_0]]\n',
    "non-ascii-coefficient": _ENTRY + '\n["k", 0, ["\\u0665"]]\n',
    "non-decimal-exponent": '["k", "+2", [1]]\n',
    # one string holding two integers
    "comma-coefficient": '["k", 0, ["1,2"]]\n',
    "empty-coefficient": '["k", 0, [1, , 1]]\n',
    # past the decoder's 4,300-digit limit; no computed value comes near it
    "long-coefficient": _ENTRY + '\n["k", 0, [' + "7" * 5000 + ']]\n',
    # save_cache writes no zero at either end, and the zero polynomial as
    # [key, 0, []]
    "leading-zero-coefficient": _ENTRY + '\n["k", 2, [0, 1, 1]]\n',
    "trailing-zero-coefficient": '["k", 2, [1, 7, 1, 0]]\n' + _OTHER + '\n',
    "empty-coefficients-nonzero-exponent": _ENTRY + '\n["k", 2, []]\n',
    # one key twice; a dict would keep the later value, here 5 for P2:1
    "duplicate-key": _ENTRY + "\n" + _OTHER + "\n" + _ENTRY.replace("[1]", "[5]") + "\n",
    "deep-entry": _ENTRY + "\n" + _DEEP + "\n",
}
MALFORMED_CACHES = {
    **_HEADER_CASES,
    **{name: _signed(body) for name, body in _BODY_CASES.items()},
}


def _refusal(path, name):
    """The start of the message that refuses ``MALFORMED_CACHES[name]``."""
    if name in _HEADER_CASES:
        return f"{path}: line 1 is not a cache header "
    return f"{path}: the entries are not in the cache format "


@pytest.mark.parametrize("name", sorted(MALFORMED_CACHES))
def test_cache_loader_rejects_malformed_line(tmp_path, name):
    path = tmp_path / "memo.jsonl"
    path.write_text(MALFORMED_CACHES[name])
    with pytest.raises(CacheFormatError) as info:
        load_cache(str(path))
    assert str(info.value).startswith(_refusal(path, name))


def test_cache_loader_names_the_digit_limit(tmp_path):
    path = tmp_path / "memo.jsonl"
    path.write_text(MALFORMED_CACHES["long-coefficient"])
    with pytest.raises(CacheFormatError, match="4300 digits"):
        load_cache(str(path))


@pytest.mark.parametrize("name", sorted(MALFORMED_CACHES))
def test_compute_malformed_cache_exits_2(tmp_path, capsys, name):
    text = MALFORMED_CACHES[name]
    path = tmp_path / "memo.jsonl"
    path.write_text(text)
    assert main(["compute", "P2:2", "--cache-path", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + _refusal(path, name))
    assert "Traceback" not in err
    assert path.read_text() == text


def test_compute_non_utf8_cache_exits_2(tmp_path, capsys):
    path = tmp_path / "memo.jsonl"
    body = b"\xff\n"
    header = {"version": 5, "crc32": zlib.crc32(body)}
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    assert main(["compute", "P2:2", "--cache-path", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: the entries are not in the cache format ")
    assert "UnicodeDecodeError" in err


def test_cache_version_rejected(tmp_path):
    path = tmp_path / "memo.jsonl"
    path.write_text('{"version": 99}\n')
    with pytest.raises(CacheVersionError):
        load_cache(str(path))


@pytest.mark.parametrize("version", ["3.0", "3e0", "4.0", "4e0", "5.0", "5e0"])
def test_cache_float_version_is_refused(tmp_path, capsys, version):
    # a JSON float equals the current version 5, or an older one, in Python,
    # but the version, like every hi and coefficient, must be a JSON integer;
    # the file is left as it was
    path = tmp_path / "memo.jsonl"
    text = GOLDEN_CACHE.replace('"version": 5', '"version": %s' % version)
    path.write_text(text)
    with pytest.raises(CacheVersionError, match="unsupported"):
        load_cache(str(path))
    assert main(["compute", "P2:2", "--cache-path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: cache version ")
    assert path.read_text() == text


@pytest.mark.parametrize(
    "version, text",
    [
        (1, '{"version": 1}\n{"key": "(-1,0);(0,-1);(1,1)", "poly": {"0": "1"}}\n'),
        # version 2 keyed entries by vector multiset; version 3 keyed them by
        # GL2(Z) class but left 2- and 3-end degrees under their own sorted
        # vectors; version 4 keyed every degree by its normal form, as
        # version 5 does, but carried no checksum; all are refused as version
        # 1 is
        (2, '{"version": 2}\n' + GOLDEN_BODY),
        (3, '{"version": 3}\n' + GOLDEN_BODY),
        (4, '{"version": 4}\n' + GOLDEN_BODY),
    ],
    ids=["1", "2", "3", "4"],
)
def test_old_cache_version_is_refused_as_deletable(tmp_path, capsys, version, text):
    # no reader for an older version: the file is a memo, so the message
    # says to delete it
    path = tmp_path / "memo.jsonl"
    path.write_text(text)
    with pytest.raises(CacheVersionError, match=f"version {version} .*older release.*can be deleted"):
        load_cache(str(path))
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: cache version {version} ")
    assert path.read_text() == text


def test_compute_writes_and_reuses_cache(tmp_path, capsys):
    path = tmp_path / "memo.jsonl"
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 0
    first = capsys.readouterr().out
    data = load_cache(str(path))
    assert "(-1,-1);(0,1);(1,0)" in data  # P2:1, keyed by its normal form
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 0
    assert capsys.readouterr().out == first


def test_compute_cache_hit_leaves_file_alone(tmp_path, capsys):
    # a hit adds no entry, so the file is not rewritten (a rewrite renames a
    # new file over it, which changes the inode)
    path = tmp_path / "memo.jsonl"
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 0
    inode = os.stat(path).st_ino
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 0
    assert os.stat(path).st_ino == inode
    assert capsys.readouterr().out.splitlines() == ["q + 7 + q^-1"] * 2


def _refuses_planted_file(path, spec, capsys):
    # the planted file is refused by name, nothing is printed, and the file
    # is left as it was
    before = path.read_bytes()
    assert main(["compute", spec, "--cache-path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: modified or torn ")
    assert "can be deleted" in captured.err
    assert path.read_bytes() == before


def test_compute_refuses_a_planted_middle_coefficient(tmp_path, capsys):
    # the middle of a palindrome has no mirror, so no check of the entry
    # itself can see a change to it; the checksum does
    path = tmp_path / "memo.jsonl"
    assert main(["compute", "P2:5", "--cache-path", str(path)]) == 0
    assert "+ 10719 +" in capsys.readouterr().out
    data = path.read_bytes()
    assert data.count(b" 10719, ") == 1
    path.write_bytes(data.replace(b" 10719, ", b" 10718, "))
    _refuses_planted_file(path, "P2:5", capsys)


def test_compute_refuses_an_entry_whose_key_was_edited(tmp_path, capsys):
    # P2:3's value under the key of a class the file does not hold would be
    # served for that class
    path = tmp_path / "memo.jsonl"
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 0
    capsys.readouterr()
    key = canonical_key(parse_degree("P2:3"))
    target = canonical_key(parse_degree("P1xP1:2,2"))
    assert target not in load_cache(str(path))
    data = path.read_bytes()
    old, new = json.dumps(key).encode(), json.dumps(target).encode()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))
    _refuses_planted_file(path, "P1xP1:2,2", capsys)


def test_compute_refuses_unpackable_cached_subdegree(tmp_path, capsys):
    # the packed recursion takes -hi for the lowest exponent, which holds
    # only for a palindromic value; load_cache accepts the file, and the
    # entry is refused where it is used
    path = tmp_path / "memo.jsonl"
    key = "(-1,-1);(0,1);(1,0)"
    assert canonical_key(parse_degree("P2:1")) == key
    save_cache(str(path), {key: RefinedPolynomial({2: 1, 0: 7})})
    before = path.read_bytes()
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 2
    assert key in capsys.readouterr().err
    assert path.read_bytes() == before


def test_compute_refuses_unpackable_cached_top_level_value(tmp_path, capsys):
    # a hit on the computed degree's own key is checked as a sub-degree hit is
    path = tmp_path / "memo.jsonl"
    key = "(-1,-1);(-1,-1);(-1,-1);(0,1);(0,1);(0,1);(1,0);(1,0);(1,0)"
    assert canonical_key(parse_degree("P2:3")) == key
    save_cache(str(path), {key: RefinedPolynomial({2: 1, 0: 7})})
    before = path.read_bytes()
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "cached, image",
    [
        ("P1xP1:2,1", "P1xP1:1,2"),
        # P2:1 and P2:4 sheared by (x, y) -> (x + y, y)
        ("P2:1", "(-1,0),(2,1),(-1,-1)"),
        ("P2:4", "(-1,0)^4,(-1,-1)^4,(2,1)^4"),
    ],
)
def test_compute_gl2z_image_is_a_top_level_class_hit(
    tmp_path, capsys, monkeypatch, cached, image
):
    # the file holds one entry per class, so an image of a cached degree is
    # served from it: no record is streamed, the file is not rewritten, and
    # the degree is keyed once
    import refined_chord.lattice as lattice
    from refined_chord import chord_recursion

    path = tmp_path / "memo.jsonl"
    assert main(["compute", cached, "--cache-path", str(path)]) == 0
    before = path.read_bytes()
    expected = refined_invariant(parse_degree(cached)).to_text()
    assert capsys.readouterr().out.splitlines() == [expected]

    def no_records(key):
        raise AssertionError("a class hit streams no record")

    forms = []
    real_form = lattice._normal_form
    monkeypatch.setattr(chord_recursion, "_sub_multisets", no_records)
    monkeypatch.setattr(
        lattice, "_normal_form", lambda vectors: forms.append(vectors) or real_form(vectors)
    )
    assert main(["compute", image, "--cache-path", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [expected]
    assert path.read_bytes() == before
    assert forms == [parse_degree(image).vectors]


def test_compute_miss_resaves_loaded_entries_as_an_eager_save(tmp_path, capsys):
    # loaded entries are written back undecoded, and must give the bytes that
    # decoding them first would
    path = tmp_path / "memo.jsonl"
    assert main(["compute", "P2:4", "--cache-path", str(path)]) == 0
    eager = {
        key: RefinedPolynomial(dict(poly.items()))
        for key, poly in load_cache(str(path)).items()
    }
    assert main(["compute", "P1xP1:2,2", "--cache-path", str(path)]) == 0
    d = parse_degree("P1xP1:2,2")
    eager.setdefault(canonical_key(d), refined_invariant(d, cache=eager))
    save_cache(str(tmp_path / "eager.jsonl"), eager)
    assert path.read_bytes() == (tmp_path / "eager.jsonl").read_bytes()
    assert capsys.readouterr().out.splitlines()[1] == refined_invariant(d).to_text()


def test_compute_on_the_benchmark_cache_resaves_as_an_eager_save(tmp_path, capsys):
    # the file the cli-warm benchmark starts from, 318 degrees in 145
    # GL2(Z) classes: a miss, then a hit, leave the bytes an eager save of
    # the same values gives
    reference = os.path.join(
        os.path.dirname(__file__), "..", "perfbench", "reference.json"
    )
    with open(reference, encoding="utf-8") as fh:
        prefill = json.load(fh)["prefill"]
    path = tmp_path / "memo.jsonl"
    save_cache(str(path), {
        canonical_key(make_degree([tuple(v) for v in vecs])):
            RefinedPolynomial({int(k): c for k, c in terms.items()})
        for vecs, terms in prefill
    })
    eager = {
        key: RefinedPolynomial(dict(poly.items()))
        for key, poly in load_cache(str(path)).items()
    }
    assert len(prefill) == 318
    assert len(eager) == 145
    assert main(["compute", "P1xP1:2,3", "--cache-path", str(path)]) == 0
    assert main(["compute", "P2:4", "--cache-path", str(path)]) == 0
    d = parse_degree("P1xP1:2,3")
    eager.setdefault(canonical_key(d), refined_invariant(d, cache=eager))
    save_cache(str(tmp_path / "eager.jsonl"), eager)
    assert path.read_bytes() == (tmp_path / "eager.jsonl").read_bytes()
    assert capsys.readouterr().out.splitlines() == [
        refined_invariant(d).to_text(),
        refined_invariant(parse_degree("P2:4")).to_text(),
    ]


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "env-memo.jsonl"
    monkeypatch.setenv(CACHE_ENV, str(path))
    assert main(["compute", "P2:2"]) == 0
    capsys.readouterr()
    assert path.exists()
    assert load_cache(str(path))


def test_cache_corrupt_version_exit_code(tmp_path, capsys):
    path = tmp_path / "memo.jsonl"
    path.write_text('{"version": 99}\n')
    assert main(["compute", "P2:2", "--cache-path", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cache version" in err and str(path) in err


def test_oracle_command(capsys):
    assert main(["oracle", "P2:2:2", "--seed", "1"]) == 0
    assert capsys.readouterr().out.strip() == "q^(1/2) + q^(-1/2)"
    assert main(["oracle", "P2:5"]) == 2
    assert "guard" in capsys.readouterr().err


def test_oracle_command_takes_a_huge_max_ends(capsys):
    # the guard never shifts by max_ends itself, so 10**30 neither overflows
    # nor allocates a number of that many bits
    assert main(["oracle", "P2:1", "--max-ends", str(10**30)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_compute_cache_path_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["compute", "P2:3", "--cache-path", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_compute_cache_path_is_a_fifo_exits_2(tmp_path):
    # in a child process: a build that reads the FIFO blocks in open()
    fifo = tmp_path / "memo.jsonl"
    os.mkfifo(fifo)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-m", "refined_chord.cli", "compute", "P2:3",
         "--cache-path", str(fifo)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error: ") and str(fifo) in run.stderr
    assert run.stdout == ""
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_compute_saves_through_a_symlinked_cache_path(tmp_path, capsys):
    # the save replaces the link's target and keeps the link
    real = tmp_path / "real.jsonl"
    assert main(["compute", "P2:3", "--cache-path", str(real)]) == 0
    direct = tmp_path / "direct.jsonl"
    shutil.copy(real, direct)
    link = tmp_path / "link.jsonl"
    link.symlink_to("real.jsonl")
    assert main(["compute", "P2:4", "--cache-path", str(link)]) == 0
    assert main(["compute", "P2:4", "--cache-path", str(direct)]) == 0
    assert link.is_symlink() and os.readlink(link) == "real.jsonl"
    assert real.read_bytes() == direct.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))
    out = capsys.readouterr().out.splitlines()
    assert out[1] == out[2]


def test_compute_cache_path_in_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "memo.jsonl"
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the computation
    assert captured.err.startswith("error: ")
    assert str(path) in captured.err
    assert not path.parent.exists()


def test_compute_symlink_into_missing_directory_exits_2(tmp_path, capsys):
    # the save would follow the link, so its target's directory is checked
    link = tmp_path / "link.jsonl"
    link.symlink_to(tmp_path / "missing" / "memo.jsonl")
    assert main(["compute", "P2:3", "--cache-path", str(link)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the computation
    assert str(link) in captured.err
    assert link.is_symlink() and os.listdir(tmp_path) == ["link.jsonl"]
