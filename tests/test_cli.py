import json
import os
import time

import pytest

from refined_chord import (
    NonZeroSum,
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
    ParseError,
    load_cache,
    main,
    parse_degree,
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
    with pytest.raises(NonZeroSum):
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


# the bytes of a version-3 file; a faster writer must not drift from them
GOLDEN_CACHE = (
    '{"version": 3}\n'
    '["(-1,0);(-1,0);(-1,0);(0,-1);(0,-1);(0,-1);(1,1);(1,1);(1,1)", '
    '2, [1, 7, 1]]\n'
    '["(-2,0);(0,-2);(2,2)", 3, [1, 1, 1, 1]]\n'
    '["big", 3, [1000000000000000000000000000000, 0, 0, '
    '-1000000000000000000000000000000]]\n'
)
GOLDEN_ENTRIES = {
    "(-1,0);(-1,0);(-1,0);(0,-1);(0,-1);(0,-1);(1,1);(1,1);(1,1)":
        RefinedPolynomial({2: 1, 0: 7, -2: 1}),
    "(-2,0);(0,-2);(2,2)": RefinedPolynomial({3: 1, 1: 1, -1: 1, -3: 1}),
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
    expected = (
        json.dumps({"version": 3}) + "\n"
        + json.dumps([key, 3, [10**30, 2, 2, 10**30]]) + "\n"
    )
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
    path = tmp_path / "memo.jsonl"
    path.write_bytes(edit(GOLDEN_CACHE).encode("utf-8"))
    assert load_cache(str(path)) == GOLDEN_ENTRIES
    # entries are written back from the values they were read from
    save_cache(str(path), load_cache(str(path)))
    assert path.read_bytes() == GOLDEN_CACHE.encode("utf-8")


def test_cache_loader_empty_file(tmp_path):
    path = tmp_path / "memo.jsonl"
    path.write_text("")
    assert load_cache(str(path)) == {}
    path.write_text('{"version": 3}\n')
    assert load_cache(str(path)) == {}


def test_cache_loader_zero_polynomials(tmp_path):
    # a vanishing invariant is stored with no coefficients; a file may hold
    # only such
    path = tmp_path / "memo.jsonl"
    text = '{"version": 3}\n["a", 0, []]\n["b", 0, []]\n'
    path.write_text(text)
    loaded = load_cache(str(path))
    assert loaded == {"a": RefinedPolynomial(), "b": RefinedPolynomial()}
    save_cache(str(path), loaded)
    assert path.read_text() == text
    save_cache(str(path), {"a": RefinedPolynomial(), "b": RefinedPolynomial()})
    assert path.read_text() == text
    path.write_text(GOLDEN_CACHE + '["zero", 0, []]\n')
    assert load_cache(str(path)) == {**GOLDEN_ENTRIES, "zero": RefinedPolynomial()}


_HEADER = '{"version": 3}\n'
_ENTRY = '["(-1,0);(0,-1);(1,1)", 0, [1]]'
_OTHER = '["(-2,0);(0,-2);(2,2)", 1, [1, 1]]'

MALFORMED_CACHES = {
    # name: (file contents, number of the line named in the error)
    # a version-1 entry under a version-3 header
    "array-entry": (_HEADER + '{"key": "k", "poly": {"0": "1"}}\n', 2),
    "no-poly": (_HEADER + _ENTRY + '\n["k", 0]\n', 3),
    "no-key": (_HEADER + '[0, [1]]\n', 2),
    "poly-not-object": (_HEADER + '["k", 0, {"0": 1}]\n', 2),
    "extra-field": (_HEADER + '["k", 0, [1], 1]\n', 2),
    "number-key": (_HEADER + '[5, 0, []]\n', 2),
    "array-header": ('[1]\n' + _ENTRY + '\n', 1),
    "no-version": ('{}\n' + _ENTRY + '\n', 1),
    "blank-header": ('\n' + _HEADER + _ENTRY + '\n', 1),
    "two-entries": (_HEADER + _ENTRY + ", " + _OTHER + "\n", 2),
    "entry-over-two-lines": (_HEADER + _ENTRY[:-2] + "\n" + _ENTRY[-2:] + "\n", 2),
    "torn-last-line": (_HEADER + _ENTRY + "\n" + _OTHER[:30], 3),
    "non-integer-coefficient": (_HEADER + '\n["k", 0, ["1.5"]]\n', 3),
    # int() would read these as 1; a coefficient must be a JSON integer
    "float-coefficient": (_HEADER + _ENTRY + '\n["k", 0, [1.5]]\n', 3),
    "boolean-coefficient": (_HEADER + '["k", 2, [true, 0, 1]]\n', 2),
    "float-exponent": (_HEADER + '["k", 0.0, [1]]\n', 2),
    "boolean-exponent": (_HEADER + '["k", false, [1]]\n', 2),
    # Python's int() reads these, but JSON has no such integers
    "plus-coefficient": (_HEADER + '["k", 0, [+5]]\n', 2),
    "space-coefficient": (_HEADER + '["k", 0, [" 5"]]\n', 2),
    "underscore-coefficient": (_HEADER + '["k", 0, [1_0]]\n', 2),
    "non-ascii-coefficient": (_HEADER + _ENTRY + '\n["k", 0, ["\\u0665"]]\n', 3),
    "non-decimal-exponent": (_HEADER + '["k", "+2", [1]]\n', 2),
    # one string holding two integers
    "comma-coefficient": (_HEADER + '["k", 0, ["1,2"]]\n', 2),
    "empty-coefficient": (_HEADER + '["k", 0, [1, , 1]]\n', 2),
    # past the decoder's 4,300-digit limit; no computed value comes near it
    "long-coefficient": (_HEADER + _ENTRY + '\n["k", 0, [' + "7" * 5000 + ']]\n', 3),
    # save_cache writes no zero at either end, and the zero polynomial as
    # [key, 0, []]
    "leading-zero-coefficient": (_HEADER + _ENTRY + '\n["k", 2, [0, 1, 1]]\n', 3),
    "trailing-zero-coefficient": (_HEADER + '["k", 2, [1, 7, 1, 0]]\n' + _OTHER + '\n', 2),
    "empty-coefficients-nonzero-exponent": (_HEADER + _ENTRY + '\n["k", 2, []]\n', 3),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CACHES))
def test_cache_loader_rejects_malformed_line(tmp_path, name):
    text, line = MALFORMED_CACHES[name]
    path = tmp_path / "memo.jsonl"
    path.write_text(text)
    with pytest.raises(CacheFormatError, match=f"line {line} "):
        load_cache(str(path))


@pytest.mark.parametrize(
    "name,reason",
    [
        ("float-coefficient", "coefficient 1.5 of exponent 0 is not an integer"),
        ("boolean-coefficient", "coefficient true of exponent 2 is not an integer"),
        (
            "non-integer-coefficient",
            'coefficient "1.5" of exponent 0 is not an integer',
        ),
        (
            "non-ascii-coefficient",
            'coefficient "\\u0665" of exponent 0 is not an integer',
        ),
        ("comma-coefficient", 'coefficient "1,2" of exponent 0 is not an integer'),
        ("non-decimal-exponent", 'exponent "+2" is not an integer'),
        ("boolean-exponent", "exponent false is not an integer"),
        ("number-key", "key 5 is not a string"),
        ("poly-not-object", 'coefficients {"0": 1} are not a list'),
        ("no-poly", 'entry ["k", 0] is not a [key, hi, coeffs] list'),
        ("leading-zero-coefficient", "coefficients [0, 1, 1] start or end with 0"),
        ("trailing-zero-coefficient", "coefficients [1, 7, 1, 0] start or end with 0"),
        (
            "empty-coefficients-nonzero-exponent",
            "exponent 2 of the zero polynomial is not 0",
        ),
    ],
)
def test_cache_loader_names_non_string_coefficient(tmp_path, name, reason):
    # each message names the bad value and its role: key, exponent (hi) or
    # coefficient
    text, line = MALFORMED_CACHES[name]
    path = tmp_path / "memo.jsonl"
    path.write_text(text)
    with pytest.raises(CacheFormatError) as info:
        load_cache(str(path))
    assert str(info.value) == f"{path}: line {line} is not a cache entry ({reason})"


def test_cache_loader_names_the_digit_limit(tmp_path):
    text, line = MALFORMED_CACHES["long-coefficient"]
    path = tmp_path / "memo.jsonl"
    path.write_text(text)
    with pytest.raises(CacheFormatError, match=f"line {line} .*4300 digits"):
        load_cache(str(path))


@pytest.mark.parametrize("name", sorted(MALFORMED_CACHES))
def test_compute_malformed_cache_exits_2(tmp_path, capsys, name):
    text, line = MALFORMED_CACHES[name]
    path = tmp_path / "memo.jsonl"
    path.write_text(text)
    assert main(["compute", "P2:2", "--cache-path", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line {line} ")
    assert "Traceback" not in err
    assert path.read_text() == text


def test_compute_non_utf8_cache_exits_2(tmp_path, capsys):
    path = tmp_path / "memo.jsonl"
    path.write_bytes(b'{"version": 1}\n\xff\n')
    assert main(["compute", "P2:2", "--cache-path", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_cache_version_rejected(tmp_path):
    path = tmp_path / "memo.jsonl"
    path.write_text('{"version": 99}\n')
    with pytest.raises(CacheVersionError):
        load_cache(str(path))


def test_cache_version_1_is_refused_as_deletable(tmp_path, capsys):
    # no version-1 reader: the file is a memo, so the message says to delete it
    path = tmp_path / "memo.jsonl"
    text = '{"version": 1}\n{"key": "(-1,0);(0,-1);(1,1)", "poly": {"0": "1"}}\n'
    path.write_text(text)
    with pytest.raises(CacheVersionError, match="older release.*can be deleted"):
        load_cache(str(path))
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: cache version 1 ")
    assert path.read_text() == text


def test_cache_version_2_is_refused_as_deletable(tmp_path, capsys):
    # version 2 keyed entries by vector multiset; version 3 keys them by
    # GL2(Z) class, so a version-2 file is refused as version 1 is
    path = tmp_path / "memo.jsonl"
    text = GOLDEN_CACHE.replace('{"version": 3}', '{"version": 2}')
    path.write_text(text)
    with pytest.raises(CacheVersionError, match="version 2 .*older release.*can be deleted"):
        load_cache(str(path))
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: cache version 2 ")
    assert path.read_text() == text


def test_compute_writes_and_reuses_cache(tmp_path, capsys):
    path = tmp_path / "memo.jsonl"
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 0
    first = capsys.readouterr().out
    data = load_cache(str(path))
    assert any("(-1,0)" in key for key in data)
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


def test_compute_refuses_unpackable_cached_subdegree(tmp_path, capsys):
    # the packed recursion takes -hi for the lowest exponent, which holds
    # only for a palindromic value; load_cache accepts the file, and the
    # entry is refused where it is used
    path = tmp_path / "memo.jsonl"
    key = "(-1,0);(0,-1);(1,1)"
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
        # P2:4 sheared by (x, y) -> (x + y, y)
        ("P2:4", "(-1,0)^4,(-1,-1)^4,(2,1)^4"),
    ],
)
def test_compute_gl2z_image_is_a_top_level_class_hit(
    tmp_path, capsys, monkeypatch, cached, image
):
    # the file holds one entry per class, so an image of a cached degree is
    # served from it: no chord is summed, the file is not rewritten, and the
    # degree is keyed once
    import refined_chord.lattice as lattice
    from refined_chord import chord_recursion

    path = tmp_path / "memo.jsonl"
    assert main(["compute", cached, "--cache-path", str(path)]) == 0
    before = path.read_bytes()
    expected = refined_invariant(parse_degree(cached)).to_text()
    assert capsys.readouterr().out.splitlines() == [expected]

    def no_chord_sum(*args):
        raise AssertionError("a class hit sums no chord")

    forms = []
    real_form = lattice._normal_form
    monkeypatch.setattr(chord_recursion, "_chord_sum", no_chord_sum)
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
    # the file the cli-warm benchmark starts from, 318 degrees in 154
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
    assert len(eager) == 154
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


def test_compute_cache_path_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["compute", "P2:3", "--cache-path", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_compute_cache_path_in_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "memo.jsonl"
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the computation
    assert captured.err.startswith("error: ")
    assert str(path) in captured.err
    assert not path.parent.exists()
