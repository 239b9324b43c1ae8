import json
import os
import time

import pytest

from refined_chord import NonZeroSum, RefinedPolynomial, cp2_degree, make_degree
from refined_chord.cli import (
    CACHE_ENV,
    CacheFormatError,
    CacheVersionError,
    ParseError,
    load_cache,
    main,
    parse_degree,
    render_degree,
    render_partition,
    save_cache,
)
from conftest import CORPUS


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


def test_render_round_trip():
    for name, d in CORPUS:
        assert parse_degree(render_degree(d)) == d
    assert render_degree(cp2_degree(2, [2])) == "(-1,0)^2,(0,-2),(1,1)^2"


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


# the bytes save_cache wrote before the loader was rewritten; a faster
# writer must not drift from them
GOLDEN_CACHE = (
    '{"version": 1}\n'
    '{"key": "(-1,0);(-1,0);(-1,0);(0,-1);(0,-1);(0,-1);(1,1);(1,1);(1,1)", '
    '"poly": {"2": "1", "0": "7", "-2": "1"}}\n'
    '{"key": "(-2,0);(0,-2);(2,2)", '
    '"poly": {"3": "1", "1": "1", "-1": "1", "-3": "1"}}\n'
    '{"key": "big", "poly": {"3": "1000000000000000000000000000000", '
    '"-3": "-1000000000000000000000000000000"}}\n'
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
        json.dumps({"version": 1}) + "\n"
        + json.dumps({"key": key, "poly": poly.to_json_dict()}) + "\n"
    )
    assert path.read_bytes() == expected.encode("utf-8")
    assert load_cache(str(path)) == {key: poly}


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


def test_cache_loader_empty_file(tmp_path):
    path = tmp_path / "memo.jsonl"
    path.write_text("")
    assert load_cache(str(path)) == {}
    path.write_text('{"version": 1}\n')
    assert load_cache(str(path)) == {}


_ENTRY = '{"key": "(-1,0);(0,-1);(1,1)", "poly": {"0": "1"}}'
_OTHER = '{"key": "(-2,0);(0,-2);(2,2)", "poly": {"1": "1", "-1": "1"}}'

MALFORMED_CACHES = {
    # name: (file contents, number of the line named in the error)
    "array-entry": ('{"version": 1}\n[1, 2]\n', 2),
    "no-poly": ('{"version": 1}\n' + _ENTRY + '\n{"key": "k"}\n', 3),
    "no-key": ('{"version": 1}\n{"poly": {"0": "1"}}\n', 2),
    "poly-not-object": ('{"version": 1}\n{"key": "k", "poly": [1]}\n', 2),
    "array-header": ('[1]\n' + _ENTRY + '\n', 1),
    "no-version": ('{}\n' + _ENTRY + '\n', 1),
    "blank-header": ('\n{"version": 1}\n' + _ENTRY + '\n', 1),
    "two-entries": ('{"version": 1}\n' + _ENTRY + ", " + _OTHER + "\n", 2),
    "entry-over-two-lines": (
        '{"version": 1}\n' + _ENTRY[:-2] + "\n" + _ENTRY[-2:] + "\n", 2
    ),
    "torn-last-line": ('{"version": 1}\n' + _ENTRY + "\n" + _OTHER[:30], 3),
    "non-integer-coefficient": (
        '{"version": 1}\n\n{"key": "k", "poly": {"0": "1.5"}}\n', 3
    ),
    # int() would read these as 1; a coefficient must be a JSON string
    "float-coefficient": (
        '{"version": 1}\n' + _ENTRY + '\n{"key": "k", "poly": {"0": 1.5}}\n', 3
    ),
    "boolean-coefficient": (
        '{"version": 1}\n{"key": "k", "poly": {"0": "1", "2": true}}\n', 2
    ),
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
        ("float-coefficient", 'coefficient 1.5 of exponent "0" is not a string'),
        ("boolean-coefficient", 'coefficient true of exponent "2" is not a string'),
    ],
)
def test_cache_loader_names_non_string_coefficient(tmp_path, name, reason):
    text, line = MALFORMED_CACHES[name]
    path = tmp_path / "memo.jsonl"
    path.write_text(text)
    with pytest.raises(CacheFormatError) as info:
        load_cache(str(path))
    assert str(info.value) == f"{path}: line {line} is not a cache entry ({reason})"


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
    # mixed parity would merge slots of the packed recursion; load_cache
    # accepts the file, and the entry is refused where it is used
    path = tmp_path / "memo.jsonl"
    key = "(-1,0);(0,-1);(1,1)"
    save_cache(str(path), {key: RefinedPolynomial({1: 1, 0: 1, -1: 1})})
    before = path.read_bytes()
    assert main(["compute", "P2:3", "--cache-path", str(path)]) == 2
    assert key in capsys.readouterr().err
    assert path.read_bytes() == before


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
    assert captured.out.strip() == "q + 7 + q^-1"
    assert captured.err.startswith("error: ")
    assert str(path) in captured.err
    assert not path.parent.exists()
