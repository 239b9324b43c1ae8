"""Command-line front end: parse degrees, compute, cross-check, tabulate.

Degree grammar accepted by every command:

* a vector list ``(a,b)^k`` with comma separators, exponent optional, e.g.
  ``"(-1,0)^2,(0,-2),(1,1)^2"`` (the Unicode minus sign is normalized);
* ``P2:d`` for the triangle degree of plane curves of degree d;
* ``P2:d:l1,l2,...`` for the same with vertical ends grouped by a partition;
* ``P1xP1:a,b`` for the rectangle degree with b horizontal and a vertical
  pairs of opposite ends.

Every integer, macro fields included, is an optional minus sign and at
most ``PARSE_DIGIT_GUARD`` (4,300) decimal digits: Python's default limit
for ``int`` of a string, so a longer field is refused at its own position
rather than by ``int`` with a hint about interpreter settings. A spec of
more than ``PARSE_END_GUARD`` ends is refused before its vectors are built.

Exit codes: 0 success, 1 cross-check mismatch (``verify``), 2 parse or
validation errors, guard violations, a cache file that is not in the cache
format or whose body does not match the checksum in its header, and a cache
path that cannot be read or written. Results go to stdout, diagnostics to
stderr. The environment variable ``REFINED_CHORD_CACHE`` names a default
persistent memo file for ``compute``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import zlib
from itertools import chain, compress, groupby
from operator import itemgetter, not_
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Tuple

from .chord_recursion import refined_invariant
from .direct_enumerator import (
    GenericityFailure,
    ORACLE_END_GUARD,
    TooLarge,
    check_oracle_size,
    oracle_invariant,
)
from .lattice import Degree, Vec, cp2_degree, make_degree
from .refined_poly import RefinedPolynomial, _Deferred, _dense

CACHE_ENV = "REFINED_CHORD_CACHE"
CACHE_VERSION = 5
TABLE_DEGREE_GUARD = 8
# ends a degree spec may describe, checked before any vector list is built;
# far above what compute can finish (P2:14 has 42)
PARSE_END_GUARD = 10_000
# decimal digits an integer field may have: Python's default int() limit
PARSE_DIGIT_GUARD = 4_300


class ParseError(ValueError):
    """A degree spec does not match the grammar; carries the position."""

    def __init__(self, message: str, pos: Optional[int] = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class CacheFormatError(ValueError):
    """The cache file is not in the cache format, or was changed after it
    was written; names the file."""


class CacheVersionError(CacheFormatError):
    """The cache file announces a format version this build cannot read."""


_INT = re.compile(r"-?\d+")
_VEC = re.compile(rf"\(\s*({_INT.pattern})\s*,\s*({_INT.pattern})\s*\)")
# a vector, its exponent if any, and the blanks before a separator
_ITEM = re.compile(_VEC.pattern + r"(\^\d*)?\s*")
_BLANKS = re.compile(r"\s*")


def _normalize(text: str) -> str:
    return text.replace("−", "-").strip()


def parse_vector(text: str) -> Vec:
    s = _normalize(text)
    mo = _VEC.fullmatch(s)
    if not mo:
        raise ParseError(f"expected a vector '(x,y)', got {text!r}")
    return (_to_int(mo.group(1), mo.start(1)), _to_int(mo.group(2), mo.start(2)))


def parse_degree(spec: str) -> Degree:
    """Parse the degree grammar; raises :class:`ParseError` with a position,
    or the validation errors of :func:`make_degree` for bad vector lists."""
    s = _normalize(spec)
    if not s:
        raise ParseError("empty degree spec", 0)
    if s.startswith("P2:"):
        return _parse_p2(s)
    if s.startswith("P1xP1:"):
        return _parse_p1xp1(s)
    return _parse_vector_list(s)


def _to_int(digits: str, pos: int) -> int:
    """``int`` of a matched integer field starting at ``pos``, refused above
    ``PARSE_DIGIT_GUARD`` digits before ``int`` sees it."""
    if len(digits) - digits.startswith("-") > PARSE_DIGIT_GUARD:
        raise ParseError(f"more than {PARSE_DIGIT_GUARD} digits", pos)
    return int(digits)


def _parse_int(text: str, what: str, pos: int) -> int:
    if not _INT.fullmatch(text):
        raise ParseError(f"expected an integer {what}, got {text!r}", pos)
    return _to_int(text, pos)


def _check_ends(ends: int, pos: int) -> None:
    if ends > PARSE_END_GUARD:
        raise ParseError(f"more than {PARSE_END_GUARD} ends", pos)


def _parse_ints(text: str, what: str, pos: int) -> List[int]:
    """The comma-separated integers of ``text``, which starts at ``pos``;
    a bad one is reported at its own position."""
    out = []
    for item in text.split(","):
        out.append(_parse_int(item, what, pos))
        pos += len(item) + 1
    return out


def _parse_p2(s: str) -> Degree:
    parts = s.split(":")
    if len(parts) not in (2, 3):
        raise ParseError("malformed P2 macro, expected P2:d or P2:d:l1,l2,...", 0)
    d = _parse_int(parts[1], "degree", 3)
    if len(parts) == 2:
        _check_ends(3 * d, 3)
        return cp2_degree(d, [1] * d)
    lam = _parse_ints(parts[2], "partition part", 4 + len(parts[1]))
    _check_ends(2 * d + len(lam), 3)
    return cp2_degree(d, lam)


def _parse_p1xp1(s: str) -> Degree:
    body = s[len("P1xP1:"):]
    if body.count(",") != 1:
        raise ParseError("malformed P1xP1 macro, expected P1xP1:a,b", 0)
    a, b = _parse_ints(body, "count", 6)
    if a < 1 or b < 1:
        pos = 6 if a < 1 else 7 + body.index(",")
        raise ParseError(f"P1xP1 counts must be positive, got {a},{b}", pos)
    _check_ends(2 * (a + b), 6)
    return make_degree(
        [(-1, 0)] * b + [(1, 0)] * b + [(0, -1)] * a + [(0, 1)] * a
    )


def _parse_vector_list(s: str) -> Degree:
    vecs: List[Vec] = []
    pos = 0
    while pos < len(s):
        pos = _BLANKS.match(s, pos).end()
        mo = _ITEM.match(s, pos)
        if not mo:
            raise ParseError("expected a vector '(x,y)'", pos)
        x, y, exponent = mo.groups()
        mult = _to_int(exponent[1:] or "0", mo.start(3)) if exponent else 1
        if mult < 1:
            raise ParseError("exponent must be a positive integer", mo.start(3))
        _check_ends(len(vecs) + mult, pos)
        vecs += [(_to_int(x, mo.start(1)), _to_int(y, mo.start(2)))] * mult
        pos = mo.end()
        if pos < len(s) and s[pos] != ",":
            raise ParseError("expected ',' between vectors", pos)
        pos += 1  # past the comma, or past the end
    return make_degree(vecs)


# -- persistent memo store ---------------------------------------------------


def load_cache(path: str) -> Dict[str, RefinedPolynomial]:
    """Read a cache file: a JSON header holding the format version and the
    CRC-32 of the rest of the file, then one entry per line. A file of an
    earlier version is refused with a message saying it can be deleted, an
    unknown version is refused rather than guessed at, a file whose body no
    longer matches its checksum is refused as modified or torn, and anything
    else that is not this format raises :class:`CacheFormatError` naming
    the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.strip():
        return {}
    header_line, _, body = data.partition(b"\n")
    try:
        header = json.loads(header_line)
        version = header["version"]
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise CacheFormatError(
            f"{path}: line 1 is not a cache header ({_describe(exc)})"
        ) from None
    if type(version) is int and 0 < version < CACHE_VERSION:
        raise CacheVersionError(
            f"{path}: cache version {version} is from an older release and "
            f"cannot be read (want {CACHE_VERSION}); the file only holds "
            "values that compute rebuilds, so it can be deleted"
        )
    # 5.0 and 5e0 equal 5 in Python, but only a JSON integer is this format
    if type(version) is not int or version != CACHE_VERSION:
        raise CacheVersionError(
            f"{path}: cache version {version!r} unsupported (want {CACHE_VERSION})"
        )
    if header.get("crc32") != zlib.crc32(body):
        raise CacheFormatError(
            f"{path}: modified or torn since it was written (its CRC-32 does "
            "not match its header); the file only holds values that compute "
            "rebuilds, so it can be deleted"
        )
    try:
        return _decode_entries(list(filter(str.strip, body.decode().split("\n"))))
    except (ValueError, RecursionError) as exc:  # json.loads of too deep nesting
        raise CacheFormatError(
            f"{path}: the entries are not in the cache format ({_describe(exc)})"
        ) from None


def _decode_entries(lines: List[str]) -> Dict[str, RefinedPolynomial]:
    """Decode entry lines in one ``json.loads`` pass: each line must hold
    one ``[key, hi, coeffs]`` list. A torn line is caught by the checksum
    before it gets here; in a file whose checksum was recomputed after an
    edit, a line left open fails to parse, and a line holding two values
    makes one entry too many, which the count against the lines catches.

    The JSON decoder has already checked that every integer is a decimal
    one; the rest is checked in bulk: the set of types in each field (the
    key a ``str``, ``hi`` and every coefficient exactly an ``int``, so
    neither a bool nor a float, and ``coeffs`` a ``list``), and, as
    :func:`save_cache` writes them, no ``coeffs`` starting or ending with 0
    and ``hi`` 0 for an empty one, and no key twice. Values are built only
    where they are used (:class:`_Deferred`).
    """
    entries = json.loads("[" + ",".join(lines) + "]")
    if len(entries) != len(lines):
        raise ValueError(f"{len(entries)} values on {len(lines)} lines")
    if not entries:
        return {}
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {3}:
        raise ValueError("an entry is not a [key, hi, coeffs] list")
    keys, his, coeffs = zip(*entries)
    nonempty = list(filter(None, coeffs))
    if (
        set(map(type, keys)) != {str}
        or len(set(keys)) != len(keys)
        or set(map(type, his)) != {int}
        or set(map(type, coeffs)) != {list}
        or not set(map(type, chain.from_iterable(coeffs))) <= {int}
        or 0 in map(itemgetter(0), nonempty)
        or 0 in map(itemgetter(-1), nonempty)
        or any(compress(his, map(not_, coeffs)))
    ):
        raise ValueError("an entry is not as save_cache writes it")
    return dict(zip(keys, map(_Deferred, his, coeffs)))


def _describe(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON: {exc.msg}"
    if isinstance(exc, KeyError):
        return f"missing {exc}"
    return f"{type(exc).__name__}: {exc}"


def save_cache(path: str, cache: Dict[str, RefinedPolynomial]) -> None:
    """Write the cache file whole or not at all.

    The header carries the CRC-32 of the entry lines below it, so a file
    changed after it was written fails its load. The file goes to a
    temporary file in the target's directory, which then replaces the
    target in one rename, so readers and concurrent writers see either the
    old file or a complete new one; a symlink is resolved first, so its
    target is replaced and the link kept. A value no entry can hold fails
    before the temporary file is made, and a failure while writing leaves
    the old file untouched and removes the temporary one. Nothing is synced
    to disk, so a power loss can still lose the latest save.
    """
    path = os.path.realpath(path)
    lines = []
    for key, poly in sorted(cache.items()):
        hi, coeffs = _dense(key, poly)
        # byte for byte what json.dumps gives for [key, hi, coeffs]: only
        # the key can need escaping, and a list of ints prints as JSON does
        lines.append(f"[{encode_basestring_ascii(key)}, {hi}, {coeffs}]\n")
    body = "".join(lines).encode()
    header = {"version": CACHE_VERSION, "crc32": zlib.crc32(body)}
    # O_EXCL: a name clash fails instead of sharing a file; 0o666 lets the
    # umask set the mode, as a plain open() of the target would
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + body)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _render(poly: RefinedPolynomial, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(poly.to_json_dict(), separators=(",", ":"))
    return poly.to_text()


# -- commands -----------------------------------------------------------------


def cmd_compute(args) -> int:
    d = parse_degree(args.spec)
    v1 = parse_vector(args.v1) if args.v1 else None
    vm = parse_vector(args.vm) if args.vm else None
    cache_path = args.cache_path or os.environ.get(CACHE_ENV)
    cache: Dict[str, RefinedPolynomial] = {}
    if cache_path and os.path.isfile(cache_path):
        cache = load_cache(cache_path)
    elif cache_path and os.path.exists(cache_path):  # a directory, FIFO or device
        raise OSError(f"{cache_path}: not a regular file, so not a cache file")
    elif cache_path and not os.path.isdir(
        os.path.dirname(os.path.realpath(cache_path))
    ):  # the save, through any symlink, would fail, so fail before computing
        raise FileNotFoundError(f"{cache_path}: no such directory for the cache file")
    known = len(cache)
    value = refined_invariant(d, v1=v1, vm=vm, cache=cache)
    print(_render(value, args.format))
    if cache_path and len(cache) > known:
        save_cache(cache_path, cache)
    return 0


def cmd_oracle(args) -> int:
    d = parse_degree(args.spec)
    value = oracle_invariant(d, seed=args.seed, max_ends=args.max_ends)
    print(_render(value, args.format))
    return 0


def cmd_verify(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    d = parse_degree(args.spec)
    check_oracle_size(d)  # refuse before the recursion runs
    recursion = refined_invariant(d, cache={})
    print(f"recursion: {recursion.to_text()}")
    ok = True
    for seed in range(args.seeds):
        oracle = oracle_invariant(d, seed=seed)
        agree = oracle == recursion
        ok = ok and agree
        print(f"oracle[seed={seed}]: {oracle.to_text()} "
              f"({'agree' if agree else 'MISMATCH'})")
    print("verified: all seeds agree" if ok else "FAILED: engines disagree")
    return 0 if ok else 1


def _partitions(n: int, largest: Optional[int] = None):
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def render_partition(parts: Tuple[int, ...]) -> str:
    out = []
    for p, grp in groupby(parts):
        k = len(list(grp))
        out.append(f"{p}^{k}" if k > 1 else f"{p}")
    return ",".join(out)


def cmd_table(args) -> int:
    if args.max_degree > TABLE_DEGREE_GUARD:
        raise ValueError(
            f"table guard: max degree {TABLE_DEGREE_GUARD}, got {args.max_degree}"
        )
    if args.max_degree < 1:
        raise ValueError("max degree must be at least 1")
    cache: Dict[str, RefinedPolynomial] = {}
    for d in range(1, args.max_degree + 1):
        lams = sorted(_partitions(d), key=lambda p: (-len(p), p))
        for lam in lams:
            value = refined_invariant(cp2_degree(d, list(lam)), cache=cache)
            print(f"N_{d}({render_partition(lam)}) = {value.to_text()}")
    return 0


# built once per process: in-process callers such as the benchmark call main
# many times, and the parser holds no state of a call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refined-chord",
        description="Refined counts of rational plane tropical curves "
        "through boundary points.",
    )
    sub = parser.add_subparsers(required=True, dest="command")

    p = sub.add_parser("compute", help="compute the invariant by the chord recursion")
    p.add_argument("spec", help="degree spec, e.g. 'P2:3' or '(-1,0),(0,-1),(1,1)'")
    p.add_argument("--v1", help="first chord end, e.g. '(-1,0)'")
    p.add_argument("--vm", help="last chord end, e.g. '(1,1)'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cache-path", help=f"memo file (default ${CACHE_ENV})")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="compute the invariant from the definition")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-ends", type=int, default=ORACLE_END_GUARD,
                   help="raise the exponential-growth guard explicitly")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="cross-check recursion against the oracle")
    p.add_argument("spec")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="print the triangle-degree invariants")
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TooLarge, GenericityFailure, ValueError, OSError) as exc:
        # ParseError, degree validation, cache file and guard failures, and
        # a cache path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _entry()
