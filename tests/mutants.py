"""Plant known weakenings in a copy of the code and see which tier-1 kills.

    python tests/mutants.py                  # every mutant
    python tests/mutants.py tie-rule ...     # the named ones

Each mutant replaces one exact text of a file under ``src/refined_chord``.
Its effect says what a test must notice: ``values`` if it can change a
value or which moment draws raise, ``work`` if it changes only the work
done, ``format`` if it changes only which cache files are read,
``none`` if it is equivalent (its note says why). The script copies
the repository to a temporary directory, runs tier-1 there once unmutated
to find the tests that already fail, then once per mutant with ``-x`` and
those tests deselected (and ``test_mutants.py``, which any mutant fails by
moving its own text), and prints each mutant as killed (with the first
failing test) or survived, and the score. Every mutant costs at most one
tier-1 run, about 25 s. Exits 1 when a mutant survives whose effect is not
``none``, so a weakening that no test notices fails the run.
The file name keeps it out of pytest's collection;
``test_mutants.py`` checks that each text occurs exactly once in ``src``.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file, text, replacement, effect, note)
MUTANTS = [
    (
        "one-entry-overflow",
        "direct_enumerator.py",
        "                if we >> bits:\n",
        "                if False:\n",
        "values",
        "a one-entry subset no longer checks its value at q = 1 against the slot",
    ),
    (
        "last-key-raise",
        "direct_enumerator.py",
        "if p == last * det:",
        "if False:",
        "values",
        "a root of side a on the vertex at a's last key is taken as generic",
    ),
    (
        "b-exit-strict",
        "direct_enumerator.py",
        "if p >= last * det:\n                    continue",
        "if p > last * det:\n                    continue",
        "none",
        "side b never has its last root on the vertex: an earlier split raised "
        "(see _packed_count's docstring)",
    ),
    (
        "tie-rule",
        "chord_recursion.py",
        "if block <= prev_key:",
        "if block < prev_key:",
        "values",
        "equal blocks on the tie axis are counted in both orders",
    ),
    (
        "admits-everything",
        "chord_recursion.py",
        "    (w0, w1), (s0, s1) = w, su_dir\n",
        "    return True\n",
        "work",
        "no tail is skipped unvisited; values stay, so only its own tests and the work pins notice",
    ),
    (
        "sigma-zero-passes",
        "chord_recursion.py",
        "if sigma and (sigma < 0 or n == 1):",
        "if sigma < 0 or n == 1:",
        "values",
        "a single end parallel to the chord is a passer, with vertex weight [0]_q = 0",
    ),
    (
        "sigma-positive-pairs",
        "chord_recursion.py",
        "(sigma < 0 or n == 1)",
        "(sigma < 0 or n <= 2)",
        "values",
        "a block of two ends with sigma > 0 is a passer",
    ),
    (
        "no-cross-rule",
        "chord_recursion.py",
        "if cross * sigma < 0:",
        "if False:",
        "values",
        "a block that turns against the previous sigma * u is admitted",
    ),
    (
        "fam-undivided",
        "chord_recursion.py",
        "prod(map(comb, left, takes)) // r",
        "prod(map(comb, left, takes))",
        "values",
        "a run of r identical blocks is weighed as ordered, r! times too much",
    ),
    (
        "recursion-overflow",
        "chord_recursion.py",
        "if e1 >> bits:\n            raise _SlotOverflow\n        return acc",
        "if False:\n            raise _SlotOverflow\n        return acc",
        "values",
        "a state total whose slots carried is kept, with no retry at wider slots",
    ),
    (
        "memo-unguarded",
        "chord_recursion.py",
        "if passers + len(record) > SUFFIX_MEMO_GUARD:",
        "if False:",
        "work",
        "the memo is never cleared; values stay",
    ),
    (
        "admits-no-tie-singleton",
        "chord_recursion.py",
        "if a * b > 0 or a and not b and v > least:",
        "if a * b > 0:",
        "values",
        "a tail whose only next block is a single end on the tie axis is refused",
    ),
    (
        "admits-no-edge-copies",
        "chord_recursion.py",
        "if not b and c > 1:",
        "if False:",
        "values",
        "a tail whose only next block is copies of an edge end is refused",
    ),
    (
        "admits-no-pair",
        "chord_recursion.py",
        "return pa * qb > pb * qa",
        "return False",
        "values",
        "a tail whose only next blocks take ends from both sides of the cross axis is refused",
    ),
    (
        "cached-any-length",
        "refined_poly.py",
        "len(coeffs) != hi + 1 or ",
        "",
        "values",
        "a cached value whose coefficients do not reach -hi is packed as if they did",
    ),
    (
        "cached-not-palindromic",
        "refined_poly.py",
        "coeffs != coeffs[::-1] or ",
        "",
        "values",
        "a cached value that is not palindromic is packed as if it were",
    ),
    (
        "cached-negative",
        "refined_poly.py",
        " or min(coeffs) < 0)",
        ")",
        "values",
        "a cached value with a negative coefficient is packed, borrowing from the next slot",
    ),
    (
        "decode-leading-zero",
        "cli.py",
        "        or 0 in map(itemgetter(0), nonempty)\n",
        "",
        "format",
        "a cache line whose coefficients start with 0 is read instead of refused",
    ),
    (
        "normal-form-greatest",
        "lattice.py",
        "if form is None or image < form:",
        "if form is None or image > form:",
        "format",
        "the class form is the greatest candidate, as much a class invariant; only keys change",
    ),
    (
        "normal-form-no-symmetry-exit",
        "lattice.py",
        "if image == done:",
        "if False:",
        "work",
        "candidates that a symmetry maps onto earlier ones are compared again; the form stays",
    ),
    (
        "q-analog-hi",
        "refined_poly.py",
        "a - 1, a\n",
        "a, a\n",
        "values",
        "[a]_q is packed one half-exponent too high, q^(1/2) times its value",
    ),
    (
        "coincident-lines-pass",
        "direct_enumerator.py",
        "if ma * bx == mb * ax and ma * by == mb * ay",
        "if False and ma * bx == mb * ax and ma * by == mb * ay",
        "values",
        "a split whose two moment lines coincide is skipped instead of raised",
    ),
    (
        "decode-repeated-key",
        "cli.py",
        "        or len(set(keys)) != len(keys)\n",
        "",
        "format",
        "a cache file that holds a key twice is read, the last line winning, instead of refused",
    ),
    (
        "dense-mixed-parity",
        "refined_poly.py",
        "if len({k & 1 for k in terms}) > 1:",
        "if False:",
        "values",
        "a cached value of mixed parity loses the terms off hi's parity instead of being refused",
    ),
    (
        "decode-key-type",
        "cli.py",
        "set(map(type, keys)) != {str}",
        "False",
        "format",
        "a cache line whose key is not a string is read instead of refused",
    ),
    (
        "decode-hi-type",
        "cli.py",
        "set(map(type, his)) != {int}",
        "False",
        "format",
        "a cache line whose hi is a float or a bool is read instead of refused",
    ),
    (
        "decode-coefficient-type",
        "cli.py",
        "not set(map(type, chain.from_iterable(coeffs))) <= {int}",
        "False",
        "format",
        "a cache line with a float, bool or string coefficient is read instead of refused",
    ),
    (
        "mid-key-raise",
        "direct_enumerator.py",
        "if not rem and i and keys[i - 1] == at:",
        "if False:",
        "values",
        "a root of side a on the vertex at one of a's keys before the last is taken as generic",
    ),
    (
        "canonical-key-sorted",
        "lattice.py",
        "_normal_form(d.vectors)",
        "d.vectors",
        "format",
        "degrees are cached under their sorted vectors, so an image of a cached class misses",
    ),
    (
        "pack-overflow",
        "refined_poly.py",
        "if e1 >> bits:\n        raise _SlotOverflow\n    n = 0",
        "if False:\n        raise _SlotOverflow\n    n = 0",
        "values",
        "a cached value that reaches the slot width is packed, carrying out of its slots",
    ),
    (
        "ends-of-count-zero",
        "chord_recursion.py",
        "cb < 1",
        "cb < 0",
        "values",
        "a given vm that is not an end, or a pair of equal ends of multiplicity 1, is a chord",
    ),
    (
        "oracle-zero-slope-coincident",
        "direct_enumerator.py",
        "(ax or ay) and (bx or by)",
        "True",
        "values",
        "a split with a zero-sum side is raised as coincident lines, so its degree exhausts its draws",
    ),
    (
        "moments-may-repeat",
        "direct_enumerator.py",
        "len(set(mus)) == m",
        "True",
        "values",
        "a moment draw with two equal moments is used",
    ),
    (
        "draw-seed-fixed",
        "direct_enumerator.py",
        "seed + attempt",
        "seed",
        "values",
        "every redraw repeats the first, so a degenerate first draw exhausts the attempts",
    ),
    (
        "cache-digest-unchecked",
        "cli.py",
        'header.get("crc32") != zlib.crc32(body)',
        "False",
        "values",
        "a cache file edited after it was written is read, so a planted coefficient is served",
    ),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def _tier1(repo, *args, timeout=900):
    env = {**os.environ, "PYTHONPATH": os.path.join(repo, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            TIER1 + list(args), cwd=repo, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, []
    return run.returncode, re.findall(r"^FAILED (\S+)", run.stdout, re.M)


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(chosen) != len(set(names)):
        sys.exit(f"unknown mutant among {names}")
    with tempfile.TemporaryDirectory() as tmp:
        repo = os.path.join(tmp, "repo")
        shutil.copytree(
            ROOT, repo,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work-*"),
        )
        _, failing = _tier1(repo)
        print(f"unmutated: {len(failing)} failing, deselected: {' '.join(failing) or '-'}", flush=True)
        deselect = ["--ignore=tests/test_mutants.py"]
        deselect += [arg for test in failing for arg in ("--deselect", test)]
        survivors = []
        unexplained = 0  # survivors that should have changed values, work or format
        for name, file, text, replacement, effect, note in chosen:
            path = os.path.join(repo, "src", "refined_chord", file)
            with open(path) as f:
                original = f.read()
            assert original.count(text) == 1, name
            with open(path, "w") as f:
                f.write(original.replace(text, replacement))
            code, failed = _tier1(repo, "-x", *deselect)
            with open(path, "w") as f:
                f.write(original)
            if code is None:
                verdict = "killed (timeout)"
            elif code == 0:
                verdict = "SURVIVED"
                survivors.append(name)
                unexplained += effect != "none"
            else:
                verdict = f"killed by {failed[0] if failed else f'exit {code}'}"
            print(f"{name} [{effect}]: {verdict}  -- {note}", flush=True)
        killed = len(chosen) - len(survivors)
        print(f"score: {killed} of {len(chosen)} killed; survivors: {' '.join(survivors) or '-'}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
