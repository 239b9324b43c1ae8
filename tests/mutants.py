"""Plant known weakenings in a copy of the code and see which tier-1 kills.

    python tests/mutants.py                  # every mutant
    python tests/mutants.py tie-rule ...     # the named ones

Each mutant replaces one exact text of a file under ``src/refined_chord``.
Its effect says what a test must notice: ``values`` if it can change a
value or which moment draws raise, ``work`` if it changes only the work
done, ``none`` if it is equivalent (its note says why). The script copies
the repository to a temporary directory, runs tier-1 there once unmutated
to find the tests that already fail, then once per mutant with ``-x`` and
those tests deselected (and ``test_mutants.py``, which any mutant fails by
moving its own text), and prints each mutant as killed (with the first
failing test) or survived, and the score. Every mutant costs at most one
tier-1 run, about 25 s.
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


def main(names):
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
            else:
                verdict = f"killed by {failed[0] if failed else f'exit {code}'}"
            print(f"{name} [{effect}]: {verdict}  -- {note}", flush=True)
        killed = len(chosen) - len(survivors)
        print(f"score: {killed} of {len(chosen)} killed; survivors: {' '.join(survivors) or '-'}")


if __name__ == "__main__":
    main(sys.argv[1:])
