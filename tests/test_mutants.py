import os

import mutants
from mutants import MUTANTS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "refined_chord")


def test_each_mutant_text_occurs_once_in_src():
    # a mutant whose text moved or repeats would test nothing, or the wrong code
    sources = {}
    for name in os.listdir(SRC):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                sources[name] = f.read()
    assert len({m[0] for m in MUTANTS}) == len(MUTANTS)
    for name, file, text, replacement, effect, note in MUTANTS:
        assert effect in ("values", "work", "format", "none"), name
        assert text != replacement, name
        assert sources[file].count(text) == 1, name
        assert sum(source.count(text) for source in sources.values()) == 1, name


def _stub_tier1(mutated_code):
    # stands in for a tier-1 run: the unmutated run finds nothing failing,
    # each mutated run exits with mutated_code
    calls = []

    def run(repo, *args):
        calls.append(args)
        return (0, []) if len(calls) == 1 else (mutated_code, ["tests/t.py::t"])

    return run


def test_mutants_exit_code_gates_on_unexplained_survivors(monkeypatch, capsys):
    monkeypatch.setattr(mutants, "_tier1", _stub_tier1(0))
    assert mutants.main(["tie-rule"]) == 1  # survives, but it changes values
    monkeypatch.setattr(mutants, "_tier1", _stub_tier1(0))
    assert mutants.main(["b-exit-strict"]) == 0  # survives, and is equivalent
    monkeypatch.setattr(mutants, "_tier1", _stub_tier1(1))
    assert mutants.main(["tie-rule", "memo-unguarded"]) == 0
    out = capsys.readouterr().out
    assert "score: 2 of 2 killed" in out and "killed by tests/t.py::t" in out
