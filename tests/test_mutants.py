import os

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
