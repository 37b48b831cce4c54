"""The mutation smoke's list cannot rot: every mutant still applies at HEAD."""

import pathlib

import pytest

import mutants


@pytest.mark.parametrize(
    "file,old,new,tests",
    mutants.MUTANTS,
    ids=[f"{pathlib.Path(m[0]).stem}-{i}" for i, m in enumerate(mutants.MUTANTS)],
)
def test_every_mutant_applies_once(file, old, new, tests):
    assert (mutants.ROOT / file).read_text().count(old) == 1
    assert old != new
    assert all(pathlib.Path(mutants.ROOT, t).is_file() for t in tests)


def test_the_smoke_spans_the_numeric_core():
    assert len(mutants.MUTANTS) >= 30
    modules = {pathlib.Path(file).stem for file, *_ in mutants.MUTANTS}
    assert modules >= {
        "diffsort", "newton", "linalg", "smoothing", "shortest_path", "trainers", "datagen", "net"
    }
    assert set(mutants.EQUIVALENT) <= {(file, old) for file, old, *_ in mutants.MUTANTS}
