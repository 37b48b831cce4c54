"""Byte-for-byte behaviour lock: fresh CLI output against committed goldens."""

import pytest

from golden import regen


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.out"
    regen.run_case(name, str(out))
    with open(regen.golden_path(name), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected, (
        f"{name} differs from its golden; if the change is intended, run "
        "`PYTHONPATH=src python3 tests/golden/regen.py` and say why in CHANGES.md"
    )
