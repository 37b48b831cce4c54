"""Byte-for-byte behaviour lock: fresh CLI output against committed goldens."""

import copy
import json

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


def _report(final, curve):
    run = {"seed": 0, "curve": [{"step": i, "perfect_match": v} for i, v in enumerate(curve)],
           "final": {"perfect_match": final}}
    mode = {"lam": 1.0, "seeds": [run], "final_mean": {"perfect_match": final},
            "final_std": {"perfect_match": 0.0}}
    return {"schema_version": 1, "kind": "path", "config": {"hash": "a", "steps": 2},
            "modes": {"baseline": copy.deepcopy(mode), "nl_fisher": mode}}


def test_diff_names_the_runs_that_moved_and_their_first_step():
    before = _report(50.0, [10.0, 20.0, 50.0])
    after = copy.deepcopy(before)
    run = after["modes"]["nl_fisher"]["seeds"][0]
    run["curve"][1]["perfect_match"] = 25.0
    run["final"]["perfect_match"] = 62.5
    after["config"]["hash"] = "b"
    text = json.dumps(before, indent=2)
    assert regen.diff_outputs(text, text) == ["unchanged"]
    assert regen.diff_outputs(text, json.dumps(after, indent=2)) == [
        "config hash: a -> b",
        "baseline seed 0: unchanged",
        "nl_fisher seed 0: final perfect_match 50.0 -> 62.5; curve first differs at step 1",
    ]
    longer = copy.deepcopy(before)
    longer["modes"]["baseline"]["seeds"][0]["curve"].append({"step": 3, "perfect_match": 1.0})
    assert regen.diff_outputs(text, json.dumps(longer))[0] == (
        "baseline seed 0: final perfect_match 50.0 -> 50.0; curve first differs at step 3"
    )


def test_diff_counts_changed_rows_and_the_largest_numeric_change():
    before = "y1\tg0\n-10\t0.25\n-9.5\t0.5\n-9\t1e-3\n"
    after = "y1\tg0\n-10\t0.25\n-9.5\t0.75\n-9\t2e-3\n"
    assert regen.diff_outputs(before, after) == [
        "2 of 4 rows changed; largest numeric change 0.25"
    ]
    gen = '{"count": 2}\n{"features": [1.5, 2.0]}\n'
    assert regen.diff_outputs(gen, gen.replace("2.0", "2.5") + '{"features": [0]}\n') == [
        "2 of 3 rows changed; largest numeric change 0.5"
    ]
