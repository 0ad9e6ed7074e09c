"""Every command writes the bytes the committed digest table holds, and a
search resumed from its own checkpoint, or from one in the older format,
writes what an uninterrupted one writes."""

import json

import pytest

from output_digests import TABLE, environment, run_commands


def test_every_output_matches_the_committed_digests(tmp_path):
    table = json.loads(TABLE.read_text())
    recorded = {key: table[key] for key in environment()}
    if environment() != recorded:
        pytest.skip(f"the digests were recorded under {recorded}, this is {environment()}")
    runs = run_commands(tmp_path)
    digests, wanted = runs["run"], table["digests"]
    changed = sorted(k for k in wanted.keys() | digests.keys() if digests.get(k) != wanted.get(k))
    assert not changed, f"outputs differ from {TABLE.name}: {changed}"
    optimize = {k: v for k, v in digests.items() if k.startswith("optimize/")}
    assert runs["resumed"] == optimize
    assert runs["legacy"] == optimize
