"""Golden outputs: small commands whose data files must keep their recorded digests.

See ``_golden.py`` for the commands and how to regenerate the record.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import _golden

RECORD = json.loads(_golden.DIGESTS.read_text(encoding="utf-8"))


def test_record_lists_every_command():
    assert sorted(RECORD["runs"]) == sorted(_golden.COMMANDS)


@pytest.mark.parametrize("name", sorted(_golden.COMMANDS))
def test_data_files_keep_their_recorded_digests(name):
    # exact under the recorded versions; other numpy or scipy builds may
    # round differently, so there each column's sum and max |value| need only
    # agree to RTOL relative to the larger of the statistic and the column's
    # max |value| (a sum of x over a symmetric grid is a rounding error)
    expected, actual = RECORD["runs"][name], _golden.run(name)
    assert actual["exit_code"] == expected["exit_code"]
    assert sorted(actual["files"]) == sorted(expected["files"])
    if _golden.versions() == RECORD["versions"]:
        assert actual["files"] == expected["files"]
        return
    for file, want in expected["files"].items():
        scale = np.array([float.fromhex(h) for h in want["max_abs"]])
        for stat in ("sum", "max_abs"):
            got = np.array([float.fromhex(h) for h in actual["files"][file][stat]])
            ref = np.array([float.fromhex(h) for h in want[stat]])
            assert got.shape == ref.shape, f"{file}: column count"
            bad = np.abs(got - ref) > _golden.RTOL * np.maximum(np.abs(ref), scale)
            assert not bad.any(), f"{file} {stat}: columns {np.nonzero(bad)[0]} moved"
