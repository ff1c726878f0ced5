"""Byte-exact CLI transcripts of every report verb, under pytest.

The cases and the runner live in `cli_transcript.py`, which CI also runs
without pytest; each case must match `golden/cli_transcript.json`.
"""

import json

import pytest

from cli_transcript import CASES, GOLDEN, transcript


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("transcript")


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_matches_golden(name, golden, input_dir):
    assert transcript(name, input_dir) == golden[name]
