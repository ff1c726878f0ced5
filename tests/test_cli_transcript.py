"""Byte-exact CLI transcripts of every report verb, text and JSON.

Each case runs one `zz` report verb on a fixed input and compares its
exit code, stdout and stderr with `golden/cli_transcript.json`.  The
bicomplex verbs run on the Hopf model and on a scrambled sum with
zigzags of length 4 and 5; the cdga verbs run on `--preset ex_k2_M`.

Regenerate the golden file (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from zzcalc import cli
from zzcalc.bicomplex import (
    MultiplicityTable,
    dot_shape,
    dumps,
    scramble,
    square_shape,
    zigzag_shape,
)
from zzcalc.decomposition import realize
from zzcalc.models import vaisman_model

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_transcript.json"

BICOMPLEX_VERBS = {
    "decompose": ["decompose"],
    "cohomology-deRham": ["cohomology", "--functor", "deRham"],
    "cohomology-bott_chern": ["cohomology", "--functor", "bott_chern"],
    "filtration": ["filtration"],
    "pages-column-1": ["pages"],
    "pages-row-2": ["pages", "--which", "row", "--r", "2"],
    "pdef": ["pdef"],
    "les": ["les"],
    "numerics": ["numerics"],
    "purity": ["purity"],
    "check-ddc3": ["check", "--ddc3"],
}

CDGA_VERBS = {
    "cdga-cohomology": ["cdga", "cohomology", "--max-deg", "6"],
    "cdga-rank": ["cdga", "rank", "--j", "2", "--k", "4"],
    "cdga-model": ["cdga", "model", "--j", "1"],
    "cdga-obstruct-1": ["cdga", "obstruct", "--j", "1"],
    "cdga-obstruct-2": ["cdga", "obstruct", "--j", "2"],
    "cdga-compat": ["cdga", "compat", "--j", "1", "--complex", "{dot}"],
}


def _inputs():
    """The bicomplex inputs as canonical JSON text, by name."""
    zigzags = MultiplicityTable({
        square_shape(0, 0): 1,
        zigzag_shape((0, 1), 4, "horizontal"): 1,
        zigzag_shape((1, 0), 5, "vertical"): 1,
    })
    return {
        "hopf": dumps(vaisman_model(1, {(0, 0): 1})),
        "zigzag45": dumps(scramble(realize(zigzags), 5)),
        "dot": dumps(realize(MultiplicityTable({dot_shape(0, 0): 1}))),
    }


def _cases():
    for verb, argv in BICOMPLEX_VERBS.items():
        for source in ("hopf", "zigzag45"):
            for fmt in ("text", "json"):
                yield f"{verb}/{source}/{fmt}", argv + ["{%s}" % source], fmt
    for verb, argv in CDGA_VERBS.items():
        for fmt in ("text", "json"):
            yield (f"{verb}/ex_k2_M/{fmt}",
                   argv + ["--preset", "ex_k2_M"], fmt)


CASES = {name: (argv, fmt) for name, argv, fmt in _cases()}


def transcript(name, directory):
    """Exit code, stdout and stderr of one case, inputs under directory."""
    argv, fmt = CASES[name]
    paths = {}
    for key, text in _inputs().items():
        path = pathlib.Path(directory) / f"{key}.json"
        if not path.exists():
            path.write_text(text + "\n")
        paths[key] = str(path)
    argv = [arg.format(**paths) for arg in argv]
    if fmt == "json":
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: transcript(name, tmp) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
