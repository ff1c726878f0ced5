"""Byte-exact CLI transcripts of every report verb, text and JSON.

Each case runs one `zz` report verb on a fixed input; its exit code,
stdout and stderr must equal the record in `golden/cli_transcript.json`.
The bicomplex verbs run on the Hopf model and on a scrambled sum with
zigzags of length 4 and 5, and `scramble --seed 9` (text only) on each
of the two; `combine` builds a rank-3 bundle over the Hopf model and
blow-ups of it along a labelled center (itself) and an unlabelled one
(the scrambled sum); the cdga verbs run on `--preset ex_k2_M`, and
three of them also on a sheared S2 x S2, whose even generators take the
sign path of even powers.
This module needs only the standard library; `test_cli_transcript.py`
runs the same cases under pytest.

Compare every case with the golden file (exit 1 on any difference):

    PYTHONPATH=src python3 tests/cli_transcript.py --check

Regenerate the golden file (only when an output change is intended):

    PYTHONPATH=src python3 tests/cli_transcript.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

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

COMBINE_CASES = {
    "combine/bundle-3/hopf/text": ["combine", "bundle", "--rank", "3", "{hopf}"],
    "combine/blowup-2/hopf-hopf/text":
        ["combine", "blowup", "{hopf}", "{hopf}", "--codim", "2"],
    "combine/blowup-3/hopf-zigzag45/text":
        ["combine", "blowup", "{hopf}", "{zigzag45}", "--codim", "3"],
}

EVEN_CDGA_VERBS = {
    "cdga-cohomology-8": ["cdga", "cohomology", "--max-deg", "8"],
    "cdga-model-2": ["cdga", "model", "--j", "2"],
    "cdga-obstruct-2": ["cdga", "obstruct", "--j", "2"],
}

# C^4 = <a^2, a*x, x^2> with a^2 and a*x + x^2 exact.
SHEARED_S2XS2 = {
    "dim": 4,
    "generators": [{"name": "a", "degree": 2}, {"name": "x", "degree": 2},
                   {"name": "y", "degree": 3}, {"name": "z", "degree": 3}],
    "d": {"y": "a^2", "z": "a*x+x^2"},
}


def _inputs():
    """The input files' JSON text, by name."""
    zigzags = MultiplicityTable({
        square_shape(0, 0): 1,
        zigzag_shape((0, 1), 4, "horizontal"): 1,
        zigzag_shape((1, 0), 5, "vertical"): 1,
    })
    return {
        "hopf": dumps(vaisman_model(1, {(0, 0): 1})),
        "zigzag45": dumps(scramble(realize(zigzags), 5)),
        "dot": dumps(realize(MultiplicityTable({dot_shape(0, 0): 1}))),
        "sheared_s2xs2": json.dumps(SHEARED_S2XS2),
    }


def _cases():
    for verb, argv in BICOMPLEX_VERBS.items():
        for source in ("hopf", "zigzag45"):
            for fmt in ("text", "json"):
                yield f"{verb}/{source}/{fmt}", argv + ["{%s}" % source], fmt
    for source in ("hopf", "zigzag45"):
        yield (f"scramble/{source}/text",
               ["scramble", "--seed", "9", "{%s}" % source], "text")
    for name, argv in COMBINE_CASES.items():
        yield name, argv, "text"
    for verb, argv in CDGA_VERBS.items():
        for fmt in ("text", "json"):
            yield (f"{verb}/ex_k2_M/{fmt}",
                   argv + ["--preset", "ex_k2_M"], fmt)
    for verb, argv in EVEN_CDGA_VERBS.items():
        for fmt in ("text", "json"):
            yield (f"{verb}/sheared_s2xs2/{fmt}",
                   argv + ["{sheared_s2xs2}"], fmt)


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


def main(args):
    if args not in ([], ["--check"]):
        print("usage: cli_transcript.py [--check]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: transcript(name, tmp) for name in sorted(CASES)}
    if not args:
        GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        return 0
    golden = json.loads(GOLDEN.read_text())
    differ = sorted(name for name in golden.keys() | record.keys()
                    if golden.get(name) != record.get(name))
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(record) - len(differ)} of {len(record)} cases match {GOLDEN.name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
