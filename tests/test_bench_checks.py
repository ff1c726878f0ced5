"""The benchmark's own checks, run as tests: `bench/smoke.py`, and one
untraced seed-1 pass of each workload against the output digests that
`bench/records.json` holds for that seed.  A changed output, or a
renamed name that `bench/workloads.py` calls, fails here and not only in
CI.  Each runs in a child process, which imports zzcalc afresh from
`src/`.  The digest pass calls `run.run` directly, as `smoke.py` does,
because `run.py`'s `main` also saves a results file.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DIGESTS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
print(json.dumps(run.run(sys.argv[3], 1, 0, 0)["line"]))
"""


def child(*argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


def test_smoke():
    done = child(str(ROOT / "bench" / "smoke.py"))
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: ok"


@pytest.mark.parametrize("workload", ("sweep", "large", "nilmanifold"))
def test_seed_1_digests(workload):
    done = child("-c", DIGESTS, str(ROOT / "src"), str(ROOT / "bench"), workload)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0, line
