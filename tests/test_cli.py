"""CLI tests: thin-adapter checks against direct library calls.

Every machine-readable output is compared with the corresponding
library call, so no mathematics can hide in the frontend.  Exit codes
follow the convention 0 computed/holds, 1 condition fails, 2 input
error, 3 internal invariant violation.
"""

import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zzcalc import cli
from zzcalc.bicomplex import (
    MultiplicityTable,
    direct_sum,
    dot_shape,
    dual,
    dumps,
    from_json,
    realize_shape,
    scramble,
    square_shape,
    zigzag_shape,
)
from zzcalc.cdga import CdgaPresentation, cdga_to_json, d_jk, preset, r_jk
from zzcalc.conditions import les, numeric_report, purity_diagram
from zzcalc.decomposition import multiplicities, realize
from zzcalc.errors import Inconsistent
from zzcalc.functors import (
    cohomology,
    hodge_filtration,
    purity_defect,
    spectral_page,
)
from zzcalc.models import product_model, vaisman_model


@pytest.fixture(scope="module")
def hopf_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "hopf.json"
    path.write_text(dumps(vaisman_model(1, {(0, 0): 1})) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def hopf():
    return vaisman_model(1, {(0, 0): 1})


def run_lines(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_child(argv):
    """(exit code, stdout lines, stderr, seconds) of `python -m zzcalc.cli
    argv` in a child process, killed after 30 s, so a walk that never
    stops fails the test instead of hanging the run."""
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "zzcalc.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    return (done.returncode, done.stdout.splitlines(), done.stderr,
            time.perf_counter() - start)


class TestValidate:
    def test_single_file(self, capsys, hopf_path):
        code, lines, _ = run_lines(capsys, ["validate", hopf_path])
        assert code == 0
        assert lines[0].startswith("ok: 7 spaces, dim 8")

    def test_json_output(self, capsys, hopf_path):
        code, obj = run_json(capsys, ["validate", hopf_path, "--json"])
        assert code == 0
        assert obj["ok"] is True

    def test_bad_json_cites_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"spaces": {\n  "0,0": oops}}')
        code, lines, _ = run_lines(capsys, ["validate", str(bad)])
        assert code == 2
        assert "line 2" in lines[0] and "column" in lines[0]

    def test_missing_file(self, capsys):
        code, lines, _ = run_lines(
            capsys, ["validate", "/no/such/file.json"])
        assert code == 2
        assert "error" in lines[0]

    def test_not_a_bicomplex(self, capsys, tmp_path):
        bad = tmp_path / "shape.json"
        bad.write_text('{"spaces": {"0,0": 1}, "del": {"0,0": [["1"]]}}')
        code, _, err = run_lines(capsys, ["validate", str(bad)])
        assert code == 2

    def test_stdin(self, capsys, monkeypatch, hopf):
        monkeypatch.setattr("sys.stdin", io.StringIO(dumps(hopf)))
        code, lines, _ = run_lines(capsys, ["validate"])
        assert code == 0

    @pytest.mark.parametrize(
        "text",
        [
            '{"spaces": []}',
            '{"spaces": {"0,0": 1, "0,1": 1}, "delbar": "zz"}',
            '{"spaces": {"0,0": 1}, "labels": {"0,0": 5}}',
            '{"spaces": {"0,0": true}}',
            '{"spaces": {"0,0": 1, "1,0": 1}, "del": []}',
            '{"spaces": {"0,0": 1}, "labels": []}',
            '{"spaces": {"0,0": 1}, "labels": {"0,0": "x"}}',
            '{"spaces": {"0,0": 1, "1,0": 1}, "del": {"0,0": [["1/0"]]}}',
            '{"spaces": {"0,0": 1, "1,0": 1}, "del": {"0,0": [["1/0*i"]]}}',
            '{"spaces": {"0,0": 1, "1,0": 1}, "del": {"0,0": [["0/0"]]}}',
            pytest.param(
                '{"spaces": {"0,0": 1, "1,0": 1}, "del": {"0,0": [["%s"]]}}' % ("1" * 5000),
                id="5000-digit-entry"),
            pytest.param('{"spaces": {"0,0": 1, "100000000,0": 1}}', id="degree-gap"),
            pytest.param('{"spaces": {"0,0": 1, "512,0": 1}}', id="degree-span-513"),
        ],
    )
    def test_malformed_bicomplex_exits_2(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run_lines(capsys, ["check", "--ddc3", "-"])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_round_trip_is_byte_identical(self, hopf_path):
        text = open(hopf_path).read().strip()
        assert dumps(from_json(json.loads(text))) == text


class TestCheck:
    def test_ddc3_holds_exit_zero(self, capsys, hopf_path):
        code, lines, _ = run_lines(capsys, ["check", "--ddc3", hopf_path])
        assert code == 0
        assert lines[-1] == "ddc+3: holds"

    def test_ddc3_json_matches_library(self, capsys, hopf_path, hopf):
        from zzcalc.conditions import check_ddc3

        code, obj = run_json(
            capsys, ["check", "--ddc3", hopf_path, "--json"])
        assert code == 0
        assert obj == json.loads(json.dumps(check_ddc3(hopf).to_json()))

    def test_ddc_fails_exit_one(self, capsys, hopf_path):
        code, lines, _ = run_lines(capsys, ["check", "--ddc", hopf_path])
        assert code == 1
        assert lines == ["fails"]

    def test_ddc3_fails_on_long_zigzag(self, capsys, tmp_path):
        A = realize(MultiplicityTable(
            {zigzag_shape((0, 1), 5, "horizontal"): 1}))
        path = tmp_path / "l5.json"
        path.write_text(dumps(A))
        code, _, _ = run_lines(capsys, ["check", "--ddc3", str(path)])
        assert code == 1

    def test_module_entry_point_exits_one(self, tmp_path):
        A = realize(MultiplicityTable(
            {zigzag_shape((0, 1), 5, "horizontal"): 1}))
        path = tmp_path / "l5.json"
        path.write_text(dumps(A))
        src = pathlib.Path(cli.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "zzcalc.cli", "check", "--ddc3", str(path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1, done.stderr
        assert done.stdout.splitlines()[-1] == "ddc+3: fails"

    def test_star_and_j_controlled(self, capsys, hopf_path):
        assert cli.run(["check", "--star", hopf_path]) == 0
        capsys.readouterr()
        assert cli.run(["check", "--j", "1", hopf_path]) == 1
        capsys.readouterr()

    def test_sweep_reports_per_file(self, capsys, hopf_path, tmp_path):
        A = realize(MultiplicityTable(
            {zigzag_shape((0, 1), 5, "horizontal"): 1}))
        other = tmp_path / "l5.json"
        other.write_text(dumps(A))
        code, lines, _ = run_lines(
            capsys, ["check", "--ddc3", hopf_path, str(other)])
        assert code == 1
        assert lines[0].endswith("holds")
        assert lines[1].endswith("fails")

    def test_sweep_with_jobs(self, capsys, hopf_path):
        code, obj = run_json(capsys, [
            "check", "--ddc3", hopf_path, hopf_path, "--jobs", "2",
            "--json",
        ])
        assert code == 0
        assert [row["verdict"] for row in obj] == ["holds", "holds"]

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_jobs_never_change_single_file_output(self, capsys, hopf_path,
                                                  fmt):
        argv = ["check", "--ddc3", hopf_path] + fmt
        plain = run_lines(capsys, argv)
        fanned = run_lines(capsys, argv + ["--jobs", "2"])
        assert fanned == plain
        assert plain[0] == 0 and len(plain[1]) == (1 if fmt else 8)

    @pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2), (1, None)])
    def test_jobs_clamped(self, capsys, monkeypatch, hopf_path, cpus,
                          expected):
        seen = []

        class Recorder:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        code, obj = run_json(capsys, [
            "check", "--ddc3", hopf_path, hopf_path, hopf_path,
            "--jobs", "100000", "--json",
        ])
        assert code == 0
        assert [row["verdict"] for row in obj] == ["holds"] * 3
        assert seen == ([] if expected is None else [expected])

    @pytest.mark.parametrize("argv", [
        ["check", "--ddc", "--jobs", "-3"], ["validate", "--jobs", "0"],
        ["validate", "--jobs", "x"],
    ], ids=["check-negative", "validate-zero", "validate-text"])
    def test_jobs_below_one_refused(self, capsys, hopf_path, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv + [hopf_path, hopf_path])
        assert exc.value.code == 2
        assert "argument --jobs:" in capsys.readouterr().err

    def test_internal_error_exit_three(self, capsys, monkeypatch,
                                       hopf_path):
        def boom(A):
            raise Inconsistent("forced")

        monkeypatch.setattr(cli, "check_ddc3", boom)
        code, _, err = run_lines(capsys, ["check", "--ddc3", hopf_path])
        assert code == 3
        assert "internal error" in err


class TestReports:
    def test_decompose_json_on_scrambled_sum(self, capsys, tmp_path):
        table = MultiplicityTable({
            square_shape(0, 0): 1,
            zigzag_shape((0, 1), 3, "horizontal"): 1,
        })
        A = scramble(realize(table), 11)
        path = tmp_path / "sum.json"
        path.write_text(dumps(A))
        code, obj = run_json(capsys, ["decompose", str(path), "--json"])
        assert code == 0
        assert obj == table.to_json()
        assert len(obj) == 2

    def test_decompose_text_bands(self, capsys, hopf_path):
        code, lines, _ = run_lines(capsys, ["decompose", hopf_path])
        assert code == 0
        assert lines[0] == "degree 0:"
        assert any("zigzag length 3" in line for line in lines)

    def test_cohomology_json_matches_library(self, capsys, hopf_path,
                                             hopf):
        for functor in ("bott_chern", "deRham", "ker_dc"):
            code, obj = run_json(capsys, [
                "cohomology", "--functor", functor, hopf_path, "--json"])
            assert code == 0
            assert obj == json.loads(
                json.dumps(cohomology(hopf, functor).to_json()))

    def test_cohomology_text_grid(self, capsys, hopf_path):
        code, lines, _ = run_lines(
            capsys, ["cohomology", "--functor", "bott_chern", hopf_path])
        assert code == 0
        assert lines[0] == "functor: bott_chern"
        assert any("p=0" in line for line in lines)

    def test_unknown_functor_exit_two(self, capsys, hopf_path):
        with pytest.raises(SystemExit) as exc:
            cli.run(["cohomology", "--functor", "nope", hopf_path])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_pdef_json(self, capsys, hopf_path, hopf):
        per_degree, total = purity_defect(hopf)
        code, obj = run_json(capsys, ["pdef", hopf_path, "--json"])
        assert code == 0
        assert obj["total"] == total
        assert obj["per_degree"] == {
            str(k): v for k, v in per_degree.items()}

    def test_les_json(self, capsys, hopf_path, hopf):
        code, obj = run_json(capsys, ["les", hopf_path, "--json"])
        assert code == 0
        assert obj == json.loads(json.dumps(les(hopf).to_json()))

    def test_numerics_json(self, capsys, hopf_path, hopf):
        code, obj = run_json(capsys, ["numerics", hopf_path, "--json"])
        assert code == 0
        assert obj == json.loads(json.dumps(numeric_report(hopf).to_json()))

    def test_purity_json(self, capsys, hopf_path, hopf):
        code, obj = run_json(capsys, ["purity", hopf_path, "--json"])
        assert code == 0
        assert obj == json.loads(
            json.dumps(purity_diagram(hopf).to_json()))

    def test_filtration_json(self, capsys, hopf_path, hopf):
        code, obj = run_json(capsys, ["filtration", hopf_path, "--json"])
        assert code == 0
        assert obj == json.loads(
            json.dumps(hodge_filtration(hopf).to_json()))

    def test_pages_json(self, capsys, hopf_path, hopf):
        code, obj = run_json(
            capsys, ["pages", "--which", "row", "--r", "2", hopf_path,
                     "--json"])
        assert code == 0
        assert obj == json.loads(
            json.dumps(spectral_page(hopf, "row", 2).to_json()))


class TestBuildCombine:
    def test_build_vaisman_canonical(self, capsys):
        code = cli.run(["build", "vaisman", "--n", "1"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == dumps(vaisman_model(1, {(0, 0): 1}))

    def test_build_vaisman_beyond_degree_cap_exit_two(self, capsys):
        code, lines, err = run_lines(capsys, ["build", "vaisman", "--n", "300"])
        assert code == 2
        assert lines == []
        assert err.startswith("error: total degrees 0..602 span more")

    def test_build_vaisman_prim_flag(self, capsys):
        code = cli.run([
            "build", "vaisman", "--n", "2",
            "--prim", "0,0:1; 1,0:2 ;0,1:2"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        expected = vaisman_model(2, {(0, 0): 1, (1, 0): 2, (0, 1): 2})
        assert out == dumps(expected)

    def test_bad_prim_exit_two(self, capsys):
        code = cli.run(["build", "vaisman", "--n", "1", "--prim", "0:0:1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad primitive spec" in err

    def test_asymmetric_prim_exit_two(self, capsys):
        code = cli.run(
            ["build", "vaisman", "--n", "2", "--prim", "0,0:1;1,0:1"])
        assert code == 2
        capsys.readouterr()

    def test_build_surface_to_file(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code = cli.run([
            "build", "surface", "--b1", "3", "--h10", "1", "--h20", "1",
            "--b2", "5", "-o", str(out)])
        assert code == 0
        capsys.readouterr()
        A = from_json(json.loads(out.read_text()))
        assert sum(A.spaces.values()) > 0

    def test_bad_surface_params(self, capsys):
        code = cli.run([
            "build", "surface", "--b1", "2", "--h10", "1", "--h20", "1",
            "--b2", "1"])
        assert code == 2
        capsys.readouterr()

    def test_combine_product(self, capsys, hopf_path, hopf):
        code = cli.run(["combine", "product", hopf_path, hopf_path])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == dumps(product_model(hopf, hopf))

    def test_combine_blowup_codim_guard(self, capsys, hopf_path):
        code = cli.run([
            "combine", "blowup", hopf_path, hopf_path, "--codim", "1"])
        assert code == 2
        capsys.readouterr()

    def test_combine_bundle(self, capsys, hopf_path, hopf):
        code, obj = run_json(
            capsys, ["combine", "bundle", hopf_path, "--rank", "2"])
        assert code == 0
        B = from_json(obj)
        assert sum(B.spaces.values()) == 2 * sum(hopf.spaces.values())

    # Each size is known from the inputs and the count, so the refusal
    # comes before any piece, copy, Kronecker block or basis element is built.
    @pytest.mark.parametrize("argv, message", [
        (["combine", "bundle", "--rank", "1000000000", "{hopf}"],
         "total degrees 0..2000000002 span more"),
        (["combine", "blowup", "{hopf}", "{hopf}", "--codim", "1000000000"],
         "total degrees 0..2000000002 span more"),
        (["build", "surface", "--b1", "0", "--h10", "0", "--h20", "0",
          "--b2", "1000000000"], "total degree 2 has dimension 1000000000,"),
        (["build", "surface", "--b1", "0", "--h10", "0", "--h20", "0",
          "--b2", "1000"], "total degree 2 has dimension 1000,"),
        (["build", "vaisman", "--n", "1000000000"],
         "total degrees 0..2000000002 span more"),
        (["build", "vaisman", "--n", "1", "--prim", "0,0:1000000000"],
         "total degree 0 has dimension 1000000000,"),
        (["combine", "product", "{zigzags}", "{zigzags}"],
         "total degree 0 has dimension 250000,"),
    ], ids=["bundle", "blowup", "surface", "surface-1000", "vaisman-n",
            "vaisman-prim", "product"])
    def test_oversized_model_refused_up_front(self, hopf_path, tmp_path, argv, message):
        zigzags = tmp_path / "zigzags.json"
        zigzags.write_text(dumps(realize(MultiplicityTable(
            {zigzag_shape((0, 0), 3, "horizontal"): 250}))))
        code, lines, err, seconds = run_child(
            [arg.format(hopf=hopf_path, zigzags=zigzags) for arg in argv])
        assert (code, lines) == (2, [])
        assert err.startswith("error: " + message)
        assert seconds < 2

    # Copies of an empty complex add nothing, however many are asked for.
    @pytest.mark.parametrize("argv", [
        ["combine", "bundle", "--rank", "1000000000", "{empty}"],
        ["combine", "blowup", "{hopf}", "{empty}", "--codim", "1000000000"],
    ], ids=["bundle", "blowup"])
    def test_copies_of_an_empty_complex(self, capsys, hopf_path, tmp_path, argv):
        empty = tmp_path / "empty.json"
        empty.write_text('{"spaces": {}}\n')
        paths = {"hopf": hopf_path, "empty": str(empty)}
        code, lines, _, seconds = run_child([arg.format(**paths) for arg in argv])
        assert seconds < 2
        assert code == 0
        small = [arg.replace("1000000000", "2") for arg in argv]
        assert lines == run_lines(capsys, [arg.format(**paths) for arg in small])[1]

    def test_dual_matches_library(self, capsys, hopf_path, hopf):
        code = cli.run(["dual", "--n", "2", hopf_path])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == dumps(dual(hopf, 2))

    def test_scramble_seed_flag(self, capsys, hopf_path, hopf):
        code = cli.run(["scramble", "--seed", "9", hopf_path])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == dumps(scramble(hopf, 9))
        assert multiplicities(from_json(json.loads(out))) == \
            multiplicities(hopf)

    def test_scramble_env_seed(self, capsys, monkeypatch, hopf_path,
                               hopf):
        monkeypatch.setenv("ZZ_SEED", "13")
        code = cli.run(["scramble", hopf_path])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == dumps(scramble(hopf, 13))

    def test_scramble_bad_env_seed_exit_two(self, capsys, monkeypatch,
                                            hopf_path):
        monkeypatch.setenv("ZZ_SEED", "abc")
        code = cli.run(["scramble", hopf_path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "ZZ_SEED" in captured.err


# x^k spans every even degree: no top degree
WALK_EVEN = {"dim": 2, "generators": [{"name": "x", "degree": 2}]}
WALK_HUGE_DIM = {"dim": 100000000, "generators": [
    {"name": "x", "degree": 2}, {"name": "y", "degree": 3}], "d": {"y": "x^2"}}
# all odd, so the top degree x*y is finite, but 2000000
WALK_ALL_ODD = {"dim": 2000000, "generators": [
    {"name": "x", "degree": 999999}, {"name": "y", "degree": 1000001}]}
# d y = x is linear, so the model is built by the tower
WALK_LINEAR = {"dim": 0, "generators": [
    {"name": "y", "degree": 1}, {"name": "x", "degree": 2}], "d": {"y": "x"}}


class TestCdgaVerbs:
    def test_obstruct_filiform_example(self, capsys):
        code, lines, _ = run_lines(
            capsys, ["cdga", "obstruct", "--preset", "filiform6",
                     "--j", "1"])
        assert code == 0
        assert lines[-1] == "verdict: blocked at k=6"

    def test_obstruct_json_rows(self, capsys):
        code, obj = run_json(
            capsys, ["cdga", "obstruct", "--preset", "filiform(6)",
                     "--j", "1", "--json"])
        assert code == 0
        assert obj["verdict"] == "blocked"
        assert obj["rows"]["6"] == {"r": 1, "d": 0, "slack": 1}
        assert obj["blocked_at"] == [5, 6]

    def test_obstruct_iwasawa(self, capsys):
        code, obj = run_json(
            capsys, ["cdga", "obstruct", "--preset", "iwasawa", "--j", "1",
                     "--json"])
        assert code == 0
        assert obj["verdict"] == "hypothesis_failed"

    def test_unknown_preset_exit_two(self, capsys):
        code = cli.run(["cdga", "obstruct", "--preset", "torus", "--j", "1"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("name", [
        pytest.param("filiform(2000)", id="2000-generators"),
        pytest.param("filiform(%s)" % ("8" * 5000), id="5000-digit-dimension"),
    ])
    def test_huge_preset_refused_up_front(self, capsys, name):
        start = time.perf_counter()
        code, _, err = run_lines(capsys, ["cdga", "obstruct", "--preset", name, "--j", "1"])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert time.perf_counter() - start < 2

    def test_rank_matches_library(self, capsys):
        P = preset("ex_k2_M")
        code, obj = run_json(
            capsys, ["cdga", "rank", "--preset", "ex_k2_M", "--j", "2",
                     "--k", "4", "--json"])
        assert code == 0
        assert obj == {
            "j": 2, "k": 4, "r": r_jk(P, 2, 4), "d": d_jk(P, 2, 4),
            "slack": 2,
        }

    def test_cohomology_dims(self, capsys):
        code, obj = run_json(
            capsys, ["cdga", "cohomology", "--preset", "iwasawa",
                     "--max-deg", "6", "--json"])
        assert code == 0
        assert obj["dims"] == {
            "0": 1, "1": 4, "2": 8, "3": 10, "4": 8, "5": 4, "6": 1}

    # Every iwasawa piece above degree 6 is zero, so no degree walk may go
    # past it, however large the degree asked for.
    @pytest.mark.parametrize("max_deg", ["1000000", "100000000"])
    def test_cohomology_stops_at_top_degree(self, capsys, max_deg):
        code, lines, _, seconds = run_child(
            ["cdga", "cohomology", "--preset", "iwasawa", "--max-deg", max_deg])
        assert seconds < 2
        assert code == 0
        assert lines == run_lines(
            capsys, ["cdga", "cohomology", "--preset", "iwasawa", "--max-deg", "10"])[1]

    def test_rank_above_top_degree(self):
        code, lines, _, seconds = run_child(
            ["cdga", "rank", "--preset", "iwasawa", "--j", "1",
             "--k", "100000000", "--json"])
        assert seconds < 2
        assert code == 0
        assert json.loads("\n".join(lines)) == {
            "j": 1, "k": 100000000, "r": 0, "d": 0, "slack": 0}

    def test_obstruct_level_above_top_degree(self):
        code, lines, _, seconds = run_child(
            ["cdga", "obstruct", "--preset", "iwasawa",
             "--j", "100000000", "--json"])
        assert seconds < 2
        assert code == 0
        obj = json.loads("\n".join(lines))
        assert (obj["cup_hypothesis"], obj["rows"], obj["verdict"]) == (True, {}, "inconclusive")

    def test_obstruct_dimension_above_top_degree(self, tmp_path):
        obj = cdga_to_json(preset("iwasawa"))
        obj["dim"] = 100000000
        path = tmp_path / "iwasawa.json"
        path.write_text(json.dumps(obj))
        code, _, err, seconds = run_child(["cdga", "obstruct", "--j", "1", str(path)])
        assert seconds < 2
        assert code == 2
        assert err == "error: b_100000000 = 0, expected 1\n"

    # Every verb refuses, before any elimination, a walk whose last degree,
    # min(asked degree, top degree), passes DEGREE_CAP.
    @pytest.mark.parametrize("argv, obj, degree", [
        (["cohomology", "--max-deg", "4000"], WALK_EVEN, 4000),
        (["obstruct", "--j", "1"], WALK_HUGE_DIM, 100000000),
        (["obstruct", "--j", "1"], WALK_ALL_ODD, 2000000),
        (["rank", "--j", "1", "--k", "4000"], WALK_EVEN, 4000),
        (["model", "--j", "600"], WALK_LINEAR, 601),
        (["compat", "--j", "1", "--complex", None], WALK_HUGE_DIM, 100000000),
    ], ids=["cohomology", "obstruct", "obstruct-all-odd", "rank", "model", "compat"])
    def test_walk_past_degree_cap_refused(self, tmp_path, hopf_path, argv, obj, degree):
        path = tmp_path / "walk.json"
        path.write_text(json.dumps(obj))
        argv = [hopf_path if a is None else a for a in argv]
        code, lines, err, seconds = run_child(["cdga", *argv, str(path)])
        assert seconds < 2
        assert (code, lines) == (2, [])
        assert err == f"error: a walk to degree {degree} passes the degree cap of 512\n"

    def test_model_shortcut_returns_input(self, capsys):
        code, obj = run_json(
            capsys, ["cdga", "model", "--preset", "nil_m1", "--j", "1",
                     "--json"])
        assert code == 0
        assert obj["stabilized"] is True
        assert obj["model"] == json.loads(
            json.dumps(cdga_to_json(preset("nil_m1"))))

    def test_model_from_stdin(self, capsys, monkeypatch):
        blob = json.dumps({
            "dim": 2,
            "generators": [
                {"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
        })
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code, lines, _ = run_lines(capsys, ["cdga", "model", "--j", "1"])
        assert code == 0
        assert lines[-1] == "stabilized: true"

    def test_model_stage_cap_exit_two(self, capsys, monkeypatch):
        blob = json.dumps({
            "dim": 2,
            "generators": [
                {"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
        })
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code = cli.run(["cdga", "model", "--j", "1", "--stage-cap", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "stabilize" in err

    @pytest.mark.parametrize("blob, message", [
        ({"dim": 4, "generators": [
            {"name": "x", "degree": 2}, {"name": "y", "degree": 2},
            {"name": "z", "degree": 3}, {"name": "w", "degree": 3}],
          "d": {"z": "x^2", "w": "x*y"}},
         "cup pairing degenerate in degrees (2, 2)"),
        ({"dim": 4, "generators": [
            {"name": "a", "degree": 1}, {"name": "x", "degree": 4}]},
         "b_1 = 1 but b_3 = 0"),
    ])
    def test_obstruct_without_duality_exit_two(self, capsys, tmp_path,
                                               blob, message):
        path = tmp_path / "nopd.json"
        path.write_text(json.dumps(blob))
        code, _, err = run_lines(
            capsys, ["cdga", "obstruct", str(path), "--j", "1"])
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("text, cause", [
        ('{"dim": 2, "generators": 5}', "'generators' must be a list"),
        ('{"dim": 2, "generators": [{"name": "x", "degree": true},'
         ' {"name": "y", "degree": 1}]}', "needs integer degree"),
        ('{"dim": true, "generators": [{"name": "x", "degree": 1}]}',
         "'dim' must be an integer"),
        ('{"dim": 2, "generators": [{"name": "x", "degree": 1}], "d": []}',
         "'d' must map"),
        ('{"dim": 2, "generators": [{"name": "x", "degree": 2},'
         ' {"name": "y", "degree": 3}], "d": {"y": "x^99999999999"}}',
         "more than 4096 factors"),
        ('{"dim": 4, "generators": [{"name": "x", "degree": 2},'
         ' {"name": "y", "degree": 5}], "d": {"y": "1/0*x*x"}}',
         "zero denominator"),
        pytest.param(
            '{"dim": 4, "generators": [{"name": "x", "degree": 2},'
            ' {"name": "y", "degree": 5}], "d": {"y": "%s*x*x"}}' % ("1" * 5000),
            "coefficient at position 0", id="5000-digit-coefficient"),
        pytest.param(
            '{"dim": 4, "generators": [{"name": "x", "degree": 2},'
            ' {"name": "y", "degree": 5}], "d": {"y": "1/%s*x*x"}}' % ("7" * 5000),
            "coefficient at position 0", id="5000-digit-denominator"),
        pytest.param(
            '{"dim": 4, "generators": [{"name": "x", "degree": 2},'
            ' {"name": "y", "degree": 5}], "d": {"y": "\u00b2*x*x"}}',
            "unknown generator", id="superscript-digit"),
    ])
    def test_malformed_cdga_exits_2(self, capsys, tmp_path, text, cause):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run_lines(
            capsys, ["cdga", "obstruct", str(path), "--j", "1"])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert cause in err

    def test_compat_excluded(self, capsys, tmp_path):
        from zzcalc.bicomplex import dot_shape

        path = tmp_path / "dot.json"
        path.write_text(dumps(realize(
            MultiplicityTable({dot_shape(0, 0): 1}))))
        code, obj = run_json(
            capsys, ["cdga", "compat", "--preset", "filiform4", "--j", "1",
                     "--complex", str(path), "--json"])
        assert code == 0
        assert obj["verdict"] == "excluded"
        assert obj["excluded_at"] == [2, 3, 4]
        assert obj["rows"]["4"]["ell"] == 0


def test_pipe_build_into_check(capsys, monkeypatch):
    code = cli.run(["build", "vaisman", "--n", "1"])
    blob = capsys.readouterr().out
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    assert cli.run(["check", "--ddc3"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Fuzzed bicomplex JSON: every mutation is either computed on or refused.

def _fuzz_base():
    A = direct_sum(realize_shape(square_shape(0, 0)), realize_shape(dot_shape(2, 0)))
    A = direct_sum(A, realize_shape(zigzag_shape((0, 1), 3, "horizontal")))
    obj = json.loads(dumps(A))
    obj["labels"] = {key: [f"e{key}_{i}" for i in range(dim)]
                     for key, dim in obj["spaces"].items()}
    return obj


FUZZ_BASE = _fuzz_base()
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.text(max_size=4),
    st.lists(st.integers(-1, 2), max_size=3), st.builds(dict), st.builds(lambda: [[]]),
)


def _paths(obj, path=()):
    """The path of every value inside a JSON value, the root excluded."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _resize_space(draw, obj):
    if isinstance(obj.get("spaces"), dict) and obj["spaces"]:
        key = draw(st.sampled_from(sorted(obj["spaces"])))
        obj["spaces"][key] = draw(st.integers(-2, 5))


@st.composite
def mutated(draw, base, resize):
    """base with one to three values dropped, swapped or resized."""
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(("drop", "swap", "dim")))
        if op == "drop":
            del parent[path[-1]]
        elif op == "swap":
            parent[path[-1]] = draw(FUZZ_VALUES)
        else:
            resize(draw, obj)
    return obj


@given(
    obj=mutated(FUZZ_BASE, _resize_space),
    verb=st.sampled_from((["validate"], ["check", "--ddc3"], ["filtration"], ["decompose"])),
)
@example(obj={"spaces": {"0,0": 1000000000}}, verb=["check", "--ddc3"])
@settings(max_examples=60, deadline=None)
def test_fuzzed_bicomplex_json_exits_cleanly(obj, verb):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(obj))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(verb + ["-"])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        # validate reports on stdout, every other verb on stderr
        assert "error:" in out.getvalue() + err.getvalue()


# ---------------------------------------------------------------------------
# Fuzzed cdga JSON, the same way.

# sheared S2 x S2: its even generators leave the walks no top degree
CDGA_FUZZ_BASE = cdga_to_json(CdgaPresentation(
    [("a", 2), ("x", 2), ("y", 3), ("z", 3)], {"y": "a^2", "z": "a*x+x^2"}, 4))


def _resize_dim(draw, obj):
    obj["dim"] = draw(st.integers(-2, 12))


@given(
    obj=mutated(CDGA_FUZZ_BASE, _resize_dim),
    verb=st.sampled_from((["cohomology", "--max-deg", "6"], ["obstruct", "--j", "1"],
                          ["rank", "--j", "1", "--k", "3"], ["model", "--j", "1"])),
)
@example(obj=WALK_EVEN, verb=["cohomology", "--max-deg", "4000"])
@example(obj=WALK_HUGE_DIM, verb=["obstruct", "--j", "1"])
@example(obj=WALK_ALL_ODD, verb=["obstruct", "--j", "1"])
@settings(max_examples=60, deadline=None)
def test_fuzzed_cdga_json_exits_cleanly(obj, verb):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(obj))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["cdga", *verb, "-"])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()
