import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geoflow import cli, geodesics

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return cli.main(argv)


class TestBound:
    def test_sphere_sharp(self, capsys):
        assert run(["bound", "sphere:n=2,r=1.0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"]["theorem_b"] == 0.0
        assert doc["bounds"]["manning"] == 1.0
        assert doc["bounds"]["K_max"] == 1.0

    def test_sphere4_sharp(self, capsys):
        assert run(["bound", "sphere:n=4,r=1.0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"]["theorem_b"] == 0.0
        assert doc["bounds"]["manning"] == 3.0

    def test_product(self, capsys):
        assert run(["bound", "sphereprod:p=2,q=2,r1=1,r2=1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"]["theorem_b"] == 1.0
        assert abs(doc["bounds"]["grossman"] - 3 * 0.8103) < 1e-3

    def test_torus_nonpositive(self, capsys):
        assert run(["bound", "torus:n=2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"]["theorem_b"] is None
        assert doc["bounds"]["nonpositive"] == 0.0

    def test_parse_error_exit_2(self, capsys):
        assert run(["bound", "mobius:n=2"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,key", [
        (["bound", "ellipsoid:a=0,b=1,c=1"], "a"),
        (["bound", "sphere:n=2,r=0"], "r"),
        (["count", "hyperbolic:n=1", "--t-max", "1", "--samples", "8"], "n"),
        (["estimate", "torus:n=1", "--samples", "100", "--t-max", "1", "--step", "1e-2"], "n"),
        (["count", "torus:n=2,l=0", "--t-max", "1", "--samples", "8"], "l"),
        (["bound", "sphere:n=2,r=-1"], "r"),
        (["bound", "ellipsoid:a=1,b=-1,c=2"], "b"),
        (["bound", "sphereprod:p=2,q=2,r1=1,r2=-2"], "r2"),
        (["bound", "hyperbolic:n=2,c=nan"], "c"),
        (["bound", "sphere:n=2,foo=3"], "foo"),
    ])
    def test_bad_spec_parameters_exit_2(self, argv, key, capsys):
        # exit 2 with one error line that names the offending parameter
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err.split()

    def test_report_embeds_config_and_versions(self, capsys):
        assert run(["bound", "sphere:n=2,r=1.0", "--seed", "7", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 7
        assert doc["config"]["manifold"] == "sphere:n=2,r=1.0"
        assert "geoflow" in doc["versions"]
        assert "wall_clock_s" in doc["timing"]


class TestEstimate:
    def test_sphere_run(self, tmp_path, capsys):
        out = str(tmp_path / "est")
        code = run(["estimate", "sphere:n=2,r=1.0", "--samples", "100",
                    "--t-max", "6", "--step", "1e-2", "--out", out,
                    "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["estimate"]["slope"]) <= 0.05
        assert doc["estimate"]["method"] == "mane-integral"
        assert doc["bound_check"]["satisfied"]
        assert (tmp_path / "est.csv").exists()
        assert (tmp_path / "est.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["estimate", "sphereprod:p=2,q=2,r1=1,r2=1", "--samples", "100",
                "--t-max", "3", "--step", "2e-2", "--seed", "5"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_canonical_report_excludes_timing(self, tmp_path):
        out = str(tmp_path / "e")
        assert run(["estimate", "sphere:n=2,r=1.0", "--samples", "100",
                    "--t-max", "4", "--step", "1e-2", "--out", out]) == 0
        doc = json.loads((tmp_path / "e.json").read_text())
        assert "timing" not in doc
        assert doc["config"]["samples"] == 100

    def test_samples_validated(self, capsys):
        # where the rows are sampled; a space form ignores --samples
        assert run(["estimate", "sphereprod:p=2,q=2", "--samples", "10"]) == 2

    def test_bound_violation_exit_3(self, capsys):
        # the flat torus fitted over a short window still carries the
        # polynomial transient, so the slope check correctly trips
        code = run(["estimate", "torus:n=2", "--samples", "100",
                    "--t-max", "10", "--step", "1e-2"])
        assert code == 3
        assert "exceeds" in capsys.readouterr().err


class TestCount:
    def test_sphere_with_oracle(self, capsys):
        code = run(["count", "sphere:n=2,r=1.0", "--t-max", "6", "--samples",
                    "8", "--step", "5e-3", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sphere_oracle"]["rel_err"] < 0.01
        assert doc["growth"]["method"] == "counting-growth"

    def test_torus(self, capsys):
        code = run(["count", "torus:n=2", "--t-max", "1.0", "--samples", "8",
                    "--step", "1e-3", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["series"]["integrals"][-1] - np.pi) / np.pi < 0.01

    def test_hyperbolic_overflow_exits_3(self, capsys, monkeypatch):
        # |det Phi[:k, k:]| = sinh(t)^2 overflows near t = 355.6, inside a
        # block of the radial trapezoid: the count fails at the next grid
        # time, 367.27 of linspace(40, 400, 12), with one error line
        march, failed_at = geodesics._march, []

        def spy(t_grid, step, Y, Phi, advance, fail, *args, **kwargs):
            t = [0.0]

            def timed_advance(h, m):
                top = advance(h, m)
                t[0] += m * h
                return top

            def timed_fail(rows, why):
                failed_at.append(t[0])
                fail(rows, why)

            return march(t_grid, step, Y, Phi, timed_advance, timed_fail, *args, **kwargs)

        monkeypatch.setattr(geodesics, "_march", spy)
        code = run(["count", "hyperbolic:n=3", "--t-max", "400", "--step", "0.05",
                    "--samples", "8"])
        assert code == 3
        assert capsys.readouterr().err == "numeric failure: the Jacobi system turned non-finite\n"
        assert failed_at == [pytest.approx(np.linspace(40.0, 400.0, 12)[10], abs=1e-6)]


@pytest.mark.parametrize("argv,header", [
    (["estimate", "sphereprod:p=2,q=2", "--samples", "100", "--t-max", "1",
      "--step", "2e-2"], "t,y,stderr"),
    (["count", "sphere:n=2", "--t-max", "1", "--samples", "4", "--step", "1e-2"],
     "t,y,integral"),
])
def test_out_csv_is_stdout_csv(argv, header, tmp_path, capsys):
    # --out writes PREFIX.csv with the bytes --format csv prints
    assert run(argv + ["--format", "csv", "--out", str(tmp_path / "r")]) == 0
    printed = capsys.readouterr().out.encode()
    assert (tmp_path / "r.csv").read_bytes() == printed
    assert printed.startswith(header.encode() + b"\n") and b"\r" not in printed


class TestCertify:
    def test_obstructed_exit_1(self, capsys):
        code = run(["certify", "--profile",
                    '{"n":4,"betti":[1,0,231,0,1],"formal":true}'])
        assert code == 1
        assert "no Einstein metric" in capsys.readouterr().out

    def test_pass_exit_0(self, capsys):
        code = run(["certify", "--profile",
                    '{"n":4,"betti":[1,0,2,0,1],"formal":true,"chi":4,"tau":0}'])
        assert code == 0

    def test_invalid_exit_2(self, capsys):
        code = run(["certify", "--profile", '{"n":4,"betti":[1,0,2,1,1]}'])
        assert code == 2

    def test_profile_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"n":5,"betti":[1,0,400000000,400000000,0,1],"formal":true}')
        assert run(["certify", "--profile", str(path)]) == 1

    def test_json_format(self, capsys):
        code = run(["certify", "--profile",
                    '{"n":4,"betti":[1,0,231,0,1],"formal":true}',
                    "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["obstruction"]["obstructed"] is True
        names = {t["name"] for t in doc["obstruction"]["tests"]}
        assert {"betti-sum-bound", "babenko-b2", "hitchin"} <= names


class TestGromov:
    def test_table(self, capsys):
        assert run(["gromov", "--n-max", "8", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["table"]) == 7
        assert doc["curvature_bound_smaller_everywhere"] is True
        row2 = doc["table"][0]
        assert row2["n"] == 2
        assert row2["log10_universal_constant"] == pytest.approx(1.9265919722e17, rel=1e-9)

    def test_runs_without_mpmath(self, capsys):
        # mpmath is a test oracle only: with it unimportable the package
        # imports and gromov prints the same table
        assert run(["gromov", "--format", "json"]) == 0
        want = json.loads(capsys.readouterr().out)["table"]
        code = ("import sys\n"
                "sys.modules['mpmath'] = None\n"
                "import geoflow\n"
                "from geoflow import cli\n"
                "sys.exit(cli.main(['gromov', '--format', 'json']))\n")
        env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["table"] == want

    def test_text_mentions_comparison(self, capsys):
        assert run(["gromov", "--n-max", "5"]) == 0
        out = capsys.readouterr().out
        assert "smaller for every n" in out


class TestOutputContract:
    """Every command reports through one path in ``main``."""

    COMMANDS = [
        ["bound", "sphere:n=2,r=1.0"],
        ["estimate", "sphere:n=2,r=1.0", "--samples", "100", "--t-max", "1",
         "--step", "1e-2"],
        ["count", "sphere:n=2,r=1.0", "--t-max", "1", "--samples", "8", "--step", "1e-2"],
        ["certify", "--profile", '{"n":4,"betti":[1,0,231,0,1],"formal":true}'],
        ["gromov", "--n-max", "5"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_text_ends_with_wall_clock(self, argv, capsys):
        run(argv + ["--format", "text"])
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"wall clock: \d+\.\d\ds", last), last

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_out_file_is_the_canonical_printed_report(self, argv, tmp_path, capsys):
        out = str(tmp_path / "report")
        code = run(argv + ["--format", "json", "--out", out])
        assert code == (1 if argv[0] == "certify" else 0)
        printed = json.loads(capsys.readouterr().out)
        assert "wall_clock_s" in printed["timing"]
        assert (tmp_path / "report.json").read_bytes() == cli.canonical_report_bytes(printed)

    @pytest.mark.parametrize("command", ["bound", "estimate", "count"])
    def test_missing_spec_exit_2(self, command, capsys):
        assert run([command]) == 2
        assert capsys.readouterr().err == "error: a manifold spec is required\n"


_PROFILE = '{"n": 4, "betti": [1, 0, 2, 0, 1], '


@pytest.mark.parametrize("argv,key", [
    (["certify", "--profile", _PROFILE + '"formal": "no"}'], "formal"),
    (["certify", "--profile", _PROFILE + '"simply_connected": 1}'], "simply_connected"),
    (["certify", "--profile", _PROFILE + '"tau": "1"}'], "tau"),
    (["certify", "--profile", _PROFILE + '"R": "0.5"}'], "R"),
    (["certify", "--profile", _PROFILE + '"chi": "5"}'], "chi"),
    (["certify", "--profile", '{"betti": [1, 0, 2, 0, 1]}'], "'n'"),
    (["certify", "--profile", '{"n": null, "betti": [1, 0, 2, 0, 1]}'], "malformed"),
    # where the direction rule reads --samples: Monte Carlo and angles
    (["count", "sphereprod:p=2,q=2", "--samples", "0", "--t-max", "1", "--step", "0.1"],
     "samples"),
    (["count", "ellipsoid:a=1,b=1,c=2", "--samples", "1", "--t-max", "1", "--step", "0.1"],
     "samples"),
    (["gromov", "--n-max", "1"], "--n-max"),
    # non-integral values are rejected, not truncated
    (["certify", "--profile", '{"n": 4.9, "betti": [1, 0, 2.7, 0, 1], "formal": true}'], "4.9"),
    (["certify", "--profile", _PROFILE + '"connected_p": 2.0}'], "connected_p"),
    # non-finite or fractional chi, tau and R are rejected, not read as obstructions
    (["certify", "--profile", _PROFILE + '"formal": true, "R": NaN}'], "R"),
    (["certify", "--profile", '{"n": 4, "betti": [1, 0, 1, 0, 1], "chi": 3, "tau": NaN}'], "tau"),
    (["certify", "--profile", '{"n": 4, "betti": [1, 0, 1, 0, 1], "chi": 3, "tau": Infinity}'],
     "tau"),
    (["certify", "--profile", _PROFILE + '"chi": 4, "tau": 0.5}'], "tau"),
    (["certify", "--profile", _PROFILE + '"chi": 4.0, "tau": 0}'], "chi"),
    # non-finite times are rejected before a step is taken
    (["count", "ellipsoid", "--step", "inf", "--t-max", "1", "--samples", "4"], "step"),
    (["count", "sphere:n=2", "--step", "nan", "--t-max", "1", "--samples", "4"], "step"),
    (["estimate", "sphere:n=2", "--step", "nan", "--t-max", "1"], "step"),
    (["estimate", "sphere:n=2", "--t-max", "inf"], "t-max"),
    (["count", "sphere:n=2", "--t-max", "inf", "--samples", "4"], "t-max"),
])
def test_bad_input_exits_2_with_one_error_line(argv, key, capsys):
    # exit 2, nothing on stdout, one error line naming the bad input
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert key in captured.err and captured.out == ""


def test_space_forms_ignore_samples(capsys):
    # a space form integrates one row, whatever --samples says
    argv = ["count", "sphere:n=2", "--samples", "1", "--t-max", "1", "--step", "0.1"]
    assert run(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["series"]["rule"] == "isotropic-single"
    argv = ["estimate", "hyperbolic:n=2", "--samples", "50", "--t-max", "0.5", "--step", "1e-2"]
    assert run(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["series"]["metadata"]["mode"] == "isotropic-single"


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    # a parser build costs about as much as a dimension-four certify job
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    profile = '{"n":4,"betti":[1,0,57,0,1],"formal":true}'
    assert run(["gromov", "--n-max", "4", "--out", str(tmp_path / "g")]) == 0
    for name in ("a", "b"):
        assert run(["certify", "--profile", profile, "--out", str(tmp_path / name)]) == 0
    assert built.count("geoflow") == 1
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_readme_command_examples(tmp_path, monkeypatch):
    # every example of the README's "Command line" block runs as written;
    # the certify example (b_2 = 231) is obstructed
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("geoflow ")]
    assert len(lines) == 5
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert run(argv) == (1 if argv[0] == "certify" else 0), line


def test_readme_library_example(capsys):
    # the README's "Library" block runs as written, so a name deleted from
    # the API cannot stay in it; its certify example (b_2 = 231) is obstructed
    block = README.read_text().split("## Library", 1)[1].split("```python", 1)[1]
    exec(compile(block.split("```", 1)[0], str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "no Einstein metric of non-negative sectional curvature"
