from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from projbodies import cli

ROOT = Path(__file__).resolve().parents[1]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_body_info():
    code, out = run_cli(["body", "info", "--body", "simplex:2"])
    assert code == 0
    data = json.loads(out)
    assert data["volume"] == pytest.approx(0.5)
    assert data["facet_count"] == 3 and not data["symmetric"]


def test_body_transform():
    code, out = run_cli(["body", "transform", "--body", "cube:2",
                         "--map", "2,0;0,0.5"])
    assert code == 0
    data = json.loads(out)
    assert data["volume"] == pytest.approx(4.0)


def test_body_spec_file(tmp_path):
    rec = {"type": "polytope",
           "vertices": [[0, 0], [1, 0], [0, 1]],
           "map": [[2, 0], [0, 2]],
           "translate": [1.0, 0.0]}
    path = tmp_path / "body.json"
    path.write_text(json.dumps(rec))
    code, out = run_cli(["body", "info", "--body", f"@{path}"])
    assert code == 0
    data = json.loads(out)
    assert data["volume"] == pytest.approx(2.0)
    assert min(v[0] for v in data["vertices"]) == pytest.approx(1.0)


def test_verify_pass_and_exit_codes():
    code, out = run_cli(["verify", "zhang_petty", "--body", "simplex:2",
                         "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert abs(data["margin"]) < 1e-3  # Zhang side tight on the simplex


def test_verify_csv_header():
    code, out = run_cli(["verify", "rogers_shephard", "--body", "simplex:2",
                         "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert header == ("id,lhs,rhs,margin,tolerance,pass,verdict,"
                      "seed,samples,grid,tol,witnesses")


def test_verify_config_error_exit_1():
    code, _ = run_cli(["verify", "s_concave_zhang", "--body", "simplex:2",
                       "--measure", "lebesgue", "--nu", "lebesgue",
                       "--s", "0.9"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["verify", "weak_zhang", "--body", "cube:3", "--measure", "gaussian",
     "--samples", "10"],
    ["verify", "exp_norm_gradient_identity", "--body", "cube:3",
     "--measure", "exp_norm:cube:3", "--samples", "999"],
], ids=["pair-average", "direction-average"])
def test_verify_too_few_samples_exit_1(argv, capsys):
    """The pair and direction averages keep the N >= 1000 guard, and its
    message names the count passed."""
    code, out = run_cli(argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert "N >= 1000" in err and f"got {argv[-1]}" in err


def test_verify_direction_average_takes_the_samples_passed():
    """The direction average of the n >= 3 branch draws --samples
    directions, so any count the guard accepts runs."""
    code, out = run_cli(["verify", "exp_norm_gradient_identity", "--body", "cube:3",
                         "--measure", "exp_norm:cube:3", "--samples", "3996"])
    assert code == 0 and json.loads(out)["pass"]


def test_verify_witnesses():
    code, out = run_cli(["verify", "log_concave_zhang", "--body", "cube:2",
                         "--measure", "gaussian", "--seed", "7"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"]
    assert data["witnesses"]["mu_K"]["value"] == pytest.approx(0.46606,
                                                               abs=2e-3)
    assert data["config"]["seed"] == 7


def test_projbody_polar_volume():
    code, out = run_cli(["projbody", "polar-volume", "--body", "simplex:2",
                         "--grid", "4096"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(3.0, abs=1e-3 * 3)


def test_projbody_build_and_brightness():
    code, out = run_cli(["projbody", "build", "--body", "cube:2",
                         "--measure", "gaussian"])
    assert code == 0
    data = json.loads(out)
    assert np.allclose(data["weights"], 0.16519087, atol=1e-6)
    code, out = run_cli(["projbody", "brightness", "--body", "cube:2",
                         "--measure", "gaussian", "--theta", "1,0",
                         "--samples", "100000"])
    assert code == 0
    assert json.loads(out)["pass"]


def test_covariogram_eval():
    code, out = run_cli(["covariogram", "eval", "--body", "cube:2",
                         "--x", "1,0"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0)


def test_covariogram_eval_gaussian_meets_the_erf_product():
    """A planar Gaussian covariogram is deterministic at the run's --tol:
    g(0.5 e1) on cube(2) is the product of the Gaussian masses of
    [-0.5, 1] and [-1, 1], within the reported error, and a rerun prints
    the same bytes."""
    argv = ["covariogram", "eval", "--body", "cube:2", "--measure", "gaussian",
            "--x", "0.5,0"]
    code, out = run_cli(argv)
    assert code == 0 and run_cli(argv) == (code, out)
    data = json.loads(out)
    ref = (0.5 * (math.erf(1.0 / math.sqrt(2.0)) + math.erf(0.5 / math.sqrt(2.0)))
           * math.erf(1.0 / math.sqrt(2.0)))
    assert abs(data["value"] - ref) <= data["error"] <= 1e-8
    loose = json.loads(run_cli(argv + ["--tol", "1e-3"])[1])
    assert loose["evaluations"] < data["evaluations"]


def test_covariogram_profile_csv():
    code, out = run_cli(["covariogram", "profile", "--body", "simplex:2",
                         "--theta", "1,0", "--steps", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,value,error"
    assert len(lines) == 6


def test_meanbody_and_chain():
    code, out = run_cli(["meanbody", "radial", "--body", "simplex:2",
                         "--p", "1", "--grid", "16"])
    assert code == 0
    data = json.loads(out)
    assert data[0]["radius"] == pytest.approx(1 / 3, abs=1e-6)
    code, out = run_cli(["meanbody", "chain", "--body", "simplex:2",
                         "--p-list", "0,1,2", "--grid", "32"])
    assert code == 0
    assert json.loads(out)["pass"]


def test_meanbody_radial_4d():
    code, out = run_cli(["meanbody", "radial", "--body", "cube:4", "--p", "1",
                         "--grid", "16"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    for row in rows:
        a = np.abs(row["direction"])
        # M_1 = (1/16) int_0^{rho_DK} prod(2 - r|theta_i|) dr
        ref, _ = quad(lambda r: float(np.prod(2.0 - r * a)), 0.0, 2.0 / a.max(),
                      epsabs=1e-15, epsrel=1e-13)
        assert row["radius"] == pytest.approx(ref / 16.0, abs=1e-13)
    for action in ("radial", "spectral"):
        code, out = run_cli(["meanbody", action, "--body", "cube:4", "--p", "inf",
                             "--grid", "16"])
        assert code == 0 and len(json.loads(out)) == 16
    code, out = run_cli(["meanbody", "chain", "--body", "cube:4", "--p-list", "1",
                         "--grid", "16"])
    assert code == 0 and json.loads(out)["pass"]


def test_isotropic_commands():
    code, out = run_cli(["isotropic", "residual", "--body", "simplex:2"])
    assert code == 0
    assert json.loads(out)["residual"] == pytest.approx(2 - math.sqrt(2),
                                                        abs=1e-9)
    code, out = run_cli(["isotropic", "minimize", "--body", "cube:2"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(8.0, abs=1e-7)
    code, out = run_cli(["isotropic", "reverse-iso", "--body", "cube:2",
                         "--measure", "gaussian", "--family", "log"])
    assert code == 0
    assert json.loads(out)["pass"]


def test_isotropic_minimize_sheared_cube(tmp_path):
    """A parallelepiped's minimal position is a cube of the same volume:
    det 1.5 * 8 = 12, so I = 6 * 12^(2/3) = 31.448896730506757."""
    rec = {"type": "polytope",
           "vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)],
           "map": [[3, 1, 0], [0, 1, 0], [0, 0.2, 0.5]]}
    path = tmp_path / "sheared_cube.json"
    path.write_text(json.dumps(rec))
    code, out = run_cli(["isotropic", "minimize", "--body", f"@{path}"])
    assert code == 0
    data = json.loads(out)
    assert data["converged"]
    assert data["value"] == pytest.approx(6 * 12 ** (2 / 3), rel=1e-12, abs=0)


def test_sweeps():
    code, out = run_cli(["sweep", "pe", "--body", "cube:2",
                         "--t-list", "1,2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("t,pe_direct,pe_scaling")
    code, out = run_cli(["sweep", "gaussian-sharpness", "--r-list", "1,2",
                         "--n", "2", "--format", "csv"])
    assert code == 0
    code, out = run_cli(["sweep", "ehrhard", "--n", "2", "--x-list", "0",
                         "--format", "json"])
    assert code == 0
    assert json.loads(out)[0]["value"] == pytest.approx(2 / math.pi, abs=1e-8)


def test_measure_spec_file(tmp_path):
    rec = {"type": "exp_norm",
           "body": {"type": "polytope",
                    "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}}
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(rec))
    code, out = run_cli(["verify", "exp_norm_gradient_identity",
                         "--body", "cube:2", "--measure", f"@{path}"])
    assert code == 0


def test_bad_specs_exit_1():
    for argv in (["body", "info", "--body", "dodecahedron:3"],
                 ["verify", "zhang_petty", "--body", "cube:9"],
                 ["covariogram", "eval", "--body", "cube:2",
                  "--measure", "sobolev", "--x", "0,0"]):
        code, _ = run_cli(argv)
        assert code == 1


_MALFORMED = {
    "vector": ["covariogram", "eval", "--body", "cube:2", "--x", "a,b"],
    "map": ["body", "transform", "--body", "cube:2", "--map", "x"],
    "ragged-map": ["body", "transform", "--body", "cube:2", "--map", "1,0;0"],
    "rot": ["body", "transform", "--body", "cube:2", "--map", "rot:q"],
    "alpha": ["covariogram", "eval", "--body", "cube:2", "--x", "0.1,0",
              "--measure", "radial_power:abc"],
    "p-list": ["meanbody", "chain", "--body", "cube:2", "--p-list", "a"],
    "p": ["meanbody", "radial", "--body", "cube:2", "--p", "x"],
    "t-list": ["sweep", "pe", "--body", "cube:2", "--t-list", "x"],
    "r-list": ["sweep", "gaussian-sharpness", "--r-list", "x"],
    "x-list": ["sweep", "ehrhard", "--x-list", "x"],
    "family-power": ["verify", "two_measure_zhang", "--body", "cube:2",
                     "--nu", "radial_power:1", "--family", "power:x"],
    "x-dimension": ["covariogram", "eval", "--body", "cube:2", "--x", "1"],
    "theta-dimension-profile": ["covariogram", "profile", "--body", "cube:3",
                                "--theta", "1,0"],
    "theta-dimension-brightness": ["projbody", "brightness", "--body", "cube:3",
                                   "--theta", "1,0"],
    "theta-zero-profile": ["covariogram", "profile", "--body", "cube:2",
                           "--theta", "0,0"],
    "theta-zero-brightness": ["projbody", "brightness", "--body", "cube:2",
                              "--theta", "0,0"],
    "theta-nan": ["covariogram", "profile", "--body", "cube:2", "--theta", "nan,1"],
    "steps-zero": ["covariogram", "profile", "--body", "cube:2", "--theta", "1,0",
                   "--steps", "0"],
    "steps-negative": ["covariogram", "profile", "--body", "cube:2", "--theta",
                       "1,0", "--steps", "-3"],
    "map-dimension": ["body", "transform", "--body", "cube:2",
                      "--map", "1,0,0;0,1,0;0,0,1"],
}


@pytest.mark.parametrize("argv", _MALFORMED.values(), ids=_MALFORMED)
def test_unparsable_numbers_exit_1(argv, capsys):
    """A number that does not parse (in a spec, a list or --p), a vector or
    map of the wrong dimension, a zero or non-finite direction and fewer
    than one profile step each exit 1 with one error line: no traceback,
    no numpy warning and no NaN output."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


_BALL_COMMANDS = [
    ["covariogram", "eval", "--x", "0.5,0"],
    ["covariogram", "profile", "--theta", "1,0"],
    ["projbody", "build"],
    ["projbody", "polar-volume"],
    ["projbody", "brightness", "--theta", "1,0"],
    ["meanbody", "radial", "--p", "1"],
    ["meanbody", "spectral", "--p", "1"],
    ["meanbody", "chain"],
    ["isotropic", "residual"],
    ["isotropic", "minimize"],
    ["isotropic", "reverse-iso", "--family", "log"],
    ["sweep", "pe"],
    ["verify", "rogers_shephard"],
    ["verify", "log_concave_zhang", "--measure", "gaussian"],
]


@pytest.mark.parametrize("argv", [
    *[argv + ["--body", "ball:2"] for argv in _BALL_COMMANDS],
    ["body", "info", "--body", "@collinear.json"],
    ["body", "info", "--body", "@nan.json"],
    ["projbody", "polar-volume", "--body", "cube:2:8", "--measure", "gaussian"],
    ["projbody", "polar-volume", "--body", "cube:2:8", "--measure", "radial_power:inf"],
    ["verify", "exp_norm_gradient_identity", "--body", "cross:3",
     "--measure", "exp_norm:cube:3"],
], ids=[*("ball-" + "-".join(argv[:2]) for argv in _BALL_COMMANDS),
        "collinear", "nan-vertex", "precision", "evaluation", "quadrature"])
def test_library_failures_exit_1(argv, tmp_path, monkeypatch, capsys):
    """A ball where a polytope is needed, a degenerate or non-finite vertex
    file, and the library's numeric failures (``PrecisionError``,
    ``EvaluationError``, ``QuadratureFailure``) each print one error line."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "collinear.json").write_text('{"vertices": [[0, 0], [1, 1], [2, 2], [3, 3]]}')
    (tmp_path / "nan.json").write_text('{"vertices": [[0, 0], [NaN, 1], [2, 0]]}')
    code, out = run_cli(argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_byte_identical_reruns():
    argv = ["verify", "log_concave_zhang", "--body", "cube:2",
            "--measure", "gaussian", "--seed", "3"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2
    argv = ["sweep", "pe", "--body", "cube:2", "--t-list", "1,4",
            "--format", "csv"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


def test_cached_parser_survives_errors_and_help():
    """The parser is built once per process; a parse error and --help on it
    leave a README command's stdout byte-equal to a fresh interpreter's."""
    assert run_cli(["verify", "no_such_id", "--body", "cube:2"])[0] == cli.EXIT_CONFIG
    assert run_cli(["body", "info", "--body", "nonsense:2"])[0] == cli.EXIT_CONFIG
    code, out = run_cli(["--help"])
    assert code == cli.EXIT_OK and out.startswith("usage: projbodies")
    assert cli._build_parser() is cli._build_parser()
    command, golden = README_GOLDEN[0]
    code, out = run_cli(command.split())
    assert code == cli.EXIT_OK
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    fresh = subprocess.run([sys.executable, "-m", "projbodies.cli", *command.split()],
                           capture_output=True, env=env, check=True).stdout
    assert out.encode("utf-8") == fresh == (ROOT / "tests" / "golden" / golden).read_bytes()


def test_meanbody_spectral_endpoints():
    # S_inf K = DK and S_-1 K = Vol(K) Pi°K; at theta = (1, 0) on the
    # standard triangle rho_DK = 1 and h_{Pi K} = 1, so the radii are 1 and 1/2
    code, out = run_cli(["meanbody", "spectral", "--body", "simplex:2",
                         "--p", "inf", "--grid", "16"])
    assert code == 0
    outer = json.loads(out)
    assert outer[0]["direction"] == [1.0, 0.0]
    assert outer[0]["radius"] == pytest.approx(1.0, abs=1e-12)
    code, out = run_cli(["meanbody", "spectral", "--body", "simplex:2",
                         "--p", "-1", "--grid", "16"])
    assert code == 0
    inner = json.loads(out)
    assert inner[0]["radius"] == pytest.approx(0.5, abs=1e-12)
    assert all(a["radius"] <= b["radius"] + 1e-12 for a, b in zip(inner, outer))


def test_meanbody_radial_csv_columns():
    code, out = run_cli(["meanbody", "radial", "--body", "simplex:2",
                         "--p", "1", "--grid", "8", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "radius,d0,d1"
    assert len(lines) == 9
    radius, d0, d1 = (float(v) for v in lines[1].split(","))
    assert (d0, d1) == (1.0, 0.0)
    assert radius == pytest.approx(1 / 3, abs=1e-6)


def test_body_info_and_transform_ball():
    code, out = run_cli(["body", "info", "--body", "ball:2:1.5"])
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "ball" and data["dimension"] == 2
    assert data["radius"] == 1.5 and data["center"] == [0.0, 0.0]
    assert data["volume"] == pytest.approx(math.pi * 2.25)
    code, out = run_cli(["body", "transform", "--body", "ball:2:1.5",
                         "--map", "0,-2;2,0"])
    assert code == 0
    assert json.loads(out)["radius"] == pytest.approx(3.0)
    code, _ = run_cli(["body", "transform", "--body", "ball:2:1.5",
                       "--map", "2,0;0,0.5"])
    assert code == 1  # only scaled isometries map a ball to a ball
    code, out = run_cli(["verify", "zhang_petty", "--body", "ball:2"])
    assert code == 0 and json.loads(out)["pass"]


# The README's command-line examples, with the stdout they printed when the
# golden files were recorded; any change to these bytes is a regression.
README_GOLDEN = (
    ("verify zhang_petty --body simplex:2 --format json",
     "verify_zhang_petty.json"),
    ("verify log_concave_zhang --body cube:2 --measure gaussian --seed 7",
     "verify_log_concave_zhang.json"),
    ("projbody polar-volume --body simplex:2 --grid 4096",
     "projbody_polar_volume.json"),
    ("covariogram profile --body simplex:2 --theta 1,0 --format csv",
     "covariogram_profile.csv"),
    ("meanbody chain --body simplex:2 --p-list 0,1,2", "meanbody_chain.json"),
    ("isotropic reverse-iso --body cube:2 --measure gaussian --family log",
     "isotropic_reverse_iso.json"),
    ("sweep pe --body cube:2 --t-list 1,4,8,16 --format csv", "sweep_pe.csv"),
)


@pytest.mark.parametrize("command,golden", README_GOLDEN,
                         ids=[g for _, g in README_GOLDEN])
def test_readme_commands_golden(command, golden):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert f"projbodies {command}\n" in readme
    code, out = run_cli(command.split())
    assert code == 0
    expected = (ROOT / "tests" / "golden" / golden).read_bytes()
    assert out.encode("utf-8") == expected


@pytest.mark.parametrize("golden", ["verify_log_concave_zhang.json",
                                    "isotropic_reverse_iso.json"])
def test_golden_gaussian_mass_of_the_square(golden):
    """Both Gaussian goldens record gamma_2([-1, 1]^2) = erf(1/sqrt 2)^2
    within the recorded error."""
    mu_K = json.loads((ROOT / "tests" / "golden" / golden).read_text())["witnesses"]["mu_K"]
    assert abs(mu_K["value"] - math.erf(1.0 / math.sqrt(2.0)) ** 2) <= mu_K["error"] <= 1e-9


def test_golden_reverse_iso_tolerance_is_first_order():
    """The golden's tolerance is 3 RSS of its inputs' first-order errors:
    rhs = 4 n mu(K) Vol^(-1/n) on cube(2), so 3 sqrt(e_b^2 + (4 n
    Vol^(-1/n) e_mu)^2), from the golden's own witnesses."""
    rep = json.loads((ROOT / "tests" / "golden" / "isotropic_reverse_iso.json").read_text())
    w, n, vol = rep["witnesses"], 2, 4.0
    slope = 4.0 * n * vol ** (-1.0 / n)
    expected = 3.0 * math.hypot(w["mu_boundary"]["error"], slope * w["mu_K"]["error"])
    assert rep["tolerance"] == pytest.approx(expected, rel=1e-6)


# The options each subcommand takes: the ones its handler, or the library
# call behind it, reads.  polar-volume's --grid is the one accepted and
# ignored, since README commands pass it.
_SAMPLED = ["--body", "--measure", "--seed", "--samples", "--tol"]
_GRIDDED = ["--body", "--seed", "--grid", "--tol", "--format"]
COMMAND_OPTIONS = {
    "body info": ["--body"],
    "body transform": ["--body", "--map"],
    "covariogram eval": _SAMPLED + ["--x", "--mode", "--f"],
    "covariogram profile": _SAMPLED + ["--format", "--theta", "--steps", "--mode", "--f"],
    "projbody build": _SAMPLED + ["--f"],
    "projbody polar-volume": ["--body", "--measure", "--tol", "--grid"],
    "projbody brightness": _SAMPLED + ["--theta", "--mode", "--f"],
    "meanbody radial": _GRIDDED + ["--p"],
    "meanbody spectral": _GRIDDED + ["--p"],
    "meanbody chain": _GRIDDED + ["--p-list"],
    "verify": ["id"] + _SAMPLED + ["--grid", "--format", "--nu", "--f", "--family", "--s"],
    "isotropic residual": ["--body", "--measure", "--tol"],
    "isotropic minimize": ["--body", "--measure", "--tol"],
    "isotropic reverse-iso": _SAMPLED + ["--format", "--family", "--mode"],
    "sweep pe": ["--body", "--tol", "--format", "--t-list"],
    "sweep gaussian-sharpness": ["--n", "--r-list", "--format"],
    "sweep ehrhard": ["--n", "--x-list", "--format"],
}


def _parser_options(parser, prefix=()):
    """{command: its settable values} for every leaf of the parser tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(prefix): [a.option_strings[0] if a.option_strings else a.dest
                                   for a in parser._actions
                                   if not isinstance(a, argparse._HelpAction)]}
    return {cmd: opts for name, p in subs[0].choices.items()
            for cmd, opts in _parser_options(p, prefix + (name,)).items()}


def test_each_command_takes_only_the_options_it_reads():
    options = _parser_options(cli._build_parser())
    assert {cmd: sorted(o) for cmd, o in options.items()} == \
        {cmd: sorted(o) for cmd, o in COMMAND_OPTIONS.items()}
    assert sum(len(o) for o in options.values()) == 93
    assert len(_REMOVED_CASES) == 129 - 93


# each command's required arguments, and the options it no longer takes
_REMOVED_OPTIONS = [
    (["body", "info", "--body", "cube:2"], "--seed --samples --grid --tol --format"),
    (["body", "transform", "--body", "cube:2", "--map", "rot:0.1"],
     "--seed --samples --grid --tol --format"),
    (["covariogram", "eval", "--body", "cube:2", "--x", "0.5,0"], "--grid --format"),
    (["covariogram", "profile", "--body", "cube:2", "--theta", "1,0"], "--grid"),
    (["projbody", "build", "--body", "cube:2"], "--grid --format"),
    (["projbody", "polar-volume", "--body", "cube:2"], "--seed --samples --format"),
    (["projbody", "brightness", "--body", "cube:2", "--theta", "1,0"], "--grid --format"),
    (["meanbody", "radial", "--body", "cube:2", "--p", "1"], "--samples"),
    (["meanbody", "spectral", "--body", "cube:2", "--p", "1"], "--samples"),
    (["meanbody", "chain", "--body", "cube:2"], "--samples"),
    (["isotropic", "residual", "--body", "cube:2"], "--seed --samples --grid --format"),
    (["isotropic", "minimize", "--body", "cube:2"], "--seed --samples --grid --format"),
    (["isotropic", "reverse-iso", "--body", "cube:2", "--family", "log"], "--grid"),
    (["sweep", "pe", "--body", "cube:2"], "--seed --samples --grid"),
    (["sweep", "gaussian-sharpness"], "--seed"),
]
_REMOVED_VALUES = {"--seed": "1", "--samples": "20000", "--grid": "64",
                   "--tol": "1e-6", "--format": "json"}
_REMOVED_CASES = [(argv, option) for argv, options in _REMOVED_OPTIONS
                  for option in options.split()]


@pytest.mark.parametrize("argv,option", _REMOVED_CASES,
                         ids=[f"{a[0]}-{a[1]}{option}" for a, option in _REMOVED_CASES])
def test_unread_options_are_rejected(argv, option, capsys):
    """The (command, option) pairs no handler reads: each is a usage error,
    exit 1 with nothing on stdout."""
    code, out = run_cli(argv + [option, _REMOVED_VALUES[option]])
    assert code == cli.EXIT_CONFIG and out == ""
    assert "unrecognized arguments" in capsys.readouterr().err


def test_hypothesis_violation_exit_3():
    """|x|^2 is not certified log-concave, so q_concave_zhang reports a
    hypothesis violation and the command exits 3."""
    code, out = run_cli(["verify", "q_concave_zhang", "--body", "cube:2",
                         "--measure", "lebesgue", "--family", "power:0.5",
                         "--f", "radial_power:2"])
    assert code == cli.EXIT_HYPOTHESIS == 3
    assert json.loads(out)["verdict"] == "hypothesis_violation"


_OVERFLOWS = {
    alpha: ["covariogram", "eval", "--body", "cube:2:8",
            "--measure", f"radial_power:{alpha}", "--x", "0.5,0"]
    for alpha in ("inf", "nan", "1000")} | {
    "1000-3d": ["covariogram", "eval", "--body", "cube:3:8",
                "--measure", "radial_power:1000", "--x", "0.5,0,0"],
    "zhang_radial_nondecreasing": ["verify", "zhang_radial_nondecreasing",
                                   "--body", "cube:2:8", "--nu", "radial_power:1000"],
    "two_measure_zhang": ["verify", "two_measure_zhang", "--body", "cube:2:8",
                          "--nu", "radial_power:1000", "--family", "power:0.5"]}


@pytest.mark.parametrize("argv", _OVERFLOWS.values(), ids=_OVERFLOWS)
def test_overflowing_radial_power_prints_one_error_line(argv, capsys):
    """A non-finite alpha is a configuration error, and |x|^1000 on
    cube(n, 8) overflows: to a non-finite facet density in 2-D, a non-finite
    sampled covariogram in 3-D and non-finite radial moments on the polar
    route of the translated average.  In every case the command exits 1
    with one error line and no numpy warning before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(argv)
    assert code == cli.EXIT_CONFIG and out == ""
    assert capsys.readouterr().err.startswith("error: ")
