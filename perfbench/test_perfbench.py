"""Tests of the benchmark itself: its checks, its counts and its tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import projbodies as pb  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def scale_weight(Z, i, delta):
    w = Z.weights.copy()
    w[i] += delta
    return dataclasses.replace(Z, weights=w)


def with_witness(report, name, value):
    witnesses = dict(report.witnesses)
    witnesses[name] = dataclasses.replace(witnesses[name], value=value)
    return dataclasses.replace(report, witnesses=witnesses)


# -- reference checks reject perturbed values ---------------------------------------

@pytest.fixture(scope="module")
def gauss_case():
    w = wl.WORKLOADS["gauss_zonoids_3d"]
    inp = w.build(pb, 1)
    j = len(inp["bodies"]) - 1
    Z = pb.projection_zonoid(inp["bodies"][j], inp["gauss"], tol=w.tol)
    polar = (pb.zonoid_polar_volume(Z, inp["grid"]),
             pb.zonoid_polar_volume(Z, inp["half"]))
    return w, inp, j, Z, polar


def test_cube3_checks_pass_and_reject_perturbed(gauss_case):
    w, inp, j, Z, polar = gauss_case
    assert w.check(pb, inp, {f"zonoid[{j}]": Z, f"polar[{j}]": polar}).failures == []
    bad = scale_weight(Z, 0, 10 * Z.weight_errors[0])
    assert w.check(pb, inp, {f"zonoid[{j}]": bad}).failures
    budget = wl.grid_budget(Z, inp["grid"], *polar)
    bad_polar = (polar[0] + 10 * budget, polar[1] + 10 * budget)
    assert w.check(pb, inp, {f"zonoid[{j}]": Z, f"polar[{j}]": bad_polar}).failures


def test_rotation_check_rejects_perturbed_weight(gauss_case):
    w, inp, _, _, _ = gauss_case
    Z = pb.projection_zonoid(inp["bodies"][0], inp["gauss"], tol=w.tol)
    assert w.check(pb, inp, {"zonoid[0]": Z}).failures == []
    bad = scale_weight(Z, 2, 10 * Z.weight_errors[2] + 1e-12)
    assert w.check(pb, inp, {"zonoid[0]": bad}).failures


def test_mc_brightness_checks_reject_perturbed():
    w = wl.WORKLOADS["mc_brightness_2d"]
    inp = w.build(pb, 3)
    ops = dict(w.ops(pb, inp))
    res = {}
    for label in ("zonoid[0]", "offset[0]", "exact[0,0]", "plain[0,0]"):
        res[label] = ops[label](res)
    assert w.check(pb, inp, res).failures == []
    for label, delta in (("exact[0,0]", 1e-5),
                         ("plain[0,0]", 4 * res["plain[0,0]"].error_estimate)):
        bad = dict(res)
        bad[label] = dataclasses.replace(res[label], value=res[label].value + delta)
        assert w.check(pb, inp, bad).failures, label


def test_polygon_projection_support_of_square():
    square = pb.cube(2)
    theta = np.array([0.6, 0.8])
    # Pi of [-1,1]^2 is the square 2[-1,1]^2: h = 2 (|t1| + |t2|)
    assert wl.polygon_projection_support(square.vertices, theta) == pytest.approx(2.8)


def test_mean_body_checks_reject_perturbed():
    w = wl.WORKLOADS["mean_body_chain"]
    inp = w.build(pb, 5)
    mb = pb.radial_mean_body(inp["cube2"], 1.0, inp["grid2"], tol=w.tol)
    assert w.check(pb, inp, {"cube2[1]": mb}).failures == []
    star = dataclasses.replace(mb.star, radii=mb.star.radii * (1 + 1e-6))
    assert w.check(pb, inp, {"cube2[1]": dataclasses.replace(mb, star=star)}).failures
    rep = pb.inclusion_chain_report(inp["chain_bodies"][1], [0, 1, 2],
                                    pb.sphere_directions(2, 8), tol=w.tol)
    assert w.check(pb, inp, {"chain[1]": rep}).failures == []
    bad = with_witness(rep, "equality_spread", 1e-5)
    assert w.check(pb, inp, {"chain[1]": bad}).failures


def test_cube_radius_reference_against_closed_form():
    # along e1 the covariogram of [-1,1]^n is 2^(n-1) (2 - r) on [0, 2], so
    # M_1 = (1/2^n) int 2^(n-1) (2 - r) dr = 1 and
    # M_2 = (2/2^n) int 2^(n-1) (2 - r) r dr = 4/3
    for n in (2, 3):
        assert wl.cube_radius(n, np.eye(n)[0], 1.0) == pytest.approx(1.0, rel=1e-13)
        assert wl.cube_radius(n, np.eye(n)[0], 2.0) == pytest.approx(
            math.sqrt(4.0 / 3.0), rel=1e-13)


@pytest.fixture(scope="module")
def verify_case():
    w = wl.WORKLOADS["verify_reports"]
    inp = w.build(pb, 2)
    cases = w.cases(pb, inp)
    idx = {id_ + str(K.n): i for i, (id_, K, _) in reversed(list(enumerate(cases)))}
    res = {}
    for key in ("zhang_petty2", "rogers_shephard2", "log_concave_zhang2",
                "surface_lower_bound2"):
        i = idx[key]
        id_, K, kw = cases[i]
        res[f"verify[{i}]"] = pb.verify(id_, K, precision=inp["cfg"], **kw)
    return w, inp, idx, res


@pytest.mark.parametrize("key, witness, factor", [
    ("zhang_petty2", "product", 1 + 1e-4),
    ("rogers_shephard2", "ratio", 1 + 1e-8),
    ("log_concave_zhang2", "mu_K", 1.01),
    ("log_concave_zhang2", "polar_volume", 1 + 1e-4),
    ("surface_lower_bound2", "mu_boundary", 1 + 1e-6),
    ("surface_lower_bound2", "polar_volume", 1 + 1e-4),
])
def test_verify_checks_reject_perturbed(verify_case, key, witness, factor):
    w, inp, idx, res = verify_case
    assert w.check(pb, inp, res).failures == []
    label = f"verify[{idx[key]}]"
    rep = res[label]
    bad = dict(res)
    bad[label] = with_witness(rep, witness, rep.witnesses[witness].value * factor)
    assert w.check(pb, inp, bad).failures


def test_cli_rerun_check_rejects_changed_stdout(verify_case):
    w, inp, _, _ = verify_case
    from projbodies import cli
    first = wl.run_cli(cli, inp["argv"][0])
    assert first[0] == 0
    assert w.check(pb, inp, {"cli[0]": first}).failures == []
    assert w.check(pb, inp, {"cli[0]": (0, first[1] + " ")}).failures


# -- attempted and failed operations -----------------------------------------------

def test_failed_operations_are_counted():
    def boom(r):
        raise pb.ConfigurationError("no")

    report = pb.verify("rogers_shephard", pb.standard_simplex(2))
    assert wl.passed(report) is report
    report = dataclasses.replace(report, verdict="fail")
    ops = [("ok", lambda r: 1), ("raises", boom),
           ("needs_raises", lambda r: r["raises"]),
           ("verdict", lambda r: wl.passed(report))]
    results, failed, busy, probes = run.run_pass(ops, set())
    assert failed == 3 and results == {"ok": 1}
    assert busy >= 0.0 and probes == []


class CountingProbe:
    def __init__(self):
        self.calls = 0

    def sample(self) -> float:
        self.calls += 1
        return run.PROBE_REF_S


def test_probe_samples_between_operations():
    def slow(r):
        import time
        time.sleep(run.PROBE_EVERY_S)

    probe = CountingProbe()
    ops = [(f"slow[{i}]", slow) for i in range(3)] + [("fast", lambda r: 1)]
    _, failed, busy, probes = run.run_pass(ops, set(), probe)
    # one sample for each PROBE_EVERY_S of operations
    assert failed == 0 and probe.calls == len(probes)
    assert len(probes) == int(busy / run.PROBE_EVERY_S) >= 3
    probe = CountingProbe()
    _, _, _, probes = run.run_pass([("fast", lambda r: 1)], set(), probe)
    assert probes == [run.PROBE_REF_S]   # at least one sample per pass


def test_host_probe_does_fixed_work():
    probe = run.HostProbe()
    times = [probe.sample() for _ in range(3)]
    assert all(0.0 < t < 2.0 for t in times)


# -- the tracer -----------------------------------------------------------------------

def test_tracer_keeps_outputs_and_restores_functions():
    from projbodies import cli, projection
    argv = ["verify", "surface_lower_bound", "--body", "cube:2",
            "--measure", "gaussian", "--seed", "5"]
    before = wl.run_cli(cli, argv)
    original = projection.facet_integrals
    tracer = Tracer().install()
    try:
        assert projection.facet_integrals is not original
        tracer.phase = "pass"
        traced = wl.run_cli(cli, argv)
    finally:
        tracer.uninstall()
    assert traced == before
    assert projection.facet_integrals is original
    assert tracer.counts[("pass", "cli.main.calls")] == 1
    assert tracer.counts[("pass", "measures.facet_integrals.calls")] >= 1
    assert tracer.counts[("pass", "measures.density_points")] > 0


def run_traced(root: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_reports",
         "--seed", "4", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly():
    root = HERE.parent
    a, b = run_traced(root), run_traced(root)
    assert a["correct"] and b["correct"]
    assert set(a["metrics"]) == {name for name, _, _ in run.LAYER_METRICS}
    for name, m in a["metrics"].items():
        if m["unit"] != "s":
            assert m["value"] == b["metrics"][name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_reports",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
