"""Run one workload of the projbodies benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process and one thread make the load, with BLAS threads pinned to 1.
After set-up and a warm-up, whole passes over the workload's operations
run for ``--seconds`` (at least one pass, none that would end later).
The outputs of the first pass are checked; every later pass must reproduce
them exactly.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of five
fresh interpreters that import projbodies and build the inputs), ``wall_s``
(median pass time), ``peak_rss_mb``, ``budget_digits`` and ``ref_digits``.
The host's speed drifts by up to 1.9x over tens of seconds, so both times
are rescaled to a reference host speed: a fixed chunk of work that does not
call the program (``HostProbe``) is timed between the operations of each
pass and after each set-up, and a time t becomes t * PROBE_REF_S / (mean
chunk time).
``--trace 1`` wraps the program's public functions (see ``tracer.py``) and
prints the per-layer metrics of one traced set-up plus one pass; the spans
go to ``perfbench/out/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# HostProbe.sample() takes PROBE_REF_S on the reference host, the 2-core box
# on which the bounds were set; times are reported as if measured there.
PROBE_REF_S = 0.02
PROBE_EVERY_S = 0.4         # seconds of operations between two probe samples
SETUP_PROBE_SAMPLES = 10

# (name, unit, better) of the traced run, in BENCHMARK.json order
LAYER_METRICS = [
    ("measures.facet_integrals.calls", "count", "lower"),
    ("measures.facet_integrals.nodes", "count", "lower"),
    ("measures.facet_integrals.self_s", "s", "lower"),
    ("measures.density_points", "count", "lower"),
    ("measures.measure_body.samples", "count", "lower"),
    ("measures.measure_body.self_s", "s", "lower"),
    ("bodies.simplex_measure.calls", "count", "lower"),
    ("bodies.contains.points", "count", "lower"),
    ("bodies.contains.self_s", "s", "lower"),
    ("bodies.contains.hit_ratio", "ratio", "higher"),
    ("bodies.clip_translate_volume.calls", "count", "lower"),
    ("bodies.clip_translate_volume.self_s", "s", "lower"),
    ("bodies.intersect_translate.calls", "count", "lower"),
    ("bodies.intersect_translate.self_s", "s", "lower"),
    ("bodies.build_polytope.calls", "count", "lower"),
    ("bodies.build_polytope.self_s", "s", "lower"),
    ("covariogram.brightness_derivative.samples", "count", "lower"),
    ("covariogram.brightness_derivative.self_s", "s", "lower"),
    ("covariogram.covariogram_exact.calls", "count", "lower"),
    ("covariogram.mu_covariogram.calls", "count", "lower"),
    ("covariogram.translated_average.samples", "count", "lower"),
    ("covariogram.translated_average.self_s", "s", "lower"),
    ("covariogram.sample_uniform.acceptance", "ratio", "higher"),
    ("projection.projection_zonoid.self_s", "s", "lower"),
    ("projection.offset_vector.self_s", "s", "lower"),
    ("projection.zonoid_polar_volume.directions", "count", "lower"),
    ("projection.zonoid_polar_volume.self_s", "s", "lower"),
    ("numerics.integrate_1d.calls", "count", "lower"),
    ("numerics.integrate_1d.evals", "count", "lower"),
    ("numerics.integrate_1d.self_s", "s", "lower"),
    ("numerics.monte_carlo.samples", "count", "lower"),
    ("numerics.monte_carlo.self_s", "s", "lower"),
    ("meanbodies.radial_mean_body.self_s", "s", "lower"),
    ("meanbodies.inclusion_chain_report.self_s", "s", "lower"),
    ("inequalities.verify.calls", "count", "lower"),
    ("inequalities.verify.self_s", "s", "lower"),
    ("isotropic.minimize_I.self_s", "s", "lower"),
    ("isotropic.reverse_isoperimetric.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
]
RATIOS = {"bodies.contains.hit_ratio": ("bodies.contains.hits",
                                        "bodies.contains.points"),
          "covariogram.sample_uniform.acceptance": (
              "covariogram.sample_uniform.accepted",
              "covariogram.sample_uniform.candidates")}


def import_program():
    """Import projbodies from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "projbodies" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'projbodies'}")
    sys.path.insert(0, str(src))
    import projbodies
    if Path(projbodies.__file__).resolve().parent != (src / "projbodies").resolve():
        raise SystemExit(f"error: projbodies imported from {projbodies.__file__}")
    return projbodies


class HostProbe:
    """Times a fixed chunk of work that never calls the program.

    The chunk does what the program's hot loops do, in about equal shares:
    numpy calls on 3-vectors; a loop over the vertices of a small polygon in
    numpy scalars that collects rows into a new array; and vectorised passes
    over 20k points, a Gaussian weight and a halfplane membership test.  Its
    arrays come to about 2 MB, so it adds under 1 MB to ``peak_rss_mb``.
    Its time tracks the host's speed; ``sample`` returns it in seconds.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(12345)
        self.a, self.v = rng.standard_normal((3, 3)), rng.standard_normal(3)
        self.poly, self.u = rng.standard_normal((8, 2)), rng.standard_normal(2)
        self.x = rng.standard_normal((20_000, 3))
        self.r2 = np.empty(len(self.x))
        self.normals, self.offsets = rng.standard_normal((6, 2)), np.ones(6)
        self.sample()   # first calls into einsum and linalg

    def sample(self) -> float:
        np, a, v, poly, u = self.np, self.a, self.v, self.poly, self.u
        start = time.perf_counter()
        for _ in range(1_200):
            v = a @ v
            v = v / np.linalg.norm(v)
        m = len(poly)
        for _ in range(150):
            d = poly @ u - 0.1
            keep = d <= 0.0
            out = []
            for i in range(m):
                j = (i + 1) % m
                if keep[i]:
                    out.append(poly[i])
                if keep[i] != keep[j]:
                    out.append(poly[i] + d[i] / (d[i] - d[j]) * (poly[j] - poly[i]))
            np.array(out)
        for _ in range(8):
            np.einsum("ij,ij->i", self.x, self.x, out=self.r2)
            np.exp(-0.5 * self.r2, out=self.r2).sum()
            np.all(self.x[:, :2] @ self.normals.T <= self.offsets, axis=1).sum()
        return time.perf_counter() - start


def build(workload_name: str, seed: int):
    """Set-up as timed by ``setup_s``: import the program, build the inputs."""
    start = time.perf_counter()
    pb = import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    workload = WORKLOADS[workload_name]
    inputs = workload.build(pb, seed)
    return pb, workload, inputs, time.perf_counter() - start


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in this fresh interpreter, rescaled to the reference host."""
    seconds = build(workload, seed)[3]
    probe = HostProbe()
    return seconds * PROBE_REF_S / statistics.mean(
        probe.sample() for _ in range(SETUP_PROBE_SAMPLES))


def setup_seconds(workload: str, seed: int) -> float:
    """Median rescaled set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(ops, reported: set, probe=None):
    """Run every operation once; time them, and sample the probe between them.

    Returns the results, the failure count, the seconds spent in operations
    and the probe times: one for each PROBE_EVERY_S of operations, taken
    after the operation that completes it, and at least one per pass.
    """
    results, failed, busy, since, probes = {}, 0, 0.0, 0.0, []
    for label, op in ops:
        t0 = time.perf_counter()
        try:
            results[label] = op(results)
        except Exception as exc:  # an operation failure is counted, not fatal
            failed += 1
            kind = label.split("[")[0] + ":" + type(exc).__name__
            if kind not in reported:
                reported.add(kind)
                print(f"operation {label} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        busy, since = busy + dt, since + dt
        while probe is not None and since >= PROBE_EVERY_S:
            probes.append(probe.sample())
            since -= PROBE_EVERY_S
    if probe is not None and not probes:
        probes.append(probe.sample())
    return results, failed, busy, probes


def digits(ratio: float) -> float:
    return -math.log10(max(ratio, 1e-16))


def layer_metrics(tracer, passes: int) -> dict:
    """Per-layer values of one traced set-up plus one pass."""
    selfs = tracer.self_times()

    def per_pass(table, key):
        return table.get(("setup", key), 0) + table.get(("pass", key), 0) / passes

    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        if name in RATIOS:
            num, den = (per_pass(tracer.counts, k) for k in RATIOS[name])
            value = num / den if den else 0.0
        elif name.endswith(".self_s"):
            value = per_pass(selfs, name[:-len(".self_s")])
        else:
            value = per_pass(tracer.counts, name)
            if float(value).is_integer():
                value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    import_program()
    setup_s = None
    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer
        tracer = Tracer().install()
        tracer.phase = "setup"
    else:
        setup_s = setup_seconds(args.workload, args.seed)
    pb, workload, inputs, _ = build(args.workload, args.seed)
    if tracer is not None:
        tracer.phase = None

    from workloads import polytopes_of
    for K in polytopes_of(inputs):
        pb.difference_body(K)   # cached on the body by the program
    workload.warm(pb, inputs)
    probe = HostProbe() if tracer is None else None   # untraced runs only

    ops = workload.ops(pb, inputs)
    reported: set = set()
    times, rescaled, first, failed = [], [], None, 0
    mismatched = []
    if tracer is not None:
        tracer.phase = "pass"
    start = time.perf_counter()
    while True:
        results, n_failed, busy, probes = run_pass(ops, reported, probe)
        times.append(busy)
        if probes:
            rescaled.append(busy * PROBE_REF_S / statistics.mean(probes))
        failed += n_failed
        if first is None:
            first = results
        elif canon(results) != canon(first):
            mismatched.append(len(times))
        # stop before a pass that would end past the measuring time
        pass_s = (time.perf_counter() - start) / len(times)
        if time.perf_counter() - start + pass_s > args.seconds:
            break
    if tracer is not None:
        tracer.phase = None

    outcome = workload.check(pb, inputs, first)
    failures = list(outcome.failures)
    failures += [f"pass {i} differs from pass 1" for i in mismatched]
    for msg in failures:
        print("check failed:", msg, file=sys.stderr)

    if tracer is not None:
        metrics = layer_metrics(tracer, len(times))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "passes": len(times), "pass_seconds": times})
    else:
        budgets = [digits(abs(b) / abs(v)) for v, b in outcome.budgets if v != 0]
        refs = [digits(abs(v - r) / abs(r)) for v, r in outcome.refs]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(rescaled), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "budget_digits": {"value": statistics.median(budgets), "unit": "digits"},
            "ref_digits": {"value": min(refs), "unit": "digits"},
        }
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"passes {len(times)}, pass seconds {[round(t, 3) for t in times]}, "
          f"rescaled {[round(t, 3) for t in rescaled]}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": len(ops) * len(times),
                      "failed": failed, "metrics": metrics}))
    return 0


def canon(x):
    """Exact, comparable form of a result: every float bit by bit."""
    import numpy as np   # imported late so that setup_s includes numpy
    if isinstance(x, np.ndarray):
        return ("array", x.shape, x.tobytes())
    if isinstance(x, dict):
        return tuple((k, canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(canon(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return repr(x)


if __name__ == "__main__":
    sys.exit(main())
