"""Reference figures quoted in perfbench/README.md, measured on one core.

    python3 perfbench/figures.py

Prints, for the program in this checkout: one Gaussian facet-cubature pass
over c04's eight 3-D bodies at tol 1e-7 (time and density evaluations),
the inclusion chain of c07's pentagon on 64 directions, and the median time
of one 3-D exact covariogram evaluation of cube(3).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import projbodies as pb  # noqa: E402
from workloads import ACCEPTANCE_SEED, c07_pentagon  # noqa: E402


def main():
    stream = pb.RandomStream(ACCEPTANCE_SEED)
    c04 = [pb.random_polytope(3, stream.substream(20 + i)) for i in range(4)]
    c04 += [pb.random_polytope(3, stream.substream(30 + i), symmetric=True)
            for i in range(4)]
    gauss = pb.gaussian(3)
    points = [0]

    def counted(p):
        points[0] += len(p)
        return gauss.eval(p)

    g = dataclasses.replace(gauss, eval=counted)
    t = time.perf_counter()
    for K in c04:
        pb.facet_weights(g, K, 1e-7)
    print(f"3-D Gaussian cubature, c04 bodies, tol 1e-7: "
          f"{time.perf_counter() - t:.1f} s, {points[0]:,} density evaluations")

    grid = pb.sphere_directions(2, 64)
    t = time.perf_counter()
    rep = pb.inclusion_chain_report(c07_pentagon(pb), [0, 1, 2], grid, tol=1e-9)
    print(f"c07 pentagon chain, 64 directions: {time.perf_counter() - t:.1f} s "
          f"({rep.verdict})")

    cube = pb.cube(3)
    theta = np.array([0.48, 0.6, 0.64])
    times = []
    for r in np.linspace(0.05, 2.5, 50):
        t = time.perf_counter()
        pb.covariogram_exact(cube, r * theta)
        times.append(time.perf_counter() - t)
    print(f"3-D exact covariogram of cube(3): {1e3 * statistics.median(times):.1f} ms "
          f"(median of {len(times)})")


if __name__ == "__main__":
    main()
