"""Batch front end: parse body/measure specs, dispatch, emit reports.

Each subcommand takes only the options that its handler, or the library
call behind it, reads (``projbody polar-volume`` also accepts --grid, and
ignores it: its polar volume is exact).  The precision options build the
run's ``RunConfig``, the one place handlers read precision from.

Exit codes: 0 success (and inequality pass), 1 configuration or parse
error or numeric failure, 2 inequality-check failure, 3 hypothesis
violation.  Identical command lines with identical seeds produce
byte-identical output: all numbers are serialized with Python's shortest
round-trip float repr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import bodies, isotropic, measures
from .bodies import Ball, DegeneracyError, LinearMap
from .covariogram import CovariogramQuery, mu_covariogram
from .inequalities import (INEQUALITY_IDS, ehrhard_bound_value,
                           gaussian_sharpness_sweep, pe_sweep, verify)
from .meanbodies import (inclusion_chain_report, radial_mean_body,
                         spectral_mean_body)
from .measures import ConcavityFamily
from .numerics import (ConfigurationError, DomainError, EvaluationError,
                       PrecisionError, QuadratureFailure)
from .projection import brightness_residual, shifted_zonoid
from .report import Report, RunConfig, direction_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2
EXIT_HYPOTHESIS = 3


# -- spec parsing --------------------------------------------------------------

def parse_body(spec: str):
    """Body spec: inline shorthand (``simplex:2``, ``cube:3:0.5``,
    ``ball:2:1.5``, ``cross:2``, ``regular_polygon:256``) or ``@file.json``
    with {"type", "vertices", "map", "translate"} fields."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            record = json.load(fh)
        return body_from_record(record)
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "simplex":
            return bodies.standard_simplex(int(args[0]))
        if kind == "cube":
            hw = float(args[1]) if len(args) > 1 else 1.0
            return bodies.cube(int(args[0]), hw)
        if kind == "cross":
            r = float(args[1]) if len(args) > 1 else 1.0
            return bodies.cross_polytope(int(args[0]), r)
        if kind == "ball":
            r = float(args[1]) if len(args) > 1 else 1.0
            return Ball(int(args[0]), r)
        if kind == "regular_polygon":
            r = float(args[1]) if len(args) > 1 else 1.0
            return bodies.regular_polygon(int(args[0]), r)
    except (IndexError, ValueError) as exc:
        raise ConfigurationError(f"bad body spec {spec!r}: {exc}") from exc
    raise ConfigurationError(f"unknown body type {kind!r} in {spec!r}")


def body_from_record(record: dict):
    if record.get("type") == "ball":
        return Ball(int(record["dimension"]), float(record["radius"]),
                    record.get("center"))
    if "vertices" not in record:
        raise ConfigurationError("body record needs a 'vertices' field")
    body = bodies.build_polytope(np.asarray(record["vertices"], dtype=float))
    if "map" in record:
        body = bodies.apply_linear(body, LinearMap(np.asarray(record["map"],
                                                             dtype=float)))
    if "translate" in record:
        body = body.translate(np.asarray(record["translate"], dtype=float))
    return body


def parse_measure(spec: str, n: int):
    """Measure spec: ``lebesgue``, ``gaussian``, ``radial_power:0.5``,
    ``exp_norm:<body spec>``, or ``@file.json``."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            record = json.load(fh)
        kind = record["type"]
        if kind == "exp_norm":
            return measures.exp_norm(body_from_record(record["body"]))
        if kind == "radial_power":
            return measures.radial_power(n, float(record["alpha"]))
        spec = kind
    parts = spec.split(":", 1)
    kind = parts[0]
    if kind == "lebesgue":
        return measures.lebesgue(n)
    if kind == "gaussian":
        return measures.gaussian(n)
    if kind == "radial_power":
        if len(parts) < 2:
            raise ConfigurationError("radial_power needs an alpha: radial_power:a")
        return measures.radial_power(n, _parse_float(parts[1], spec))
    if kind == "exp_norm":
        if len(parts) < 2:
            raise ConfigurationError("exp_norm needs a body: exp_norm:cube:2")
        return measures.exp_norm(parse_body(parts[1]))
    raise ConfigurationError(f"unknown measure type {kind!r}")


def parse_family(spec: str) -> ConcavityFamily:
    if spec == "log":
        return measures.log_family()
    if spec == "gaussian_phi_inverse":
        return measures.gaussian_phi_inverse_family()
    if spec.startswith("power:"):
        return measures.power_family(_parse_float(spec.split(":", 1)[1], spec))
    raise ConfigurationError(f"unknown family {spec!r} "
                             "(log | gaussian_phi_inverse | power:s)")


def parse_map(spec: str, n: int) -> LinearMap:
    """Row-major matrix: 'a,b;c,d' or 'rot:angle' in the plane."""
    if spec.startswith("rot:"):
        if n != 2:
            raise ConfigurationError("rot: shorthand is 2-D only")
        return LinearMap.rotation_2d(_parse_float(spec.split(":", 1)[1], spec))
    rows = [[_parse_float(v, spec) for v in row.split(",")]
            for row in spec.split(";")]
    try:
        matrix = np.asarray(rows, dtype=float)
    except ValueError as exc:   # ragged rows
        raise ConfigurationError(f"bad matrix {spec!r}: {exc}") from exc
    if matrix.shape != (n, n):
        raise ConfigurationError(f"map {spec!r} is not a {n}x{n} matrix")
    return LinearMap(matrix)


def parse_vector(spec: str) -> np.ndarray:
    return np.asarray([_parse_float(v, spec) for v in spec.split(",")],
                      dtype=float)


def _body_vector(args, name: str) -> np.ndarray:
    """``--name`` as a finite vector with one coordinate per dimension of
    the body, and nonzero if it is the direction ``--theta``."""
    spec = getattr(args, name)
    v = parse_vector(spec)
    if len(v) != args.K.n or not np.all(np.isfinite(v)):
        raise ConfigurationError(f"--{name} {spec!r} is not a finite vector "
                                 f"of dimension {args.K.n}")
    if name == "theta" and not np.any(v):
        raise ConfigurationError(f"--theta {spec!r} is not a direction")
    return v


def _parse_float(text: str, spec: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad number {text!r} in {spec!r}") from exc


# -- output --------------------------------------------------------------------

_CSV_FIELDS = ["id", "lhs", "rhs", "margin", "tolerance", "pass", "verdict",
               "seed", "samples", "grid", "tol", "witnesses"]


def emit_report(report: Report, fmt: str, out) -> int:
    data = report.to_json_dict()
    if fmt == "json":
        out.write(json.dumps(data, indent=2))
        out.write("\n")
    else:
        writer = csv.DictWriter(out, fieldnames=_CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        row = {k: data[k] for k in ("id", "lhs", "rhs", "margin",
                                    "tolerance", "verdict")}
        row["pass"] = data["pass"]
        row.update({k: data["config"].get(k) for k in ("seed", "samples",
                                                       "grid", "tol")})
        row["witnesses"] = json.dumps(data["witnesses"])
        writer.writerow(row)
    if report.verdict == "hypothesis_violation":
        return EXIT_HYPOTHESIS
    return EXIT_OK if report.passed else EXIT_FAIL


def emit_json(data, out) -> int:
    out.write(json.dumps(data, indent=2))
    out.write("\n")
    return EXIT_OK


def emit_rows(rows: list[dict], fmt: str, out) -> int:
    if fmt == "json":
        return emit_json(rows, out)
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


# -- command handlers: (args with specs resolved, out) -> exit code ------------

def _body(args, out) -> int:
    K = args.K
    if args.action == "transform":
        K = bodies.apply_linear(K, parse_map(args.map, K.n))
    if isinstance(K, Ball):
        return emit_json({"type": "ball", "dimension": K.n,
                          "radius": K.radius,
                          "center": list(K.center),
                          "volume": K.volume}, out)
    return emit_json({
        "type": "polytope", "dimension": K.n,
        "volume": K.volume,
        "vertex_count": len(K.vertices),
        "facet_count": K.facet_count,
        "symmetric": K.is_symmetric(),
        "diameter": K.diameter,
        "vertices": K.vertices.tolist(),
        "facet_normals": K.normals.tolist(),
        "facet_offsets": K.offsets.tolist(),
        "facet_areas": K.areas.tolist(),
    }, out)


def _query(args) -> CovariogramQuery:
    return CovariogramQuery(args.K, args.mu, args.f, mode=args.mode,
                            stream=args.cfg.stream(), N=args.cfg.samples,
                            tol=args.cfg.tol)


def _covariogram_eval(args, out) -> int:
    res = mu_covariogram(_query(args), _body_vector(args, "x"))
    return emit_json({"value": res.value,
                      "error": res.error_estimate,
                      "evaluations": res.evaluations}, out)


def _covariogram_profile(args, out) -> int:
    if args.steps < 1:
        raise ConfigurationError(f"--steps must be at least 1, got {args.steps}")
    query = _query(args)
    theta = _body_vector(args, "theta")
    theta = theta / np.linalg.norm(theta)
    rho = bodies.radial_many(bodies.difference_body(args.K), theta[None, :])[0]
    radii = [rho * i / args.steps for i in range(args.steps + 1)]
    results = mu_covariogram(query, np.outer(radii, theta))
    rows = [{"r": r, "value": res.value, "error": res.error_estimate}
            for r, res in zip(radii, results)]
    return emit_rows(rows, args.format, out)


def _projbody_build(args, out) -> int:
    cfg = args.cfg
    zon, off = shifted_zonoid(args.K, args.mu, args.f, cfg.stream(),
                              cfg.samples, cfg.tol)
    return emit_json({
        "generators": zon.generators.tolist(),
        "weights": zon.weights.tolist(),
        "weight_errors": zon.weight_errors.tolist(),
        "offset": list(off.value),
        "offset_error": off.error_estimate,
        "offset_kind": off.which}, out)


def _projbody_polar_volume(args, out) -> int:
    zon, _ = shifted_zonoid(args.K, args.mu, tol=args.cfg.tol)
    value, error = zon.polar_volume()
    return emit_json({"value": value, "error": error}, out)


def _projbody_brightness(args, out) -> int:
    cfg = args.cfg
    res = brightness_residual(args.K, args.mu, _body_vector(args, "theta"),
                              mode=args.mode, f=args.f, stream=cfg.stream(),
                              N=cfg.samples, tol=cfg.tol)
    return emit_json({"residual": res.value,
                      "budget": res.error_estimate,
                      "pass": bool(res.value <= 3.0 * res.error_estimate
                                   + 1e-9)}, out)


def _meanbody_chain(args, out) -> int:
    p_list = parse_vector(args.p_list).tolist()
    grid = direction_grid(args.K.n, min(args.cfg.grid, 256), args.cfg)
    report = inclusion_chain_report(args.K, p_list, grid, tol=args.cfg.tol)
    return emit_report(report, args.format, out)


def _meanbody_radii(args, out) -> int:
    grid = direction_grid(args.K.n, min(args.cfg.grid, 256), args.cfg)
    result = args.mean_body(args.K, _parse_float(args.p, "--p"), grid,
                            tol=args.cfg.tol)
    rows = [{"direction": list(d), "radius": float(r)}
            for d, r in zip(grid.directions, result.star.radii)]
    if args.format == "csv":
        rows = [{"radius": r["radius"],
                 **{f"d{i}": v for i, v in enumerate(r["direction"])}}
                for r in rows]
    return emit_rows(rows, args.format, out)


def _verify(args, out) -> int:
    n = args.K.n
    nu = parse_measure(args.nu, n) if args.nu else None
    family = parse_family(args.family) if args.family else None
    report = verify(args.id, args.K, mu=args.mu, nu=nu, f=args.f,
                    family=family, s=args.s, precision=args.cfg)
    return emit_report(report, args.format, out)


def _isotropic_residual(args, out) -> int:
    cert = isotropic.isotropy_residual(args.K, args.mu, args.cfg.tol)
    return emit_json({"residual": cert.residual,
                      "threshold": cert.threshold,
                      "isotropic": cert.isotropic,
                      "weights": cert.weights.tolist()}, out)


def _isotropic_minimize(args, out) -> int:
    point, value, converged = isotropic.minimize_I(args.K, args.mu,
                                                   tol=args.cfg.tol)
    return emit_json({"matrix": point.matrix.tolist(),
                      "value": value,
                      "converged": converged}, out)


def _isotropic_reverse_iso(args, out) -> int:
    report = isotropic.reverse_isoperimetric(args.K, args.mu,
                                             parse_family(args.family),
                                             mode=args.mode, cfg=args.cfg)
    return emit_report(report, args.format, out)


def _sweep_pe(args, out) -> int:
    return emit_rows(pe_sweep(args.K, parse_vector(args.t_list).tolist(),
                              args.cfg), args.format, out)


def _sweep_gaussian_sharpness(args, out) -> int:
    return emit_rows(gaussian_sharpness_sweep(parse_vector(args.r_list).tolist(),
                                              n=args.n), args.format, out)


def _sweep_ehrhard(args, out) -> int:
    rows = [{"x": x, "value": ehrhard_bound_value(args.n, x),
             "error": 0.0} for x in parse_vector(args.x_list).tolist()]
    return emit_rows(rows, args.format, out)


# -- argument plumbing ----------------------------------------------------------

# the options several commands take; the precision defaults are RunConfig's
_OPTIONS = {
    "body": dict(required=True, help="body spec (or @file)"),
    "measure": dict(default="lebesgue", help="measure spec (default lebesgue)"),
    "seed": dict(type=int, default=RunConfig.seed),
    "samples": dict(type=int, default=RunConfig.samples),
    "grid": dict(type=int, default=RunConfig.grid),
    "tol": dict(type=float, default=RunConfig.tol),
    "format": dict(choices=("json", "csv"), default="json"),
    "mode": dict(choices=("plain", "polarized", "functional"), default="plain"),
    "f": dict(default=None, help="density spec for functional forms"),
    "theta": dict(required=True),
    "n": dict(type=int, default=2),
}
_SAMPLED = ("body", "measure", "seed", "samples", "tol")
_GRIDDED = ("body", "seed", "grid", "tol", "format")


def _add_common(p: argparse.ArgumentParser, run, *names):
    """Route ``p`` to ``run`` and give it the named ``_OPTIONS``: the ones
    that ``run``, or the library call behind it, reads."""
    p.set_defaults(run=run)
    for name in names:
        p.add_argument(f"--{name}", **_OPTIONS[name])
    return p


@functools.cache   # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="projbodies")
    sub = top.add_subparsers(dest="command", required=True)

    body = sub.add_parser("body").add_subparsers(dest="action", required=True)
    _add_common(body.add_parser("info"), _body, "body")
    _add_common(body.add_parser("transform"), _body, "body").add_argument(
        "--map", required=True, help="row-major 'a,b;c,d' or rot:angle")

    cov = sub.add_parser("covariogram").add_subparsers(dest="action", required=True)
    p = _add_common(cov.add_parser("eval"), _covariogram_eval, *_SAMPLED,
                    "mode", "f")
    p.add_argument("--x", required=True, help="translation vector 'x1,x2,...'")
    p = _add_common(cov.add_parser("profile"), _covariogram_profile, *_SAMPLED,
                    "format", "theta", "mode", "f")
    p.add_argument("--steps", type=int, default=32)

    proj = sub.add_parser("projbody").add_subparsers(dest="action", required=True)
    _add_common(proj.add_parser("build"), _projbody_build, *_SAMPLED, "f")
    # the polar volume is exact: --grid is accepted and ignored
    _add_common(proj.add_parser("polar-volume"), _projbody_polar_volume,
                "body", "measure", "tol", "grid")
    _add_common(proj.add_parser("brightness"), _projbody_brightness, *_SAMPLED,
                "theta", "mode", "f")

    mean = sub.add_parser("meanbody").add_subparsers(dest="action", required=True)
    for action, fn in (("radial", radial_mean_body),
                       ("spectral", spectral_mean_body)):
        p = _add_common(mean.add_parser(action), _meanbody_radii, *_GRIDDED)
        p.set_defaults(mean_body=fn)
        p.add_argument("--p", required=True,
                       help="exponent (a float, or 'inf')")
    _add_common(mean.add_parser("chain"), _meanbody_chain,
                *_GRIDDED).add_argument("--p-list", default="0,1,2")

    p = sub.add_parser("verify")
    p.add_argument("id", choices=INEQUALITY_IDS)
    _add_common(p, _verify, *_SAMPLED, "grid", "format", "f")
    p.add_argument("--nu", default=None, help="second measure spec")
    p.add_argument("--family", default=None,
                   help="log | gaussian_phi_inverse | power:s")
    p.add_argument("--s", type=float, default=None)

    iso = sub.add_parser("isotropic").add_subparsers(dest="action", required=True)
    for action, fn in (("residual", _isotropic_residual),
                       ("minimize", _isotropic_minimize)):
        _add_common(iso.add_parser(action), fn, "body", "measure", "tol")
    p = _add_common(iso.add_parser("reverse-iso"), _isotropic_reverse_iso,
                    *_SAMPLED, "format")
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=("q_form", "f_form"), default="q_form")

    sweep = sub.add_parser("sweep").add_subparsers(dest="action", required=True)
    _add_common(sweep.add_parser("pe"), _sweep_pe, "body", "tol",
                "format").add_argument("--t-list", default="0.5,1,2,4,8,12,16")
    for action, fn, name, default in (
            ("gaussian-sharpness", _sweep_gaussian_sharpness, "--r-list",
             "1,2,5,10,20"),
            ("ehrhard", _sweep_ehrhard, "--x-list", "-2,-1,0,1,2")):
        p = _add_common(sweep.add_parser(action), fn, "n", "format")
        p.add_argument(name, default=default)
        p.set_defaults(format="csv")

    return top


# the commands that take a ``ball:`` body; every other needs a polytope
_BALL_COMMANDS = {"body info", "body transform", "verify zhang_petty"}


def _resolve_specs(args):
    """Parse the body, measure and --f specs once, and build the RunConfig
    from the precision options present (RunConfig's defaults for the rest)."""
    if not hasattr(args, "body"):
        return
    args.K = parse_body(args.body)
    command = f"{args.command} {getattr(args, 'action', None) or args.id}"
    if isinstance(args.K, Ball) and command not in _BALL_COMMANDS:
        raise ConfigurationError(f"{command} needs a polytope body, not a ball")
    n = args.K.n
    args.mu = parse_measure(args.measure, n) if hasattr(args, "measure") else None
    args.f = parse_measure(args.f, n) if getattr(args, "f", None) else None
    args.cfg = RunConfig(**{k: v for k, v in vars(args).items()
                            if k in RunConfig.__dataclass_fields__})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        _resolve_specs(args)
        return args.run(args, sys.stdout)
    except (ConfigurationError, DomainError, FileNotFoundError, KeyError,
            DegeneracyError, PrecisionError, QuadratureFailure,
            EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
