"""Static checks on how the projbodies modules import one another.

Reports, run configs and the tolerance rule live in ``report`` alone; other
modules reach them, and each other, through public names imported at module
top, so no module depends on another's private helpers.  The library needs
neither ``scipy.stats`` nor ``scipy.optimize``: exact polytope algebra and
``scipy.special`` cover what they were used for.  ``scipy.integrate`` (which
loads ``scipy.optimize``) is imported only when a 1-D quadrature runs.
Monte Carlo has one estimator, ``numerics.monte_carlo``: it alone draws
points from a sampler, whether a box, the facet prisms of the brightness
derivative, the sphere or pairs of points of K, apart from the rejection
sampler for uniform points in K, and it alone blocks rows, checks values and
reduces them to a mean and a budget.  Rays have one breakpoint finder,
``covariogram._breakpoints``: it and the intersection vertices alone read
the face pairs.  Their pieces have one fitter, ``covariogram._fit_pieces``,
the one raiser of a missed check node.  The covariogram routes read what a density can do (``flux``,
``radial_moment``, ``smooth``, ``is_lebesgue`` and the Gaussian product
rule of ``measures.product_flux``), never its ``kind`` or ``label``.  The
product rule is one query rewrite, ``covariogram._polarized_gaussian``, the
only reader of ``product_flux`` in that module: a gamma_n x gamma_n pair
becomes a weight and a polarized query, and ``_flux_covariogram`` takes no
weight of its own.  The brightness modes at one direction share one ray
plan, which ``covariogram.brightness_derivative`` alone makes.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "projbodies"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_projbodies(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "projbodies"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_names_across_modules(path):
    private = [f"{node.lineno}: {alias.name}"
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.ImportFrom) and _is_projbodies(node)
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names: {private}"


# The one import deferred to first use: ``integrate_1d`` imports
# ``scipy.integrate`` (and with it ``scipy.optimize``) only when called.
DEFERRED = {("numerics.py", "scipy", "integrate")}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_at_module_top(path):
    nested = [f"{inner.lineno}"
              for node in ast.walk(_tree(path))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for inner in ast.walk(node)
              if isinstance(inner, (ast.Import, ast.ImportFrom))
              and not (isinstance(inner, ast.ImportFrom)
                       and all((path.name, inner.module, alias.name) in DEFERRED
                               for alias in inner.names))]
    assert not nested, f"{path.name} imports inside functions at lines {nested}"


def test_import_leaves_out_scipy_integrate_and_optimize():
    """A fresh interpreter that imports the package has loaded neither."""
    code = ("import sys, projbodies; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_scipy_stats_or_optimize(path):
    banned = {"scipy.stats", "scipy.optimize"}
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if any(name == b or name.startswith(b + ".") for b in banned)]
    assert not found, f"{path.name} imports {found}"


def test_report_types_defined_only_in_report():
    home = {"Witness", "Report", "RunConfig", "finish_report"}
    for path in MODULES:
        defined = {node.name for node in _tree(path).body
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        if path.name == "report.py":
            assert home <= defined
        else:
            assert not home & defined, f"{path.name} redefines {home & defined}"


# The functions that may draw from a sampler (a box or the brightness
# prisms): the one estimator and the rejection sampler behind the
# translated averages.
SAMPLER_CALLERS = {("numerics.py", "monte_carlo"),
                   ("covariogram.py", "sample_uniform")}


def _sample_calls(path):
    """(function, line) of every ``.sample(...)`` call in a module."""
    calls = []
    for node in _tree(path).body:
        name = getattr(node, "name", "<module>")
        calls += [(name, inner.lineno) for inner in ast.walk(node)
                  if isinstance(inner, ast.Call)
                  and isinstance(inner.func, ast.Attribute)
                  and inner.func.attr == "sample"]
    return calls


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_box_samples_are_drawn_only_by_monte_carlo(path):
    stray = [f"{line}: {name}" for name, line in _sample_calls(path)
             if (path.name, name) not in SAMPLER_CALLERS]
    assert not stray, f"{path.name} draws sampler points outside monte_carlo: {stray}"


def test_the_sampler_callers_still_draw():
    """The allowed callers exist and draw, so the check above is not vacuous."""
    found = {(path.name, name) for path in MODULES
             for name, _ in _sample_calls(path)}
    assert found == SAMPLER_CALLERS


# The readers of the face pairs: the vertices of K ∩ (K + x) and the one
# ray-breakpoint finder; and the finder's callers, the covariogram pieces
# along a ray (mean bodies), the first piece of the exact brightness
# derivative and the polar rule of the planar translated averages.
FACE_PAIR_READERS = {("bodies.py", "_intersection_vertices"),
                     ("covariogram.py", "_breakpoints")}
BREAKPOINT_CALLERS = {("covariogram.py", "ray_pieces"),
                      ("covariogram.py", "brightness_derivative"),
                      ("covariogram.py", "_polar_rule")}


def _references(name):
    """(module, top-level function) of every use of ``name`` in the package,
    as a name, an attribute or an import."""
    found = set()
    for path in MODULES:
        for node in _tree(path).body:
            where = getattr(node, "name", "<module>")
            found |= {(path.name, where) for inner in ast.walk(node)
                      if name in (getattr(inner, "id", None), getattr(inner, "attr", None))
                      or (isinstance(inner, ast.alias) and inner.name == name)}
    return found


@pytest.mark.parametrize("name, allowed", [("face_pairs", FACE_PAIR_READERS),
                                           ("_breakpoints", BREAKPOINT_CALLERS)])
def test_one_ray_breakpoint_finder(name, allowed):
    found = _references(name)
    assert not found - allowed, f"{name} is used outside {allowed}: {found - allowed}"
    # the allowed users still use it, so the check above is not vacuous
    assert found == allowed


# The parts of the one estimator: no caller blocks its own rows, checks its
# own values or reduces them itself.
ESTIMATOR_PARTS = ("row_blocks", "check_finite", "mean_with_budget")


@pytest.mark.parametrize("name", ESTIMATOR_PARTS)
def test_one_monte_carlo_estimator(name):
    assert _references(name) == {("numerics.py", "monte_carlo")}


def test_the_functional_quotient_has_no_kernel_of_its_own():
    """The functional Monte Carlo quotient is the Richardson combination of
    ``_pointwise_values``; the prism kernel of the plain and polarized
    quotients stays."""
    defined = {node.name for node in _tree(SRC / "covariogram.py").body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert "_brightness_quotients" not in defined
    assert {"_pointwise_values", "_prism_quotients", "PrismSampler"} <= defined


def _check_node_raisers(path):
    """Top-level functions of ``path`` that raise a ``QuadratureFailure``
    whose message speaks of a check node."""
    found = set()
    for node in _tree(path).body:
        for inner in ast.walk(node):
            exc = getattr(inner, "exc", None) if isinstance(inner, ast.Raise) else None
            if (isinstance(exc, ast.Call) and getattr(exc.func, "id", None)
                    == "QuadratureFailure" and exc.args):
                text = "".join(part.value for part in ast.walk(exc.args[0])
                               if isinstance(part, ast.Constant)
                               and isinstance(part.value, str))
                if "check node" in text:
                    found.add(getattr(node, "name", "<module>"))
    return found


def test_one_ray_piece_fitter():
    """Ray pieces are fitted, and their check node tested, in one place."""
    assert _check_node_raisers(SRC / "covariogram.py") == {"_fit_pieces"}


def _attribute_reads(path, names):
    return [f"{node.lineno}: .{node.attr}" for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_covariogram_routes_read_capabilities():
    reads = _attribute_reads(SRC / "covariogram.py", ("kind", "label"))
    assert not reads, f"covariogram.py reads a density's kind or label: {reads}"
    # the scan finds such reads where they are, so it is not vacuous
    assert _attribute_reads(SRC / "measures.py", ("kind", "label"))


def test_the_gaussian_product_rule_is_one_query_rewrite():
    functions = {node.name: node for node in _tree(SRC / "covariogram.py").body
                 if isinstance(node, ast.FunctionDef)}
    arguments = functions["_flux_covariogram"].args
    names = [a.arg for a in arguments.args + arguments.kwonlyargs]
    assert "weight" not in names and "tol" in names
    readers = {where for module, where in _references("product_flux")
               if module == "covariogram.py"}
    assert readers == {"<module>", "_polarized_gaussian"}   # the import and the rewrite


def test_one_ray_plan_per_body_and_direction():
    """The ray plan that the brightness modes share has one owner: only
    ``brightness_derivative`` loads or stores ``K._ray_plan``, by attribute
    or by ``getattr`` name."""
    owners = {(path.name, getattr(node, "name", "<module>"))
              for path in MODULES for node in _tree(path).body
              for inner in ast.walk(node)
              if (isinstance(inner, ast.Attribute) and inner.attr == "_ray_plan")
              or (isinstance(inner, ast.Constant) and inner.value == "_ray_plan")}
    assert owners == {("covariogram.py", "brightness_derivative")}
