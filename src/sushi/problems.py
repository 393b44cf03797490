"""Built-in benchmark problems: tensors, sources, boundary data, exact fields."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval2d

from .assembly import TensorField
from .errors import ParseError
from .generators import (
    BARRIER_SLOPE,
    BARRIER_THICKNESS,
    barrier_region,
    phi1,
)


@dataclass
class ProblemSpec:
    """Problem definition bundle.

    ``source``, ``dirichlet``, ``exact`` and ``exact_grad`` are user fields
    (:func:`sushi.spaces.sample_field`), all optional; no ``source`` or
    ``dirichlet`` means zero.
    ``make_tensor`` builds the tensor field for a given mesh and region
    map, so heterogeneous problems bind their coefficients per cell.
    ``region``, optional, is the problem's own region map as a user field;
    it is sampled at the cell points when the mesh brings no region map.
    """

    make_tensor: object
    source: object = None
    dirichlet: object = None
    exact: object = None
    exact_grad: object = None
    region: object = None


# The quartic bubble u = 16 x (1-x) y (1-y), zero on the boundary of the unit
# square and 1 at its centre, as ``exact_poly`` coefficients c[i][j] of x^i y^j.
_BUBBLE_POLY = (16.0 * np.outer([0, 1, -1], [0, 1, -1])).tolist()


# Points per block of a polynomial field: bounds the (degree + 1, points)
# temporaries of ``polyval2d``.
POLY_BLOCK = 4096


def _polyvals(p, *coeffs) -> np.ndarray:
    """``polyval2d(p[0], p[1], c)`` for each coefficient matrix ``c`` of
    ``coeffs``, stacked on a new first axis, ``POLY_BLOCK`` points at a time.
    Each point gets the arithmetic of one whole-array call, bit for bit."""
    x, y = np.asarray(p[0]), np.asarray(p[1])
    out = np.empty((len(coeffs),) + x.shape)
    flat_x, flat_y, rows = x.reshape(-1), y.reshape(-1), out.reshape(len(coeffs), -1)
    for start in range(0, flat_x.size, POLY_BLOCK):
        block = slice(start, start + POLY_BLOCK)
        for c, row in zip(coeffs, rows):
            row[block] = polyval2d(flat_x[block], flat_y[block], c)
    return out


def problem_anisotropic_smooth() -> ProblemSpec:
    """Constant full tensor with the quartic bubble exact solution."""
    return problem_from_descriptor({"tensor": {"constant": [[1.5, 0.5], [0.5, 1.5]]},
                                    "exact_poly": _BUBBLE_POLY})


def problem_quartic_isotropic() -> ProblemSpec:
    """Identity tensor with the same quartic bubble."""
    return problem_from_descriptor({"tensor": {"constant": [[1.0, 0.0], [0.0, 1.0]]},
                                    "exact_poly": _BUBBLE_POLY})


BARRIER_CONTRAST = 1e-2
# Offset keeping the exact solution continuous across the top barrier line.
_TOP_OFFSET = BARRIER_THICKNESS / BARRIER_CONTRAST - BARRIER_THICKNESS


def barrier_exact(p) -> np.ndarray:
    x, y = p
    r = barrier_region(x, y)
    f1 = phi1(x, y)
    return np.where(r == 1, -f1, np.where(r == 2, -f1 / BARRIER_CONTRAST, -f1 - _TOP_OFFSET))


def barrier_exact_grad(p) -> np.ndarray:
    x, y = p
    r = barrier_region(x, y)
    scale = np.broadcast_to(np.where(r == 2, BARRIER_CONTRAST, 1.0), np.shape(x))
    return np.stack([BARRIER_SLOPE / scale, -1.0 / scale])


def problem_tilted_barrier() -> ProblemSpec:
    """Three-region layered medium with a thin low-permeability tilted slab.

    Permeability 1 outside the slab and 1e-2 inside; the exact solution is
    piecewise affine in the slab-normal coordinate, continuous, with
    continuous co-normal flux, and zero source.  Boundary data is the
    trace of the exact solution; the analytic per-side boundary fluxes are
    (-0.2, 0.2, 1, -1) for x=0, x=1, y=0, y=1.
    """
    return ProblemSpec(
        make_tensor=lambda mesh, regions=None: TensorField(
            np.where(np.asarray(regions) == 2, BARRIER_CONTRAST, 1.0)[:, None, None] * np.eye(2)
        ),
        source=None,
        dirichlet=barrier_exact,
        exact=barrier_exact,
        exact_grad=barrier_exact_grad,
        region=lambda p: barrier_region(p[0], p[1]),
    )


BUILTIN_PROBLEMS = {
    "anisotropic-smooth": problem_anisotropic_smooth,
    "quartic-isotropic": problem_quartic_isotropic,
    "tilted-barrier": problem_tilted_barrier,
}


def _numbers(value, what: str) -> np.ndarray:
    """Finite JSON numbers (possibly nested in lists) as a float array.

    Anything else (``null``, strings, objects, ragged nesting, and the
    ``NaN`` and ``Infinity`` that Python's ``json`` reads) raises
    ``ParseError``.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ParseError(f"{what} must hold numbers only, got {value!r}")
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} must hold finite numbers only, got {value!r}")
    return arr.astype(float)


def _number(value, what: str) -> float:
    arr = _numbers(value, what)
    if arr.ndim != 0:
        raise ParseError(f"{what} must be a number, got {value!r}")
    return float(arr)


def load_problem_descriptor(path) -> ProblemSpec:
    """Custom problem from a JSON descriptor file
    (:func:`problem_from_descriptor`); bad JSON raises ``ParseError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            desc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON descriptor: {exc}")
    return problem_from_descriptor(desc)


def problem_from_descriptor(desc) -> ProblemSpec:
    """Problem from a descriptor object, as read from JSON.

    Recognised keys: ``tensor`` (either ``{"constant": 2x2}`` or
    ``{"two_region": {"split_x": v, "left": lam, "right": lam}}``, an
    isotropic coefficient split at x = ``split_x``, default 1/2); optional
    ``exact_poly``, a 2D coefficient matrix c[i][j] of sum c_ij x^i y^j, from
    which the gradient, the source -div(Lambda grad u) and the boundary
    data are derived; without it both are zero.  ``exact_poly`` needs a
    ``constant`` tensor, as no source is derived region by region.  Other
    keys, such as a ``name`` label, are ignored.  A malformed descriptor,
    including a non-numeric or non-finite value, raises ``ParseError``.
    """
    if not isinstance(desc, dict):
        raise ParseError("descriptor must be a JSON object")
    tensor = desc.get("tensor")
    if not isinstance(tensor, dict):
        raise ParseError("descriptor needs a 'tensor' object")

    constant = None
    if "constant" in tensor:
        constant = _numbers(tensor["constant"], "'constant' tensor")
        if constant.shape != (2, 2):
            raise ParseError("'constant' tensor must be a 2x2 matrix")

        def make_tensor(mesh, regions=None, mat=constant):
            return TensorField.from_constant(mat)

    elif "two_region" in tensor:
        tr = tensor["two_region"]
        if not (isinstance(tr, dict) and "left" in tr and "right" in tr):
            raise ParseError("'two_region' must be an object with 'left' and 'right'")
        split_x = _number(tr.get("split_x", 0.5), "'split_x'")
        left, right = _number(tr["left"], "'left'"), _number(tr["right"], "'right'")

        def make_tensor(mesh, regions=None):
            lam = np.where(mesh.cell_point[:, 0] < split_x, left, right)
            return TensorField(lam[:, None, None] * np.eye(2))

    else:
        raise ParseError("tensor must define 'constant' or 'two_region'")

    exact = exact_grad = source = None
    if "exact_poly" in desc:
        if constant is None:
            raise ParseError("'exact_poly' needs a 'constant' tensor, not 'two_region'")
        coeffs = _numbers(desc["exact_poly"], "'exact_poly'")
        if coeffs.ndim != 2 or coeffs.size == 0:
            raise ParseError("'exact_poly' must be a non-empty 2D coefficient matrix")
        # polyval2d is Horner's rule over elementwise products, without BLAS.
        cx, cy = polyder(coeffs, axis=0), polyder(coeffs, axis=1)
        exact = lambda p: _polyvals(p, coeffs)[0]
        exact_grad = lambda p: _polyvals(p, cx, cy)
        cxx, cxy, cyy = polyder(cx, axis=0), polyder(cx, axis=1), polyder(cy, axis=1)
        l00, l01, l11 = constant[0, 0], constant[0, 1], constant[1, 1]

        def source(p):
            fxx, fxy, fyy = _polyvals(p, cxx, cxy, cyy)
            return -(l00 * fxx + 2.0 * l01 * fxy + l11 * fyy)

    return ProblemSpec(
        make_tensor=make_tensor,
        source=source,
        dirichlet=exact,
        exact=exact,
        exact_grad=exact_grad,
    )
