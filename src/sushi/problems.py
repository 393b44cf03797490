"""Built-in benchmark problems: tensors, sources, boundary data, exact fields."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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

    ``exact`` and ``exact_grad`` are optional callables of position;
    ``dirichlet`` defaults to the exact solution when one is known.
    ``make_tensor`` builds the tensor field for a given mesh and region
    map, so heterogeneous problems bind their coefficients per cell.
    """

    name: str
    make_tensor: object
    source: object = None
    dirichlet: object = None
    exact: object = None
    exact_grad: object = None
    needs_regions: bool = False
    exact_boundary_flux: dict | None = None


def _bubble(p) -> float:
    """u = 16 x (1-x) y (1-y), zero on the unit-square boundary."""
    x, y = p
    return 16.0 * x * (1.0 - x) * y * (1.0 - y)


def _bubble_grad(p) -> np.ndarray:
    x, y = p
    return np.array(
        [16.0 * (1.0 - 2.0 * x) * y * (1.0 - y),
         16.0 * x * (1.0 - x) * (1.0 - 2.0 * y)]
    )


def _two_region_tensor(split_x: float, left: float, right: float):
    """``make_tensor`` of an isotropic coefficient split at x = ``split_x``."""
    def make_tensor(mesh, regions=None):
        lam = np.where(mesh.cell_point[:, 0] < split_x, left, right)
        return TensorField.from_per_cell(lam[:, None, None] * np.eye(2))

    return make_tensor


def problem_anisotropic_smooth() -> ProblemSpec:
    """Constant full tensor with the quartic bubble exact solution.

    Lambda = [[1.5, 0.5], [0.5, 1.5]]; the source is the
    hand-differentiated negative divergence of Lambda grad u.
    """
    lam = np.array([[1.5, 0.5], [0.5, 1.5]])

    def source(p):
        x, y = p
        return (
            48.0 * y * (1.0 - y)
            + 48.0 * x * (1.0 - x)
            - 16.0 * (1.0 - 2.0 * x) * (1.0 - 2.0 * y)
        )

    return ProblemSpec(
        name="anisotropic-smooth",
        make_tensor=lambda mesh, regions=None: TensorField.from_constant(lam),
        source=source,
        dirichlet=lambda p: 0.0,
        exact=_bubble,
        exact_grad=_bubble_grad,
    )


def problem_quartic_isotropic() -> ProblemSpec:
    """Identity tensor with the same quartic bubble; used by the E(u) study."""
    def source(p):
        x, y = p
        return 32.0 * y * (1.0 - y) + 32.0 * x * (1.0 - x)

    return ProblemSpec(
        name="quartic-isotropic",
        make_tensor=lambda mesh, regions=None: TensorField.from_constant(np.eye(2)),
        source=source,
        dirichlet=lambda p: 0.0,
        exact=_bubble,
        exact_grad=_bubble_grad,
    )


BARRIER_CONTRAST = 1e-2
# Offset keeping the exact solution continuous across the top barrier line.
_TOP_OFFSET = BARRIER_THICKNESS / BARRIER_CONTRAST - BARRIER_THICKNESS


def barrier_exact(p, region: int | None = None) -> float:
    x, y = p
    r = barrier_region(x, y) if region is None else region
    f1 = phi1(x, y)
    if r == 1:
        return -f1
    if r == 2:
        return -f1 / BARRIER_CONTRAST
    return -f1 - _TOP_OFFSET


def barrier_exact_grad(p, region: int | None = None) -> np.ndarray:
    x, y = p
    r = barrier_region(x, y) if region is None else region
    g = np.array([BARRIER_SLOPE, -1.0])
    if r == 2:
        return g / BARRIER_CONTRAST
    return g


def problem_tilted_barrier() -> ProblemSpec:
    """Three-region layered medium with a thin low-permeability tilted slab.

    Permeability 1 outside the slab and 1e-2 inside; the exact solution is
    piecewise affine in the slab-normal coordinate, continuous, with
    continuous co-normal flux, and zero source.  Boundary data is the
    trace of the exact solution; the analytic per-side boundary fluxes are
    (-0.2, 0.2, 1, -1) for x=0, x=1, y=0, y=1.
    """
    return ProblemSpec(
        name="tilted-barrier",
        make_tensor=lambda mesh, regions=None: TensorField.isotropic_by_region(
            regions, {1: 1.0, 2: BARRIER_CONTRAST, 3: 1.0}
        ),
        source=None,
        dirichlet=barrier_exact,
        exact=barrier_exact,
        exact_grad=barrier_exact_grad,
        needs_regions=True,
        exact_boundary_flux={"x=0": -0.2, "x=1": 0.2, "y=0": 1.0, "y=1": -1.0},
    )


def problem_superadmissible_oracle(lam_left: float, lam_right: float) -> ProblemSpec:
    """Two half-domain isotropic coefficients split at x = 1/2.

    Pairs with the two-point flux oracle on rectangular grids; no exact
    solution is attached.
    """
    if lam_left <= 0.0 or lam_right <= 0.0:
        raise ValueError("coefficients must be positive")
    return ProblemSpec(
        name="superadmissible-oracle",
        make_tensor=_two_region_tensor(0.5, lam_left, lam_right),
        source=None,
        dirichlet=lambda p: 0.0,
        needs_regions=False,
    )


def split_regions(mesh, x_split: float = 0.5) -> np.ndarray:
    """Two-region map for half-domain problems: 1 left of the split, 2 right."""
    return np.where(mesh.cell_point[:, 0] < x_split, 1, 2)


BUILTIN_PROBLEMS = {
    "anisotropic-smooth": problem_anisotropic_smooth,
    "quartic-isotropic": problem_quartic_isotropic,
    "tilted-barrier": problem_tilted_barrier,
}


def _poly_eval(coeffs: np.ndarray, x: float, y: float) -> float:
    xs = x ** np.arange(coeffs.shape[0])
    ys = y ** np.arange(coeffs.shape[1])
    return float(xs @ coeffs @ ys)


def _poly_dx(coeffs: np.ndarray) -> np.ndarray:
    if coeffs.shape[0] == 1:
        return np.zeros((1, coeffs.shape[1]))
    return coeffs[1:, :] * np.arange(1, coeffs.shape[0])[:, None]


def _poly_dy(coeffs: np.ndarray) -> np.ndarray:
    if coeffs.shape[1] == 1:
        return np.zeros((coeffs.shape[0], 1))
    return coeffs[:, 1:] * np.arange(1, coeffs.shape[1])[None, :]


def _numbers(value, what: str) -> np.ndarray:
    """JSON numbers (possibly nested in lists) as a float array.

    Anything else (``null``, strings, objects, ragged nesting) raises
    ``ParseError``.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ParseError(f"{what} must hold numbers only, got {value!r}")
    return arr.astype(float)


def _number(value, what: str) -> float:
    arr = _numbers(value, what)
    if arr.ndim != 0:
        raise ParseError(f"{what} must be a number, got {value!r}")
    return float(arr)


def load_problem_descriptor(path) -> ProblemSpec:
    """Custom problem from a JSON descriptor.

    Recognised keys: ``name``; ``tensor`` (either ``{"constant": 2x2}`` or
    ``{"two_region": {"split_x": v, "left": lam, "right": lam}}``); optional
    ``exact_poly``, a 2D coefficient matrix c[i][j] of sum c_ij x^i y^j, from
    which the gradient, the source -div(Lambda grad u) (constant tensors
    only) and the boundary data are derived.  A malformed descriptor,
    including a non-numeric value, raises ``ParseError``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            desc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON descriptor: {exc}")
    if not isinstance(desc, dict):
        raise ParseError("descriptor must be a JSON object")
    name = desc.get("name", "custom")
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
        make_tensor = _two_region_tensor(_number(tr.get("split_x", 0.5), "'split_x'"),
                                        _number(tr["left"], "'left'"),
                                        _number(tr["right"], "'right'"))
    else:
        raise ParseError("tensor must define 'constant' or 'two_region'")

    exact = exact_grad = source = None
    if "exact_poly" in desc:
        coeffs = _numbers(desc["exact_poly"], "'exact_poly'")
        if coeffs.ndim != 2 or coeffs.size == 0:
            raise ParseError("'exact_poly' must be a non-empty 2D coefficient matrix")
        cx, cy = _poly_dx(coeffs), _poly_dy(coeffs)
        exact = lambda p: _poly_eval(coeffs, p[0], p[1])
        exact_grad = lambda p: np.array(
            [_poly_eval(cx, p[0], p[1]), _poly_eval(cy, p[0], p[1])]
        )
        if constant is not None:
            cxx, cxy, cyy = _poly_dx(cx), _poly_dy(cx), _poly_dy(cy)
            l00, l01, l11 = constant[0, 0], constant[0, 1], constant[1, 1]

            def source(p):
                x, y = p
                return -(
                    l00 * _poly_eval(cxx, x, y)
                    + 2.0 * l01 * _poly_eval(cxy, x, y)
                    + l11 * _poly_eval(cyy, x, y)
                )

    return ProblemSpec(
        name=name,
        make_tensor=make_tensor,
        source=source,
        dirichlet=exact if exact is not None else (lambda p: 0.0),
        exact=exact,
        exact_grad=exact_grad,
    )
