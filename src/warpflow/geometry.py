"""Embedded target manifolds and warp functions.

The flow maps a planar domain into a warped product N x R carrying the
Lorentzian metric g_N - beta(y) dtheta^2.  N is one of two built-in embedded
manifolds: the unit sphere S^2 in R^3, or the flat unit-period torus.
beta is a smooth positive function on N with global bounds
0 < lam <= beta <= Lam.

Sign convention for the sphere: the curvature term of the tension field is
A(y)(X, X) = |X|^2 y, so that with beta constant the flow reduces to the
classical sphere-valued heat flow and d/dt |u|^2 = Laplace |u|^2 holds for
the unconstrained update.

Torus-valued fields are stored as lifts to the covering plane R^2; every
real pair represents a torus point, so the field projection is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoint, NonPositiveCoefficient

ON_TARGET_TOL = 1e-9   # the largest target.distance of a point that lies on the target


@dataclass(frozen=True)
class UnitSphere:
    """Unit sphere S^2 embedded in R^3."""

    kind = "sphere"
    embedding_dim = 3
    flat = False

    def distance(self, p: np.ndarray) -> np.ndarray:
        return np.abs(np.linalg.norm(p, axis=1) - 1.0)

    def project_tangent(self, y, X):
        """Tangential part of X at y: X - (X . y) y.  Vectorized over rows."""
        y = np.asarray(y, dtype=float)
        X = np.asarray(X, dtype=float)
        return X - np.einsum("...i,...i", X, y)[..., None] * y

    def curvature_force(self, y: np.ndarray, grad_sq: np.ndarray) -> np.ndarray:
        """Nodal curvature term |grad u|^2 u for the tension field (grad_sq per node)."""
        return grad_sq[:, None] * y

    def project_field(self, values: np.ndarray) -> np.ndarray:
        """Row-wise normalization of a nodal field; the stepper projection.
        DegeneratePoint at the center, or where |y|^2 overflows (y / inf is 0)."""
        norms = np.sqrt(np.einsum("ij,ij->i", values, values))
        if not np.all((norms >= 1e-8) & (norms < np.inf)):
            raise DegeneratePoint("field value collapsed to the sphere center or overflowed")
        return values / norms[:, None]


@dataclass(frozen=True)
class FlatTorus:
    """Flat torus R^2 / Z^2; fields are lifts to the covering plane."""

    kind = "torus"
    embedding_dim = 2
    # no curvature term: the flow's forcing is the warp drift alone
    flat = True

    def distance(self, p: np.ndarray) -> np.ndarray:
        return np.zeros(len(p))

    def project_tangent(self, y, X):
        return np.asarray(X, dtype=float)

    def curvature_force(self, y: np.ndarray, grad_sq: np.ndarray) -> np.ndarray:
        return np.zeros_like(y)

    def project_field(self, values: np.ndarray) -> np.ndarray:
        # Identity on lifts: reducing mod 1 would tear a continuous lift apart.
        return values


def make_target(name: str):
    if name == "sphere":
        return UnitSphere()
    if name == "torus":
        return FlatTorus()
    raise ValueError(f"unknown target manifold {name!r}")


@dataclass
class WarpFunction:
    """Positive warp factor beta on the target, with certified global bounds.

    Built-in families:
      constant:      beta = a                    (any target)
      linear_height: beta(y) = a + b * y_K       (sphere only: y_K of a torus lift is unbounded)
      sinusoidal:    beta(y) = a + b * sin(2 pi y_1)  (torus; unit period)

    lower/upper, the certified bounds lam, Lam of the diagnostics, are not fields.
    """

    kind: str = "constant"
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear_height", "sinusoidal"):
            raise ValueError(f"unknown warp kind {self.kind!r}")
        self.a, self.b = float(self.a), float(self.b)
        if self.kind == "constant":
            if not self.a > 0:
                raise NonPositiveCoefficient("constant warp needs a > 0")
            self.lower = self.upper = self.a
        else:
            self.lower, self.upper = self.a - abs(self.b), self.a + abs(self.b)
            if not self.lower > 0:
                raise NonPositiveCoefficient(
                    f"warp bounds must be positive: a - |b| = {self.lower} <= 0")

    def beta(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.kind == "constant":
            return np.full(y.shape[:-1], self.a)
        if self.kind == "linear_height":
            return self.a + self.b * y[..., -1]
        return self.a + self.b * np.sin(2.0 * np.pi * y[..., 0])

    def grad_beta(self, y: np.ndarray) -> np.ndarray:
        """Euclidean gradient of beta in the embedding coordinates."""
        y = np.asarray(y, dtype=float)
        g = np.zeros_like(y)
        if self.kind == "linear_height":
            g[..., -1] = self.b
        elif self.kind == "sinusoidal":
            g[..., 0] = 2.0 * np.pi * self.b * np.cos(2.0 * np.pi * y[..., 0])
        return g


def warp_force(target, warp: WarpFunction, y, s):
    """Forcing term B_tangent(y) * s with s = |grad v|^2 evaluated pointwise,
    B(y) = -1/2 grad beta(y) before its tangential projection.

    `y` is a single point (K,) or nodal array (n, K); `s` a scalar or (n,).
    """
    Bt = target.project_tangent(y, -0.5 * warp.grad_beta(y))
    return np.asarray(s, dtype=float)[..., None] * Bt
