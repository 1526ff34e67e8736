"""Brute-force references the tests compare the package's operators against."""

import math

import numpy as np

from warpflow.mesh import (ball_triangles, stiffness_from_tri_weights, tri_energy_density,
                           triangle_mean)


def nearest_vertex(mesh, point) -> int:
    d = np.linalg.norm(mesh.vertices - np.asarray(point, dtype=float), axis=1)
    return int(np.argmin(d))


def ball_energy(mesh, values, center, radius) -> float:
    """Dirichlet energy of the barycenter-membership ball, summed exactly (fsum)."""
    dens = tri_energy_density(mesh, values)
    return math.fsum(dens[ball_triangles(mesh, center, radius)].tolist())


def weighted_stiffness(mesh, beta_vertex):
    """Stiffness of -div(beta grad .) with beta averaged over each triangle."""
    return stiffness_from_tri_weights(mesh, triangle_mean(mesh, beta_vertex))
