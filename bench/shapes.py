"""Closed-form points and tangent frames on the catalog manifolds.

The flow workloads take their start points and tangent vectors from these
explicit parametrisations instead of ImplicitManifold.sample_points, so a
change to the sampler cannot change their inputs.

- sphere2, sphereM: a normalised Gaussian; the frame comes from a QR
  factorisation of [x, Gaussian columns], so it is orthogonal to x.
- torus_upright: ((2 + cos v) cos u, (2 + cos v) sin u, sin v), whose
  coordinate directions d/du and d/dv are orthogonal.
- clifford: (cos a, sin a, cos b, sin b) / sqrt(2).

Torus and Clifford frames are the unit coordinate directions turned by a
random angle inside the tangent plane, so no frame vector lines up with a
Hessian eigendirection by construction.
"""

import numpy as np

SHAPES = ("sphere2", "sphereM", "torus_upright", "clifford")

_SPHERE_DIM = {"sphere2": 3, "sphereM": 5}


def _turn(e1, e2, rng):
    theta = rng.uniform(0.0, 2.0 * np.pi, len(e1))[:, None]
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c * e1 + s * e2, -s * e1 + c * e2], axis=1)


def _sphere(rng, count, n):
    points = np.empty((count, n))
    frames = np.empty((count, n - 1, n))
    for i in range(count):
        g = rng.standard_normal((n, n))
        x = g[:, 0] / np.linalg.norm(g[:, 0])
        q, _ = np.linalg.qr(np.column_stack([x, g[:, 1:]]))
        points[i] = x
        frames[i] = q[:, 1:].T
    return points, frames


def _torus(rng, count):
    u = rng.uniform(0.0, 2.0 * np.pi, count)
    v = rng.uniform(0.0, 2.0 * np.pi, count)
    ring = 2.0 + np.cos(v)
    points = np.stack([ring * np.cos(u), ring * np.sin(u), np.sin(v)], axis=1)
    zero = np.zeros(count)
    e_u = np.stack([-np.sin(u), np.cos(u), zero], axis=1)
    e_v = np.stack([-np.sin(v) * np.cos(u), -np.sin(v) * np.sin(u), np.cos(v)],
                   axis=1)
    return points, _turn(e_u, e_v, rng)


def _clifford(rng, count):
    a = rng.uniform(0.0, 2.0 * np.pi, count)
    b = rng.uniform(0.0, 2.0 * np.pi, count)
    radius = np.sqrt(0.5)
    points = radius * np.stack([np.cos(a), np.sin(a), np.cos(b), np.sin(b)],
                               axis=1)
    zero = np.zeros(count)
    e_a = np.stack([-np.sin(a), np.cos(a), zero, zero], axis=1)
    e_b = np.stack([zero, zero, -np.sin(b), np.cos(b)], axis=1)
    return points, _turn(e_a, e_b, rng)


def draw(name, rng, count):
    """(points, frames): `count` points on M and an orthonormal tangent
    frame at each, frames[i] holding one frame vector per row."""
    if name in _SPHERE_DIM:
        return _sphere(rng, count, _SPHERE_DIM[name])
    if name == "torus_upright":
        return _torus(rng, count)
    if name == "clifford":
        return _clifford(rng, count)
    raise ValueError(f"no closed-form parametrisation for {name!r}")
