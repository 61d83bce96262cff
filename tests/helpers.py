"""Shared random generators for the test suite.

Zeros stay within radius 0.75 and circle points keep at least 0.35 radians
of angular separation; both bounds leave double precision enough headroom
that matrix entries, which grow like inverse powers of the separations,
stay well conditioned across the whole random suite.
"""

from __future__ import annotations

import math

import numpy as np

from blaschkepick import BlaschkeProduct, make_blaschke

ZERO_RADIUS = 0.75
MIN_SEPARATION = 0.35


def random_blaschke(rng: np.random.Generator, degree: int, radius: float = ZERO_RADIUS) -> BlaschkeProduct:
    """Degree-`degree` product with area-uniform zeros and a random constant."""
    zeros = []
    for _ in range(degree):
        r = radius * math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        zeros.append(r * complex(math.cos(theta), math.sin(theta)))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return make_blaschke(zeros, complex(math.cos(phi), math.sin(phi)))


def random_circle_points(rng: np.random.Generator, n: int, min_separation: float = MIN_SEPARATION) -> list[complex]:
    """n points of modulus one, pairwise separated by at least min_separation radians."""
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        wrap = np.concatenate([np.diff(angles), [angles[0] + 2.0 * math.pi - angles[-1]]])
        if n == 1 or float(np.min(wrap)) >= min_separation:
            break
    return [complex(math.cos(a), math.sin(a)) for a in angles]


def flat_row(orders, point_index: int, derivative: int = 0) -> int:
    """Flat row of (point_index, derivative) in the block layout of a
    SchwarzPickMatrix of these orders: block i starts after the rows of the
    points before it.  IndexError unless 0 <= derivative < orders[point_index]."""
    if not 0 <= derivative < orders[point_index]:
        raise IndexError(f"derivative {derivative} out of range for order {orders[point_index]}")
    return sum(orders[:point_index]) + derivative


def random_interior_points(rng: np.random.Generator, n: int, radius: float = 0.9) -> list[complex]:
    """n distinct points inside the disk of the given radius."""
    pts: list[complex] = []
    while len(pts) < n:
        r = radius * math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        z = r * complex(math.cos(theta), math.sin(theta))
        if all(abs(z - w) > 0.1 for w in pts):
            pts.append(z)
    return pts


# Valid contact problems whose points sit 0.05 and 0.1 rad apart: the Pick
# matrix `decide` builds for each misses Hermitian symmetry by over a hundred
# times its limit (2.0e-7 against 1e-9, 1.1e-7 against 1.0e-9), so neither
# outcome hangs on the last bits of a BLAS.  Each entry: zeros (u = 1), point
# angles in radians, contact orders.
CLUSTERED_PROBLEMS = [
    ([0.5 * complex(math.cos(1.9), math.sin(1.9))], [0.3, 0.35], [5, 7]),
    (
        [0.5 * complex(math.cos(1.9), math.sin(1.9)), 0.5 * complex(math.cos(4.0), math.sin(4.0))],
        [0.3, 0.4, 0.5],
        [1, 7, 7],
    ),
]
