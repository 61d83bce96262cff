"""Seeded problem generators and the digest that identifies a run's inputs.

Problems are plain dicts of Python numbers, so the program under test sees
only generated data:

    {"zeros": [complex, ...], "u": complex,
     "points": [complex, ...], "orders": [int, ...]}

`orders` are contact orders m_i for `decide` problems and derivative orders
k_i for crosscheck problems.  The distribution follows the package's own
fuzz generator: uniform degree, point count and orders, zero radius
0.75 * sqrt(U), uniform angles, a unimodular constant, and circle points at
least 0.35 apart along the circle.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

ZERO_RADIUS = 0.75
MIN_SEPARATION = 0.35


@dataclass(frozen=True)
class Regime:
    degree_min: int
    degree_max: int
    points_max: int
    order_max: int


def _unit(theta: float) -> complex:
    return complex(math.cos(theta), math.sin(theta))


def random_shape(rng: random.Random, regime: Regime) -> tuple[int, tuple[int, ...]]:
    """Degree and orders (one per point) drawn uniformly from the regime."""
    d = rng.randint(regime.degree_min, regime.degree_max)
    n = rng.randint(1, regime.points_max)
    return d, tuple(rng.randint(1, regime.order_max) for _ in range(n))


def random_problem(rng: random.Random, shape: tuple[int, tuple[int, ...]]) -> dict:
    d, orders = shape
    zeros = [
        ZERO_RADIUS * math.sqrt(rng.random()) * _unit(rng.uniform(0.0, 2.0 * math.pi))
        for _ in range(d)
    ]
    u = _unit(rng.uniform(0.0, 2.0 * math.pi))
    n = len(orders)
    while True:
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
        gaps = [b - a for a, b in zip(angles, angles[1:])] + [angles[0] + 2.0 * math.pi - angles[-1]]
        if n == 1 or min(gaps) >= MIN_SEPARATION:
            break
    return {"zeros": zeros, "u": u, "points": [_unit(a) for a in angles], "orders": list(orders)}


def make_pool(name: str, seed: int, regime: Regime, size: int) -> list[dict]:
    """`size` problems, a pure function of (name, seed, regime, size).

    The shapes (degree and orders), which set most of a problem's cost, are
    one uniform draw shared by every seed, in a seed-dependent order; zeros,
    constant and points come from the seed.  Runs on different seeds then
    differ in their inputs but not in how much work the inputs are.
    """
    shape_rng = random.Random(f"{name}:shapes")
    shapes = [random_shape(shape_rng, regime) for _ in range(size)]
    rng = random.Random(f"{name}:{seed}")
    rng.shuffle(shapes)
    return [random_problem(rng, shape) for shape in shapes]


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def to_problem_file(problem: dict) -> dict:
    """The CLI's JSON problem format."""
    return {
        "blaschke": {"zeros": [_pair(a) for a in problem["zeros"]], "u": _pair(problem["u"])},
        "points": [_pair(t) for t in problem["points"]],
        "orders": list(problem["orders"]),
    }


def from_problem_file(obj: dict) -> dict:
    """Inverse of :func:`to_problem_file`, also reading {"angle": theta} points."""

    def point(p):
        if isinstance(p, dict):
            return _unit(float(p["angle"]))
        t = complex(*p)
        return t / abs(t)

    return {
        "zeros": [complex(*a) for a in obj["blaschke"]["zeros"]],
        "u": complex(*obj["blaschke"]["u"]),
        "points": [point(p) for p in obj["points"]],
        "orders": [int(m) for m in obj["orders"]],
    }


def digest(items) -> str:
    """sha256 over a canonical JSON encoding; floats keep every digit."""
    def enc(x):
        if isinstance(x, complex):
            return _pair(x)
        raise TypeError(type(x))

    blob = json.dumps(items, default=enc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
