"""Helpers for the JSON encoding used across reports and problem files.

Complex numbers serialize as [re, im] pairs, matrices as row-major nested
lists of such pairs.
"""

from __future__ import annotations

import numpy as np


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_pair(entry) for entry in row] for row in m]
