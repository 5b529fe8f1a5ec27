"""Naive dot products for the test references.

``linalg.dot`` and ``linalg.mat_vec`` run their loops in C through ``map``.
The references check code that calls those kernels, so they take their
products from here instead: a Python generator over ``zip``, the body the
library used before.  ``tests/test_linalg.py`` holds the kernels equal to
these loops.
"""


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def mat_vec(rows, x):
    return tuple(dot(row, x) for row in rows)
