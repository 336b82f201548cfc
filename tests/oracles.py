"""Independent oracles used by the tests.

Deliberately separate from the library implementations: eigenvalues by cyclic
Jacobi rotations, cubic characteristic-polynomial roots in closed form, and
plain finite differences.  These provide the second route of every dual-route
check.
"""

import math

import numpy as np


def jacobi_eigenvalues(matrix, tol=1e-12, max_sweeps=200):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm falls below ``tol``.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    assert a.shape == (n, n)
    assert np.max(np.abs(a - a.T)) < 1e-12, "Jacobi oracle needs symmetric input"
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * sum(a[p, q] ** 2
                                  for p in range(n) for q in range(p + 1, n)))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                cos = 1.0 / math.sqrt(t * t + 1.0)
                sin = t * cos
                rot = np.eye(n)
                rot[p, p] = cos
                rot[q, q] = cos
                rot[p, q] = sin
                rot[q, p] = -sin
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def cubic_roots(c2, c1, c0):
    """Real roots of x^3 + c2 x^2 + c1 x + c0 = 0 (all-real case, trig form)."""
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0
    if abs(p) < 1e-14:
        root = -math.copysign(abs(q) ** (1.0 / 3.0), q)
        return np.sort(np.array([root + shift] * 3))
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    phi = math.acos(arg) / 3.0
    roots = [m * math.cos(phi - 2.0 * math.pi * k / 3.0) + shift for k in range(3)]
    return np.sort(np.array(roots))


def char_poly_eigenvalues_3x3(matrix):
    """Eigenvalues of a symmetric 3x3 matrix via its characteristic cubic."""
    m = np.asarray(matrix, dtype=float)
    assert m.shape == (3, 3)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    minors = (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
              + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
              + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    det = (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
           - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
           + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
    # det(xI - M) = x^3 - tr x^2 + (sum minors) x - det
    return cubic_roots(-tr, minors, -det)


def central_difference(fn, x, h=1e-6):
    """Central-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def reaches_all_brute(adjacency, tol=1e-12):
    """Reachability oracle: does some node reach all others (edge j->i when
    adjacency[i, j] > tol)?  Uses repeated boolean matrix powers."""
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    reach = (a.T > tol) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    return bool(np.any(reach.all(axis=1)))


def neumaier_cumsum_loop(values, carry=(0.0, 0.0)):
    """Sequential Neumaier running sums, one value at a time, continuing from
    ``carry``; returns the sums and the final (sum, compensation) pair."""
    out = np.empty(len(values))
    s, comp = carry
    for i, v in enumerate(np.asarray(values, dtype=float).tolist()):
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
        out[i] = s + comp
    return out, (s, comp)


def markov_walk_searchsorted(cum_rows, state, uniforms):
    """Markov chain states from ``state``, one ``searchsorted`` per uniform."""
    s = int(state)
    path = np.empty(len(uniforms), dtype=np.int64)
    for k, u in enumerate(uniforms):
        s = int(np.searchsorted(cum_rows[s], u, side="right"))
        path[k] = s
    return path
