"""Matrix-free Newton solve by Jacobi-preconditioned conjugate gradients.

A step's Newton matrix on the unknown nodes U is A = diag(a) - c K[U, U],
with K >= 0 the box pairs' conductance and a >= 1 + c sum_j K_ij, so A is
SPD and, Jacobi-scaled, well conditioned.  A product reads K in place; the
vectors live in box coordinates, zero off U.  Every reduction is an
einsum, which numpy computes in its own loops, never through BLAS, so the
bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math

import numpy as np

MAX_ITERATIONS = 200


def newton_cg(diagonal: np.ndarray, coupling: float, conductance: np.ndarray,
              mask: np.ndarray, rhs: np.ndarray, rtol: float):
    """(x, iterations) with |A x - rhs| <= rtol |rhs| (2-norms) for A =
    diag(diagonal) - coupling conductance[U, U], U = mask; a LinAlgError
    when a curvature p^T A p is not finite and positive (non-finite data,
    or A not positive definite) or past MAX_ITERATIONS."""
    diag, inv_diag = np.zeros((2, mask.size))
    diag[mask], inv_diag[mask] = diagonal, 1.0 / diagonal
    coupling_u = coupling * mask
    xrz = np.zeros((3, mask.size))  # the iterate, the residual, the preconditioned residual
    x, r, z = xrz
    r[mask] = rhs
    np.multiply(r, inv_diag, out=z)
    pq = np.stack([z, z])  # the direction p and -A p, so that one update moves x and r
    p, minus_ap = pq
    rr, rz = np.einsum("ij,j->i", xrz[1:], r).tolist()
    goal = rtol * rtol * rr
    for iteration in range(MAX_ITERATIONS + 1):
        if rr <= goal:
            return x[mask], iteration
        if iteration == MAX_ITERATIONS:
            raise np.linalg.LinAlgError(f"CG reached {MAX_ITERATIONS} iterations with "
                                        f"|r| {math.sqrt(rr):.3e} > {math.sqrt(goal):.3e}")
        np.einsum("ij,j->i", conductance, p, out=minus_ap)
        minus_ap *= coupling_u
        minus_ap -= diag * p
        curvature = -float(np.einsum("i,i", p, minus_ap))
        if not (math.isfinite(curvature) and curvature > 0.0):
            raise np.linalg.LinAlgError(f"curvature p^T A p = {curvature:.3e}: the operator "
                                        "is not finite and positive definite")
        xrz[:2] += (rz / curvature) * pq
        np.multiply(r, inv_diag, out=z)
        rr, rz_next = np.einsum("ij,j->i", xrz[1:], r).tolist()
        p *= rz_next / rz
        p += z
        rz = rz_next
