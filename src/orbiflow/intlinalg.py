"""Exact integer matrix utilities: Smith normal form with certificates."""
from __future__ import annotations

from fractions import Fraction


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, U, V) with U*M*V = D diagonal, d1 | d2 | ..., U, V unimodular."""
    A = [[int(x) for x in row] for row in M]
    if not A or not A[0]:
        raise ValueError("empty matrix")
    m, n = len(A), len(A[0])
    U = identity_matrix(m)
    V = identity_matrix(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    for k in range(min(m, n)):
        # Move a nonzero pivot of minimal magnitude to (k, k).
        while True:
            pivot = None
            best = None
            for i in range(k, m):
                for j in range(k, n):
                    if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                        best, pivot = abs(A[i][j]), (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            # Reduce column and row by the pivot.
            dirty = False
            for i in range(k + 1, m):
                if A[i][k] != 0:
                    q = A[i][k] // A[k][k]
                    row_op(i, k, q)
                    if A[i][k] != 0:
                        dirty = True
            for j in range(k + 1, n):
                if A[k][j] != 0:
                    q = A[k][j] // A[k][k]
                    col_op(j, k, q)
                    if A[k][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Pivot must divide every remaining entry for the chain.
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if A[i][j] % A[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(k, offender, -1)  # fold the offending row into the pivot row
        if k < min(m, n) and A[k][k] < 0:
            A[k] = [-x for x in A[k]]
            U[k] = [-x for x in U[k]]
    return A, U, V


def solve_mod1(M) -> list[tuple[Fraction, Fraction]]:
    """All x in Q^2/Z^2 with M x = 0 mod Z^2, for 2x2 integer M, det != 0.

    Via U M V = D: with y = V^-1 x, the condition is D y in Z^2, so
    y_i in (1/d_i) Z; solutions are x = V y mod 1.
    """
    D, U, V = smith_normal_form(M)
    d1, d2 = abs(D[0][0]), abs(D[1][1])
    if d1 == 0 or d2 == 0:
        raise ValueError("singular matrix: eigenvalue 1 present")
    out = []
    for k1 in range(d1):
        for k2 in range(d2):
            y = (Fraction(k1, d1), Fraction(k2, d2))
            x1 = V[0][0] * y[0] + V[0][1] * y[1]
            x2 = V[1][0] * y[0] + V[1][1] * y[1]
            out.append((x1 % 1, x2 % 1))
    return sorted(set(out))
