"""Exact linear algebra over cyclotomic scalars: row reduction, kernels,
and solving inside a known span.  Deterministic pivoting (first nonzero
entry in column order) so derived bases are canonical.
"""

from __future__ import annotations

from .cyclotomic import Cyc

Matrix = list[list[Cyc]]
Vector = list[Cyc]


class InconsistentSystemError(ValueError):
    pass


def zeros(rows: int, cols: int, order: int) -> Matrix:
    return [[Cyc.zero(order) for _ in range(cols)] for _ in range(rows)]


def identity(n: int, order: int) -> Matrix:
    out = zeros(n, n, order)
    one = Cyc.from_rational(order, 1)
    for i in range(n):
        out[i][i] = one
    return out


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, k, m = len(A), len(B), len(B[0])
    assert all(len(row) == k for row in A)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for l in range(1, k):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A: Matrix, v: Vector) -> Vector:
    out = []
    for row in A:
        acc = row[0] * v[0]
        for l in range(1, len(v)):
            acc = acc + row[l] * v[l]
        out.append(acc)
    return out


def transpose(A: Matrix) -> Matrix:
    return [list(col) for col in zip(*A)]


def mat_eq(A: Matrix, B: Matrix) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def rref(A: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with the pivot column list; pivots are the
    first nonzero entry scanning columns left to right, rows top down."""
    if not A:
        return [], []
    R = [list(row) for row in A]
    nrows, ncols = len(R), len(R[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if not R[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        R[rank], R[pivot_row] = R[pivot_row], R[rank]
        inv = R[rank][col].inverse()
        R[rank] = [inv * e for e in R[rank]]
        for r in range(nrows):
            if r == rank or R[r][col].is_zero():
                continue
            factor = R[r][col]
            R[r] = [e - factor * p for e, p in zip(R[r], R[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return R, pivots


def rank(A: Matrix) -> int:
    return len(rref(A)[1])


def kernel_basis(A: Matrix) -> list[Vector]:
    """Canonical basis of the right kernel: one vector per free column,
    with a 1 in the free coordinate, ordered by free column index."""
    if not A:
        return []
    ncols = len(A[0])
    order = A[0][0].order
    R, pivots = rref(A)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    one = Cyc.from_rational(order, 1)
    for fc in free:
        v = [Cyc.zero(order) for _ in range(ncols)]
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(v)
    return basis


def solve_in_span(basis: list[Vector], w: Vector) -> Vector:
    """Coefficients x with sum x_i basis_i = w; raises if w is outside the
    span or the basis is dependent."""
    assert basis
    order = w[0].order
    nrows = len(w)
    k = len(basis)
    aug = [[basis[j][i] for j in range(k)] + [w[i]] for i in range(nrows)]
    R, pivots = rref(aug)
    if k in pivots:
        raise InconsistentSystemError("vector outside the span")
    if pivots != list(range(k)):
        raise InconsistentSystemError("dependent spanning set")
    out = [Cyc.zero(order) for _ in range(k)]
    for i, _ in enumerate(pivots):
        out[i] = R[i][k]
    return out


def restrict_operator(op: Matrix, basis: list[Vector]) -> Matrix:
    """Matrix of op on the invariant subspace spanned by basis, in that
    basis; raises if the subspace is not op-invariant."""
    cols = [solve_in_span(basis, mat_vec(op, v)) for v in basis]
    return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]
