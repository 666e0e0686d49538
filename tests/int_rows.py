"""The matrix product for tjl's translation and Hecke matrices, which are
tuples of int rows."""


def matmul(A, B):
    """A B as int rows, skipping the zero entries of A."""
    out = []
    for row in A:
        acc = [0] * len(B[0])
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(B[k]):
                    acc[j] += a * b
        out.append(tuple(acc))
    return tuple(out)
