"""Reference integer kernel lattice: the Smith normal form U·m·V = D, whose
columns of V past the rank span the integer kernel, put in Hermite form.
`regma.exact.kernel_lattice_basis` must agree with it exactly; it reaches
the same Hermite basis from one row reduction of [m^T | I] instead, and a
Hermite basis is unique for its lattice."""

from __future__ import annotations

from regma.exact import IntMatrix, hermite_row_form


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns unimodular (U, V) and diagonal D with
    U·m·V = D and d_i | d_{i+1}."""
    rows, cols = m.rows, m.cols
    a = [list(m.row(i)) for i in range(rows)]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # Find a nonzero pivot of minimal absolute value in the trailing block.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                    dirty = True
            if not dirty:
                break
        # Enforce divisibility of the rest of the block by the pivot.
        entry = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    entry = (i, j)
                    break
            if entry:
                break
        if entry:
            row_op(t, entry[0], -1)  # add the offending row to the pivot row
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return (IntMatrix.from_rows(u) if rows else IntMatrix(0, 0, ()),
            IntMatrix.from_rows(a) if rows else IntMatrix(0, cols, ()),
            IntMatrix.from_rows(v))


def kernel_lattice_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a lattice basis of {x in Z^cols : m·x = 0}, canonicalized
    by Hermite normal form."""
    _, d, v = smith_normal_form(m)
    r = sum(1 for i in range(min(m.rows, m.cols)) if d.at(i, i) != 0)
    kernel_cols = [v.col(j) for j in range(r, m.cols)]
    if not kernel_cols:
        return IntMatrix(m.cols, 0, ())
    hnf = hermite_row_form(IntMatrix.from_rows(kernel_cols))
    return hnf.transpose()
