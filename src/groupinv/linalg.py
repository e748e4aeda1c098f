"""Exact rank and determinant of integer matrices.

One fraction-free elimination serves both, over arbitrary-precision Python
integers, in place on one copy.  A row with a zero multiplier under the pivot
p is skipped when p equals the previous pivot prev, and otherwise rescaled to
p * x // prev, exact by Sylvester's identity.  Double description and the
hom-rank rules need only the rank, so they read it from here and never load
the Smith-form and group-table code of ``abelian``.
"""

from __future__ import annotations

from typing import Sequence


def _bareiss(m: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) row echelon form: (rank over the rationals,
    signed last pivot).  Each entry stays a minor of ``m``, since every update
    divides exactly by the previous pivot; for a square matrix of full rank
    the signed last pivot is the determinant."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank, sign, prev = 0, 1, 1
    for col in range(cols):
        if rank == rows:
            break
        for pivot in range(rank, rows):
            if a[pivot][col]:
                break
        else:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        rest = range(col + 1, cols)
        # plain loops: on the small matrices of the callers a comprehension
        # per row costs more than the arithmetic
        for i in range(rank + 1, rows):
            row = a[i]
            q = row[col]
            if q:
                for j in rest:
                    row[j] = (p * row[j] - q * top[j]) // prev
            elif p != prev:
                for j in rest:
                    row[j] = p * row[j] // prev
        prev = p
        rank += 1
    return rank, sign * prev


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square matrix."""
    rank, pivot = _bareiss(m)
    return pivot if rank == len(m) else 0


def matrix_rank(m: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals."""
    return _bareiss(m)[0]
