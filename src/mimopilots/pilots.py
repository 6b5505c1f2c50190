"""Orthogonal pilot book, plan pilot matrices, and allocation plans."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


def build_pilot_book(n_pilots: int) -> np.ndarray:
    """Rows of the n-point DFT matrix: n orthogonal unit-power sequences.

    Row p, symbol t is exp(-2j*pi*p*t/n); every symbol has unit modulus and
    book @ book.conj().T == n * I.
    """
    if n_pilots < 1:
        raise ValueError("need at least one pilot sequence")
    idx = np.arange(n_pilots)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n_pilots)


@dataclass(eq=False)
class AllocationPlan:
    """Per-cell pilot indices: cells[l][j] is the pilot of user j in cell l."""

    cells: np.ndarray
    allocator: str = ""

    def __post_init__(self):
        # an integer array passes as is; anything else is checked entry by
        # entry, so floats are not truncated and bools are not read as 0/1
        cells = self.cells
        if not (isinstance(cells, np.ndarray) and cells.dtype.kind in "iu"):
            bad = [x for x in np.asarray(cells, dtype=object).flat
                   if isinstance(x, bool) or not isinstance(x, numbers.Integral)]
            if bad:
                raise ValueError(f"pilot indices must be integers, got {bad[0]!r}")
        self.cells = np.asarray(cells, dtype=int)
        if self.cells.ndim != 2:
            raise ValueError("plan must be a (cells, users) index table")


def pilot_matrix(plan: AllocationPlan, book: np.ndarray) -> np.ndarray:
    """Every user's assigned sequence, (L*N, pilot_len), row cell * N + user."""
    idx = plan.cells.ravel()
    n_pilots = book.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n_pilots):
        raise ValueError(
            f"pilot index out of range [0, {n_pilots}): {plan.cells.tolist()}")
    return book[idx]

