"""Pilot book, pilot matrices, and pilot correlation structure tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import is_balanced
from mimopilots.pilots import AllocationPlan, build_pilot_book, pilot_matrix


class TestPilotBook:
    def test_single_sequence(self):
        assert np.array_equal(build_pilot_book(1), np.array([[1.0 + 0j]]))

    def test_two_point_book(self):
        book = build_pilot_book(2)
        assert np.allclose(book, [[1, 1], [1, -1]], atol=1e-12)
        assert abs(np.vdot(book[0], book[1])) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 31, 48, 64])
    def test_orthogonality(self, n):
        book = build_pilot_book(n)
        gram = book @ book.conj().T
        off = gram - n * np.eye(n)
        assert np.max(np.abs(off)) < 1e-10
        assert np.max(np.abs(np.abs(book) - 1.0)) < 1e-12  # unit power symbols

    def test_rejects_empty_book(self):
        with pytest.raises(ValueError):
            build_pilot_book(0)


class TestPilotMatrix:
    def test_identity_permutation_reproduces_book(self):
        book = build_pilot_book(4)
        plan = AllocationPlan(np.arange(4)[None, :], "t")
        assert np.array_equal(pilot_matrix(plan, book), book)

    def test_reuse_duplicates_rows(self):
        book = build_pilot_book(2)
        plan = AllocationPlan(np.array([[0, 0, 1, 1]]), "t")
        lam = pilot_matrix(plan, book)
        assert np.array_equal(lam[0], lam[1])
        assert np.array_equal(lam[2], lam[3])
        assert not np.array_equal(lam[0], lam[2])

    def test_out_of_range_index_rejected(self):
        book = build_pilot_book(2)
        plan = AllocationPlan(np.array([[0, 2]]), "t")
        with pytest.raises(ValueError, match="out of range"):
            pilot_matrix(plan, book)

    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=24),
           st.integers(min_value=0, max_value=10_000))
    def test_gram_is_collision_indicator(self, n_pilots, n_users, seed):
        rng = np.random.default_rng(seed)
        book = build_pilot_book(n_pilots)
        s = rng.integers(0, n_pilots, size=n_users)
        lam = pilot_matrix(AllocationPlan(s[None, :], "t"), book)
        gram = lam @ lam.conj().T
        expect = np.where(s[:, None] == s[None, :], n_pilots, 0.0)
        assert np.max(np.abs(gram - expect)) < 1e-9


class TestCorrelation:
    """The pilot cross-correlation lam_a @ lam_b^H of plan pilot matrices."""

    def test_distinct_pilots_give_scaled_identity(self):
        book = build_pilot_book(6)
        plan = AllocationPlan(np.arange(6)[None, :], "t")
        lam = pilot_matrix(plan, book)
        r = lam @ lam.conj().T
        assert np.max(np.abs(r - 6 * np.eye(6))) < 1e-10

    def test_balanced_reuse_rows(self):
        # 36 users on 12 pilots: every row has exactly 3 entries equal to 12
        book = build_pilot_book(12)
        s = np.arange(36) % 12
        lam = pilot_matrix(AllocationPlan(s[None, :], "t"), book)
        r = np.abs(lam @ lam.conj().T)
        assert np.all(np.isclose(r, 12.0, atol=1e-9).sum(axis=1) == 3)
        assert np.all(np.isclose(r, 0.0, atol=1e-9).sum(axis=1) == 33)

    def test_identical_plans_share_correlation(self):
        book = build_pilot_book(3)
        s = np.array([[0, 1, 2, 0], [0, 1, 2, 0]])
        lam = pilot_matrix(AllocationPlan(s, "t"), book)
        lam0, lam1 = lam[:4], lam[4:]
        assert np.allclose(lam0 @ lam1.conj().T, lam0 @ lam0.conj().T)

    def test_hermitian_pairing(self):
        rng = np.random.default_rng(3)
        book = build_pilot_book(5)
        a = pilot_matrix(AllocationPlan(rng.integers(0, 5, (1, 7)), "t"), book)
        b = pilot_matrix(AllocationPlan(rng.integers(0, 5, (1, 7)), "t"), book)
        assert np.allclose(a @ b.conj().T, (b @ a.conj().T).conj().T)


class TestAllocationPlan:
    @pytest.mark.parametrize("cells", [
        [[0.7, 1.9]],                       # would truncate to [[0, 1]]
        np.array([[0.0, 1.0]]),
        [[True, False]],                    # would read as 0/1
        np.array([[True, False]]),
        [[0, True]],
    ])
    def test_non_integer_entries_rejected(self, cells):
        with pytest.raises(ValueError, match="integers"):
            AllocationPlan(cells, "t")

    def test_one_dimensional_table_rejected(self):
        with pytest.raises(ValueError, match=r"\(cells, users\) index table"):
            AllocationPlan([0, 1, 0], "t")

    def test_integer_tables_accepted(self):
        for cells in ([[0, 2], [1, 0]], np.array([[0, 2], [1, 0]], dtype=np.int32),
                      [[np.int64(0), 2], [1, 0]]):
            plan = AllocationPlan(cells, "t")
            assert plan.cells.dtype == int
            assert plan.cells.tolist() == [[0, 2], [1, 0]]

    def test_compares_by_identity(self):
        plan = AllocationPlan(np.zeros((2, 3), dtype=int))
        twin = AllocationPlan(np.zeros((2, 3), dtype=int))
        assert plan == plan and (plan == twin) is False

    def test_balance_predicate(self):
        assert is_balanced(np.array([0, 1, 2, 0, 1, 2]), 3)
        assert is_balanced(np.array([0, 1, 2, 0]), 3)
        assert not is_balanced(np.array([0, 0, 1, 1]), 3)  # pilot 2 unused
        assert not is_balanced(np.array([0, 0, 0, 1, 2, 2]), 3)
