"""Tests for the skyline operator and weighted ranking (paper §3.6-3.7)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skyline import skyline_indices, weighted_score


class TestSkyline:
    def test_empty(self):
        assert skyline_indices([]) == []

    def test_single_point(self):
        assert skyline_indices([(1.0, 1.0)]) == [0]

    def test_simple_dominance(self):
        # (2,2) dominates (1,1); (3,0) and (0,3) are incomparable.
        pts = [(1.0, 1.0), (2.0, 2.0), (3.0, 0.0), (0.0, 3.0)]
        assert skyline_indices(pts) == [1, 2, 3]

    def test_chain_leaves_top(self):
        pts = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        assert skyline_indices(pts) == [2]

    def test_anti_chain_all_kept(self):
        pts = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        assert skyline_indices(pts) == [0, 1, 2]

    def test_equal_points_both_kept(self):
        # Strict dominance: identical points do not dominate each other.
        pts = [(1.0, 1.0), (1.0, 1.0)]
        assert skyline_indices(pts) == [0, 1]

    def test_equal_x_different_y(self):
        # Same interestingness, different contribution: neither dominates
        # (needs strictly greater in BOTH).
        pts = [(1.0, 1.0), (1.0, 2.0)]
        assert skyline_indices(pts) == [0, 1]

    def test_equal_x_dominated_by_larger_x(self):
        pts = [(2.0, 2.0), (1.0, 1.0), (1.0, 3.0)]
        assert skyline_indices(pts) == [0, 2]

    def test_paper_example_shape(self):
        # Ex. 3.10: (I=0.13, C=1.69) and (I=0.04, C=1.7) are both skyline;
        # a candidate below both is dominated.
        pts = [(0.13, 1.69), (0.04, 1.7), (0.04, 0.5)]
        assert skyline_indices(pts) == [0, 1]

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(-3, 3)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_skyline_is_exactly_nondominated_set(self, pts):
        def dominated(i):
            return any(
                pts[j][0] > pts[i][0] and pts[j][1] > pts[i][1]
                for j in range(len(pts))
            )

        expected = [i for i in range(len(pts)) if not dominated(i)]
        assert skyline_indices(pts) == expected


class TestWeightedScore:
    def test_equal_weights_is_mean(self):
        assert weighted_score(0.4, 0.8) == pytest.approx(0.6)

