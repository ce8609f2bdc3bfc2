"""Oracle-equivalence tests for all 30 workload queries (Tables 2-3).

Every query's Spark result is diffed row-for-row against DuckDB running
the same SQL over the same (pandas) inputs — a wrong join, filter
predicate, or aggregate implementation fails here, not just "it ran".
"""
import pytest

from repro.oracle import assert_equivalent
from repro.workload.queries import (
    BY_NUM,
    NOTEBOOKS,
    QUERIES,
    filter_join_queries,
    groupby_queries,
    make_bundle,
)


@pytest.fixture(scope="module")
def bundles(spark):
    return {
        name: make_bundle(spark, name, scale="test")
        for name in ("spotify", "bank", "products")
    }


@pytest.mark.parametrize("num", sorted(BY_NUM))
def test_query_matches_duckdb(num, bundles):
    q = BY_NUM[num]
    b = bundles[q.dataset]
    step = q.build(b)
    assert_equivalent(step.output(), q.sql, **b.pandas_tables)


def test_make_bundle_takes_table_sizes(spark):
    b = make_bundle(spark, "products", {"products": 50, "sales": 300})
    assert len(b.pandas_tables["products"]) == 50
    assert b.spark_tables["products"].count() == 50
    assert b.spark_tables["sales"].count() == 300


class TestWorkloadStructure:
    def test_thirty_queries(self):
        assert len(QUERIES) == 30
        assert sorted(BY_NUM) == list(range(1, 31))

    def test_table2_is_filter_join(self):
        for n in range(1, 16):
            assert BY_NUM[n].kind in ("F", "J")
            assert BY_NUM[n].measure == "exceptionality"

    def test_table3_is_groupby(self):
        for n in range(16, 31):
            assert BY_NUM[n].kind == "GB"
            assert BY_NUM[n].measure == "diversity"

    def test_dataset_counts_match_paper(self):
        # 5 filter/join + 5 group-by per dataset (§4.1 "Queries").
        for ds in ("products", "spotify", "bank"):
            assert len(filter_join_queries(ds)) == 5
            assert len(groupby_queries(ds)) == 5

    def test_notebooks_reference_valid_queries(self):
        for nums in NOTEBOOKS.values():
            for n in nums:
                assert n in BY_NUM

    def test_notebook_composition_matches_section_42(self):
        assert NOTEBOOKS["spotify"] == [6, 7, 21, 22]
        assert NOTEBOOKS["bank"] == [11, 12, 13, 27]
        assert NOTEBOOKS["products"] == [1, 5, 16, 17, 18]


class TestQueryShapes:
    def test_filter_reduces_rows(self, bundles):
        for num in (6, 11, 14):
            q = BY_NUM[num]
            b = bundles[q.dataset]
            step = q.build(b)
            n_in = step.partitioned_input.count()
            n_out = step.output().count()
            assert 0 < n_out < n_in

    def test_join_view_size(self, bundles):
        # Query 1: every sale matches exactly one product.
        q = BY_NUM[1]
        b = bundles["products"]
        step = q.build(b)
        assert step.output().count() == b.spark_tables["sales"].count()

    def test_groupby_output_small(self, bundles):
        q = BY_NUM[21]
        step = q.build(bundles["spotify"])
        out = step.output()
        assert out.count() == bundles["spotify"].pandas_tables["spotify"]["year"].nunique()
        assert set(out.columns) == {"year", "mean_pop", "max_pop", "min_pop"}
