"""End-to-end tests for Algorithm 1 (paper §3.7) on the running example.

These reproduce the paper's §1/§3 narrative: the Spotify popularity
filter is explained by 2010s songs via the 'decade' column, and the
loudness-by-year group-by is explained by the quiet 1990s via the
many-to-one 'year'→'decade' partition.
"""
import threading
import uuid
import weakref

import numpy as np
import pandas as pd
import pytest
from pyspark.sql.group import GroupedData

from repro.core import explain as explain_module
from repro.core import interestingness, reference
from repro.core.contribution import exceptionality_contributions_multi, naive_contribution
from repro.core.explain import Explanation, Fedex, FedexConfig
from repro.core.model import Aggregation, FilterStep, GroupByStep, JoinStep, UnionStep
from repro.core.partition import partition_stats, partitions_for_attribute
from repro.datasets.bank import bank_pdf
from repro.datasets.spotify import spotify_pdf
from repro.workload.queries import BY_NUM, DatasetBundle, groupby_queries, make_bundle


@pytest.fixture(scope="module")
def spotify_bundle(spark):
    return make_bundle(spark, "spotify", scale="test")


@pytest.fixture(scope="module")
def spotify_df(spotify_bundle):
    return spotify_bundle.spark_tables["spotify"]


@pytest.fixture(scope="module")
def small_bank(spark):
    """A 300-row Bank draw: no column exceeds ``max_distinct``."""
    pdf = bank_pdf(300, seed=5)
    return DatasetBundle("bank", {"bank": spark.createDataFrame(pdf)}, {"bank": pdf})


@pytest.fixture(scope="module")
def small_spotify(spark):
    """A 600-row Spotify draw: q21 groups it into 72 years."""
    pdf = spotify_pdf(600, seed=5)
    return DatasetBundle(
        "spotify", {"spotify": spark.createDataFrame(pdf)}, {"spotify": pdf}
    )


@pytest.fixture(scope="module")
def small_products(spark):
    """A 400-sale Products draw over 60 products."""
    return make_bundle(spark, "products", {"products": 60, "sales": 400})


def _fresh(spark, bundle: DatasetBundle) -> DatasetBundle:
    """The same tables as new DataFrames, which share no input profile."""
    tables = {k: spark.createDataFrame(v) for k, v in bundle.pandas_tables.items()}
    return DatasetBundle(bundle.name, tables, bundle.pandas_tables)


class _ProfileLog(weakref.WeakKeyDictionary):
    """``interestingness._PROFILES`` that logs each profile computed."""

    def __init__(self):
        super().__init__()
        self.computed = []

    def __setitem__(self, df, profile):
        self.computed.append(df)
        super().__setitem__(df, profile)


def _spark_jobs(spark, fn) -> int:
    """Spark jobs run by ``fn()``, counted by job group."""
    sc = spark.sparkContext
    group = f"jobs-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "job count")
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


def _actions(spark, fn) -> list[str]:
    """The DataFrame actions ``fn()`` calls, outermost only."""
    cls = type(spark.range(1))  # the session's concrete DataFrame class
    actions, depth = [], [0]

    def logged(name, action):
        def wrapper(self, *args, **kwargs):
            if not depth[0]:
                actions.append(name)
            depth[0] += 1
            try:
                return action(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    with pytest.MonkeyPatch.context() as m:
        for name in ("toPandas", "collect", "count", "approxQuantile", "first", "take"):
            m.setattr(cls, name, logged(name, getattr(cls, name)))
        fn()
    return actions


class TestFilterExplanation:
    """Query 6: popularity > 65 (the paper's Figs. 1a/2a)."""

    @pytest.fixture(scope="class")
    def explanations(self, spotify_df):
        step = FilterStep(spotify_df, "popularity > 65")
        return Fedex(FedexConfig(top_k_columns=3)).explain(step)

    def test_produces_explanations(self, explanations):
        assert len(explanations) >= 1

    def test_top_explanation_is_recent_songs(self, explanations):
        # Fig. 2a: the explanation is about recent songs via 'decade' or
        # 'year' (the predicate column 'popularity' is excluded).
        top = explanations[0]
        assert top.column in ("decade", "year")
        assert any(s in top.set_label for s in ("200", "201", "202"))

    def test_2010s_decade_in_skyline(self, explanations):
        # Fig. 2a: "songs made in the 2010s ... 61% of the popular songs,
        # compared to only 3.5% in the entire dataset". Which partition
        # ranks first is a near-tie; the decade=2010 candidate must be a
        # skyline member.
        assert any(
            e.column == "decade" and e.set_label == "2010" for e in explanations
        )

    def test_predicate_column_never_explained(self, explanations):
        assert all(e.column != "popularity" for e in explanations)

    def test_shares_match_paper_shape(self, explanations):
        top = next(
            e
            for e in explanations
            if e.column == "decade" and e.set_label == "2010"
        )
        assert top.stats["share_out"] > 0.45  # paper: 61%
        assert top.stats["share_in"] < 0.06  # paper: 3.5%

    def test_caption_mentions_subset_and_column(self, explanations):
        top = explanations[0]
        assert top.column in top.caption
        assert top.set_label in top.caption
        assert "%" in top.caption

    def test_skyline_members_not_dominated(self, explanations):
        for a in explanations:
            for b in explanations:
                assert not (
                    b.interestingness > a.interestingness
                    and b.std_contribution > a.std_contribution
                )

    def test_positive_contributions_only(self, explanations):
        assert all(e.contribution > 0 for e in explanations)

    def test_candidate_id_unique(self, explanations):
        ids = [e.candidate_id for e in explanations]
        assert len(ids) == len(set(ids))


class TestGroupByExplanation:
    """Queries like Fig. 1b: mean loudness/danceability per year."""

    @pytest.fixture(scope="class")
    def step(self, spotify_df):
        recent = spotify_df.filter("year >= 1990")
        return GroupByStep(
            recent,
            ["year"],
            [
                Aggregation("mean", "loudness", "loudness"),
                Aggregation("mean", "danceability", "danceability"),
            ],
        )

    @pytest.fixture(scope="class")
    def explanations(self, step):
        return Fedex(FedexConfig(top_k_columns=2)).explain(step)

    def test_loudness_more_interesting_than_danceability(self, step):
        scores = Fedex().interesting_columns(step)
        # Ex. 3.2: CV(loudness)=0.13 vs CV(danceability)=0.04.
        assert scores["loudness"] > 2 * scores["danceability"]

    def test_produces_explanations(self, explanations):
        assert len(explanations) >= 1

    def test_1990s_explains_loudness(self, explanations):
        # Ex. 3.10 / Fig. 2b: decade '1990' dominates via many-to-one.
        loud = [e for e in explanations if e.column == "loudness"]
        assert loud
        assert any("1990" in e.set_label for e in loud)

    def test_many_to_one_partition_in_skyline(self, explanations):
        # Ex. 3.9/3.10: the year->decade many-to-one partition yields the
        # decade='1990' explanation, and it survives the skyline.
        assert any(
            e.column == "loudness"
            and e.method == "many_to_one"
            and e.via == "decade"
            and e.set_label == "1990"
            for e in explanations
        )

    def test_caption_reports_set_mean_below_overall(self, explanations):
        loud = next(
            e
            for e in explanations
            if e.column == "loudness" and e.set_label == "1990"
        )
        assert "below" in loud.caption
        assert loud.stats["set_mean"] < -10  # 1990s planted at ~-12dB


class TestConfigKnobs:
    @pytest.mark.parametrize(
        "bad",
        [
            {"n_sets": ()},
            {"n_sets": (5, 1)},
            {"top_k_columns": 0},
            {"max_distinct": 0},
            {"sample_size": 0},
            {"top_k_explanations": -1},
        ],
    )
    def test_out_of_range_rejected_on_construction(self, bad):
        with pytest.raises(ValueError):
            FedexConfig(**bad)

    def test_user_specified_columns(self, spotify_df):
        step = FilterStep(spotify_df, "popularity > 65")
        fx = Fedex(FedexConfig(columns=["loudness", "danceability"]))
        exps = fx.explain(step)
        assert all(e.column in ("loudness", "danceability") for e in exps)

    def test_top_k_explanations_cap(self, spotify_df):
        step = FilterStep(spotify_df, "popularity > 65")
        exps = Fedex(FedexConfig(top_k_explanations=1)).explain(step)
        assert len(exps) <= 1

    def test_sampling_same_top_explanation(self, spotify_df):
        # §4.2: "the explanations computed by FEDEX-SAMPLING were
        # identical to those computed by FEDEX" on the study notebooks.
        step = FilterStep(spotify_df, "popularity > 65")
        exact = Fedex(FedexConfig()).explain(step)
        sampled = Fedex(FedexConfig(sample_size=5000, seed=3)).explain(step)
        assert exact[0].candidate_id == sampled[0].candidate_id

    def test_presentation_order(self, spotify_df):
        # Headline ordering (Figs. 2a/2b): interestingness first, then
        # standardized contribution; the §3.7 weighted score is exposed
        # on each explanation but does not lead the sort.
        step = FilterStep(spotify_df, "popularity > 65")
        exps = Fedex(FedexConfig()).explain(step)
        keys = [(-e.interestingness, -e.std_contribution) for e in exps]
        assert keys == sorted(keys)
        assert all(
            e.score == pytest.approx((e.interestingness + e.std_contribution) / 2)
            for e in exps
        )

    def test_no_positive_contribution_no_explanations(self, spark):
        # A filter that keeps everything changes nothing: no candidate
        # has positive contribution, so no explanation (§3.3 end).
        pdf = pd.DataFrame({"x": np.arange(100), "y": np.arange(100) % 5})
        step = FilterStep(spark.createDataFrame(pdf), "x >= 0")
        assert Fedex().explain(step) == []

    def test_candidates_superset_of_skyline(self, spotify_df):
        step = FilterStep(spotify_df, "popularity > 65")
        fx = Fedex(FedexConfig(top_k_columns=2))
        cands = {e.candidate_id for e in fx.candidates(step)}
        sky = {e.candidate_id for e in fx.explain(step)}
        assert sky <= cands and len(cands) >= len(sky)


class TestPhase2JobBudget:
    """Phase 2 runs a fixed number of Spark jobs per partitioned input:
    the count does not grow with the scored columns, the set counts or
    the partitioned attributes."""

    @staticmethod
    def _jobs(spark, fx, step, cols) -> int:
        return _spark_jobs(spark, lambda: fx.contribution_results(step, cols))

    @staticmethod
    def _step(spotify_df):
        """The filter over a new DataFrame: every count includes its
        input's profile."""
        return FilterStep(spotify_df.select("*"), "popularity > 65")

    def test_constant_in_columns_and_set_counts(self, spark, spotify_df):
        one = ["loudness"]
        three = ["loudness", "danceability", "tempo"]
        fx5 = Fedex(FedexConfig(n_sets=(5,)))
        jobs_one = self._jobs(spark, fx5, self._step(spotify_df), one)
        jobs_three = self._jobs(spark, fx5, self._step(spotify_df), three)
        jobs_two_sizes = self._jobs(
            spark, Fedex(FedexConfig(n_sets=(5, 10))), self._step(spotify_df), three
        )
        assert jobs_one > 0
        assert jobs_three == jobs_one
        assert jobs_two_sizes == jobs_three

    def test_one_aggregate_beyond_annotation(self, spark, spotify_df):
        # The exceptionality engine's only Spark action is one aggregate
        # over both annotated sides: the KS counts and the set shares.
        step = self._step(spotify_df)
        partitions = partitions_for_attribute(step.d_in, ["loudness", "genre"], (5, 10))
        groups = [(p, [p.attr]) for p in partitions]
        results = []
        actions = _actions(
            spark, lambda: results.extend(exceptionality_contributions_multi(step, groups))
        )
        assert actions == ["toPandas"]
        assert {res.column for res in results} == {"loudness", "genre"}

    def test_constant_whether_columns_are_binned(self, spark, spotify_df):
        # The bin decisions ride on the profile and the output's share
        # aggregate.
        cols = ["loudness", "danceability", "tempo"]

        def jobs(max_distinct):
            fx = Fedex(FedexConfig(n_sets=(5,), max_distinct=max_distinct))
            return self._jobs(spark, fx, self._step(spotify_df), cols)

        assert jobs(50) == jobs(10**9)

    def test_constant_in_partitioned_attributes(self, spark, small_bank):
        # Partitions of every Bank attribute, all scored on one column,
        # run as many jobs as partitions of four.
        bank = small_bank.spark_tables["bank"]
        few = ["Attrition_Flag", "Customer_Age", "Gender", "Marital_Status"]

        def jobs(columns):
            df = bank.select(*columns)
            interestingness.input_profile(df)
            step = BY_NUM[11].build(DatasetBundle("bank", {"bank": df}, {}))

            def run():
                parts = partitions_for_attribute(df, df.columns, (5,))
                exceptionality_contributions_multi(step, [(p, ["Customer_Age"]) for p in parts])

            return _spark_jobs(spark, run)

        assert jobs(few) > 0
        assert jobs(bank.columns) == jobs(few)


class TestPhase1JobBudget:
    """Phase 1 runs a fixed number of Spark jobs per step: one diversity
    pass scores every group-by aggregate, and one counting path scores
    numeric and categorical KS columns together."""

    @staticmethod
    def _jobs(spark, fx, step) -> int:
        return _spark_jobs(spark, lambda: fx.interesting_columns(step))

    def test_constant_in_groupby_aggregates(self, spark, spotify_df):
        def step(cols):  # a new DataFrame: both counts include its partition statistics
            return GroupByStep(
                spotify_df.select("*"), ["genre"], [Aggregation("mean", c, c) for c in cols]
            )

        fx = Fedex()
        jobs_one = self._jobs(spark, fx, step(["loudness"]))
        jobs_three = self._jobs(spark, fx, step(["loudness", "danceability", "tempo"]))
        assert jobs_one > 0
        assert jobs_three == jobs_one

    def test_constant_in_column_types(self, spark, spotify_df):
        def step():  # a new DataFrame: both counts include its profile
            return FilterStep(spotify_df.select("*"), "popularity > 65")

        numeric = Fedex(FedexConfig(columns=["loudness", "tempo"]))
        mixed = Fedex(FedexConfig(columns=["loudness", "tempo", "genre", "main_artist"]))
        jobs_numeric = self._jobs(spark, numeric, step())
        assert jobs_numeric > 0
        assert self._jobs(spark, mixed, step()) == jobs_numeric

    def test_binning_adds_no_aggregate(self, spark, spotify_df):
        # One profile aggregate per input, computed on the input's first
        # step only; the bin edges come from the profile, so binning adds
        # no aggregate; categorical columns need nothing besides the
        # counts and the profile.
        def jobs(columns, max_distinct, df):
            fx = Fedex(FedexConfig(columns=columns, max_distinct=max_distinct))
            return self._jobs(spark, fx, FilterStep(df, "popularity > 65"))

        numeric = ["loudness", "tempo"]
        profiled = spotify_df.select("*")
        first = jobs(numeric, 10**9, profiled)
        unbinned = jobs(numeric, 10**9, profiled)
        binned = jobs(numeric, 50, profiled)
        categorical = jobs(["genre", "main_artist"], 50, spotify_df.select("*"))
        profile = _spark_jobs(
            spark, lambda: interestingness.input_profile(spotify_df.select("*"))
        )
        assert profile > 0
        assert first - unbinned == profile
        assert binned == unbinned
        assert categorical == first

    def test_union_inputs_share_one_aggregate(self, spark, spotify_df):
        # Every input side and the output are counted in one aggregate,
        # so a third input adds no job once its profile is computed.
        dfs = [spotify_df.select("*") for _ in range(3)]
        for df in dfs:
            interestingness.input_profile(df)
        fx = Fedex(FedexConfig(columns=["loudness", "genre"]))
        two = self._jobs(spark, fx, UnionStep(dfs[:2]))
        three = self._jobs(spark, fx, UnionStep(dfs))
        assert two > 0
        assert three == two

    def test_output_not_counted_below_sample_size(self, spark, spotify_df):
        # A filter output has at most its input's rows: with the input at
        # most sample_size rows, the only Spark action is the KS melt.
        df = spotify_df.select("*")
        rows = interestingness.input_profile(df).rows
        fx = Fedex(FedexConfig(columns=["loudness", "genre"], sample_size=rows))
        step = FilterStep(df, "popularity > 65")
        assert _actions(spark, lambda: fx.interesting_columns(step)) == ["toPandas"]

    def test_groupby_output_not_counted_with_few_groups(self, spark, spotify_df):
        # A group-by is scored from its diversity pass, never sampled: its
        # output is not counted, and sampled scores equal exact ones.
        df = spotify_df.select("*")
        profile = interestingness.input_profile(df)
        groups = (profile.distinct["genre"] + 1) * (profile.distinct["mode"] + 1)
        assert profile.rows > groups
        step = GroupByStep(
            df, ["genre", "mode"], [Aggregation("mean", c, c) for c in ("loudness", "tempo")]
        )
        fx = Fedex(FedexConfig(sample_size=groups))
        assert "count" not in _actions(spark, lambda: fx.interesting_columns(step))
        assert fx.interesting_columns(step) == Fedex().interesting_columns(step)


class TestDriverRoundTrips:
    """Expressions reach the JVM as SQL text, one call per query, so the
    driver's py4j round trips do not grow with the scored columns."""

    @staticmethod
    def _round_trips(spark, monkeypatch, fn) -> int:
        """py4j commands ``fn()`` sends from the calling thread. py4j's
        finalizer thread sends the deletes of freed Java references
        whenever it gets to them, so those are not counted."""
        client = spark.sparkContext._gateway._gateway_client
        send, sent, caller = client.send_command, [0], threading.get_ident()

        def counted(*args, **kwargs):
            sent[0] += threading.get_ident() == caller
            return send(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(client, "send_command", counted)
            fn()
        return sent[0]

    def test_phase1_constant_in_scored_columns(self, spark, small_bank, monkeypatch):
        cols = interestingness.scoreable_columns(BY_NUM[11].build(small_bank))
        assert len(cols) > 10

        def trips(columns):  # on a new DataFrame: the profile is included
            step = BY_NUM[11].build(_fresh(spark, small_bank))
            fx = Fedex(FedexConfig(columns=columns))
            return self._round_trips(spark, monkeypatch, lambda: fx.interesting_columns(step))

        trips(cols)  # warm-up
        assert trips(cols) - trips(cols[:3]) <= 2 * (len(cols) - 3)

    def test_explain_q11(self, spark, monkeypatch):
        step = BY_NUM[11].build(make_bundle(spark, "bank", scale="test"))
        assert self._round_trips(spark, monkeypatch, lambda: Fedex().explain(step)) <= 3000


class TestPartitionStatsReuse:
    """A step over attributes an earlier step partitioned on the same
    DataFrame builds its partitions without a Spark job, and explains
    as on a new DataFrame."""

    def test_q28_after_q27_runs_no_partition_job(self, spark, small_bank, monkeypatch):
        bank = small_bank.spark_tables["bank"].select("*")
        bundle = DatasetBundle("bank", {"bank": bank}, small_bank.pandas_tables)
        fx = Fedex(FedexConfig(sample_size=5000, top_k_explanations=2))
        jobs = []
        build = partitions_for_attribute

        def counted(*args, **kwargs):
            out = []
            jobs.append(_spark_jobs(spark, lambda: out.extend(build(*args, **kwargs))))
            return out

        monkeypatch.setattr(explain_module, "partitions_for_attribute", counted)
        fx.explain(BY_NUM[27].build(bundle))
        assert jobs[-1] > 0
        after_q27 = fx.explain(BY_NUM[28].build(bundle))
        assert jobs[-1] == 0
        fresh = fx.explain(BY_NUM[28].build(_fresh(spark, small_bank)))
        assert jobs[-1] > 0
        assert after_q27
        assert [e.candidate_id for e in after_q27] == [e.candidate_id for e in fresh]
        assert [e.caption for e in after_q27] == [e.caption for e in fresh]
        for a, b in zip(after_q27, fresh):
            assert (a.interestingness, a.contribution, a.std_contribution) == pytest.approx(
                (b.interestingness, b.contribution, b.std_contribution), abs=1e-9
            )


class TestCrossPartitions:
    """Def. 3.5's full space partitions every input attribute; explain
    builds only the greedy part of it (§3.7), but one statistics batch
    over every attribute of a wide input still reads each as alone."""

    def test_every_attribute_partitioned_as_alone(self, spark, small_bank):
        df = small_bank.spark_tables["bank"].select("*")
        batched = partition_stats(df, df.columns, (5,))
        for a in df.columns:
            single = partition_stats(df.select("*"), [a], (5,))
            assert batched.top[a] == single.top[a], a
            assert batched.fd[a] == single.fd[a], a
            assert batched.quantiles.get(a) == single.quantiles.get(a), a
            assert (batched.lo.get(a), batched.hi.get(a)) == (single.lo.get(a), single.hi.get(a)), a


class TestInputProfileReuse:
    """Both phases and every step over one input DataFrame read one
    profile; a new DataFrame of the same data gets a new one."""

    def test_explain_profiles_the_input_once(self, spotify_df, monkeypatch):
        log = _ProfileLog()
        monkeypatch.setattr(interestingness, "_PROFILES", log)
        df = spotify_df.select("*")
        step = FilterStep(df, "popularity > 65")
        fx = Fedex(FedexConfig(top_k_columns=2))
        cols = fx._top_columns(fx.interesting_columns(step))
        assert log.computed == [df]
        # Phase 2 runs no statistics aggregate: no distinct count, and no
        # profile but the one phase 1 computed.
        exprs = []
        agg = GroupedData.agg

        def logged_agg(self, *cs):
            exprs.extend(str(c) for c in cs)
            return agg(self, *cs)

        monkeypatch.setattr(GroupedData, "agg", logged_agg)
        assert fx.contribution_results(step, cols)
        assert exprs
        assert not [
            e
            for e in exprs
            if any(f in e.lower() for f in ("collect_set", "distinct", "approx_count"))
        ]
        assert log.computed == [df]

    def test_next_step_over_same_input_recomputes_nothing(
        self, spark, small_bank, monkeypatch
    ):
        log = _ProfileLog()
        monkeypatch.setattr(interestingness, "_PROFILES", log)
        fx = Fedex(FedexConfig(top_k_columns=1, n_sets=(5,)))
        bank = small_bank.spark_tables["bank"].select("*")
        bundle = DatasetBundle("bank", {"bank": bank}, small_bank.pandas_tables)
        first = _spark_jobs(spark, lambda: fx.explain(BY_NUM[27].build(bundle)))
        assert log.computed == [bank]
        same = _spark_jobs(spark, lambda: fx.explain(BY_NUM[27].build(bundle)))
        fx.explain(BY_NUM[28].build(bundle))
        assert log.computed == [bank]
        fresh = _fresh(spark, small_bank)
        again = _spark_jobs(spark, lambda: fx.explain(BY_NUM[27].build(fresh)))
        assert log.computed == [bank, fresh.spark_tables["bank"]]
        assert first == again > same


class TestQuotedColumnNames:
    """A column whose name holds a ``.`` or a backtick is explained as the
    same column under a plain name: every reference to it is quoted."""

    @staticmethod
    def _candidates(spark, small_bank, name):
        pdf = small_bank.pandas_tables["bank"].rename(columns={"Customer_Age": name})
        df = spark.createDataFrame(pdf)
        steps = [
            (FilterStep(df, "Attrition_Flag != 'Existing Customer'"), [name, "Credit_Used"]),
            (GroupByStep(df, [name], [Aggregation("mean", "Credit_Used", "mean_used")]), None),
        ]

        def ident(e):
            fields = (e.column, e.attr, e.method, e.via, e.n_sets, e.set_label, e.caption)
            return [v.replace(name, "Customer_Age") if isinstance(v, str) else v for v in fields]

        return [
            (ident(e), (e.interestingness, e.contribution, e.std_contribution))
            for step, columns in steps
            for e in Fedex(FedexConfig(columns=columns)).candidates(step)
        ]

    @pytest.fixture(scope="class")
    def plain(self, spark, small_bank):
        return self._candidates(spark, small_bank, "Customer_Age")

    @pytest.mark.parametrize("name", ["Customer.Age", "Customer`Age"])
    def test_same_candidates_as_plain_name(self, spark, small_bank, plain, name):
        got = self._candidates(spark, small_bank, name)
        assert any(ident[1] == "Customer_Age" for ident, _ in plain)
        assert [ident for ident, _ in got] == [ident for ident, _ in plain]
        for (_, scores), (_, expected) in zip(got, plain):
            assert scores == pytest.approx(expected, abs=1e-9)


class TestDegenerateShares:
    """Filters that keep no row, every row, or no row of one set: the
    set shares ride on the KS aggregate and stay defined."""

    @pytest.fixture(scope="class")
    def df(self, spark):
        n = np.arange(200)
        pdf = pd.DataFrame({"x": n, "g": n % 4, "h": (n % 4).astype(str), "v": n % 7})
        return spark.createDataFrame(pdf)

    @staticmethod
    def _results(step):
        return Fedex(FedexConfig(n_sets=(5,))).contribution_results(step, ["h", "v"])

    def test_filter_keeping_no_rows(self, df):
        # No value on the output: no KS to take apart, no explanation.
        step = FilterStep(df, "x < 0")
        assert self._results(step) == []
        assert Fedex().explain(step) == []

    def test_filter_keeping_every_row(self, df):
        step = FilterStep(df, "x >= 0")
        results = self._results(step)
        assert {res.column for _, res in results} == {"h", "v"}
        for _, res in results:
            assert set(res.stats) == set(res.partition.set_ids)
            assert [st["share_in"] for st in res.stats.values()] == [
                st["share_out"] for st in res.stats.values()
            ]
            assert sum(st["share_in"] for st in res.stats.values()) > 0
            assert all(c == 0.0 for c in res.contributions.values())
        assert Fedex().explain(step) == []

    def test_set_missing_from_output_has_share_out_zero(self, df):
        results = self._results(FilterStep(df, "g > 0"))
        (res,) = [r for _, r in results if r.column == "h" and r.partition.method == "frequency"]
        gone = next(i for i, label in res.partition.labels.items() if label == "0")
        assert res.stats[gone] == {"share_in": 0.25, "share_out": 0.0}
        kept = [st["share_out"] for i, st in res.stats.items() if i != gone]
        assert kept == pytest.approx([1 / 3] * 3)


class TestNonFiniteValues:
    """An inf in the data gets explanations (or none), not an exception."""

    @pytest.fixture(scope="class")
    def df(self, spark):
        g = np.random.default_rng(4)
        v = g.normal(10, 2, 200)
        v[17] = np.inf
        pdf = pd.DataFrame(
            {"a": g.integers(0, 4, 200), "b": g.choice(list("pqrs"), 200), "v": v}
        )
        return spark.createDataFrame(pdf)

    def test_filter_over_inf_column(self, df):
        # The numeric partition of v has an inf edge in its labels.
        assert isinstance(Fedex().explain(FilterStep(df, "a > 1")), list)

    # py4j's sockets, closed by the garbage collector, are not under test.
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.filterwarnings("error")
    def test_groupby_aggregate_with_inf(self, df):
        # mean(v) is inf in one group: its CV must not be NaN, which the
        # skyline sweep cannot order, and its caption statistics take
        # reference.mean_std's defined value.
        step = GroupByStep(df, ["b"], [Aggregation("mean", "v", "mv")])
        fx = Fedex()
        assert isinstance(fx.explain(step), list)
        results = fx.contribution_results(step, ["mv"])
        assert results
        for _, res in results:
            assert res.score_full == 0.0
            assert res.extra == {"overall_mean": 0.0, "overall_std": 0.0}


class TestWorkloadSteps:
    """Workload queries q1 (join), q11 (filter), q28 and q21 (group-by) on
    small draws."""

    @pytest.mark.parametrize("num", [1, 11, 28])
    def test_every_set_matches_naive(self, small_bank, small_products, num):
        # Each set of each candidate partition equals a literal Def. 3.3
        # re-run of the query scored by reference.py; for the join, on
        # the side phase 2 partitions for the column.
        q = BY_NUM[num]
        step = q.build(small_products if q.dataset == "products" else small_bank)
        fx = Fedex(FedexConfig(top_k_columns=1, n_sets=(5,)))
        results = fx.contribution_results(
            step, fx._top_columns(fx.interesting_columns(step))
        )
        assert results
        for p, res in results:
            target = fx._step_for_column(step, res.column)
            assert p.base is target.partitioned_input
            for i in p.set_ids:
                assert res.contributions[i] == pytest.approx(
                    naive_contribution(target, p, res.column, i), abs=1e-9
                ), (p.key(), res.column, i)

    @pytest.mark.parametrize("num", [11, 28, 21])
    def test_same_explanations_any_shuffle_partitions(
        self, spark, small_bank, small_spotify, num
    ):
        # q21 is a group-by on Spotify with many groups: its CVs merge
        # per-(group, set) partials collected in shuffle order. Each
        # setting explains new DataFrames, so no input profile is shared.
        q = BY_NUM[num]
        bundle = small_spotify if q.dataset == "spotify" else small_bank
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        runs = []
        try:
            for n in ("4", "64"):
                spark.conf.set(key, n)
                runs.append(Fedex().explain(q.build(_fresh(spark, bundle))))
        finally:
            spark.conf.set(key, before)
        few, many = runs
        assert few
        assert [e.candidate_id for e in few] == [e.candidate_id for e in many]
        assert [e.caption for e in few] == [e.caption for e in many]
        for a, b in zip(few, many):
            assert (a.interestingness, a.contribution, a.std_contribution) == pytest.approx(
                (b.interestingness, b.contribution, b.std_contribution), abs=1e-9
            )


class TestGroupByInterestingness:
    """A group-by's ``I_A(Q)`` comes from its diversity pass and equals
    the CV of the collected output."""

    @pytest.mark.parametrize("num", [q.num for q in groupby_queries()])
    def test_workload_query_scores_cv_of_output(
        self, small_bank, small_spotify, small_products, num
    ):
        q = BY_NUM[num]
        bundle = {"bank": small_bank, "spotify": small_spotify, "products": small_products}
        step = q.build(bundle[q.dataset])
        scores = Fedex(FedexConfig(sample_size=5000)).interesting_columns(step)
        out = step.output().toPandas()
        assert set(scores) == set(interestingness.scoreable_columns(step))
        assert scores == pytest.approx({c: reference.cv(out[c]) for c in scores}, abs=1e-9)

    def test_keys_without_partition(self, spark):
        # One key holding only 'a' and null: two groups, no partition.
        # The engine still scores the output, and nothing is explained.
        pdf = pd.DataFrame({"k": ["a", None] * 10, "v": np.arange(20.0)})
        step = GroupByStep(spark.createDataFrame(pdf), ["k"], [Aggregation("mean", "v", "mv")])
        assert partitions_for_attribute(step.d_in, step.keys) == []
        expected = reference.cv(step.output().toPandas()["mv"])
        assert expected > 0
        assert Fedex().interesting_columns(step) == pytest.approx({"mv": expected}, abs=1e-9)
        assert Fedex().explain(step) == []


class TestJoinExplanation:
    def test_join_step_explained(self, spark):
        bundle = make_bundle(spark, "products", scale="test")
        step = BY_NUM[1].build(bundle)
        exps = Fedex(FedexConfig(top_k_columns=2)).explain(step)
        # The planted Zipf head / dead products make the join deviate.
        assert len(exps) >= 1
        assert all(isinstance(e, Explanation) for e in exps)

    def test_join_partition_side_follows_column(self, spark):
        left = spark.createDataFrame(
            pd.DataFrame({"k": [1, 1, 2, 3] * 25, "lv": list("abcd") * 25})
        )
        right = spark.createDataFrame(
            pd.DataFrame({"k": [1, 2], "rv": ["x", "y"]})
        )
        step = JoinStep(left, right, on=["k"], partition_side="left")
        fx = Fedex(FedexConfig(top_k_columns=4, n_sets=(4,)))
        exps = fx.explain(step)
        # Explanations may come from either side's columns; just assert
        # the pipeline handled the side flip without error.
        assert isinstance(exps, list)
