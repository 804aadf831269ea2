"""Tests for workloads, data stores, and the simulated Hadoop cluster."""

import pytest

from repro.apps.datastore import (
    CauseModel,
    CauseModelStore,
    CorpusStore,
    ProfileDataStore,
)
from repro.apps.hadoop import SimulatedHadoopCluster
from repro.apps.workloads import (
    CausePhase,
    ProfileWorkload,
    TradeWorkload,
    TweetWorkload,
)
from repro.sim.kernel import Kernel


class TestTweetWorkload:
    def test_deterministic(self):
        a = TweetWorkload(seed=1)
        b = TweetWorkload(seed=1)
        assert [a.make_tweet(0.0) for _ in range(10)] == [
            b.make_tweet(0.0) for _ in range(10)
        ]

    def test_phase_shift_changes_cause_mix(self):
        workload = TweetWorkload(seed=2)
        early = [workload.make_tweet(10.0) for _ in range(300)]
        late = [workload.make_tweet(300.0) for _ in range(300)]
        early_causes = {t["true_cause"] for t in early if t["true_cause"]}
        late_negative = [t for t in late if t["true_cause"]]
        antenna = sum(1 for t in late_negative if t["true_cause"] == "antenna")
        assert "antenna" not in early_causes
        assert antenna / len(late_negative) > 0.5

    def test_cause_word_appears_in_text(self):
        workload = TweetWorkload(seed=3)
        for _ in range(100):
            tweet = workload.make_tweet(0.0)
            if tweet["true_cause"]:
                assert tweet["true_cause"] in tweet["text"].split()

    def test_custom_phases(self):
        workload = TweetWorkload(
            seed=4, phases=(CausePhase(0.0, {"zz": 1.0}),)
        )
        tweets = [workload.make_tweet(0.0) for _ in range(50)]
        causes = {t["true_cause"] for t in tweets if t["true_cause"]}
        assert causes == {"zz"}

    def test_generator_rate(self):
        workload = TweetWorkload(seed=5, rate=7)
        assert len(workload.generator()(0.0, 0)) == 7


class TestTradeWorkload:
    def test_prices_positive_random_walk(self):
        workload = TradeWorkload(seed=1)
        trades = [workload.make_trade(float(i)) for i in range(500)]
        assert all(t["price"] >= 1.0 for t in trades)
        assert {t["symbol"] for t in trades} == set(workload.symbols)

    def test_deterministic(self):
        a = TradeWorkload(seed=2)
        b = TradeWorkload(seed=2)
        assert [a.make_trade(0.0) for _ in range(20)] == [
            b.make_trade(0.0) for _ in range(20)
        ]


class TestProfileWorkload:
    def test_ids_unique_and_source_tagged(self):
        workload = ProfileWorkload(source="twitter", seed=1)
        profiles = [workload.make_profile(0.0) for _ in range(100)]
        ids = [p["profile_id"] for p in profiles]
        assert len(set(ids)) == 100
        assert all(p["source"] == "twitter" for p in profiles)

    def test_attribute_probabilities_respected(self):
        workload = ProfileWorkload(
            seed=2, attribute_probabilities={"gender": 1.0, "age": 0.0}
        )
        profiles = [workload.make_profile(0.0) for _ in range(50)]
        assert all("gender" in p["attributes"] for p in profiles)
        assert not any("age" in p["attributes"] for p in profiles)


class TestStores:
    def test_corpus_time_filtering(self):
        corpus = CorpusStore()
        corpus.append("one", ts=1.0)
        corpus.append("two", ts=5.0)
        assert len(corpus) == 2
        assert [e.text for e in corpus.entries_since(2.0)] == ["two"]

    def test_cause_model_matching(self):
        model = CauseModel(version=1, causes=frozenset({"flash"}))
        assert model.knows(["my", "flash", "died"]) == "flash"
        assert model.knows(["antenna"]) is None

    def test_model_store_versions(self):
        store = CauseModelStore(("flash",))
        assert store.version == 1
        store.publish(frozenset({"flash", "antenna"}), computed_at=5.0)
        assert store.version == 2
        assert "antenna" in store.current.causes
        assert len(store.history) == 2

    def test_profile_store_dedup(self):
        store = ProfileDataStore()
        assert store.upsert("p1", {"gender": "f"}) is True
        assert store.upsert("p1", {"age": 30}) is False  # merged
        assert store.get("p1") == {"gender": "f", "age": 30}
        assert len(store) == 1
        assert store.total_writes == 2

    def test_profile_store_attribute_queries(self):
        store = ProfileDataStore()
        store.upsert("p1", {"gender": "f"})
        store.upsert("p2", {"age": 30})
        store.upsert("p3", {"gender": "m", "age": 40})
        assert len(store.profiles_with_attribute("gender")) == 2
        names = {pid for pid, _ in store.profiles_with_attribute("age")}
        assert names == {"p2", "p3"}

    def test_profile_store_get_copies(self):
        store = ProfileDataStore()
        store.upsert("p1", {"gender": "f"})
        copy = store.get("p1")
        copy["gender"] = "mutated"
        assert store.get("p1")["gender"] == "f"
        assert store.get("ghost") is None


class TestHadoop:
    def test_job_takes_duration(self):
        kernel = Kernel()
        corpus = CorpusStore()
        models = CauseModelStore()
        cluster = SimulatedHadoopCluster(kernel, corpus, models, duration=25.0)
        record = cluster.submit_cause_recomputation()
        kernel.run_until(24.0)
        assert not record.is_complete
        kernel.run_until(26.0)
        assert record.is_complete
        assert record.completed_at == pytest.approx(25.0)

    def test_extracts_frequent_causes(self):
        kernel = Kernel()
        corpus = CorpusStore()
        for _ in range(50):
            corpus.append("iphone hate antenna today", ts=0.0)
        for _ in range(2):
            corpus.append("iphone hate rarecause today", ts=0.0)
        models = CauseModelStore()
        cluster = SimulatedHadoopCluster(
            kernel, corpus, models, duration=1.0, support_fraction=0.2
        )
        cluster.submit_cause_recomputation()
        kernel.run_until(2.0)
        assert "antenna" in models.current.causes
        assert "rarecause" not in models.current.causes
        assert "iphone" not in models.current.causes  # stop word

    def test_counts_token_once_per_tweet(self):
        kernel = Kernel()
        corpus = CorpusStore()
        corpus.append("antenna antenna antenna", ts=0.0)
        corpus.append("screen broke", ts=0.0)
        models = CauseModelStore()
        cluster = SimulatedHadoopCluster(
            kernel, corpus, models, duration=1.0, support_fraction=0.9
        )
        # antenna appears in 1/2 tweets -> below 90% support
        causes = cluster.extract_causes()
        assert "antenna" not in causes

    def test_empty_corpus(self):
        kernel = Kernel()
        cluster = SimulatedHadoopCluster(
            kernel, CorpusStore(), CauseModelStore(), duration=1.0
        )
        assert cluster.extract_causes() == []
