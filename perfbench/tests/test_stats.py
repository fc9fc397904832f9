"""The benchmark's arithmetic rules, on hand-made inputs."""

import pytest

import stats


class TestPercentileRule:
    def test_nearest_rank(self):
        samples = list(range(1, 101))    # 1..100
        assert stats.percentile(samples, 50) == 50
        assert stats.percentile(samples, 99) == 99
        assert stats.percentile(samples, 100) == 100
        assert stats.percentile([7.0], 99) == 7.0

    def test_unsorted_input(self):
        assert stats.percentile([5, 1, 4, 2, 3], 50) == 3

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)

    def test_beyond_counts_samples_strictly_above(self):
        assert stats.beyond(1000, 99.0) == 10
        assert stats.beyond(999, 99.0) == 9
        assert stats.beyond(100, 50.0) == 50

    @pytest.mark.parametrize("count, tail", [
        (19, 50.0),          # p50 leaves 9 beyond: nothing qualifies
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),         # exactly 10 beyond p90
        (999, 90.0),         # p99 would leave 9
        (1000, 99.0),        # exactly 10 beyond p99
        (9999, 99.0),
        (10000, 99.9),
        (100000, 99.99),
    ])
    def test_highest_percentile_with_ten_beyond(self, count, tail):
        assert stats.tail_percentile(count) == tail

    def test_require_tail(self):
        stats.require_tail(1000, 99.0)
        with pytest.raises(ValueError, match="p99"):
            stats.require_tail(999, 99.0)


class TestFailedRatio:
    def test_every_failure_kind_counts(self):
        assert stats.failed_ratio(ok=6, failed=1, maybe=2, shed=1) == 0.4

    def test_clean_run(self):
        assert stats.failed_ratio(ok=10) == 0.0

    def test_all_failed(self):
        assert stats.failed_ratio(ok=0, failed=3) == 1.0

    def test_nothing_attempted_refused(self):
        with pytest.raises(ValueError):
            stats.failed_ratio(ok=0)


class TestSelfTime:
    def test_children_subtracted_from_parent(self):
        spans = [("root", 0.0, 10.0, -1),
                 ("a", 1.0, 4.0, 0),
                 ("b", 5.0, 9.0, 0),
                 ("a.inner", 2.0, 3.0, 1)]
        assert stats.self_times(spans) == [3.0, 2.0, 4.0, 1.0]

    def test_self_times_partition_the_root(self):
        spans = [("root", 0.0, 8.0, -1), ("x", 0.5, 7.5, 0),
                 ("y", 1.0, 2.0, 1), ("z", 3.0, 7.0, 1),
                 ("w", 4.0, 5.0, 3)]
        assert sum(stats.self_times(spans)) == pytest.approx(8.0)

    def test_leaf_keeps_its_duration(self):
        assert stats.self_times([("leaf", 1.0, 1.5, -1)]) == [0.5]


class TestRateLadder:
    def test_highest_passing_rung(self):
        assert stats.max_passing_rate([10, 20, 30, 40],
                                      lambda rate: rate <= 30) == 30.0

    def test_walk_stops_at_first_failure(self):
        tried = []

        def passes(rate):
            tried.append(rate)
            return rate != 20    # 30 would pass, but 20 already failed

        assert stats.max_passing_rate([10, 20, 30], passes) == 10.0
        assert tried == [10, 20]

    def test_every_rung_passes(self):
        assert stats.max_passing_rate([1, 2, 3], lambda rate: True) == 3.0

    def test_first_rung_fails(self):
        assert stats.max_passing_rate([5, 6], lambda rate: False) == 0.0

    @pytest.mark.parametrize("ladder", [[3, 2, 1], [1, 1, 2]])
    def test_ladder_must_ascend(self, ladder):
        with pytest.raises(ValueError):
            stats.max_passing_rate(ladder, lambda rate: True)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    values = [90, 95, 100, 100, 100, 100, 100, 105, 110, 200]
    assert stats.quartile_spread(values) == pytest.approx(
        (106.25 - 98.75) / 100)
