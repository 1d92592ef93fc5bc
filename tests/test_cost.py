"""Tests for the cost model and cost-aware (LPT) scheduling.

Two families of contract: *prediction* (the static predictor ranks by
shape and scheme class deterministically; learned timings replayed from
a result store override it exactly) and *sequencing* (LPT ordering and
makespan partitioning are deterministic, cover every task exactly once,
and never change results — the engine records predicted-vs-actual in
the PlanReport either way).
"""

import numpy as np
import pytest

from repro.experiments.cost import (
    DEFAULT_SCHEME_WEIGHT,
    SCHEME_WEIGHTS,
    CostModel,
    LptScheduler,
    lpt_partition,
    make_scheduler,
    scheme_class,
    static_task_cost,
)
from repro.experiments.plan import (
    EvalPlan,
    InterleaveScheduler,
    Scheduler,
    execute_plan,
)
from repro.experiments.spec import SchemeSpec
from repro.experiments.workloads import (
    NetworkWorkload,
    build_traffic_matrices,
    build_zoo_workload,
)
from repro.net.zoo import grid_network, ring_network
from repro.routing import ShortestPathRouting


@pytest.fixture(scope="module")
def workload():
    return build_zoo_workload(
        n_networks=4, n_matrices=1, seed=7, include_named=False
    )


def _item(network, n_matrices=1, seed=3):
    rng = np.random.default_rng(seed)
    return NetworkWorkload(
        network=network,
        llpd=0.0,
        matrices=build_traffic_matrices(
            network, n_matrices, rng, locality=1.0, growth_factor=1.3
        ),
    )


@pytest.fixture(scope="module")
def small_item():
    return _item(ring_network(5, np.random.default_rng(1)))


@pytest.fixture(scope="module")
def big_item():
    return _item(grid_network(4, 4, np.random.default_rng(2)))


class TestStaticPredictor:
    def test_bigger_network_costs_more(self, small_item, big_item):
        weight = SCHEME_WEIGHTS["LDR"]
        assert static_task_cost(big_item, None, weight) > static_task_cost(
            small_item, None, weight
        )

    def test_lp_scheme_outweighs_shortest_path(self, small_item):
        model = CostModel()
        sp = model.predict_item(SchemeSpec("SP"), small_item)
        ldr = model.predict_item(SchemeSpec("LDR"), small_item)
        assert ldr > sp

    def test_cost_hint_scales_static_predictions(self, small_item):
        base = static_task_cost(small_item, None, 1.0, cost_hint=1.0)
        assert static_task_cost(
            small_item, None, 1.0, cost_hint=2.0
        ) == pytest.approx(2.0 * base)

    def test_more_matrices_cost_more(self, small_item):
        three = _item(small_item.network, n_matrices=3)
        assert static_task_cost(three, None, 1.0) > static_task_cost(
            three, 1, 1.0
        )

    def test_deterministic(self, big_item):
        model = CostModel()
        spec = SchemeSpec("MinMaxK10")
        assert model.predict_item(spec, big_item) == CostModel().predict_item(
            spec, big_item
        )

    def test_scheme_class_of_spec_and_closure(self):
        assert scheme_class(SchemeSpec("LDR", {"headroom": 0.1})) == "LDR"
        assert scheme_class(lambda item: ShortestPathRouting()) is None

    def test_closure_gets_default_weight(self, small_item):
        model = CostModel()
        closure_cost = model.predict_item(
            lambda item: ShortestPathRouting(), small_item
        )
        assert closure_cost == static_task_cost(
            small_item, None, DEFAULT_SCHEME_WEIGHT
        )


class TestLearnedReplay:
    def test_stored_seconds_replay_exactly(self, workload, tmp_path):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        report = execute_plan(plan, store_dir=tmp_path)

        model = CostModel(store_dir=tmp_path)
        stream = plan.streams["SP"]
        for result in report.results["SP"]:
            assert model.predict(stream, result.index) == result.seconds

    def test_unmatched_scheme_falls_back_to_static(self, workload, tmp_path):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        execute_plan(plan, store_dir=tmp_path)

        model = CostModel(store_dir=tmp_path)
        item = workload.networks[0]
        static = CostModel().predict_item(
            SchemeSpec("LDR"), item, scheme="LDR"
        )
        assert model.predict_item(SchemeSpec("LDR"), item, scheme="LDR") \
            == static

    def test_replay_crosses_workloads_by_network_signature(
        self, workload, tmp_path
    ):
        # A different workload containing the same networks (fewer of
        # them, different signature) still replays the measured times.
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        report = execute_plan(plan, store_dir=tmp_path)

        from repro.experiments.workloads import ZooWorkload

        subset = ZooWorkload(
            networks=[workload.networks[1]],
            locality=workload.locality,
            growth_factor=workload.growth_factor,
        )
        other = EvalPlan()
        other.add("SP", SchemeSpec("SP"), subset)
        model = CostModel(store_dir=tmp_path)
        assert model.predict(other.streams["SP"], 0) \
            == report.results["SP"][1].seconds

    def test_missing_store_dir_is_all_static(self, workload, tmp_path):
        model = CostModel(store_dir=tmp_path / "nonexistent")
        assert model.learned_seconds() == {}


class TestLptPartition:
    def test_every_item_exactly_once(self):
        items = list(range(10))
        costs = [float(i % 4 + 1) for i in items]
        bins = lpt_partition(items, costs, 3)
        flat = sorted(x for b in bins for x in b)
        assert flat == items
        assert len(bins) == 3

    def test_balances_makespan_on_skewed_costs(self):
        # One heavy item + many light ones: contiguous chunks would put
        # the heavy item alongside light ones; LPT isolates it.
        costs = [10.0] + [1.0] * 6
        bins = lpt_partition(list(range(7)), costs, 2)
        loads = sorted(sum(costs[i] for i in b) for b in bins)
        assert loads == [6.0, 10.0]  # optimal split

    def test_never_more_bins_than_items(self):
        bins = lpt_partition([1, 2], [1.0, 1.0], 5)
        assert len(bins) == 2

    def test_empty_items_yield_one_empty_bin(self):
        assert lpt_partition([], [], 3) == [[]]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="at least one bin"):
            lpt_partition([1], [1.0], 0)
        with pytest.raises(ValueError, match="costs"):
            lpt_partition([1, 2], [1.0], 2)

    def test_deterministic_ties(self):
        costs = [1.0] * 6
        assert lpt_partition(list(range(6)), costs, 2) == lpt_partition(
            list(range(6)), costs, 2
        )


class TestLptScheduler:
    def test_orders_longest_predicted_first(self, small_item, big_item):
        from repro.experiments.workloads import ZooWorkload

        workload = ZooWorkload(
            networks=[small_item, big_item],
            locality=1.0,
            growth_factor=1.3,
        )
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        plan.add("LDR", SchemeSpec("LDR"), workload)
        scheduler = make_scheduler("lpt")
        tasks = plan.tasks(scheduler=scheduler)
        predictions = scheduler.predictions(plan)
        costs = [predictions[(t.stream, t.index)] for t in tasks]
        assert costs == sorted(costs, reverse=True)
        # The heaviest cell is the big network under the LP scheme.
        assert (tasks[0].stream, tasks[0].index) == ("LDR", 1)

    def test_predictions_cover_every_task(self, workload):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        plan.add("ECMP", SchemeSpec("ECMP"), workload)
        predictions = make_scheduler("lpt").predictions(plan)
        assert set(predictions) == {
            (t.stream, t.index) for t in plan.tasks()
        }
        assert all(cost > 0 for cost in predictions.values())

    def test_partition_covers_every_task(self, workload):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        plan.add("MinMaxK10", SchemeSpec("MinMaxK10"), workload)
        shards = make_scheduler("lpt").partition(plan, 3)
        flat = [task for shard in shards for task in shard]
        assert sorted(
            (str(t.stream), t.index) for t in flat
        ) == sorted((str(t.stream), t.index) for t in plan.tasks())

    def test_make_scheduler_resolution(self):
        assert isinstance(make_scheduler(None), InterleaveScheduler)
        assert isinstance(make_scheduler("interleave"), InterleaveScheduler)
        assert isinstance(make_scheduler("lpt"), LptScheduler)
        passthrough = LptScheduler()
        assert make_scheduler(passthrough) is passthrough
        with pytest.raises(ValueError, match="unknown schedule"):
            make_scheduler("fifo")

    def test_scheduler_base_is_abstract_over_order(self, workload):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        with pytest.raises(NotImplementedError):
            plan.tasks(scheduler=Scheduler())


class TestEngineCostRecording:
    def test_lpt_run_records_predicted_vs_actual(self, workload):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        report = execute_plan(plan, scheduler="lpt")
        total = len(workload.networks)
        assert set(report.predicted) == {"SP"}
        assert set(report.predicted["SP"]) == set(range(total))
        rows = report.cost_report()
        assert len(rows) == total
        for key, network_id, predicted, actual, phases in rows:
            assert key == "SP"
            assert predicted > 0 and actual >= 0
            assert network_id
            assert phases == {}  # no trace dir given

    def test_interleave_run_records_no_predictions(self, workload):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        report = execute_plan(plan)
        assert report.predicted == {}
        assert report.cost_report() == []

    def test_timings_accessors(self, workload):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        plan.add("ECMP", SchemeSpec("ECMP"), workload)
        report = execute_plan(plan)
        total = len(workload.networks)
        flat = report.timings()
        assert len(flat) == 2 * total
        assert all(
            isinstance(nid, str) and isinstance(seconds, float)
            for nid, seconds in flat
        )
        by_stream = report.timings_by_stream()
        assert set(by_stream) == {"SP", "ECMP"}
        assert [len(v) for v in by_stream.values()] == [total, total]
        assert sum(s for _, s in flat) == pytest.approx(report.total_seconds)

    def test_negative_cost_hint_rejected(self, workload):
        plan = EvalPlan()
        with pytest.raises(ValueError, match="cost_hint"):
            plan.add("SP", SchemeSpec("SP"), workload, cost_hint=0.0)
