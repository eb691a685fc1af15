"""Timeline normalization and tick-boundary event semantics.

The normalization half is property-based: a :class:`Timeline` built
from any permutation of its events equals (and hashes like) the
timeline built in order — pinned under Hypothesis because sweep specs
hash their schedules into cache keys, where order-dependent
normalization would split identical scenarios or collide distinct
ones.  The engine half drives real simulators and checks that events
fire at their tick boundary exactly once, config changes refresh
derived state (protocol-2 ``_deg_scale``), partitions reload and
restore the base edge set, and the grid engines reject the graph-only
partition events.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.netsim import Timeline, TimelineEvent
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.netsim.grid import GridConfig, make_simulator


@st.composite
def timeline_events(draw):
    step = draw(st.integers(min_value=0, max_value=40))
    share = draw(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.9))
    )
    rate = draw(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.9))
    )
    fraction = draw(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.9))
    )
    if share is None and rate is None and fraction is None:
        share = 0.25
    return TimelineEvent(
        step=step,
        attacker_share=share,
        failure_rate=rate,
        partition_fraction=fraction,
    )


def _distinct_step_events(events):
    seen = set()
    kept = []
    for event in events:
        if event.step in seen:
            continue
        seen.add(event.step)
        kept.append(event)
    return kept


class TestNormalization:
    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(timeline_events(), max_size=10),
        shuffle_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_order_independent(self, events, shuffle_seed):
        # One event per step so no permutation can create a conflict.
        events = _distinct_step_events(events)
        shuffled = list(events)
        np.random.default_rng(shuffle_seed).shuffle(shuffled)
        assert Timeline(shuffled) == Timeline(events)
        assert hash(Timeline(shuffled)) == hash(Timeline(events))

    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(timeline_events(), max_size=10))
    def test_events_sorted_and_unique_per_step(self, events):
        events = _distinct_step_events(events)
        steps = [e.step for e in Timeline(events).events]
        assert steps == sorted(steps)
        assert len(steps) == len(set(steps))

    def test_same_step_events_merge_field_wise(self):
        timeline = Timeline(
            [
                TimelineEvent(step=3, attacker_share=0.4),
                TimelineEvent(step=3, failure_rate=0.2),
            ]
        )
        (event,) = timeline.events
        assert event.attacker_share == 0.4
        assert event.failure_rate == 0.2

    def test_duplicate_agreeing_events_collapse(self):
        timeline = Timeline(
            [
                TimelineEvent(step=3, attacker_share=0.4),
                TimelineEvent(step=3, attacker_share=0.4),
            ]
        )
        assert len(timeline) == 1

    def test_conflicting_events_rejected(self):
        with pytest.raises(ConfigurationError):
            Timeline(
                [
                    TimelineEvent(step=3, attacker_share=0.4),
                    TimelineEvent(step=3, attacker_share=0.5),
                ]
            )

    def test_event_changing_nothing_rejected(self):
        with pytest.raises(ConfigurationError):
            TimelineEvent(step=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attacker_share": 1.0},
            {"attacker_share": -0.1},
            {"failure_rate": 1.0},
            {"partition_fraction": 1.5},
        ],
    )
    def test_out_of_range_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TimelineEvent(step=0, **kwargs)

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigurationError):
            TimelineEvent(step=-1, attacker_share=0.2)


class TestFromSchedules:
    def test_partition_window_compiles_to_set_and_clear(self):
        timeline = Timeline.from_schedules(partitions=[(5, 9, 0.25)])
        assert [
            (e.step, e.partition_fraction) for e in timeline.events
        ] == [(5, 0.25), (9, 0.0)]
        assert timeline.needs_partitions

    def test_adjacent_window_start_wins_over_clear(self):
        timeline = Timeline.from_schedules(
            partitions=[(2, 6, 0.25), (6, 10, 0.5)]
        )
        assert [
            (e.step, e.partition_fraction) for e in timeline.events
        ] == [(2, 0.25), (6, 0.5), (10, 0.0)]

    def test_conflicting_starts_rejected(self):
        with pytest.raises(ConfigurationError):
            Timeline.from_schedules(
                partitions=[(2, 6, 0.25), (2, 8, 0.5)]
            )

    @pytest.mark.parametrize(
        "window", [(5, 5, 0.2), (6, 5, 0.2), (-1, 5, 0.2)]
    )
    def test_bad_window_bounds_rejected(self, window):
        with pytest.raises(ConfigurationError):
            Timeline.from_schedules(partitions=[window])

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_degenerate_window_fraction_rejected(self, fraction):
        with pytest.raises(ConfigurationError):
            Timeline.from_schedules(partitions=[(2, 6, fraction)])

    def test_schedules_merge_with_partitions(self):
        timeline = Timeline.from_schedules(
            hash_schedule=[(4, 0.45), (0, 0.2)],
            failure_schedule=[(4, 0.15)],
            partitions=[(4, 8, 0.3)],
        )
        assert [e.step for e in timeline.events] == [0, 4, 8]
        middle = timeline.events[1]
        assert middle.attacker_share == 0.45
        assert middle.failure_rate == 0.15
        assert middle.partition_fraction == 0.3

    def test_empty_schedules_are_falsy(self):
        timeline = Timeline.from_schedules()
        assert not timeline
        assert len(timeline) == 0
        assert not timeline.needs_partitions


def _graph_sim(num_nodes=24, protocol=1, failure_rate=0.1, seed=3):
    spec = GraphSpec.power_law(
        num_nodes, 4, 2.0, seed=seed, rng_protocol=protocol
    )
    config = GraphConfig(
        spec=spec,
        steps_per_block=5,
        failure_rate=failure_rate,
        seed=seed,
    )
    return GraphSimulatorVec(config)


@pytest.mark.parametrize("engine", ["scalar", "graph"])
class TestGridEngineEvents:
    def _sim(self, engine):
        config = GridConfig(
            size=4, steps_per_block=4, attacker_cell=(0, 0), seed=7
        )
        return make_simulator(config, engine=engine)

    def test_events_fire_exactly_once(self, engine):
        sim = self._sim(engine)
        sim.attach_timeline(
            Timeline.from_schedules(hash_schedule=[(3, 0.5), (6, 0.1)])
        )
        for _ in range(10):
            sim.step()
        assert sim.timeline_fired == [3, 6]

    def test_config_tracks_schedule(self, engine):
        sim = self._sim(engine)
        sim.attach_timeline(
            Timeline.from_schedules(
                hash_schedule=[(2, 0.5)], failure_schedule=[(2, 0.25)]
            )
        )
        sim.step()
        assert sim.config.attacker_share == 0.3
        sim.step()
        assert sim.config.attacker_share == 0.5
        assert sim.config.failure_rate == 0.25

    def test_step_zero_event_applies_at_attach(self, engine):
        sim = self._sim(engine)
        sim.attach_timeline(
            Timeline.from_schedules(hash_schedule=[(0, 0.45)])
        )
        assert sim.config.attacker_share == 0.45
        assert sim.timeline_fired == [0]

    def test_partition_events_need_the_graph_engine(self, engine):
        sim = self._sim(engine)
        sim.attach_timeline(
            Timeline.from_schedules(partitions=[(1, 4, 0.5)])
        )
        if engine == "scalar":
            with pytest.raises(ConfigurationError):
                sim.step()
            return
        base_edges = sim._num_edges
        sim.step()  # step 1: the grid bridge cuts its edge set
        assert sim._num_edges < base_edges

    def test_attach_after_first_step_rejected(self, engine):
        sim = self._sim(engine)
        sim.step()
        with pytest.raises(SimulationError):
            sim.attach_timeline(
                Timeline.from_schedules(hash_schedule=[(2, 0.5)])
            )

    def test_double_attach_rejected(self, engine):
        sim = self._sim(engine)
        timeline = Timeline.from_schedules(hash_schedule=[(2, 0.5)])
        sim.attach_timeline(timeline)
        with pytest.raises(SimulationError):
            sim.attach_timeline(timeline)

    def test_timeline_run_is_deterministic(self, engine):
        def run():
            sim = self._sim(engine)
            sim.attach_timeline(
                Timeline.from_schedules(
                    hash_schedule=[(3, 0.5)], failure_schedule=[(5, 0.3)]
                )
            )
            sim.run(12)
            return (sim.attacker_fraction(), sim.synced_fraction())

        assert run() == run()


class TestGraphEngineEvents:
    def test_partition_cuts_then_restores_edges(self):
        sim = _graph_sim()
        base_edges = sim._num_edges
        sim.attach_timeline(
            Timeline.from_schedules(partitions=[(2, 4, 0.25)])
        )
        sim.step()
        assert sim._num_edges == base_edges
        sim.step()  # step 2: partition on
        assert sim._num_edges < base_edges
        sim.step()
        sim.step()  # step 4: partition cleared
        assert sim._num_edges == base_edges
        assert sim.timeline_fired == [2, 4]

    def test_partition_mask_is_lowest_index_nodes(self):
        sim = _graph_sim(num_nodes=20)
        sim.attach_timeline(
            Timeline.from_schedules(partitions=[(1, 3, 0.25)])
        )
        sim.step()
        # 5 of 20 nodes partitioned: no surviving edge crosses the cut.
        k = 5
        indptr, indices = sim._indptr, sim._indices
        for node in range(20):
            for edge in range(indptr[node], indptr[node + 1]):
                assert (node < k) == (indices[edge] < k)

    def test_protocol2_deg_scale_refreshes_on_failure_change(self):
        sim = _graph_sim(protocol=2, failure_rate=0.1)
        before = sim._deg_scale.copy()
        sim.attach_timeline(
            Timeline.from_schedules(failure_schedule=[(1, 0.5)])
        )
        sim.step()
        assert sim.config.failure_rate == 0.5
        expected = (sim._degrees / 0.5).astype(np.float32)
        np.testing.assert_array_equal(sim._deg_scale, expected)
        assert not np.array_equal(sim._deg_scale, before)

    def test_delayed_offers_survive_partition_reload(self):
        spec = GraphSpec.power_law(24, 4, 2.0, max_delay=3, seed=11)
        config = GraphConfig(
            spec=spec, steps_per_block=5, failure_rate=0.0, seed=11
        )
        sim = GraphSimulatorVec(config)
        sim.attach_timeline(
            Timeline.from_schedules(partitions=[(3, 6, 0.5)])
        )
        sim.run(12)  # must not raise; in-flight offers keep draining
        assert sim.timeline_fired == [3, 6]

    def test_timeline_run_matches_itself(self):
        def run():
            sim = _graph_sim(seed=9)
            sim.attach_timeline(
                Timeline.from_schedules(
                    hash_schedule=[(3, 0.5)],
                    partitions=[(4, 8, 0.25)],
                )
            )
            sim.run(12)
            return (
                sim.attacker_fraction(),
                tuple(np.asarray(sim.heights).tolist()),
            )

        assert run() == run()

    def test_unreachable_keeps_outbound_drops_inbound(self):
        spec = GraphSpec.power_law(16, 4, 2.0, seed=5)
        mask = np.zeros(16, dtype=bool)
        mask[12:] = True
        reduced = spec.unreachable(mask)
        assert reduced.num_edges < spec.num_edges
        indptr, indices = reduced.indptr, reduced.indices
        # No surviving edge targets an unreachable node...
        assert not mask[np.asarray(indices)].any() or len(indices) == 0
        # ...but unreachable nodes keep their outbound connections.
        out_degrees = np.diff(indptr)[12:]
        base_out = np.diff(spec.indptr)[12:]
        expected = [
            int((~mask[np.asarray(spec.indices[spec.indptr[n]:spec.indptr[n + 1]])]).sum())
            for n in range(12, 16)
        ]
        assert out_degrees.tolist() == expected
        assert (out_degrees <= base_out).all()
