"""Determinism and semantics of the event engine and its test oracle.

The production tuple-heap engine (``EventQueue``) and the preserved seed
engine (``ReferenceEventQueue``, swapped in through the ``reference_engine``
fixture) must be observationally identical: same
firing order (including tie-breaking by insertion order across both
scheduling paths), same clock behaviour, and bit-identical simulation
traces for every configuration and seed.  Both must also reproduce the
frozen traces of the seed simulator stack (``golden_des_seed_traces.npz``).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.queueing import (
    EventQueue,
    MultiHopSimulator,
    ReferenceEventQueue,
    Simulator,
    build_scenario,
)
from repro.queueing.scenarios import dumbbell_scenario
from repro.workloads import (
    packet_level_jrj_scenario,
    packet_level_window_scenario,
)


#: Queue and per-source rate series, deliveries, losses and event counts of
#: the seed simulator stack (commit ``c0f79ee``: dataclass events, per-event
#: labels, vectorised drift, scalar RNG calls) run for ``SEED_DURATION`` on
#: the configurations of ``SEED_CONFIGS``, frozen before that stack was
#: removed.  Keys are ``<label>.<field>``; rate series are ``rate<id>``.
SEED_GOLDEN_PATH = (Path(__file__).resolve().parents[1] / "data"
                    / "golden_des_seed_traces.npz")
SEED_DURATION = 60.0
SEED_CONFIGS = {
    "jrj-1": lambda: packet_level_jrj_scenario(
        n_sources=1, service_rate=10.0, seed=3
    ),
    "jrj-2": lambda: packet_level_jrj_scenario(
        n_sources=2, service_rate=10.0, seed=7
    ),
    "jacobson-2": lambda: packet_level_window_scenario(
        n_sources=2, service_rate=10.0, buffer_size=20, scheme="jacobson"
    ),
    "decbit-2": lambda: packet_level_window_scenario(
        n_sources=2, service_rate=10.0, buffer_size=40, scheme="decbit"
    ),
}
#: SHA-256 (see ``_trace_digest``) of the seed stack's run of the 64-source
#: dumbbell (seed 11) for ``SEED_DUMBBELL_DURATION``; a digest rather than
#: arrays keeps the fixture small for a run of ~15,000 events.
SEED_DUMBBELL_DURATION = 15.0
SEED_DUMBBELL_DIGEST = (
    "5b2ef2838caae0c53e7e1cc116f10d41766fdc5dc14b4149f339cd62572aee0e"
)


#: The production engine and its test oracle, keyed by the ids the
#: parametrized parity tests carry.
ENGINES = {"fast": EventQueue, "reference": ReferenceEventQueue}


def _use_engine(request, engine):
    """Swap the seed engine into the simulators when *engine* asks for it."""
    if engine == "reference":
        request.getfixturevalue("reference_engine")


def _trace_digest(trace, events_executed):
    """SHA-256 over every recorded float and count of a simulation run."""
    digest = hashlib.sha256()
    series = [trace.queue_length] + [
        trace.source_rates[key] for key in sorted(trace.source_rates)
    ]
    for sink in series:
        for column in (sink.times, sink.values):
            column = np.ascontiguousarray(column, dtype="<f8")
            digest.update(np.int64(column.size).tobytes())
            digest.update(column.tobytes())
    counts = [
        sorted([int(key), int(value)] for key, value in table.items())
        for table in (trace.deliveries, trace.losses)
    ]
    digest.update(json.dumps([counts, int(events_executed)]).encode())
    return digest.hexdigest()


def _trace_fingerprint(trace):
    """Every recorded float of a simulation trace, for exact comparison."""
    return (
        trace.queue_length.times.tolist(),
        trace.queue_length.values.tolist(),
        {
            key: (series.times.tolist(), series.values.tolist())
            for key, series in trace.source_rates.items()
        },
        dict(trace.deliveries),
        dict(trace.losses),
    )


class TestFastEngineSemantics:
    def test_schedule_call_fires_in_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule_call(2.0, lambda: fired.append("b"))
        queue.schedule_call(1.0, lambda: fired.append("a"))
        queue.schedule(3.0, lambda: fired.append("c"))
        queue.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_across_both_paths(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append("handle-first"))
        queue.schedule_call(1.0, lambda: fired.append("call-second"))
        queue.schedule(1.0, lambda: fired.append("handle-third"))
        queue.run_until(2.0)
        assert fired == ["handle-first", "call-second", "handle-third"]

    def test_schedule_call_in_the_past_rejected(self):
        queue = EventQueue()
        queue.schedule_call(1.0, lambda: None)
        queue.run_until(5.0)
        with pytest.raises(SimulationError):
            queue.schedule_call(2.0, lambda: None)

    def test_periodic_timer_fires_and_cancels(self):
        queue = EventQueue()
        ticks = []
        timer = queue.schedule_periodic(
            1.0, 1.0, lambda: ticks.append(queue.current_time)
        )
        queue.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]
        timer.cancel()
        queue.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_periodic_timer_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            EventQueue().schedule_periodic(0.0, 0.0, lambda: None)

    def test_len_ignores_cancelled_handles(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.schedule_call(1.5, lambda: None)
        event = queue.schedule(2.0, lambda: None)
        event.cancel()
        assert len(queue) == 2

    def test_pop_next_wraps_bare_callbacks(self):
        queue = EventQueue()
        fired = []
        queue.schedule_call(1.0, lambda: fired.append("x"))
        event = queue.pop_next()
        assert queue.current_time == 1.0
        event.action()
        assert fired == ["x"]


class TestEngineEquivalence:
    def _randomized_program(self, queue, rng):
        """Schedule a reproducible random mix of handles, calls and timers."""
        fired = []
        times = rng.integers(0, 20, size=60) * 0.25
        for index, time in enumerate(times):
            time = float(time)
            if index % 3 == 0:
                queue.schedule_call(
                    time, lambda i=index, t=time: fired.append(("call", i, t))
                )
            else:
                event = queue.schedule(
                    time, lambda i=index, t=time: fired.append(("evt", i, t))
                )
                if index % 7 == 0:
                    event.cancel()
        queue.schedule_periodic(0.5, 1.25, lambda: fired.append(("tick",)))
        return fired

    def test_randomized_firing_order_identical(self):
        runs = []
        for engine_class in (EventQueue, ReferenceEventQueue):
            queue = engine_class()
            rng = np.random.default_rng(123)
            fired = self._randomized_program(queue, rng)
            executed = queue.run_until(6.0)
            runs.append((fired, executed, queue.current_time))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "config_builder",
        [
            *SEED_CONFIGS.values(),
            lambda: build_scenario("dumbbell", n_sources=12, seed=5),
        ],
        ids=["jrj-1", "jrj-2", "jacobson", "decbit", "dumbbell-12"],
    )
    def test_simulation_traces_bit_identical(self, config_builder, request):
        fast = Simulator(config_builder()).run(60.0)
        _use_engine(request, "reference")
        simulator = Simulator(config_builder())
        assert isinstance(simulator.events, ReferenceEventQueue)
        reference = simulator.run(60.0)
        assert _trace_fingerprint(fast.trace) == _trace_fingerprint(
            reference.trace
        )
        assert fast.events_executed == reference.events_executed

    @pytest.mark.parametrize("scenario", ["parking-lot", "chain", "mesh"])
    def test_multihop_traces_bit_identical(self, scenario, request):
        results = {}
        for engine in ENGINES:
            _use_engine(request, engine)
            simulator = MultiHopSimulator(build_scenario(scenario, seed=13))
            assert isinstance(simulator.events, ENGINES[engine])
            result = simulator.run(80.0)
            results[engine] = (
                result.throughputs,
                result.losses,
                result.node_mean_queue,
                result.events_executed,
                _trace_fingerprint(simulator.connection_trace),
            )
        assert results["fast"] == results["reference"]


class TestSeedGoldenTraces:
    """Rate-based (JRJ) and window-based (Jacobson, DECbit) sources on
    either engine reproduce the seed stack's traces bit for bit."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("label", list(SEED_CONFIGS))
    def test_traces_match_seed_stack(self, label, engine, request):
        _use_engine(request, engine)
        golden = np.load(SEED_GOLDEN_PATH)
        result = Simulator(SEED_CONFIGS[label]()).run(SEED_DURATION)
        trace = result.trace

        def expect(field):
            return golden[f"{label}.{field}"]

        assert np.array_equal(trace.queue_length.times, expect("queue_times"))
        assert np.array_equal(
            trace.queue_length.values, expect("queue_values")
        )
        rate_keys = [
            key for key in golden.files
            if key.startswith(f"{label}.rate") and key.endswith("_times")
        ]
        assert len(rate_keys) == len(trace.source_rates)
        for source_id, series in trace.source_rates.items():
            assert np.array_equal(series.times, expect(f"rate{source_id}_times"))
            assert np.array_equal(
                series.values, expect(f"rate{source_id}_values")
            )
        assert sorted(trace.deliveries.items()) == [
            tuple(row) for row in expect("deliveries").tolist()
        ]
        assert sorted(trace.losses.items()) == [
            tuple(row) for row in expect("losses").tolist()
        ]
        assert result.events_executed == int(expect("events_executed"))

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_dumbbell_64_matches_seed_stack(self, engine, request):
        # Many jittered rate sources: the buffered jitter draws and the
        # periodic control timers against the seed's per-packet RNG calls.
        _use_engine(request, engine)
        config = dumbbell_scenario(n_sources=64, seed=11)
        result = Simulator(config).run(SEED_DUMBBELL_DURATION)
        assert _trace_digest(result.trace, result.events_executed) == (
            SEED_DUMBBELL_DIGEST
        )


class TestBufferedJitterParity:
    def test_buffered_factors_match_scalar_draws(self):
        from repro.queueing import RandomStreams

        scalar = RandomStreams(seed=9)
        buffered = RandomStreams(seed=9)
        drawer = buffered.jitter_factors("spacing-0", 0.2, block_size=7)
        for _ in range(25):
            expected = scalar.uniform_jitter("spacing-0", 1.0, 0.2)
            assert drawer.next_factor() == expected

    def test_invalid_arguments_rejected(self):
        from repro.queueing import RandomStreams

        with pytest.raises(ConfigurationError):
            RandomStreams(1).jitter_factors("x", 0.0)
        with pytest.raises(ConfigurationError):
            RandomStreams(1).jitter_factors("x", 0.1, block_size=0)
