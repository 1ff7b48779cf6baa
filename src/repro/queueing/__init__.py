"""Packet-level discrete-event simulation substrate.

The paper explains phenomena observed in packet-level systems -- Jacobson's
BSD TCP measurements and Zhang's protocol simulations -- with a continuous
Fokker-Planck model.  To close the loop this subpackage provides a
self-contained discrete-event simulator of the same setting:

* a bottleneck node with a FIFO queue and (optionally finite) buffer,
* rate-based sources running any :class:`repro.control.RateControl` law,
* window-based sources running any :class:`repro.control.WindowControl` law
  (Jacobson TCP-style with implicit loss feedback, DECbit with explicit
  congestion bits),
* feedback/acknowledgement channels with per-source propagation delay, and
* a trace/metrics layer recording queue length, per-source throughput and
  loss over time.

The simulator validates the continuous models: the fairness, oscillation and
delay-unfairness experiments all have a packet-level counterpart.
"""

from .. import _lazy

_EXPORTS = {
    "NodeConfig": ".topology",
    "Route": ".topology",
    "MultiHopConfig": ".topology",
    "MultiHopSimulator": ".multihop",
    "MultiHopResult": ".multihop",
    "parking_lot_scenario": ".multihop",
    "Event": ".events",
    "EventQueue": ".events",
    "PeriodicTimer": ".events",
    "ReferenceEventQueue": ".events",
    "Packet": ".packet",
    "BufferedJitter": ".random_streams",
    "RandomStreams": ".random_streams",
    "child_seed_sequence": ".random_streams",
    "child_seed_sequences": ".random_streams",
    "derive_child_seed": ".random_streams",
    "derive_child_seeds": ".random_streams",
    "TimeSeriesTrace": ".trace",
    "SimulationTrace": ".trace",
    "BottleneckQueue": ".queue_node",
    "FeedbackChannel": ".feedback",
    "RateSource": ".source",
    "WindowSource": ".source",
    "NetworkConfig": ".network",
    "SourceConfig": ".network",
    "Simulator": ".simulator",
    "SimulationResult": ".simulator",
    "ScenarioSpec": ".scenarios",
    "available_scenarios": ".scenarios",
    "build_scenario": ".scenarios",
    "chain_scenario": ".scenarios",
    "dumbbell_scenario": ".scenarios",
    "get_scenario": ".scenarios",
    "random_mesh_scenario": ".scenarios",
    "register_scenario": ".scenarios",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
