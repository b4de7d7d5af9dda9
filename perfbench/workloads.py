"""The benchmark's workloads: inputs from a seed, one timed unit, checks.

A workload builds its inputs from the seed alone, runs an untimed
warm-up on a small input of the same shape, and then exposes
:meth:`unit`: one repetition of the timed work, returning the checked
outputs of that repetition.  The harness (``worker.py``) does the
timing around :meth:`unit`; a workload times only the sub-phases it
reports separately (the per-protocol trials of ``table1``).

Counts come from the simulator's public telemetry objects
(``ChannelTelemetry``, ``MacStats``, ``control_overhead()``,
``CampaignTelemetry``) and repeat exactly between runs of one seed.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import time
from typing import Dict, List, Sequence

from checks import (
    check_conservation,
    check_golden,
    check_journal,
    check_nasch_flow,
    load_golden,
    six_tuple,
)
from spans import Target

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "test_regression_defaults.py")
#: Scratch space for journals (inside the checkout, ignored by git).
SCRATCH = os.path.join(ROOT, ".perfbench_cache")

PROTOCOLS = ("AODV", "OLSR", "DYMO")

MAC_METHODS = (
    "enqueue", "on_medium_busy", "on_medium_idle", "on_tx_done",
    "on_frame_received",
)
ROUTING_METHODS = ("route_output", "forward_data", "recv_control")
METRICS_METHODS = (
    "data_originated", "data_delivered", "transmission", "packet_dropped",
    "record_channel", "record_energy", "record_fault",
)
KERNEL_METHODS = (
    "nasch_step", "cyclic_gaps", "row_select", "row_distances",
    "row_filter", "dcf_consume_backoffs", "dcf_expired_navs",
)


@dataclasses.dataclass
class Outputs:
    """What one timed unit produced, already checked.

    Attributes:
        operations: checked results in the unit (trials or diagrams).
        errors: one string per failed check; each counts one operation
            as failed (at most ``operations``).
        counts: exactly repeatable per-layer counts.
        times: per-layer walls measured without tracing (``trial.*_s``).
        trial_wall_s: summed wall of the runner's trials (0 when the
            workload does not go through ``TrialRunner``).
        workers: worker processes the runner used.
        detail: counts per trial where a unit runs several (``table1``
            per protocol), for the stamp line.
    """

    operations: int
    errors: List[str]
    counts: Dict[str, float]
    times: Dict[str, float] = dataclasses.field(default_factory=dict)
    trial_wall_s: float = 0.0
    workers: int = 1
    detail: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)


def kernel_targets() -> List[Target]:
    """The resolved ``auto`` kernel backend's methods (instance patches,
    so only scenarios running on that backend are traced)."""
    from repro.kernels import resolve_backend

    backend = resolve_backend("auto")
    return [
        (backend, name, "kernels")
        for name in KERNEL_METHODS
        if hasattr(backend, name)
    ]


def network_targets() -> List[Target]:
    """Layer boundaries of one network simulation."""
    from repro.core.simulation import CavenetSimulation
    from repro.des.engine import Simulator
    from repro.mac.dcf import Mac80211
    from repro.metrics.collector import MetricsCollector
    from repro.phy.channel import Channel
    from repro.phy.radio import Radio
    from repro.phy.spatial import UniformGridIndex
    from repro.routing.aodv import Aodv
    from repro.routing.dymo import Dymo
    from repro.routing.olsr import Olsr

    return [
        (CavenetSimulation, "generate_trace", "mobility"),
        (Simulator, "run", "des"),
        (Channel, "transmit", "phy"),
        (Radio, "transmit", "phy"),
        (Radio, "signal_start", "phy"),
        (UniformGridIndex, "rebuild", "phy.spatial"),
        (UniformGridIndex, "candidates", "phy.spatial"),
        *[(Mac80211, name, "mac") for name in MAC_METHODS],
        *[
            (protocol, name, "routing")
            for protocol in (Aodv, Olsr, Dymo)
            for name in ROUTING_METHODS
        ],
        *[(MetricsCollector, name, "metrics") for name in METRICS_METHODS],
        *kernel_targets(),
    ]


def network_counts(results: Sequence) -> Dict[str, float]:
    """DES/PHY/MAC/routing counts summed over simulation results."""
    channel = [result.channel_telemetry for result in results]
    frames = sum(c.frames_transmitted for c in channel)
    events = sum(c.events_processed for c in channel)
    delivered = sum(c.frames_delivered for c in channel)
    lookups = sum(c.cache_lookups for c in channel)
    rebuilds = sum(c.cache_rebuilds for c in channel)
    mac = [s for result in results for s in result.mac_stats.values()]
    return {
        "des.events": events,
        "des.events_per_frame": events / frames if frames else 0.0,
        "phy.frames_tx": frames,
        "phy.rx_fanout": delivered / frames if frames else 0.0,
        "phy.cs_drops": sum(c.frames_cs_dropped for c in channel),
        "phy.cache_hit_rate": (lookups - rebuilds) / lookups if lookups else 0.0,
        "mac.data_tx": sum(s.data_tx for s in mac),
        "mac.retransmissions": sum(s.retransmissions for s in mac),
        "mac.retry_drops": sum(s.retry_drops for s in mac),
        "routing.control_tx": sum(
            result.control_overhead().packets for result in results
        ),
    }


def conservation_errors(result) -> List[str]:
    channel = result.channel_telemetry
    return check_conservation(
        result.scenario.num_nodes,
        channel.frames_transmitted,
        channel.frames_delivered,
        channel.frames_cs_dropped,
    )


def campaign_counts(telemetry) -> Dict[str, float]:
    return {
        "core.trials": telemetry.trials_completed,
        "core.failed": telemetry.trials_failed,
        "core.retries": telemetry.retries,
    }


class Table1:
    """Paper Table I: ``Scenario()`` defaults under AODV, OLSR and DYMO.

    The three runs replay one trace, the default scenario's (seed 4), so
    the road traffic every protocol sees is the paper's; the seed drives
    the network's own randomness (MAC backoff, CBR, routing jitter).  At
    seed 4 each run is exactly ``Scenario(protocol=p)`` and must match
    the regression goldens.
    """

    name = "table1"
    modules = ("repro.core.simulation",)
    spatial = "dense"
    backend = "none"

    def __init__(self, seed: int) -> None:
        from repro.core.config import Scenario

        self.trace_scenario = Scenario()
        self.scenarios = [Scenario(protocol=p, seed=seed) for p in PROTOCOLS]
        self.tech = self.trace_scenario.tech
        self.golden = (
            load_golden(GOLDEN_PATH) if seed == Scenario().seed else None
        )

    def warm(self) -> None:
        from repro.core.simulation import CavenetSimulation

        base = dataclasses.replace(
            self.trace_scenario,
            sim_time_s=5.0, traffic_start_s=1.0, traffic_stop_s=4.0,
        )
        trace = CavenetSimulation(base).generate_trace()
        for scenario in self.scenarios:
            short = dataclasses.replace(
                base, protocol=scenario.protocol, seed=scenario.seed
            )
            CavenetSimulation(short).run(trace=trace)

    def trace_targets(self) -> List[Target]:
        return network_targets()

    def unit(self) -> Outputs:
        from repro.core.simulation import CavenetSimulation

        trace = CavenetSimulation(self.trace_scenario).generate_trace()
        results, errors, times = [], [], {}
        for scenario in self.scenarios:
            start = time.perf_counter()
            result = CavenetSimulation(scenario).run(trace=trace)
            times[f"trial.{scenario.protocol.lower()}_s"] = (
                time.perf_counter() - start
            )
            errors += conservation_errors(result)
            if self.golden is not None:
                errors += check_golden(
                    scenario.protocol, six_tuple(result), self.golden
                )
            results.append(result)
        detail = {
            scenario.protocol: network_counts([result])
            for scenario, result in zip(self.scenarios, results)
        }
        return Outputs(
            len(results), errors, network_counts(results), times, detail=detail
        )


class Ring3000:
    """The N=3000 constant-density ring of ``benchmarks/test_bench_trial.py``:
    grid spatial index, AODV, 4 s simulated after 4000 warm-up steps."""

    name = "ring3000"
    modules = ("repro.core.simulation",)
    spatial = "grid"
    backend = "none"

    def __init__(self, seed: int) -> None:
        from repro.core.config import Scenario

        self.scenario = Scenario(
            num_nodes=3000,
            road_length_m=300_000.0,
            boundary="circuit",
            initial_placement="random",
            mobility_warmup_steps=4000,
            sim_time_s=4.0,
            protocol="AODV",
            senders=(1, 2),
            receiver=0,
            traffic_start_s=0.5,
            traffic_stop_s=3.5,
            spatial="grid",
            seed=seed,
        )
        self.tech = self.scenario.tech

    def warm(self) -> None:
        from repro.core.simulation import CavenetSimulation

        small = dataclasses.replace(
            self.scenario,
            num_nodes=300, road_length_m=30_000.0, mobility_warmup_steps=100,
            sim_time_s=1.0, traffic_start_s=0.2, traffic_stop_s=0.8,
        )
        CavenetSimulation(small).run()

    def trace_targets(self) -> List[Target]:
        return network_targets()

    def unit(self) -> Outputs:
        from repro.core.simulation import CavenetSimulation

        result = CavenetSimulation(self.scenario).run()
        return Outputs(1, conservation_errors(result), network_counts([result]))


class Fig4Ensemble:
    """Paper Fig. 4: 11 densities x p in {0, 0.5} x 20 trials x 500 steps
    on L = 400 cells, serially through ``TrialRunner``."""

    name = "fig4_ensemble"
    modules = ("repro.analysis.fundamental",)
    spatial = "none"
    tech = "none"
    backend = "local-serial"

    DENSITIES = (
        0.05, 0.10, 0.15, 1 / 6, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _sweep(self, densities, trials, steps, telemetry=None):
        from repro.analysis.fundamental import fundamental_diagram
        from repro.util.rng import RngStreams

        streams = RngStreams(self.seed)
        return [
            fundamental_diagram(
                densities, p=p, num_cells=400, trials=trials, steps=steps,
                rng=streams, telemetry=telemetry,
            )
            for p in (0.0, 0.5)
        ]

    def warm(self) -> None:
        self._sweep(self.DENSITIES[:2], trials=2, steps=50)

    def trace_targets(self) -> List[Target]:
        return kernel_targets()

    def unit(self) -> Outputs:
        from repro.metrics.collector import CampaignTelemetry

        telemetry = CampaignTelemetry()
        deterministic, stochastic = self._sweep(
            self.DENSITIES, trials=20, steps=500, telemetry=telemetry
        )
        errors = check_nasch_flow(self.DENSITIES, list(deterministic.flows))
        failed = deterministic.total_failed + stochastic.total_failed
        if failed:
            errors.append(f"{failed} Fig. 4 trials failed")
        return Outputs(
            2, errors, campaign_counts(telemetry),
            trial_wall_s=telemetry.total_wall_clock_s,
        )


class Campaign:
    """A journalled ``sweep_scenario`` of 96 short Table-I-shaped AODV
    trials (1 s simulated) on the default ``auto`` execution backend
    with 2 workers.

    Each trial's seed also draws its own mobility, and a trial's work
    swings with it; 96 independent trials keep the sum within about 5%
    across seeds.  Protocols are not mixed in: a protocol sweep reuses
    each trial seed, and so each mobility, once per protocol.
    """

    name = "campaign"
    modules = ("repro.core.sweep", "repro.core.journal")
    spatial = "dense"
    workers = 2
    trials = 96

    def __init__(self, seed: int) -> None:
        from repro.core.config import Scenario

        self.base = Scenario(
            protocol="AODV", sim_time_s=1.0, traffic_start_s=0.2,
            traffic_stop_s=0.9, seed=seed,
        )
        self.tech = self.base.tech

    @property
    def backend(self) -> str:
        from repro.core import registry
        from repro.core.runner import TrialRunner

        runner = TrialRunner(max_workers=self.workers)
        return registry.resolve("backend", runner.backend)(runner).name

    def _sweep(self, trials, telemetry=None):
        from repro.core.journal import inspect_journal
        from repro.core.sweep import sweep_scenario

        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
            path = os.path.join(scratch, "journal.jsonl")
            sweep = sweep_scenario(
                self.base, "protocol", [self.base.protocol], trials=trials,
                max_workers=self.workers, telemetry=telemetry,
                journal_path=path,
            )
            return sweep, inspect_journal(path)

    def warm(self) -> None:
        self._sweep(trials=2)

    def trace_targets(self) -> List[Target]:
        from repro.core.journal import TrialJournal

        return [(TrialJournal, "record_success", "core.journal")]

    def unit(self) -> Outputs:
        from repro.metrics.collector import CampaignTelemetry

        telemetry = CampaignTelemetry()
        sweep, journal = self._sweep(self.trials, telemetry)
        expected = self.trials
        results = [r for point in sweep.points for r in point.results]
        errors = check_journal(
            expected, journal.trials_ok, journal.trials_failed,
            journal.distinct_completed,
        )
        if sweep.total_failed or telemetry.trials_failed:
            errors.append(
                f"{sweep.total_failed} trials dropped, "
                f"{telemetry.trials_failed} attempts failed"
            )
        for result in results:
            errors += conservation_errors(result)
        counts = {**network_counts(results), **campaign_counts(telemetry)}
        return Outputs(
            expected, errors, counts,
            trial_wall_s=telemetry.total_wall_clock_s, workers=self.workers,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (Table1, Ring3000, Fig4Ensemble, Campaign)
}
