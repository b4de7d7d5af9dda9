"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
import os
import signal
import time

import pytest

import checks
import run
import worker
from spans import Tracer
from workloads import GOLDEN_PATH, ROOT, Outputs, conservation_errors

# -- spans ------------------------------------------------------------------


class ScriptedClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    def kernel():
        clock.now += 1.0

    def phy():
        clock.now += 2.0
        traced_kernel()
        clock.now += 0.5

    def des():
        clock.now += 3.0
        traced_phy()
        traced_phy()
        clock.now += 4.0

    traced_kernel = tracer.span("kernels", kernel)
    traced_phy = tracer.span("phy", phy)
    tracer.span("des", des)()

    # des lasts 3 + 2 x 3.5 + 4 = 14 s, of which its two phy children
    # cover 7 s; each phy lasts 3.5 s, of which its kernel covers 1 s.
    assert tracer.self_s["des"] == pytest.approx(7.0)
    assert tracer.self_s["phy"] == pytest.approx(5.0)
    assert tracer.self_s["kernels"] == pytest.approx(2.0)
    assert dict(tracer.calls) == {"des": 1, "phy": 2, "kernels": 2}
    assert sum(tracer.self_s.values()) == pytest.approx(clock.now)


def test_self_time_when_a_layer_nests_in_itself_and_raises():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 1.0
        raise ValueError("boom")

    def outer():
        clock.now += 2.0
        with pytest.raises(ValueError):
            traced_inner()

    traced_inner = tracer.span("mac", inner)
    tracer.span("mac", outer)()
    assert tracer.self_s["mac"] == pytest.approx(3.0)
    assert tracer.calls["mac"] == 2


class Base:
    def inherited(self):
        return "base"


class Leaf(Base):
    def own(self):
        return "leaf"


def test_installed_patches_and_restores_owners():
    instance = Leaf()
    original_own = Leaf.__dict__["own"]
    tracer = Tracer()
    targets = [
        (Leaf, "own", "a"),
        (Leaf, "inherited", "b"),
        (instance, "own", "c"),
    ]
    with tracer.installed(targets):
        assert Leaf().own() == "leaf"
        assert Leaf().inherited() == "base"
        assert instance.own() == "leaf"
    # The instance patch wraps the already patched class method, so the
    # instance call is one "c" span enclosing one "a" span.
    assert dict(tracer.calls) == {"a": 2, "b": 1, "c": 1}
    assert Leaf.__dict__["own"] is original_own
    assert "inherited" not in Leaf.__dict__
    assert "own" not in vars(instance)


# -- names ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["wall_s", "des.events_per_frame", "fig4_ensemble", "1x", "a-b.c"]
)
def test_legal_names(name):
    assert checks.valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_lead", ".lead", "has space", "slash/name", "é", "x" * 65, 3]
)
def test_illegal_names(name):
    assert not checks.valid_name(name)


def test_benchmark_spec_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in spec[group]
    ]
    assert all(checks.valid_name(name) for name in names)
    assert len(names) == len(set(names))
    assert [e["name"] for e in spec["per_layer"]] == list(worker.PER_LAYER)
    assert set(worker.SELF_TIME_METRICS.values()) <= set(worker.PER_LAYER)
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {entry["name"]: entry for entry in spec["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(e["bound"] for e in e2e.values())


# -- correctness checkers ---------------------------------------------------


def test_golden_is_read_from_the_regression_test():
    golden = checks.load_golden(GOLDEN_PATH)
    assert set(golden) == {"AODV", "OLSR", "DYMO"}
    assert golden["AODV"][3] == 39982


def test_golden_rejects_one_frame_off():
    golden = checks.load_golden(GOLDEN_PATH)
    good = golden["AODV"]
    assert checks.check_golden("AODV", good, golden) == []
    doctored = good[:3] + (good[3] - 1,) + good[4:]
    assert checks.check_golden("AODV", doctored, golden)


def test_conservation_rejects_one_frame_off():
    # Table I AODV at seed 4: 39,982 frames, 29 other radios each.
    assert checks.check_conservation(30, 39982, 456137, 703341) == []
    assert checks.check_conservation(30, 39982, 456136, 703341)
    assert checks.check_conservation(30, 39983, 456137, 703341)


def test_nasch_flow_against_the_analytic_curve():
    densities = [0.05, 1 / 6, 0.5]
    analytic = [min(5 * rho, 1 - rho) for rho in densities]
    assert checks.check_nasch_flow(densities, analytic) == []
    off = list(analytic)
    off[1] -= checks.NASCH_FLOW_TOLERANCE * 1.01
    assert checks.check_nasch_flow(densities, off)
    assert checks.check_nasch_flow(densities, analytic[:2])
    assert checks.check_nasch_flow(densities, [float("nan")] * 3)


def test_journal_needs_one_ok_record_per_trial():
    assert checks.check_journal(24, 24, 0, 24) == []
    assert checks.check_journal(24, 23, 0, 23)  # one record lost
    assert checks.check_journal(24, 25, 0, 24)  # one trial recorded twice
    assert checks.check_journal(24, 24, 1, 24)  # a failed attempt


def test_counts_must_repeat_exactly():
    first = {"des.events": 1181608, "phy.frames_tx": 39982}
    assert checks.check_counts_repeat(first, dict(first)) == []
    assert checks.check_counts_repeat(first, {**first, "des.events": 1181609})


def test_a_doctored_simulation_result_fails_its_check():
    from repro.core.config import Scenario
    from repro.core.simulation import CavenetSimulation

    scenario = Scenario(
        num_nodes=6, road_length_m=600.0, sim_time_s=3.0,
        traffic_start_s=0.5, traffic_stop_s=2.5, senders=(1, 2),
    )
    result = CavenetSimulation(scenario).run()
    assert result.frames_on_air > 0
    assert conservation_errors(result) == []
    channel = result.collector.channel
    result.collector.channel = dataclasses.replace(
        channel, frames_delivered=channel.frames_delivered - 1
    )
    assert conservation_errors(result)


# -- harness ----------------------------------------------------------------


class FakeWorkload:
    """Units of three operations; the second unit reports one bad frame."""

    def __init__(self):
        self.units = 0

    def unit(self):
        self.units += 1
        errors = ["one frame off"] if self.units == 2 else []
        return Outputs(3, errors, {"des.events": 10})


def test_a_failed_check_counts_as_a_failed_operation():
    workload = FakeWorkload()
    report = worker.measure(workload, seconds=0.0)
    assert report["attempted"] == 3 and report["failed"] == 0
    workload = FakeWorkload()
    workload.units = 1
    report = worker.measure(workload, seconds=0.0)
    assert report["attempted"] == 3 and report["failed"] == 1



E2E = [
    {"name": "setup_s", "unit": "s"},
    {"name": "wall_s", "unit": "s"},
    {"name": "cpu_s", "unit": "s"},
    {"name": "peak_rss_mb", "unit": "MB"},
]


def test_times_are_scaled_to_the_reference_probe(monkeypatch):
    monkeypatch.setattr(worker, "PROBE_SENSITIVITY", 1.0)
    host = worker.HostProbe()
    reference = worker.PROBE_REFERENCE_S
    host.samples = [reference] * 4
    assert host.scale == pytest.approx(1.0)
    # A host half as fast throughout: twice as long, the same reading.
    host.samples = [2 * reference] * 4
    assert 6.0 * host.scale == pytest.approx(3.0)
    # Half the time at each speed: each interval is scaled by its own
    # probe, so the factor is (1 + 1/2) / 2, not 1 / 1.5.
    host.samples = [reference, 2 * reference]
    assert host.scale == pytest.approx(0.75)


def test_the_slow_state_weighs_by_the_sensitivity(monkeypatch):
    monkeypatch.setattr(worker, "PROBE_SENSITIVITY", 1.5)
    host = worker.HostProbe()
    # Probes 1.21x slower than the reference: the work is taken to run
    # 1.21 ** 1.5 = 1.331x slower.
    host.samples = [1.21 * worker.PROBE_REFERENCE_S]
    assert 1.331 * host.scale == pytest.approx(1.0)


def test_a_forked_child_adds_its_probes():
    with worker.HostProbe() as host:
        signal.setitimer(signal.ITIMER_REAL, 0)  # only the child samples
        pid = os.fork()
        if pid == 0:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
            os._exit(0)
        os.waitpid(pid, 0)
    assert len(host.samples) >= 5
    assert all(0 < sample < 0.1 for sample in host.samples)
    assert worker.HostProbe.active is None


def test_steal_is_charged_only_while_the_unit_was_off_the_cpu():
    # One busy vCPU: 10 s wall, 8 s CPU, 3 s stolen across both vCPUs.
    assert worker.lost_s(10.0, 8.0, 3.0, 1) == pytest.approx(2.0)
    assert worker.lost_s(10.0, 8.0, 1.0, 1) == pytest.approx(1.0)
    # Two busy workers share the steal of both vCPUs.
    assert worker.lost_s(10.0, 18.0, 1.0, 2) == pytest.approx(0.5)
    assert worker.lost_s(10.0, 10.5, 0.0, 1) == 0.0


def test_scratch_is_the_workloads_scratch():
    from workloads import SCRATCH

    assert worker.SCRATCH == SCRATCH


def test_worker_needs_every_argument():
    with pytest.raises(SystemExit):
        worker.main(["--workload", "table1"])


def test_result_line_takes_the_median_setup_and_keeps_order():
    report = {
        "attempted": 3, "failed": 0,
        "metrics": {"peak_rss_mb": 70.0, "cpu_s": 4.0, "wall_s": 5.0},
    }
    result = run.combine(report, [0.3, 0.5, 0.4], E2E)
    assert list(result["metrics"]) == [e["name"] for e in E2E]
    assert result["metrics"]["setup_s"] == {"value": 0.4, "unit": "s"}
    assert result["correct"] and result["attempted"] == 3


def test_a_crashed_unit_fails_the_run():
    crashed = {"attempted": 1, "failed": 0, "metrics": {}}
    result = run.combine(crashed, [0.3], E2E)
    assert result["failed"] == 1 and not result["correct"]
