"""Execution backends: registry wiring, supervision, and bit-identity.

The contract under test is the tentpole one: every backend returns the
exact values of an undisturbed serial run — supervision (claims,
heartbeats, hung-worker kills, retries, degradation) changes *failure
handling*, never results.  Chaos sabotage (SIGKILL, hang, corrupt,
heartbeat mute, lease contention) is the adversary; serial execution is
the ground truth.  The supervision itself lives in the dir-queue
backend (:mod:`repro.core.distq`), which ``auto`` picks for more than
one worker.
"""

import time

import pytest

from repro.core import registry
from repro.core.backend import LocalSerialBackend
from repro.core.chaos import ChaosMonkey
from repro.core.distq import DirQueue, DirQueueBackend
from repro.core.runner import TrialRunner, TrialSpec
from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import ConfigError


def _square(x):
    return x * x


def _slow_square(x, delay_s):
    time.sleep(delay_s)
    return x * x


def _specs(n=6):
    return [TrialSpec(key=i, fn=_square, args=(i,)) for i in range(n)]


def _values(outcomes):
    return [o.value for o in outcomes]


TRUTH = [i * i for i in range(6)]


# -- registry wiring ----------------------------------------------------------


def test_backend_namespace_registered():
    assert set(registry.known("backend")) == {
        "auto", "local-serial", "dir-queue",
    }


def test_auto_picks_serial_for_one_worker_and_pool_otherwise():
    factory = registry.resolve("backend", "auto")
    assert isinstance(factory(TrialRunner(max_workers=1)), LocalSerialBackend)
    assert isinstance(factory(TrialRunner(max_workers=3)), DirQueueBackend)


def test_named_backends_resolve_to_their_classes():
    for name, cls in (
        ("local-serial", LocalSerialBackend),
        ("dir-queue", DirQueueBackend),
    ):
        backend = registry.resolve("backend", name)(TrialRunner())
        assert isinstance(backend, cls)
        assert backend.name == name


def test_unknown_backend_rejected_at_construction():
    with pytest.raises(ConfigError, match="unknown execution backend"):
        TrialRunner(backend="teleport")


@pytest.mark.parametrize("name", ["local-process", "local-supervised"])
def test_deleted_backends_rejected_with_live_choices(name):
    with pytest.raises(ConfigError, match="dir-queue") as info:
        TrialRunner(backend=name)
    assert "local-serial" in str(info.value)


def test_supervision_parameters_validated():
    with pytest.raises(ConfigError, match="lease_ttl_s"):
        TrialRunner(lease_ttl_s=0)
    with pytest.raises(ConfigError, match="heartbeat_interval_s"):
        TrialRunner(heartbeat_interval_s=-1)
    with pytest.raises(ConfigError, match="quarantine_after"):
        TrialRunner(quarantine_after=0)
    for knob in ("breaker_threshold", "max_lease_extensions", "retry_seed",
                 "retry_backoff_base_s", "retry_backoff_cap_s",
                 "campaign_retry_budget"):
        with pytest.raises(TypeError):
            TrialRunner(**{knob: 1})


# -- bit-identity across backends ---------------------------------------------


@pytest.mark.parametrize("backend", ["local-serial", "dir-queue", "auto"])
def test_every_backend_matches_serial_truth(backend):
    outcomes = TrialRunner(
        max_workers=2, backend=backend, trial_timeout_s=30.0
    ).run(_specs())
    assert _values(outcomes) == TRUTH


def test_supervised_grants_one_lease_per_trial():
    telemetry = CampaignTelemetry()
    TrialRunner(max_workers=2, telemetry=telemetry).run(_specs())
    assert telemetry.claims_won == 6
    assert telemetry.leases_reclaimed == 0


# -- chaos: every sabotage mode recovers bit-identically ----------------------


def test_supervised_survives_sigkill_corrupt_and_hang():
    telemetry = CampaignTelemetry()
    chaos = ChaosMonkey(kill_on={0}, corrupt_on={1}, hang_on={2})
    outcomes = TrialRunner(
        max_workers=2,
        trial_timeout_s=1.0,
        lease_ttl_s=5.0,
        max_attempts=3,
        telemetry=telemetry,
        chaos=chaos,
    ).run(_specs())
    assert _values(outcomes) == TRUTH
    assert telemetry.leases_reclaimed >= 3  # one per sabotaged trial
    assert telemetry.retries == 3
    assert telemetry.timeouts == 1


def test_supervised_kills_muted_worker_as_hung():
    """Heartbeat suppression: the scheduler must SIGKILL, not wait out TTL."""
    telemetry = CampaignTelemetry()
    chaos = ChaosMonkey(mute_on={1})
    started = time.monotonic()
    outcomes = TrialRunner(
        max_workers=2,
        lease_ttl_s=60.0,  # the lease alone would stall for a minute
        heartbeat_interval_s=0.05,
        max_attempts=2,
        telemetry=telemetry,
        chaos=chaos,
    ).run(_specs())
    elapsed = time.monotonic() - started
    assert _values(outcomes) == TRUTH
    assert telemetry.heartbeats_missed >= 1
    assert telemetry.leases_reclaimed >= 1
    assert elapsed < 30.0  # caught by missed heartbeats, not the lease TTL


def test_supervised_kills_the_only_hung_worker():
    """With one worker there is no peer to reclaim a hung trial: the
    scheduler's own heartbeat watch must still finish the campaign."""
    chaos = ChaosMonkey(mute_on={0})
    outcomes = TrialRunner(
        max_workers=1,
        backend="dir-queue",
        lease_ttl_s=60.0,
        heartbeat_interval_s=0.05,
        chaos=chaos,
    ).run(_specs(3))
    assert _values(outcomes) == TRUTH[:3]


def test_supervised_extends_lease_for_slow_but_alive_worker():
    """Healthy heartbeats past the lease TTL mean *slow*, not hung."""
    telemetry = CampaignTelemetry()
    specs = [TrialSpec(key=0, fn=_slow_square, args=(3, 0.6))]
    outcomes = TrialRunner(
        max_workers=2,
        lease_ttl_s=0.15,
        heartbeat_interval_s=0.03,
        telemetry=telemetry,
    ).run(specs)
    assert _values(outcomes) == [9]
    assert outcomes[0].attempts == 1  # never reclaimed: the beats kept it
    assert telemetry.leases_reclaimed == 0
    assert telemetry.heartbeats_missed == 0


def test_supervised_waits_out_and_reclaims_contended_lease():
    telemetry = CampaignTelemetry()
    chaos = ChaosMonkey(contend_on={2})
    outcomes = TrialRunner(
        max_workers=2,
        lease_ttl_s=0.5,
        telemetry=telemetry,
        chaos=chaos,
    ).run(_specs())
    assert _values(outcomes) == TRUTH
    kinds = [e.kind for e in telemetry.events]
    assert "lease-contended" in kinds
    assert "lease-reclaimed" in kinds
    # Exactly one result for the contended trial: no double-count.
    assert sum(1 for o in outcomes if o.key == 2) == 1


# -- degradation --------------------------------------------------------------


def test_breaker_trip_completes_campaign_via_degradation():
    """Workers dying faster than the respawn budget covers trip the
    backend off the queue; in-process serial finishes the campaign."""
    telemetry = CampaignTelemetry()
    chaos = ChaosMonkey(kill_all_attempts_on={0, 1, 2})
    outcomes = TrialRunner(
        max_workers=2,
        lease_ttl_s=5.0,
        max_attempts=10,  # keep attempt exhaustion out of this test
        quarantine_after=10,  # ... and quarantine
        telemetry=telemetry,
        chaos=chaos,
    ).run(_specs())
    assert _values(outcomes) == TRUTH
    degraded = [e for e in telemetry.events if e.kind == "degraded"]
    assert len(degraded) == 1
    assert "respawn budget" in degraded[0].detail


# -- a foreign claim left in a shared queue dir -------------------------------


def test_expired_foreign_lease_is_reclaimed_not_double_run(tmp_path):
    """A claim left by a dead foreign owner delays the trial but never
    duplicates it: exactly one fresh result, counted once."""
    from repro.core.distq import _specs_fingerprint

    queue_dir = str(tmp_path / "q")
    queue = DirQueue(queue_dir, ttl_s=0.2)
    queue.setup({"fingerprint": _specs_fingerprint(_specs()), "ttl_s": 0.2})
    queue.try_claim_fresh(DirQueue.task_id(2), "dead-host:1:1")

    telemetry = CampaignTelemetry()
    outcomes = TrialRunner(
        max_workers=2,
        backend="dir-queue",
        queue_dir=queue_dir,
        lease_ttl_s=0.2,
        telemetry=telemetry,
    ).run(_specs())
    assert _values(outcomes) == TRUTH
    assert sum(1 for o in outcomes if o.key == 2) == 1
    assert any(
        e.kind == "lease-reclaimed" and e.key == 2 for e in telemetry.events
    )
    assert queue.distinct_deaths(DirQueue.task_id(2)) == ["dead-host:1:1"]
