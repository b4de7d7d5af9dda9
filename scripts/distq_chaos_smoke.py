#!/usr/bin/env python
"""Dir-queue chaos smoke: queue execution must never change results.

CI runs this end-to-end check on every push (it also runs fine locally).
Each leg is checked against the same serial ground truth:

1. chaos — the ``dir-queue`` backend with four workers while a
   :class:`~repro.core.chaos.ChaosMonkey` SIGKILLs one trial's worker,
   mutes another's heartbeats (the scheduler must kill it as *hung*
   after a few heartbeat periods, well before the lease TTL), plants a
   foreign claim on a third (contention: wait it out, take over with a
   higher fencing token, run exactly once) and corrupts a fourth's
   result payload (a failed attempt, re-run by another worker);
2. hung trial — a trial that never returns is ended by
   ``trial_timeout_s``, recorded as a timed-out attempt and re-run;
3. stale fence — a paused worker holding fencing token 1 tries to
   commit after a reclaimer was issued token 2; the commit must be
   provably rejected (:class:`StaleLeaseError` with both tokens, a
   stale marker on disk, no result file) and the reclaimer's commit
   must pass through the same fence untouched;
4. kill the scheduler — a ``repro serve`` spool job is SIGKILLed
   mid-campaign (after at least one trial has been journalled); a
   fresh scheduler pointed at the same spool must finish the job from
   the journal alone, duplicate-free and bit-identical to a local
   serial sweep of the same envelope;
5. read-only degrade — the queue directory stops being writable
   mid-campaign; the backend must degrade to ``local-serial`` and still
   complete bit-identically;
6. journalled kill, resume, compact, resume — a journalled campaign
   where one trial is SIGKILLed on every attempt (a journalled failure)
   is resumed over a queue dir holding a dead foreign worker's claim on
   another trial; the resume must reclaim it, run it exactly once and
   match the truth — then the journal is compacted and must still
   resume every trial from disk with identical values.

Exits 0 on success, 1 with a diagnostic on any mismatch.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.core.chaos import ChaosMonkey
from repro.core.config import Scenario
from repro.core.distq import DirQueue, DirQueueBackend
from repro.core.journal import (
    campaign_fingerprint,
    compact_journal,
    inspect_journal,
    open_journal,
    read_completed,
)
from repro.core.runner import TrialRunner, TrialSpec
from repro.core.serve import (
    decode_result_value,
    serve_spool,
    submit_job,
    tail_results,
)
from repro.core.sweep import _run_scenario_trial, sweep_scenario
from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import StaleLeaseError

BASE = Scenario(
    num_nodes=10,
    road_length_m=900.0,
    sim_time_s=15.0,
    senders=(1, 2),
    traffic_start_s=2.0,
    traffic_stop_s=12.0,
    dawdle_p=0.0,
    seed=3,
    faults=[{"kind": "node-crash", "nodes": [3], "at_s": 5.0, "down_s": 4.0}],
)
TRIALS = 5
#: Lease TTL of the chaos leg: only the foreign (ghost) claim waits it out.
LEASE_TTL_S = 3.0


def make_specs():
    return [
        TrialSpec(
            key=("distq", trial),
            fn=_run_scenario_trial,
            args=(dataclasses.replace(BASE, seed=BASE.seed + 1000 * trial),),
        )
        for trial in range(TRIALS)
    ]


def fingerprint_of(results):
    return [
        (
            r.pdr(),
            r.collector.num_originated,
            r.collector.num_delivered,
            r.frames_on_air,
            r.delay_stats().mean_s,
            r.channel_telemetry.events_processed,
            len(r.fault_events),
        )
        for r in results
    ]


def values_in_order(outcomes):
    ordered = sorted(outcomes, key=lambda o: o.index)
    return [o.value for o in ordered]


def _leg_1_chaos(truth, workdir) -> bool:
    print("[1/6] dir-queue chaos: 4 workers, SIGKILL + mute + contention "
          "+ corrupt")
    chaos = ChaosMonkey(kill_on={0}, mute_on={1}, contend_on={2},
                        corrupt_on={3})
    telemetry = CampaignTelemetry()
    started = time.monotonic()
    outcomes = TrialRunner(
        max_workers=4,
        backend="dir-queue",
        queue_dir=str(workdir / "chaos-queue"),
        lease_ttl_s=LEASE_TTL_S,
        heartbeat_interval_s=0.1,  # a silent worker is killed in ~0.35 s
        max_attempts=3,
        telemetry=telemetry,
        chaos=chaos,
    ).run(make_specs())
    elapsed = time.monotonic() - started
    if any(not o.ok for o in outcomes):
        print("FAIL: dir-queue chaos campaign did not recover every trial")
        return False
    if telemetry.claims_won < TRIALS:
        print(f"FAIL: expected >= {TRIALS} claims, "
              f"got {telemetry.claims_won}")
        return False
    if telemetry.leases_reclaimed < 3:
        print("FAIL: expected reclaims for the killed, muted and corrupt "
              f"trials, got {telemetry.leases_reclaimed}")
        return False
    if telemetry.heartbeats_missed < 1:
        print("FAIL: the muted worker was not caught by heartbeat watching")
        return False
    kinds = {e.kind for e in telemetry.events}
    if "lease-contended" not in kinds:
        print("FAIL: lease contention was never planted")
        return False
    if "result-corrupt" not in kinds:
        print("FAIL: the corrupt result payload was never detected")
        return False
    if telemetry.retries < 4:
        print(f"FAIL: expected a retry per sabotaged trial, got "
              f"{telemetry.retries}")
        return False
    if elapsed < LEASE_TTL_S:
        print("FAIL: the foreign claim was taken over before its TTL")
        return False
    chaotic = fingerprint_of(values_in_order(outcomes))
    if chaotic != truth:
        print("FAIL: dir-queue chaos campaign differs from the truth")
        print(f"  truth: {truth}")
        print(f"  chaos: {chaotic}")
        return False
    return True


def _leg_2_hung_trial(truth, workdir) -> bool:
    print("[2/6] hung trial: ended by trial_timeout_s, then re-run")
    chaos = ChaosMonkey(hang_on={1})
    telemetry = CampaignTelemetry()
    outcomes = TrialRunner(
        max_workers=2,
        backend="dir-queue",
        queue_dir=str(workdir / "hang-queue"),
        trial_timeout_s=15.0,
        max_attempts=2,
        telemetry=telemetry,
        chaos=chaos,
    ).run(make_specs())
    if any(not o.ok for o in outcomes):
        print("FAIL: the hung trial was not recovered")
        return False
    if telemetry.timeouts != 1 or telemetry.retries != 1:
        print("FAIL: expected one timed-out attempt and one retry, got "
              f"timeouts={telemetry.timeouts}, retries={telemetry.retries}")
        return False
    if fingerprint_of(values_in_order(outcomes)) != truth:
        print("FAIL: the re-run of the hung trial differs from the truth")
        return False
    return True


def _leg_3_stale_fence(workdir) -> bool:
    print("[3/6] stale fence: a fenced-out worker's late commit is rejected")
    queue = DirQueue(str(workdir / "fence-queue"), ttl_s=30.0)
    queue.setup({"fingerprint": "fence-smoke", "ttl_s": 30.0,
                 "quarantine_after": 3, "max_attempts": 2,
                 "heartbeat_s": 1.0, "trial_timeout_s": None})
    tid = queue.enqueue({"key": 0, "fn": None, "args": (), "kwargs": {},
                         "index": 0, "chaos_mode": None, "kill_all": False})
    stale = queue.try_claim_fresh(tid, "paused-host:111:1")
    reclaim = queue.try_takeover(tid, "reclaimer-host:222:1", stale)
    if stale is None or reclaim is None or reclaim.token != stale.token + 1:
        print("FAIL: claim/takeover protocol did not issue fencing tokens")
        return False
    record = {"status": "ok", "value": 41, "attempts": 1, "wall_clock_s": 0.1}
    try:
        queue.commit_result(tid, stale.owner, stale.token, record)
    except StaleLeaseError as error:
        if (error.token, error.current) != (stale.token, reclaim.token):
            print(f"FAIL: stale rejection lacked evidence: {error}")
            return False
    else:
        print("FAIL: the fenced-out commit was accepted")
        return False
    if queue.has_result(tid):
        print("FAIL: the rejected commit still left a result behind")
        return False
    if not any(m.startswith(tid) for m in queue.stale_markers()):
        print("FAIL: no stale marker was written for the audit trail")
        return False
    queue.commit_result(
        tid, reclaim.owner, reclaim.token,
        {"status": "ok", "value": 42, "attempts": 2, "wall_clock_s": 0.1},
    )
    committed = queue.read_result(tid)
    if committed["value"] != 42 or committed["token"] != reclaim.token:
        print("FAIL: the rightful holder's commit did not land")
        return False
    return True


def _is_trial_record(line: str) -> bool:
    try:
        return json.loads(line).get("kind") == "trial"
    except ValueError:
        return False  # torn tail mid-poll


def _leg_4_kill_scheduler(workdir) -> bool:
    print("[4/6] kill the scheduler mid-job, restart, resume from spool")
    spool = str(workdir / "spool")
    envelope = {
        "scenario": BASE.to_dict(),
        "field": "num_nodes",
        "values": [10, 12],
        "trials": 2,
        "max_workers": 2,
    }
    name = submit_job(spool, dict(envelope))
    job_dir = os.path.join(spool, "jobs", name)
    journal_path = os.path.join(job_dir, "journal.jsonl")
    done_marker = os.path.join(job_dir, "done")

    context = multiprocessing.get_context("fork")
    scheduler = context.Process(
        target=serve_spool, args=(spool,), kwargs={"once": True}
    )
    scheduler.start()
    # Wait until at least one trial has been journalled, then SIGKILL the
    # scheduler with the job still unfinished — the exact crash window a
    # resume must cover.
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if os.path.exists(done_marker):
            break
        try:
            with open(journal_path, "r", encoding="utf-8") as handle:
                if any(_is_trial_record(line) for line in handle):
                    break
        except OSError:
            pass
        time.sleep(0.05)
    else:
        print("FAIL: the scheduler never journalled a trial")
        return False
    killed_midway = not os.path.exists(done_marker)
    os.kill(scheduler.pid, signal.SIGKILL)
    scheduler.join(timeout=30)
    if not killed_midway:
        # The job outran the kill window; resubmitting still proves the
        # restart path — everything must come back from the journal.
        submit_job(spool, dict(envelope))

    telemetry = CampaignTelemetry()
    if serve_spool(spool, once=True, telemetry=telemetry) != 1:
        print("FAIL: the restarted scheduler did not pick up the dead job")
        return False
    if killed_midway and telemetry.trials_resumed < 1:
        print("FAIL: the restarted scheduler re-ran journalled trials")
        return False
    if not os.path.exists(done_marker):
        print("FAIL: the resumed job never finished")
        return False
    with open(done_marker, "r", encoding="utf-8") as handle:
        summary = json.load(handle)
    if summary["ok"] != 4 or summary["failed"] != 0:
        print(f"FAIL: resumed job summary wrong: {summary}")
        return False

    records = list(tail_results(job_dir, follow=False))
    keys = [tuple(r["key"]) for r in records]
    if len(keys) != len(set(keys)) or len(keys) != 4:
        print(f"FAIL: results stream not duplicate-free: {sorted(keys)}")
        return False
    served = {
        tuple(r["key"]): fingerprint_of([decode_result_value(r)])[0]
        for r in records
    }
    local = sweep_scenario(BASE, "num_nodes", [10, 12], trials=2)
    serial = {
        (point.value, trial): fingerprint_of([result])[0]
        for point in local.points
        for trial, result in enumerate(point.results)
    }
    if served != serial:
        print("FAIL: served campaign differs from the local serial sweep")
        print(f"  serial: {serial}")
        print(f"  served: {served}")
        return False
    return True


def _leg_5_read_only_degrade(truth, workdir) -> bool:
    print("[5/6] read-only queue dir: degrade to local-serial, identical")
    original = DirQueueBackend.__dict__["_probe_writable"]  # staticmethod
    DirQueueBackend._probe_writable = staticmethod(lambda root: False)
    try:
        telemetry = CampaignTelemetry()
        outcomes = TrialRunner(
            max_workers=2,
            backend="dir-queue",
            queue_dir=str(workdir / "ro-queue"),
            lease_ttl_s=5.0,
            telemetry=telemetry,
        ).run(make_specs())
    finally:
        DirQueueBackend._probe_writable = original
    if any(not o.ok for o in outcomes):
        print("FAIL: read-only degradation lost trials")
        return False
    degraded = [e for e in telemetry.events if e.kind == "degraded"]
    if (
        not degraded
        or "writable" not in degraded[0].detail
        or "local-serial" not in degraded[0].detail
    ):
        print(f"FAIL: no read-only degradation to local-serial "
              f"(got {degraded})")
        return False
    if fingerprint_of(values_in_order(outcomes)) != truth:
        print("FAIL: degraded campaign differs from the truth")
        return False
    return True


def _leg_6_journal_round_trip(truth, workdir) -> bool:
    print("[6/6] journalled kill + stale claim, resume, compact, resume")
    journal_path = str(workdir / "campaign.jsonl")
    fingerprint = campaign_fingerprint(
        kind="distq-chaos-smoke", scenario=BASE.to_dict(), trials=TRIALS
    )
    journal = open_journal(journal_path, fingerprint, resume=False)
    try:
        outcomes = TrialRunner(
            max_workers=4,
            max_attempts=2,
            chaos=ChaosMonkey(kill_all_attempts_on={1}),
        ).run(make_specs()[:4], journal=journal)
    finally:
        journal.close()
    failed = [o.key for o in outcomes if not o.ok]
    if failed != [("distq", 1)]:
        print(f"FAIL: expected trial 1 as the one journalled failure, "
              f"got {failed}")
        return False

    # A worker on another host died holding trial 4 in the queue dir the
    # resume runs over: the resume must wait its claim out and reclaim.
    queue_dir = str(workdir / "resume-queue")
    queue = DirQueue(queue_dir, ttl_s=0.5)
    queue.setup({"fingerprint": fingerprint, "ttl_s": 0.5})
    queue.try_claim_fresh(DirQueue.task_id(("distq", 4)), "dead-host:1:1")
    telemetry = CampaignTelemetry()
    journal = open_journal(journal_path, fingerprint, resume=True)
    try:
        outcomes = TrialRunner(
            max_workers=4,
            backend="dir-queue",
            queue_dir=queue_dir,
            lease_ttl_s=0.5,
            telemetry=telemetry,
        ).run(make_specs(), journal=journal)
    finally:
        journal.close()
    if any(not o.ok for o in outcomes):
        print("FAIL: resumed campaign still has failures")
        return False
    if telemetry.trials_resumed != 3:
        print(f"FAIL: expected 3 resumed trials, got "
              f"{telemetry.trials_resumed}")
        return False
    if not any(
        e.kind == "lease-reclaimed" and e.key == ("distq", 4)
        for e in telemetry.events
    ):
        print("FAIL: the dead worker's claim on trial 4 was never reclaimed")
        return False
    if fingerprint_of(values_in_order(outcomes)) != truth:
        print("FAIL: resumed campaign differs from the truth")
        return False

    # Compaction round-trip: resume-relevant state must be untouched.
    completed_before = sorted(read_completed(journal_path, fingerprint))
    bytes_before, bytes_after = compact_journal(journal_path)
    if bytes_after >= bytes_before:
        print("FAIL: compaction did not drop the superseded failure "
              f"({bytes_before} -> {bytes_after})")
        return False
    if sorted(read_completed(journal_path, fingerprint)) != completed_before:
        print("FAIL: compaction changed the journal's completed trials")
        return False
    if inspect_journal(journal_path).superseded != 0:
        print("FAIL: compaction left superseded records behind")
        return False
    telemetry = CampaignTelemetry()
    journal = open_journal(journal_path, fingerprint, resume=True)
    try:
        outcomes = TrialRunner(max_workers=4, telemetry=telemetry).run(
            make_specs(), journal=journal
        )
    finally:
        journal.close()
    if telemetry.trials_resumed != TRIALS:
        print(f"FAIL: compacted journal resumed "
              f"{telemetry.trials_resumed}/{TRIALS} trials")
        return False
    if fingerprint_of(values_in_order(outcomes)) != truth:
        print("FAIL: compacted-journal resume differs from the truth")
        return False
    return True


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="distq-chaos-"))
    print("[0/6] ground truth: serial campaign", flush=True)
    outcomes = TrialRunner(max_workers=1).run(make_specs())
    if any(not o.ok for o in outcomes):
        print("FAIL: ground-truth campaign had failures")
        return 1
    truth = fingerprint_of(values_in_order(outcomes))

    legs = (
        lambda: _leg_1_chaos(truth, workdir),
        lambda: _leg_2_hung_trial(truth, workdir),
        lambda: _leg_3_stale_fence(workdir),
        lambda: _leg_4_kill_scheduler(workdir),
        lambda: _leg_5_read_only_degrade(truth, workdir),
        lambda: _leg_6_journal_round_trip(truth, workdir),
    )
    if not all(leg() for leg in legs):
        return 1
    print(
        "OK: dir-queue chaos, hung-trial timeout, stale-fence rejection, "
        "scheduler kill/resume, read-only degradation and the journal "
        "resume/compact round-trip all bit-identical to serial truth"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
