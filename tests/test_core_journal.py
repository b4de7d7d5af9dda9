"""Trial journal tests: durability, corruption handling, crash/resume.

The flagship scenarios here are the ones the journal exists for: a campaign
killed mid-flight resumes from its journal and produces results
bit-identical to an uninterrupted serial run; a torn final line (the
residue of a crash mid-write) is tolerated; a journal from a *different*
campaign is rejected, never merged.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.fundamental import fundamental_diagram
from repro.analysis.montecarlo import monte_carlo
from repro.core.config import Scenario
from repro.core.journal import (
    SCHEMA_VERSION,
    TrialJournal,
    campaign_fingerprint,
    open_journal,
    read_completed,
    trial_key_id,
)
from repro.core.runner import TrialRunner, TrialSpec
from repro.core.sweep import sweep_scenario
from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import ConfigError, JournalCorruptError
from repro.util.rng import RngStreams

FP = campaign_fingerprint(kind="test", n=3)


def _square(x):
    return x * x


def _specs(count):
    return [TrialSpec(key=(i, 0), fn=_square, args=(i,)) for i in range(count)]


# -- format basics ------------------------------------------------------------


def test_roundtrip(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_success((0.5, 3), {"pdr": 0.9}, attempts=2,
                               wall_clock_s=1.5)
    completed = read_completed(path, FP)
    entry = completed[trial_key_id((0.5, 3))]
    assert entry.value == {"pdr": 0.9}
    assert entry.attempts == 2
    assert entry.wall_clock_s == 1.5


def test_key_identity_survives_json_roundtrip():
    # Tuples and lists collapse to the same identity — exactly what a key
    # that crossed a JSON serialisation needs.
    assert trial_key_id((0.5, 3)) == trial_key_id([0.5, 3])
    assert trial_key_id("AODV") != trial_key_id("OLSR")


def test_fingerprint_sensitivity():
    base = campaign_fingerprint(kind="sweep", values=[1, 2], trials=5)
    assert base == campaign_fingerprint(kind="sweep", values=[1, 2], trials=5)
    assert base != campaign_fingerprint(kind="sweep", values=[1, 3], trials=5)
    assert base != campaign_fingerprint(kind="sweep", values=[1, 2], trials=6)


def test_failures_are_recorded_but_not_resumed(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_failure((1, 0), "boom", attempts=2)
        journal.record_success((2, 0), 42, attempts=1, wall_clock_s=0.1)
    completed = read_completed(path, FP)
    assert trial_key_id((1, 0)) not in completed
    assert completed[trial_key_id((2, 0))].value == 42


def test_torn_final_line_is_tolerated(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_success((0, 0), 0, 1, 0.0)
        journal.record_success((1, 0), 1, 1, 0.0)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-15])  # tear the tail mid-record
    completed = read_completed(path, FP)
    assert set(completed) == {trial_key_id((0, 0))}


def test_midfile_corruption_raises(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_success((0, 0), 0, 1, 0.0)
        journal.record_success((1, 0), 1, 1, 0.0)
    lines = open(path, "rb").read().splitlines(keepends=True)
    lines[1] = b'{"kind": "trial", garbage\n'
    open(path, "wb").write(b"".join(lines))
    with pytest.raises(JournalCorruptError, match="line 2"):
        read_completed(path, FP)


def test_fingerprint_mismatch_rejected(tmp_path):
    path = str(tmp_path / "j.jsonl")
    TrialJournal(path, FP).close()
    with pytest.raises(JournalCorruptError, match="different campaign"):
        read_completed(path, campaign_fingerprint(kind="other"))
    with pytest.raises(JournalCorruptError, match="different campaign"):
        TrialJournal(path, campaign_fingerprint(kind="other"), resume=True)


def test_unknown_schema_rejected(tmp_path):
    path = str(tmp_path / "j.jsonl")
    header = {"kind": "header", "schema": SCHEMA_VERSION + 1,
              "fingerprint": FP}
    open(path, "w").write(json.dumps(header) + "\n")
    with pytest.raises(JournalCorruptError, match="schema"):
        read_completed(path, FP)


def test_missing_header_rejected(tmp_path):
    path = str(tmp_path / "j.jsonl")
    open(path, "w").write('{"kind": "trial"}\n')
    with pytest.raises(JournalCorruptError, match="header"):
        read_completed(path, FP)


def test_resume_without_path_is_a_config_error():
    with pytest.raises(ConfigError, match="journal path"):
        open_journal(None, FP, resume=True)


def test_fresh_open_truncates_stale_journal(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_success((0, 0), 0, 1, 0.0)
    # resume=False: a fresh campaign starts over even if a journal exists.
    TrialJournal(path, FP, resume=False).close()
    assert read_completed(path, FP) == {}


# -- runner integration -------------------------------------------------------


def _poisoned(x, die_at):
    if x >= die_at:
        raise KeyboardInterrupt  # simulated SIGINT/kill mid-campaign
    return x * x


def test_crash_then_resume_matches_uninterrupted_serial(tmp_path):
    path = str(tmp_path / "j.jsonl")
    poisoned = [
        TrialSpec(key=(i, 0), fn=_poisoned, args=(i, 3)) for i in range(6)
    ]
    journal = TrialJournal(path, FP)
    with pytest.raises(KeyboardInterrupt):
        TrialRunner().run(poisoned, journal=journal)
    journal.close()
    assert len(read_completed(path, FP)) == 3

    telemetry = CampaignTelemetry()
    journal = TrialJournal(path, FP, resume=True)
    resumed = TrialRunner(telemetry=telemetry).run(_specs(6), journal=journal)
    journal.close()
    truth = TrialRunner().run(_specs(6))
    assert [o.value for o in resumed] == [o.value for o in truth]
    assert [o.key for o in resumed] == [o.key for o in truth]
    assert [o.index for o in resumed] == [o.index for o in truth]
    assert telemetry.trials_resumed == 3
    assert telemetry.trials_completed == 3
    assert telemetry.trials_failed == 0


def test_resume_after_torn_line_reruns_the_torn_trial(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = TrialJournal(path, FP)
    TrialRunner().run(_specs(4), journal=journal)
    journal.close()
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-10])  # crash tore the last record

    telemetry = CampaignTelemetry()
    journal = TrialJournal(path, FP, resume=True)
    resumed = TrialRunner(telemetry=telemetry).run(_specs(4), journal=journal)
    journal.close()
    assert [o.value for o in resumed] == [0, 1, 4, 9]
    assert telemetry.trials_resumed == 3  # the torn one re-ran
    assert telemetry.trials_completed == 1


def test_parallel_run_journals_and_resumes(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = TrialJournal(path, FP)
    parallel = TrialRunner(max_workers=3).run(_specs(6), journal=journal)
    journal.close()
    assert [o.value for o in parallel] == [0, 1, 4, 9, 16, 25]

    telemetry = CampaignTelemetry()
    journal = TrialJournal(path, FP, resume=True)
    resumed = TrialRunner(max_workers=3, telemetry=telemetry).run(
        _specs(6), journal=journal
    )
    journal.close()
    assert [o.value for o in resumed] == [0, 1, 4, 9, 16, 25]
    assert telemetry.trials_resumed == 6


# -- campaign entry points ----------------------------------------------------

SMALL = Scenario(
    num_nodes=10,
    road_length_m=900.0,
    sim_time_s=15.0,
    senders=(1, 2),
    traffic_start_s=2.0,
    traffic_stop_s=12.0,
    dawdle_p=0.0,
    seed=3,
)


def _sweep_kwargs():
    return dict(
        base=SMALL, field="num_nodes", values=[10, 12], trials=2
    )


def _point_tuples(result):
    return [
        (
            point.value,
            point.pdr_mean,
            point.pdr_std,
            point.delay_mean_s,
            point.control_packets_mean,
            [r.pdr() for r in point.results],
        )
        for point in result.points
    ]


def test_sweep_interrupted_and_resumed_is_bit_identical(
    tmp_path, monkeypatch
):
    import repro.core.sweep as sweep_mod

    truth = sweep_scenario(**_sweep_kwargs())

    path = str(tmp_path / "sweep.jsonl")
    real_trial = sweep_mod._run_scenario_trial
    calls = {"n": 0}

    def dying_trial(scenario):
        if calls["n"] >= 3:
            raise KeyboardInterrupt  # the simulated kill -9 at trial 4/4
        calls["n"] += 1
        return real_trial(scenario)

    monkeypatch.setattr(sweep_mod, "_run_scenario_trial", dying_trial)
    with pytest.raises(KeyboardInterrupt):
        sweep_scenario(**_sweep_kwargs(), journal_path=path)
    monkeypatch.setattr(sweep_mod, "_run_scenario_trial", real_trial)

    telemetry = CampaignTelemetry()
    resumed = sweep_scenario(
        **_sweep_kwargs(),
        journal_path=path,
        resume=True,
        telemetry=telemetry,
    )
    assert telemetry.trials_resumed == 3
    assert telemetry.trials_completed == 1
    # Bit-identical: every float of every point, including raw per-trial
    # results, matches the uninterrupted serial run.
    assert _point_tuples(resumed) == _point_tuples(truth)


def test_sweep_journal_rejects_changed_grid(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    sweep_scenario(**_sweep_kwargs(), journal_path=path)
    with pytest.raises(JournalCorruptError, match="different campaign"):
        sweep_scenario(
            base=SMALL,
            field="num_nodes",
            values=[10, 14],  # different grid -> different fingerprint
            trials=2,
            journal_path=path,
            resume=True,
        )


def test_sweep_resume_with_torn_tail(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    truth = sweep_scenario(**_sweep_kwargs(), journal_path=path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-25])

    telemetry = CampaignTelemetry()
    resumed = sweep_scenario(
        **_sweep_kwargs(),
        journal_path=path,
        resume=True,
        telemetry=telemetry,
    )
    assert telemetry.trials_resumed == 3
    assert telemetry.trials_completed == 1
    assert _point_tuples(resumed) == _point_tuples(truth)


def test_fundamental_resume_matches_fresh(tmp_path):
    path = str(tmp_path / "fd.jsonl")
    kwargs = dict(
        densities=[0.1, 0.3],
        p=0.3,
        num_cells=60,
        trials=3,
        steps=40,
    )
    truth = fundamental_diagram(rng=RngStreams(7), **kwargs)
    fundamental_diagram(rng=RngStreams(7), journal_path=path, **kwargs)
    telemetry = CampaignTelemetry()
    resumed = fundamental_diagram(
        rng=RngStreams(7),
        journal_path=path,
        resume=True,
        telemetry=telemetry,
        **kwargs,
    )
    assert telemetry.trials_resumed == 6
    assert telemetry.trials_completed == 0
    np.testing.assert_array_equal(resumed.flows, truth.flows)
    np.testing.assert_array_equal(resumed.flow_std, truth.flow_std)
    assert resumed.total_failed == 0


def _mc_experiment(generator):
    return generator.normal(size=3)


def test_monte_carlo_resume_matches_fresh(tmp_path):
    path = str(tmp_path / "mc.jsonl")
    truth = monte_carlo(_mc_experiment, trials=5, rng=RngStreams(11))
    monte_carlo(
        _mc_experiment, trials=5, rng=RngStreams(11), journal_path=path
    )
    telemetry = CampaignTelemetry()
    resumed = monte_carlo(
        _mc_experiment,
        trials=5,
        rng=RngStreams(11),
        journal_path=path,
        resume=True,
        telemetry=telemetry,
    )
    assert telemetry.trials_resumed == 5
    np.testing.assert_array_equal(resumed.samples, truth.samples)
    np.testing.assert_array_equal(resumed.mean, truth.mean)


# -- legacy supervision records: leases, heartbeats, events -------------------


def _append_legacy(path, key):
    """Lease/heartbeat/event lines as earlier versions wrote them."""
    key_id = trial_key_id(key)
    with open(path, "a", encoding="utf-8") as handle:
        for record in (
            {"kind": "lease", "key": key_id, "owner": "o", "attempt": 1,
             "deadline": 1.0e12},
            {"kind": "heartbeat", "key": key_id, "owner": "o", "seq": 1,
             "t": 0.0},
            {"kind": "event", "event": "degraded",
             "detail": "local-process->local-serial", "t": 0.0},
        ):
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def test_supervision_records_are_invisible_to_read_completed(tmp_path):
    path = str(tmp_path / "mixed.jsonl")
    TrialJournal(path, FP).close()
    _append_legacy(path, (0, 0))
    with TrialJournal(path, FP, resume=True) as journal:
        journal.record_success((0, 0), 42, attempts=1, wall_clock_s=0.1)
    completed = read_completed(path, FP)
    assert completed[trial_key_id((0, 0))].value == 42
    assert len(completed) == 1


#: A journal written by the earlier ``local-supervised`` backend: trial,
#: lease, heartbeat and event lines from a 3-trial campaign (trial 1 was
#: killed, failed and re-run serially) plus a quarantine of trial 3.
LEGACY_JOURNAL = (
    Path(__file__).parent / "fixtures" / "legacy_supervised_journal.jsonl"
)
LEGACY_FP = campaign_fingerprint(kind="legacy-supervised-fixture", n=4)


def _legacy_specs():
    return [
        TrialSpec(key=("legacy", i), fn=_square, args=(i,)) for i in range(5)
    ]


def _resume_legacy(path):
    journal = open_journal(path, LEGACY_FP, resume=True)
    telemetry = CampaignTelemetry()
    try:
        outcomes = TrialRunner(max_workers=2, telemetry=telemetry).run(
            _legacy_specs(), journal=journal
        )
    finally:
        journal.close()
    return outcomes, telemetry


def test_legacy_supervised_journal_still_resumes(tmp_path):
    path = str(tmp_path / "legacy.jsonl")
    shutil.copy(LEGACY_JOURNAL, path)
    with open_journal(path, LEGACY_FP, resume=True) as journal:
        assert {
            key: entry.value for key, entry in journal.completed.items()
        } == {trial_key_id(("legacy", i)): i * i for i in range(3)}
        assert set(journal.quarantined) == {trial_key_id(("legacy", 3))}
    outcomes, telemetry = _resume_legacy(path)
    assert telemetry.trials_resumed == 3
    assert [o.value for o in outcomes if o.ok] == [0, 1, 4, 16]
    assert outcomes[3].error.startswith("quarantined: killed 2 distinct")


def test_legacy_supervised_journal_inspects_and_compacts(tmp_path):
    from repro.core.journal import (
        compact_journal,
        inspect_journal,
        read_quarantine,
    )

    path = str(tmp_path / "legacy.jsonl")
    shutil.copy(LEGACY_JOURNAL, path)
    stats = inspect_journal(path)
    assert (stats.trials_ok, stats.trials_failed) == (3, 1)
    assert stats.distinct_completed == 3
    assert stats.legacy == 13
    assert stats.quarantined == 1
    completed = read_completed(path, LEGACY_FP)
    parked = read_quarantine(path, LEGACY_FP)

    compact_journal(path)
    stats = inspect_journal(path)
    assert (stats.legacy, stats.superseded, stats.trials_failed) == (0, 0, 0)
    assert read_completed(path, LEGACY_FP) == completed
    assert read_quarantine(path, LEGACY_FP) == parked
    outcomes, telemetry = _resume_legacy(path)
    assert telemetry.trials_resumed == 3
    assert [o.value for o in outcomes if o.ok] == [0, 1, 4, 16]


# -- inspect / compact --------------------------------------------------------


def _write_busy_journal(path):
    """A journal with superseded records worth compacting."""
    TrialJournal(path, FP).close()
    _append_legacy(path, (0, 0))
    with TrialJournal(path, FP, resume=True) as journal:
        journal.record_failure((0, 0), "first try died", attempts=1)
        journal.record_success((0, 0), 7, attempts=2, wall_clock_s=0.2)
    _append_legacy(path, (1, 0))


def test_inspect_journal_counts_every_record_kind(tmp_path):
    from repro.core.journal import inspect_journal

    path = str(tmp_path / "busy.jsonl")
    _write_busy_journal(path)
    stats = inspect_journal(path)
    assert stats.fingerprint == FP
    assert stats.schema == SCHEMA_VERSION
    assert stats.trials_ok == 1
    assert stats.trials_failed == 1
    assert stats.distinct_completed == 1
    assert stats.legacy == 6  # lease + heartbeat + event, twice
    assert not stats.torn_tail
    assert stats.size_bytes > 0
    assert stats.superseded == 7  # the legacy lines and the failure


def test_compact_preserves_resume_state_and_shrinks(tmp_path):
    from repro.core.journal import compact_journal, inspect_journal

    path = str(tmp_path / "busy.jsonl")
    _write_busy_journal(path)
    before_completed = read_completed(path, FP)

    bytes_before, bytes_after = compact_journal(path)
    assert bytes_after < bytes_before

    # Resume-relevant state is byte-for-byte what it was: completed
    # values and the fingerprint both survive.
    assert read_completed(path, FP) == before_completed
    stats = inspect_journal(path)
    assert stats.legacy == 0  # legacy supervision lines are always dropped
    assert stats.superseded == 0  # nothing left to drop: idempotent
    again_before, again_after = compact_journal(path)
    assert again_before == again_after


def test_compact_to_separate_output_leaves_original(tmp_path):
    from repro.core.journal import compact_journal

    path = str(tmp_path / "busy.jsonl")
    out = str(tmp_path / "compacted.jsonl")
    _write_busy_journal(path)
    original = open(path, "rb").read()
    compact_journal(path, output=out)
    assert open(path, "rb").read() == original
    assert read_completed(out, FP) == read_completed(path, FP)


def test_compacted_journal_resumes_a_real_campaign(tmp_path):
    """The flagship round-trip: run half, compact, resume — identical."""
    from repro.core.journal import compact_journal

    path = str(tmp_path / "campaign.jsonl")
    specs = _specs(6)
    truth = [o.value for o in TrialRunner().run(specs)]

    journal = open_journal(path, FP, resume=False)
    try:
        TrialRunner(max_workers=2, backend="dir-queue").run(
            specs[:3], journal=journal
        )
    finally:
        journal.close()
    compact_journal(path)

    journal = open_journal(path, FP, resume=True)
    telemetry = CampaignTelemetry()
    try:
        outcomes = TrialRunner(
            max_workers=2, backend="dir-queue", telemetry=telemetry
        ).run(specs, journal=journal)
    finally:
        journal.close()
    assert [o.value for o in outcomes] == truth
    assert telemetry.trials_resumed == 3  # the compacted half was kept


# -- quarantine and fencing records -------------------------------------------


def test_quarantine_record_roundtrips_and_releases_lease(tmp_path):
    from repro.core.journal import read_quarantine

    path = str(tmp_path / "poison.jsonl")
    with TrialJournal(path, FP) as journal:
        record = journal.record_quarantine(
            (3, 0),
            owners=["vm-a:11:1", "vm-b:22:2", "vm-a:11:1"],
            attempts=2,
            traceback_text="Fatal Python error: Segmentation fault",
        )
        # Duplicate owners collapse.
        assert record.owners == ("vm-a:11:1", "vm-b:22:2")
        assert journal.quarantined == {trial_key_id((3, 0)): record}
    parked = read_quarantine(path, FP)
    assert parked == {trial_key_id((3, 0)): record}
    assert "Segmentation fault" in parked[trial_key_id((3, 0))].traceback


def test_ok_trial_record_lifts_a_quarantine(tmp_path):
    from repro.core.journal import read_quarantine

    path = str(tmp_path / "poison.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_quarantine((3, 0), owners=["a:1:1"], attempts=2)
        # An operator fixed the environment and re-ran the trial.
        journal.record_success((3, 0), 9, attempts=3, wall_clock_s=0.1)
    assert read_quarantine(path, FP) == {}


def test_resume_loads_quarantine_state(tmp_path):
    path = str(tmp_path / "poison.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_quarantine((5, 0), owners=["a:1:1"], attempts=2)
    with TrialJournal(path, FP, resume=True) as journal:
        assert trial_key_id((5, 0)) in journal.quarantined


def test_inspect_and_compact_preserve_quarantine(tmp_path):
    from repro.core.journal import (
        compact_journal,
        inspect_journal,
        read_quarantine,
    )

    path = str(tmp_path / "busy.jsonl")
    _write_busy_journal(path)
    with TrialJournal(path, FP, resume=True) as journal:
        journal.record_quarantine(
            (2, 0), owners=["a:1:1", "b:2:2"], attempts=2,
            traceback_text="boom",
        )
    assert inspect_journal(path).quarantined == 1
    before = read_quarantine(path, FP)
    compact_journal(path)
    assert read_quarantine(path, FP) == before
    assert inspect_journal(path).quarantined == 1


def test_journal_creation_fsyncs_parent_directory(tmp_path, monkeypatch):
    """Journal birth is durable: the parent dir is fsynced so the file's
    directory entry survives a power cut, not just its bytes."""
    import repro.core.journal as journal_mod

    synced = []
    monkeypatch.setattr(
        journal_mod, "fsync_directory", lambda p: synced.append(p)
    )
    path = str(tmp_path / "fresh.jsonl")
    TrialJournal(path, FP).close()
    assert synced == [str(tmp_path)]
