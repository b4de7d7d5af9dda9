"""Execution backends: *where* campaign trials run.

:class:`~repro.core.runner.TrialRunner` owns the campaign-level concerns
every execution strategy shares — journal resume, telemetry, streaming —
and delegates the actual running of trials to an
:class:`ExecutionBackend` resolved by name through the ninth registry
namespace, ``backend``:

``local-serial``
    In-process, one trial at a time.  No pickling requirements, no
    timeout enforcement, no sabotage surface — the ground truth every
    other backend must be bit-identical to.
``dir-queue``
    Long-lived worker processes draining a file-based job queue
    (:mod:`repro.core.distq`): fenced claims, heartbeats, hung-worker
    reclaim, per-attempt timeouts and retries, poison-trial quarantine.
    Other hosts' ``repro worker`` processes may join a shared queue
    directory.  Degrades straight to ``local-serial`` when the directory
    or the worker fleet stops cooperating.
``auto``
    ``local-serial`` for ``max_workers == 1``, else ``dir-queue`` on a
    private temporary directory.

Every backend receives the *dense* spec list (journal-resume holes
already removed by the runner) and must return bit-identical values for
identical specs: where a trial runs changes failure handling, never
results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.journal import TrialJournal
from repro.core.registry import register
from repro.core.runner import TrialOutcome, TrialRunner, TrialSpec


class ExecutionBackend:
    """Contract: run a dense spec list, return outcomes in dense indices.

    Backends borrow the runner's low-level mechanics (``_run_serial``,
    ``_context``, ``_record``, ``_emit``) rather than reimplementing
    them, so tests that monkeypatch those methods govern every backend
    uniformly.
    """

    #: Registry name of the backend.
    name = "abstract"

    def __init__(self, runner: TrialRunner) -> None:
        self.runner = runner

    def run(
        self,
        specs: Sequence[TrialSpec],
        journal: Optional[TrialJournal] = None,
    ) -> List[TrialOutcome]:
        raise NotImplementedError


class LocalSerialBackend(ExecutionBackend):
    """Everything in-process, in order — the bit-identity ground truth."""

    name = "local-serial"

    def run(self, specs, journal=None):
        runner = self.runner
        return [
            runner._run_serial(index, spec, journal)
            for index, spec in enumerate(specs)
        ]


@register("backend", "local-serial")
def make_local_serial(runner: TrialRunner) -> ExecutionBackend:
    return LocalSerialBackend(runner)


@register("backend", "auto")
def make_auto(runner: TrialRunner) -> ExecutionBackend:
    """Serial for one worker, the dir-queue on a private temp dir otherwise."""
    if runner.max_workers == 1:
        return LocalSerialBackend(runner)
    from repro.core.distq import DirQueueBackend

    return DirQueueBackend(runner)
