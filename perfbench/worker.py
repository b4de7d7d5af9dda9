"""One benchmark process: set up, warm up, then time a workload.

Started by ``run.py`` (never by hand), with ``src`` on ``PYTHONPATH``.
``--setup-only`` stops once the process is ready to time, which is how
``run.py`` samples set-up time.  Otherwise the last stdout line is a
JSON object with the workload's measurements, counts and stamp.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import json
import os
import platform
import signal
import statistics
import struct
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

#: Scratch space inside the checkout (``workloads.SCRATCH``).
SCRATCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".perfbench_cache",
)
#: Iterations of the host-speed probe loop: about 60 us on an idle
#: Sapphire Rapids core, 85-120 us when the host is in its slow state.
PROBE_ITERATIONS = 1_000
#: Wall time between two host probes while work is timed.
PROBE_INTERVAL_S = 0.01
#: The probe time that corrected times are scaled to: the loop's fast
#: state on the reference box (2-vCPU KVM guest, Xeon Sapphire Rapids).
PROBE_REFERENCE_S = 60e-6
#: How much harder the host's slow state hits the simulator than the
#: probe loop: over one 10-seed set of units, log(unit time) rose 1.47x
#: (table1), 1.49x (ring3000) and 1.37x (fig4_ensemble) as fast as
#: log(probe time).  Each probe's speed ratio is raised to this power.
PROBE_SENSITIVITY = 1.4


def setup(workload_class):
    """The timed set-up: import the modules the workload runs (which
    fills the component registry) and resolve the kernel backend (the
    generated-C library loads from the warm cache)."""
    import importlib

    for module in workload_class.modules:
        importlib.import_module(module)
    from repro.kernels import resolve_backend

    return resolve_backend("auto")


def probe() -> float:
    """Seconds for a fixed stdlib loop: a gauge of the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class HostProbe:
    """Samples the host's speed while work runs.

    The host switches between a fast and a slow state within
    milliseconds, and the share of slow time drifts over minutes (see
    README.md).  A probe before and after a unit misses that; here a
    ``SIGALRM`` every :data:`PROBE_INTERVAL_S` interrupts the work and
    times the probe loop, so the samples see the host states the work
    sees.  Processes forked while a probe is active (the campaign's
    pool workers) sample themselves too and append their samples to a
    shared log.  The probes' own cost, about 1 %, stays in the times.
    """

    #: The probe sampling now, if any; forked children join it.
    active: Optional["HostProbe"] = None

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._log = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "HostProbe":
        os.makedirs(SCRATCH, exist_ok=True)
        self._log = tempfile.TemporaryFile(dir=SCRATCH)
        fd = self._log.fileno()
        fcntl.fcntl(fd, fcntl.F_SETFL, fcntl.fcntl(fd, fcntl.F_GETFL) | os.O_APPEND)
        HostProbe.active = self
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        HostProbe.active = None
        self._log.seek(0)
        data = self._log.read()
        self._log.close()
        usable = len(data) - len(data) % SAMPLE.size
        self.samples += [s for (s,) in SAMPLE.iter_unpack(data[:usable])]
        if not self.samples:  # work shorter than one interval
            self.samples.append(probe())

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        """Reference-speed seconds per second measured.

        Each sample stands for the interval around it, in which the work
        ran at ``(PROBE_REFERENCE_S / sample) ** PROBE_SENSITIVITY`` of
        its reference speed, so the factor is the mean of that ratio
        (not the ratio of the means).
        """
        return statistics.fmean(
            (PROBE_REFERENCE_S / s) ** PROBE_SENSITIVITY for s in self.samples
        )


#: One child's probe sample in the shared log.
SAMPLE = struct.Struct("<d")


def _probe_in_child() -> None:
    """After a fork inside an active probe: sample this process too."""
    host = HostProbe.active
    if host is None:
        return
    fd = host._log.fileno()

    def sample(signum, frame):
        os.write(fd, SAMPLE.pack(probe()))

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)


os.register_at_fork(after_in_child=_probe_in_child)


def cpu_seconds() -> float:
    """CPU of this process and its reaped children (the pool workers)."""
    import resource

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def steal_seconds() -> float:
    """Time the hypervisor kept this guest's vCPUs from running: the
    ``steal`` column of ``/proc/stat``, summed over all vCPUs (0 where
    the kernel does not report it)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def lost_s(wall: float, cpu: float, steal: float, workers: int) -> float:
    """Wall time a unit on ``workers`` busy vCPUs lost to steal."""
    return max(0.0, min(steal, workers * wall - cpu)) / workers


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child, in MB.

    ``getrusage`` reports a single maximum over all children, so a pool
    counts as its largest member.  Forked workers share the parent's
    pages, so adding the two figures would count those pages twice.
    """
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_unit(workload) -> Dict:
    """One timed repetition, gc first, host probed throughout.

    ``wall_s`` and ``cpu_s`` are corrected to the reference host speed;
    ``raw_wall_s`` and ``raw_cpu_s`` are as measured.  Wall time first
    loses the time the hypervisor stole from the unit's busy vCPUs, one
    per worker process.  ``/proc/stat`` sums steal over all vCPUs, idle
    ones too, so the share charged to the unit is capped by the time
    its vCPUs spent off the CPU; CPU time never counts steal.
    """
    gc.collect()
    with HostProbe() as host:
        cpu0 = cpu_seconds()
        steal0 = steal_seconds()
        start = time.perf_counter()
        outputs = workload.unit()
        wall = time.perf_counter() - start
        steal = steal_seconds() - steal0
        cpu = cpu_seconds() - cpu0
    return {
        "wall_s": (wall - lost_s(wall, cpu, steal, outputs.workers)) * host.scale,
        "cpu_s": cpu * host.scale,
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "steal_s": steal,
        "probe_s": host.mean_s,
        "probes": len(host.samples),
        "outputs": outputs,
    }


def overhead_s(unit: Dict) -> float:
    """Runner wall beyond its trials' share per worker (0 off the runner)."""
    outputs = unit["outputs"]
    if not outputs.trial_wall_s:
        return 0.0
    return unit["raw_wall_s"] - outputs.trial_wall_s / outputs.workers


def failures(outputs) -> int:
    for error in outputs.errors:
        print(f"check failed: {error}", file=sys.stderr)
    return min(len(outputs.errors), outputs.operations)


def measure(workload, seconds: float) -> Dict:
    """Repeat the unit while another one fits in ``seconds`` (at least
    one).  Wall and CPU time are each the median of the repetitions'
    corrected times."""
    units: List[Dict] = []
    start = time.perf_counter()
    while True:
        units.append(timed_unit(workload))
        elapsed = time.perf_counter() - start
        typical = statistics.median(u["raw_wall_s"] for u in units)
        if elapsed + typical > seconds:
            break
    return {
        "attempted": sum(u["outputs"].operations for u in units),
        "failed": sum(failures(u["outputs"]) for u in units),
        "metrics": {
            "wall_s": statistics.median(u["wall_s"] for u in units),
            "cpu_s": statistics.median(u["cpu_s"] for u in units),
            "peak_rss_mb": peak_rss_mb(),
        },
        "units": [unit_record(u) for u in units],
        "detail": units[0]["outputs"].detail,
    }


def unit_record(unit: Dict) -> Dict:
    """The timings of one repetition, raw and corrected, for the stamp."""
    return {key: value for key, value in unit.items() if key != "outputs"}


def measure_traced(workload) -> Dict:
    """One untraced unit, then the same unit with every layer span on."""
    from checks import check_counts_repeat
    from spans import Tracer

    plain = timed_unit(workload)
    tracer = Tracer()
    with tracer.installed(workload.trace_targets()):
        traced = timed_unit(workload)
    repeat_errors = check_counts_repeat(
        plain["outputs"].counts, traced["outputs"].counts
    )
    for error in repeat_errors:
        print(f"check failed: {error}", file=sys.stderr)
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update(plain["outputs"].counts)
    metrics.update(plain["outputs"].times)
    for layer, name in SELF_TIME_METRICS.items():
        metrics[name] = tracer.self_s.get(layer, 0.0)
    metrics["kernels.calls"] = tracer.calls.get("kernels", 0)
    metrics["core.overhead_s"] = overhead_s(plain)
    metrics["host.probe_s"] = plain["probe_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = (plain, traced)
    return {
        "attempted": sum(u["outputs"].operations for u in units),
        "failed": sum(failures(u["outputs"]) for u in units)
        + min(len(repeat_errors), 1),
        "metrics": metrics,
        "units": [unit_record(u) for u in units],
        "detail": plain["outputs"].detail,
    }


#: Traced layer -> per-layer metric holding its self time.
SELF_TIME_METRICS = {
    "mobility": "mobility.trace_s",
    "kernels": "kernels.self_s",
    "des": "des.self_s",
    "phy": "phy.self_s",
    "phy.spatial": "phy.spatial_s",
    "mac": "mac.self_s",
    "routing": "routing.self_s",
    "metrics": "metrics.self_s",
    "core.journal": "core.journal_s",
}

#: Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    "mobility.trace_s",
    "kernels.calls", "kernels.self_s",
    "des.events", "des.events_per_frame", "des.self_s",
    "phy.frames_tx", "phy.rx_fanout", "phy.cs_drops", "phy.cache_hit_rate",
    "phy.self_s", "phy.spatial_s",
    "mac.self_s", "mac.data_tx", "mac.retransmissions", "mac.retry_drops",
    "routing.self_s", "routing.control_tx",
    "metrics.self_s",
    "trial.aodv_s", "trial.olsr_s", "trial.dymo_s",
    "core.trials", "core.failed", "core.retries", "core.journal_s",
    "core.overhead_s",
    "host.probe_s", "trace.overhead_s",
)


def git_commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def source_digest(root: str) -> str:
    """SHA-256 over the package sources: identifies the code measured
    even where the checkout carries no git metadata."""
    import hashlib

    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, _dirs, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(workload, kernels, root: str, seed: int) -> Dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": kernels.name,
        "spatial": workload.spatial,
        "tech": workload.tech,
        "backend": workload.backend,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    with HostProbe() as host:
        from workloads import ROOT, WORKLOADS

        workload_class = WORKLOADS[args.workload]
        kernels = setup(workload_class)
        ready = time.monotonic()
    setup_scale = host.scale
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    workload = workload_class(args.seed)
    try:
        workload.warm()
        if args.trace:
            report = measure_traced(workload)
        else:
            report = measure(workload, args.seconds)
    except Exception:  # a crashed run is reported, never timed
        traceback.print_exc()
        report = {
            "attempted": 1, "failed": 1, "metrics": {}, "units": [],
            "detail": {},
        }
    report["ready"] = ready
    report["setup_scale"] = setup_scale
    report["stamp"] = stamp(workload, kernels, ROOT, args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
