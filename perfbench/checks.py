"""Correctness checks on workload outputs, and the name rule for metrics.

Every checker takes plain numbers (summaries of one run's outputs) and
returns a list of error strings; an empty list means the output is
right.  Each check rests on a truth outside the timed code: a golden
recorded by the test suite, a conservation law of the channel, the
analytic NaSch flow, or the journal on disk.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Mapping, Sequence, Tuple

#: Metric, workload and layer names: a letter or digit, then at most 63
#: letters, digits, ``_``, ``.`` or ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Largest |J - min(5 rho, 1 - rho)| accepted on the p = 0 Fig. 4 curve.
#: Finite lanes and random starts keep the measured flow just off the
#: analytic line near the critical density; over seeds 0-40 and 2010
#: the worst deviation is 0.0146 (seed 21, rho = 1/6; 0.0129 at 2010).
NASCH_FLOW_TOLERANCE = 0.03


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric/workload name."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def load_golden(path: str) -> Dict[str, tuple]:
    """The ``GOLDEN`` dict of the Table I regression test, read statically.

    Parsing (not importing) the test module keeps one source of truth
    for the goldens without importing pytest into the benchmark.
    """
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "GOLDEN"
        ):
            return ast.literal_eval(node.value)
    raise ValueError(f"no GOLDEN assignment in {path}")


def check_conservation(
    num_nodes: int,
    frames_transmitted: int,
    frames_delivered: int,
    frames_cs_dropped: int,
) -> List[str]:
    """Every frame on the air reaches each other radio exactly once,
    either as a delivery (above carrier sense) or as a CS drop."""
    expected = frames_transmitted * (num_nodes - 1)
    observed = frames_delivered + frames_cs_dropped
    if observed != expected:
        return [
            f"frame conservation: delivered {frames_delivered} + "
            f"cs_dropped {frames_cs_dropped} = {observed}, expected "
            f"{frames_transmitted} x {num_nodes - 1} = {expected}"
        ]
    return []


def check_golden(protocol: str, observed: tuple, golden: Mapping) -> List[str]:
    """The six-tuple of the default scenario must match bit for bit."""
    expected = tuple(golden[protocol])
    if tuple(observed) != expected:
        return [f"{protocol} golden mismatch: got {observed}, want {expected}"]
    return []


def check_nasch_flow(
    densities: Sequence[float],
    flows: Sequence[float],
    tolerance: float = NASCH_FLOW_TOLERANCE,
) -> List[str]:
    """The deterministic (p = 0) fundamental diagram against the analytic
    J = min(v_max rho, 1 - rho) with v_max = 5."""
    errors = []
    for rho, flow in zip(densities, flows):
        analytic = min(5.0 * rho, 1.0 - rho)
        if not abs(flow - analytic) <= tolerance:
            errors.append(
                f"p=0 flow {flow:.4f} at rho={rho:.4f} is off the analytic "
                f"{analytic:.4f} by more than {tolerance}"
            )
    if len(densities) != len(flows):
        errors.append(f"{len(flows)} flows for {len(densities)} densities")
    return errors


def check_journal(
    expected_keys: int,
    trials_ok: int,
    trials_failed: int,
    distinct_completed: int,
) -> List[str]:
    """Exactly one completed journal record per trial, and no failures."""
    errors = []
    if trials_failed:
        errors.append(f"journal holds {trials_failed} failed trial records")
    if trials_ok != expected_keys or distinct_completed != expected_keys:
        errors.append(
            f"journal holds {trials_ok} ok records over "
            f"{distinct_completed} keys, expected one each for "
            f"{expected_keys} trials"
        )
    return errors


def check_counts_repeat(
    first: Mapping[str, float], second: Mapping[str, float]
) -> List[str]:
    """Counts of two runs of the same inputs must agree exactly (tracing
    changes the clock, never the simulation)."""
    return [
        f"count {name} changed: {first[name]} then {second.get(name)}"
        for name in sorted(first)
        if first[name] != second.get(name)
    ]


def six_tuple(result) -> Tuple:
    """(pdr, originated, delivered, frames_on_air, mean_delay_s,
    control_packets) of a :class:`SimulationResult`, as the golden test
    records it."""
    return (
        result.pdr(),
        result.collector.num_originated,
        result.collector.num_delivered,
        result.frames_on_air,
        result.delay_stats().mean_s,
        result.control_overhead().packets,
    )
