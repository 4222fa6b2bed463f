"""Output checks of benchmark units.

At a unit's default seed its outputs must match ``expected.json``:

* counts exactly — expected, received, failed and invalidated per phase,
  plus the fault window's committed and lost payloads;
* ``tps``, ``duration`` and ``mean_fls`` within 1e-9 relative;
* ``p50_fls``, ``p95_fls`` and ``p99_fls`` within 3 %, one bucket of
  the streaming latency histogram.

At every seed the accounting identities must hold (received + failed <=
expected, invalidated <= received), strict oracles must report no
violation, and every run of a unit in one set must give the same outputs.
"""

from __future__ import annotations

import math
import typing

COUNTS = (
    "expected", "received", "failed", "invalidated",
    "committed_in_window", "lost_in_window",
)
EXACT_FLOATS = ("tps", "duration", "mean_fls")
PERCENTILES = ("p50_fls", "p95_fls", "p99_fls")
#: The ``PhaseMetrics`` fields a child records per phase; the fault
#: window's counts ride along on phases a fault plan touched.
PHASE_FIELDS = COUNTS[:4] + EXACT_FLOATS + PERCENTILES
FLOAT_TOLERANCE = 1e-9
PERCENTILE_TOLERANCE = 0.03


def against_expected(outputs: dict, expected: dict) -> typing.List[str]:
    """Differences of one unit's outputs from its expected outputs."""
    problems = []
    if set(outputs["phases"]) != set(expected["phases"]):
        return [f"phases {sorted(outputs['phases'])} != expected {sorted(expected['phases'])}"]
    for name, want in expected["phases"].items():
        got = outputs["phases"][name]
        for field in COUNTS:
            if got.get(field) != want.get(field):
                problems.append(f"{name}.{field} = {got.get(field)}, expected {want.get(field)}")
        for field, tolerance in (
            [(field, FLOAT_TOLERANCE) for field in EXACT_FLOATS]
            + [(field, PERCENTILE_TOLERANCE) for field in PERCENTILES]
        ):
            if not math.isclose(got[field], want[field], rel_tol=tolerance, abs_tol=1e-12):
                problems.append(
                    f"{name}.{field} = {got[field]!r}, expected {want[field]!r} "
                    f"(tolerance {tolerance:g} relative)"
                )
    if outputs.get("violations") != expected.get("violations"):
        problems.append(
            f"violations = {outputs.get('violations')}, expected {expected.get('violations')}"
        )
    return problems


def identities(outputs: dict) -> typing.List[str]:
    """Accounting identities and oracle verdicts that hold at any seed."""
    problems = []
    for name, phase in outputs["phases"].items():
        if phase["received"] + phase["failed"] > phase["expected"]:
            problems.append(
                f"{name}: received {phase['received']} + failed {phase['failed']} "
                f"> expected {phase['expected']}"
            )
        if phase["invalidated"] > phase["received"]:
            problems.append(
                f"{name}: invalidated {phase['invalidated']} > received {phase['received']}"
            )
    if outputs.get("violations"):
        problems.append(f"strict oracles report {outputs['violations']} violations")
    return problems


def unit_problems(
    unit: dict,
    expected: typing.Optional[dict],
    reference: typing.Optional[dict],
) -> typing.List[str]:
    """Everything wrong with one unit run.

    ``expected`` is the unit's entry of ``expected.json`` (checked only
    when the run used the seed it was captured at); ``reference`` is the
    outputs of the first run of the same unit and seed in this set.
    """
    if unit["error"] is not None:
        return [f"raised {unit['error']}"]
    outputs = unit["outputs"]
    problems = identities(outputs)
    if expected is not None and expected["seed"] == unit["seed"]:
        problems += against_expected(outputs, expected["outputs"])
    if reference is not None and outputs != reference:
        problems.append("outputs differ from the first run of this unit and seed")
    return problems


def judge(
    children: typing.Iterable[dict],
    expected: typing.Mapping[str, dict],
    references: typing.Optional[typing.Dict[typing.Tuple[str, int], dict]] = None,
) -> typing.Tuple[int, int, typing.List[str]]:
    """Check every unit of every child document of one workload.

    Returns (units run, units failed, problem lines). ``expected`` maps
    unit name to its ``expected.json`` entry; ``references`` maps
    (unit, seed) to the first outputs seen, and is filled as children
    are checked, so passing one table to several calls checks agreement
    across all of them.
    """
    references = {} if references is None else references
    attempted = failed = 0
    problems: typing.List[str] = []
    for child in children:
        for unit in child["units"]:
            attempted += 1
            key = (unit["unit"], unit["seed"])
            found = unit_problems(unit, expected.get(unit["unit"]), references.get(key))
            if unit["error"] is None:
                references.setdefault(key, unit["outputs"])
            if found:
                failed += 1
                problems += [f"{child['workload']}/{unit['unit']} seed {unit['seed']}: {p}"
                             for p in found]
    return attempted, failed, problems
