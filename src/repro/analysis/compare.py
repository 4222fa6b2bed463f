"""Shape comparison against the paper's numbers.

The reproduction does not target absolute fidelity (the substrate is a
simulator, not the authors' testbed); what must hold is the *shape*: who
wins, by roughly what factor, where the failure onsets are. These
helpers make those checks explicit and testable.
"""

from __future__ import annotations

import dataclasses
import typing


def within_factor(measured: float, reference: float, factor: float) -> bool:
    """Whether ``measured`` is within ``x factor`` of ``reference``.

    Zero reference requires zero-ish measured (and vice versa).
    """
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if reference == 0.0:
        return measured == 0.0
    if measured == 0.0:
        return False
    ratio = measured / reference
    return 1.0 / factor <= ratio <= factor


def first_inversion(
    pairs: typing.Sequence[typing.Tuple[float, float]], tolerance: float = 0.0
) -> typing.Optional[typing.Tuple[typing.Tuple[float, float], typing.Tuple[float, float]]]:
    """The first two (reference, measured) entries whose measured values
    order against their references, or None.

    Entries whose references differ by no more than ``tolerance``
    (relative) may order either way.
    """
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            ref_a, measured_a = pairs[i]
            ref_b, measured_b = pairs[j]
            baseline = max(abs(ref_a), abs(ref_b))
            if baseline == 0 or abs(ref_a - ref_b) / baseline <= tolerance:
                continue
            if (ref_a > ref_b) != (measured_a > measured_b):
                return pairs[i], pairs[j]
    return None


def ordering_preserved(
    pairs: typing.Sequence[typing.Tuple[float, float]], tolerance: float = 0.0
) -> bool:
    """Whether measured values order the same way the references do.

    ``pairs`` is a list of (reference, measured). For every two entries
    whose references differ by more than ``tolerance`` (relative), the
    measured values must order the same way.
    """
    return first_inversion(pairs, tolerance) is None


@dataclasses.dataclass
class ShapeCheck:
    """One named shape assertion with its outcome."""

    name: str
    passed: bool
    detail: str = ""

    @classmethod
    def factor(
        cls, name: str, measured: float, reference: float, factor: float
    ) -> "ShapeCheck":
        """Check a value is within a multiplicative band of the paper's.

        The detail prints the factor exactly (``x1.35``, ``x2.0``), so
        the verdict states the band it enforced."""
        passed = within_factor(measured, reference, factor)
        return cls(
            name=name,
            passed=passed,
            detail=f"measured={measured:.2f} paper={reference:.2f} band=x{float(factor)}",
        )

    @classmethod
    def ordering(
        cls,
        name: str,
        pairs: typing.Sequence[typing.Tuple[float, float]],
        tolerance: float = 0.0,
    ) -> "ShapeCheck":
        """Check the measured ordering matches the paper's; a failure
        names the first inverted pair."""
        inversion = first_inversion(pairs, tolerance=tolerance)
        if inversion is None:
            return cls(name=name, passed=True, detail=f"{len(pairs)} values compared")
        (ref_high, measured_high), (ref_low, measured_low) = sorted(inversion, reverse=True)
        relation = "<" if measured_high < measured_low else "="
        return cls(
            name=name,
            passed=False,
            detail=f"paper {ref_high:.2f} > {ref_low:.2f} but measured "
            f"{measured_high:.1f} {relation} {measured_low:.1f}",
        )

    @classmethod
    def failure_mode(cls, name: str, measured_received: float, expect_failure: bool) -> "ShapeCheck":
        """Check a total-failure cell fails (or a working cell works)."""
        failed = measured_received == 0
        return cls(
            name=name,
            passed=failed == expect_failure,
            detail=f"received={measured_received:.0f}, expected "
            + ("failure" if expect_failure else "success"),
        )


def render_checks(checks: typing.Sequence[ShapeCheck]) -> str:
    """A pass/fail listing of shape checks."""
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"[{status}] {check.name}: {check.detail}")
    passed = sum(1 for check in checks if check.passed)
    lines.append(f"{passed}/{len(checks)} shape checks passed")
    return "\n".join(lines)
