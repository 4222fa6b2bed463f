"""The executor: the one way a batch of benchmark units runs.

The paper's COCONUT framework distributes benchmark execution across
client hosts (Section 4.3); here the analogous lever is running
independent *units* — experiment cases, sweep points, resilience
scenarios, capacity-search probes — concurrently. Each unit already
owns its seeded RNG streams (the rig is rebuilt per repetition from
``seed``), so units share no state and the fan-out cannot change any
result: a worker receives a picklable
:class:`~repro.coconut.config.BenchmarkConfig`, rebuilds the rig exactly
as an in-process run would, and sends back a JSON-ready dict. For any
jobs count the per-unit output is byte-identical, which
``tests/parallel/test_executor.py`` asserts.

Units are keyed by their content fingerprint: a batch runs each
distinct unit once, and an optional
:class:`~repro.parallel.cache.ResultCache` restores units already
stored instead of running them at all.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import typing

from repro.coconut.config import BenchmarkConfig
from repro.coconut.provisioner import Rig
from repro.coconut.results import UnitResult
from repro.coconut.runner import BenchmarkRunner
from repro.parallel.cache import ResultCache
from repro.parallel.fingerprint import unit_fingerprint


@dataclasses.dataclass
class UnitOutcome:
    """One executed (or cache-restored) benchmark unit."""

    config: BenchmarkConfig
    result: UnitResult
    cached: bool = False
    fingerprint: typing.Optional[str] = None


def execute_unit(
    config: BenchmarkConfig, check_level: typing.Optional[str] = None
) -> typing.Dict[str, typing.Any]:
    """Run one unit in the current process; returns its result's dict.

    This is the single execution path of every jobs count (and the
    function workers run), so every mode produces identical payloads.
    Workers never pickle a rig back — the runner drops rigs and only
    dicts cross the process boundary. With a ``check_level`` the unit
    runs under the invariant oracles; each repetition's report rides on
    its final phase's metrics.
    """
    runner = BenchmarkRunner(
        keep_last_rig=False,
        check=check_level is not None,
        check_level=check_level or "basic",
    )
    return runner.run(config).to_dict()


def _pool_entry(
    item: typing.Tuple[int, BenchmarkConfig, typing.Optional[str]]
) -> typing.Tuple[int, typing.Dict[str, typing.Any]]:
    """Worker entry point: (index, config, level) -> (index, payload)."""
    index, config, check_level = item
    return index, execute_unit(config, check_level)


class Executor:
    """Runs a batch of units, in-process or over a worker pool.

    ``jobs`` worker processes run the units a batch does not restore
    from ``cache`` (1 = in the current process). ``progress`` receives
    one ``[i/N] label`` line per distinct unit. ``check_level`` runs
    every unit under the invariant oracles; fingerprints do not cover
    checking, so it cannot be combined with a cache.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: typing.Optional[ResultCache] = None,
        progress: typing.Optional[typing.Callable[[str], None]] = None,
        check_level: typing.Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if check_level is not None and cache is not None:
            raise ValueError(
                "checked units cannot use the result cache "
                "(fingerprints do not cover checking)"
            )
        self.jobs = jobs
        self.cache = cache
        self.progress = progress or (lambda message: None)
        self.check_level = check_level
        #: Units actually executed across this executor's lifetime.
        self.ran = 0
        #: Units restored from the cache instead of executed.
        self.from_cache = 0
        #: Units run through :meth:`run_keeping_rig`.
        self.kept_rigs = 0

    def run_units(
        self, configs: typing.Iterable[BenchmarkConfig]
    ) -> typing.List[UnitOutcome]:
        """Run every distinct unit once; preserves input order.

        Configs with one fingerprint (repeated sweep values, or values
        that collapse to one config) share one execution, whose result
        every such input receives.
        """
        configs = list(configs)
        fingerprints = [unit_fingerprint(config) for config in configs]
        #: Fingerprint -> index of its first config: the units to run.
        distinct: typing.Dict[str, int] = {}
        for index, fingerprint in enumerate(fingerprints):
            distinct.setdefault(fingerprint, index)
        total = len(distinct)
        results: typing.Dict[str, typing.Tuple[UnitResult, bool]] = {}
        pending: typing.List[typing.Tuple[int, BenchmarkConfig]] = []
        for fingerprint, index in distinct.items():
            hit = self.cache.get(fingerprint) if self.cache is not None else None
            if hit is None:
                pending.append((index, configs[index]))
                continue
            results[fingerprint] = (hit, True)
            self.from_cache += 1
            self.progress(f"[{len(results)}/{total}] {configs[index].label()} (cached)")
        for index, payload in self._execute(pending):
            result = UnitResult.from_dict(payload)
            if self.cache is not None:
                self.cache.put(fingerprints[index], result)
            results[fingerprints[index]] = (result, False)
            self.ran += 1
            self.progress(f"[{len(results)}/{total}] {configs[index].label()}")
        outcomes = []
        for config, fingerprint in zip(configs, fingerprints):
            result, cached = results[fingerprint]
            outcomes.append(UnitOutcome(config, result, cached, fingerprint))
        return outcomes

    def run_keeping_rig(self, config: BenchmarkConfig) -> typing.Tuple[UnitResult, Rig]:
        """Run one unit in this process and return its result with the
        deployment it ran on, for a caller that reads the nodes.

        A worker or the cache can hand back only the result, so such a
        unit bypasses both; it is counted apart, in :attr:`kept_rigs`.
        """
        runner = BenchmarkRunner(
            keep_last_rig=True,
            check=self.check_level is not None,
            check_level=self.check_level or "basic",
        )
        result = runner.run(config)
        assert runner.last_rig is not None
        self.kept_rigs += 1
        self.progress(f"{config.label()} (in-process, rig kept)")
        return result, runner.last_rig

    def _execute(
        self, pending: typing.Sequence[typing.Tuple[int, BenchmarkConfig]]
    ) -> typing.Iterator[typing.Tuple[int, typing.Dict[str, typing.Any]]]:
        """Yield (index, payload) for every pending unit, any order.

        Workers rebuild the rig from the pickled config and return plain
        dicts; completion order is arbitrary, and :meth:`run_units`
        re-sequences results by index.
        """
        if self.jobs == 1 or len(pending) <= 1:
            for index, config in pending:
                yield index, execute_unit(config, self.check_level)
            return
        items = [(index, config, self.check_level) for index, config in pending]
        with _pool_context().Pool(processes=min(self.jobs, len(pending))) as pool:
            yield from pool.imap_unordered(_pool_entry, items)

    def summary(self) -> str:
        """One-line accounting for CLI output."""
        text = f"executor: {self.ran} ran, {self.from_cache} cached"
        if self.kept_rigs:
            text += f", {self.kept_rigs} ran in-process keeping the rig"
        text += f" (jobs={self.jobs})"
        if self.cache is not None:
            text += f"; {self.cache.summary()}"
        return text


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (no re-import per worker), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")
