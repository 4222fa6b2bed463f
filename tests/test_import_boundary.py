"""A run imports only what it runs (DESIGN §10).

Every benchmark child is a fresh interpreter, so the modules it
imports before its first rig are part of its set-up cost. The checks
run in a fresh interpreter of their own, since this one has imported
everything long ago.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Imports ``repro.coconut.runner``, provisions a Fabric rig, then runs
#: a strict-checked Fabric unit with a leader crash; prints the sorted
#: ``repro`` modules loaded after each step as one JSON document.
SCRIPT = """
import json
import sys

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "repro")

steps = {}
from repro.coconut.runner import BenchmarkRunner
steps["runner"] = loaded()

from repro.coconut.config import BenchmarkConfig
from repro.coconut.provisioner import Provisioner
config = BenchmarkConfig(system="fabric", iel="KeyValue", rate_limit=20, scale=0.01,
                         repetitions=1, seed=1)
Provisioner().provision(config, 0)
steps["fabric_rig"] = loaded()

from repro.faults.plan import FaultPlan
plan = FaultPlan()
plan.kill_leader(at=0.25 * config.scaled_send)
plan.restart("leader", at=0.5 * config.scaled_send)
checked = BenchmarkConfig(system="fabric", iel="KeyValue", rate_limit=20, scale=0.01,
                          repetitions=1, seed=1, fault_plan=plan)
BenchmarkRunner(check=True, check_level="strict").run(checked)
steps["checked_fault_run"] = loaded()
print(json.dumps(steps))
"""

#: Never needed before a rig exists: experiment definitions, drivers,
#: post-run analysis, the oracles, the fault injector, the exporters.
NOT_ON_THE_RUN_PATH = (
    "repro.experiments",
    "repro.parallel",
    "repro.search",
    "repro.analysis",
    "repro.invariants.oracles",
    "repro.faults.injector",
    "repro.trace.chrome",
    "repro.trace.jsonl",
)

#: Modules of the ``repro.chains`` package that hold no system model.
CHAINS_SHARED = {"repro.chains", "repro.chains.base", "repro.chains.profiles",
                 "repro.chains.registry"}


@pytest.fixture(scope="module")
def steps():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return {step: set(modules) for step, modules in json.loads(result.stdout).items()}


class TestImportBoundary:
    def test_runner_import_loads_no_driver_oracle_injector_or_exporter(self, steps):
        loaded = steps["runner"]
        for name in NOT_ON_THE_RUN_PATH:
            assert not {m for m in loaded if m == name or m.startswith(name + ".")}, name

    def test_runner_import_loads_no_system_model_or_engine(self, steps):
        loaded = steps["runner"]
        assert {m for m in loaded if m.startswith("repro.chains")} <= CHAINS_SHARED
        assert {m for m in loaded if m.startswith("repro.consensus")} <= {
            "repro.consensus", "repro.consensus.base",
        }

    def test_fabric_rig_loads_fabric_and_its_engine_only(self, steps):
        assert steps["fabric_rig"] - steps["runner"] == {
            "repro.chains.fabric", "repro.consensus.raft",
        }

    def test_checked_fault_run_loads_the_oracles_and_the_injector(self, steps):
        added = steps["checked_fault_run"] - steps["fabric_rig"]
        assert {"repro.invariants.oracles", "repro.faults.injector"} <= added
