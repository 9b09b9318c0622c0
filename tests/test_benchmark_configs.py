"""The benchmark's workloads are valid configs of this package.

`perfbench/run.py` builds `TrainConfig(seed=..., patience=None,
**workload.train)` and `SynthConfig(seed=..., **workload.synth)` for each
entry of its WORKLOADS table, so a config field that the table sets
cannot be renamed or removed without the benchmark breaking.  This checks
that here, without running the benchmark: importing run.py runs only its
module-level setup, and the process-wide state that setup changes is put
back."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from avloc.data import SynthConfig
from avloc.trainer import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads() -> dict:
    dont_write_bytecode, path = sys.dont_write_bytecode, list(sys.path)
    modules, environ = set(sys.modules), dict(os.environ)
    try:
        # run.py imports its sibling modules by their bare names; like a
        # benchmark run, the import leaves no bytecode in perfbench/.
        sys.path.insert(0, str(PERFBENCH))
        sys.dont_write_bytecode = True
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.WORKLOADS
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            file = getattr(sys.modules[name], "__file__", None)
            if file and Path(file).parent == PERFBENCH:
                del sys.modules[name]
        for key in set(os.environ) - set(environ):
            del os.environ[key]
        os.environ.update(environ)


WORKLOADS = load_workloads()


def test_the_benchmark_has_its_three_workloads():
    assert sorted(WORKLOADS) == ["eval_main", "train_ave_weak", "train_main"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_build_and_validate(name):
    workload = WORKLOADS[name]
    TrainConfig(seed=1, patience=None, **workload.train).validate()
    SynthConfig(seed=1, **workload.synth).validate()
