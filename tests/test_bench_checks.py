"""The benchmark (perfbench/workloads.py) checks each op's output against
recorded reference values; a change that breaks those outputs would only
show when the benchmark runs.  These tests load workloads.py without
writing to perfbench/ and run one checked op per workload and seed."""

import importlib.util
import sys
from pathlib import Path

import pytest

import bwlab.bw

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "bwlab_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[name] = module  # @dataclass resolves the module's annotations
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[name]
    return module


@pytest.mark.parametrize("seed", [0, 63])
@pytest.mark.parametrize("name", ["compare-d36-k2", "scan-d4-k1", "verify-d16-k2"])
def test_workload_op_passes_its_checks(workloads, tmp_path, name, seed):
    workload = workloads.WORKLOADS[name]
    config = workload.write_config(seed, str(tmp_path))
    _, error = workloads.run_op(workload, config, seed)
    assert error is None


def test_bench_bw_tolerance_is_the_solvers(workloads):
    """The benchmark bounds a converged BW residual by its own copy of the
    solver's tolerance; a changed bw.TOL must not leave that bound stale."""
    assert workloads.BW_TOL == bwlab.bw.TOL
