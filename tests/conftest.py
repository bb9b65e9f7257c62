"""Shared fixtures. The two documented runs execute once per session."""

import ctypes
import functools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from sawtoothlab.trainer import RunConfig, RunResult, run

# documented acceptance profiles: full-scale and a fast CI-sized variant
REFERENCE = dict(num_functions=10000, dim=10000, problem_seed=13, seed=12, num_epochs=9)
REDUCED = dict(num_functions=2000, dim=2000, problem_seed=5, seed=5, num_epochs=9)


@dataclass
class TimedRun:
    result: RunResult
    seconds: float


def _timed(**kwargs) -> TimedRun:
    start = time.perf_counter()
    result = run(RunConfig(**kwargs))
    return TimedRun(result, time.perf_counter() - start)


@pytest.fixture(scope="session")
def reference_run() -> TimedRun:
    return _timed(**REFERENCE)


@pytest.fixture(scope="session")
def reduced_run() -> TimedRun:
    return _timed(**REDUCED)


@functools.cache
def openblas_core() -> str:
    """The core OpenBLAS runs numpy's BLAS on, as OpenBLAS names it.

    OPENBLAS_CORETYPE overrides the one it detects.
    """
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    libs = sorted(libdir.glob("libscipy_openblas64_*.so"))
    if not libs:
        return "unknown (no libscipy_openblas64_*.so beside numpy)"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def assert_digest(digest: str, recorded: dict[str, str]) -> None:
    """Check a digest against its recording on the running OpenBLAS core.

    A BLAS reduction may round differently on another core (README), so a
    digest is recorded per core: `recorded` maps each core's name to its
    value. On a core with no recording the check fails, naming the
    recorded cores and the running one.
    """
    core = openblas_core()
    if core not in recorded:
        pytest.fail(
            f"no digest recorded on OpenBLAS core {core}; recorded on {', '.join(recorded)}"
        )
    assert digest == recorded[core], f"digest differs from its recording on OpenBLAS core {core}"
