"""Child process whose wall time is the benchmark's set-up time.

It does only the work a ``sawtoothlab run`` does before its first step:
import ``sawtoothlab.cli``, then, when given a spec file, load and expand it
and, for every point, draw the problem and build the first epoch's batches.
Without a spec it stops after the import, which is the set-up of ``fit`` and
``overlap``. It prints the import time in seconds, measured inside the child.

    python3 perfbench/setup_child.py [SPEC]

The parent puts the program's ``src`` directory on PYTHONPATH.
"""

import sys
import time

t0 = time.perf_counter()
import sawtoothlab.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

from sawtoothlab.problem import generate_quadratic  # noqa: E402
from sawtoothlab.schedule import EpochSchedule  # noqa: E402
from sawtoothlab.specfile import load_spec  # noqa: E402

if len(sys.argv) > 1:
    for _label, config in load_spec(sys.argv[1]).expand():
        generate_quadratic(config.problem_seed, config.num_functions, config.dim)
        EpochSchedule(
            config.policy,
            config.num_functions,
            config.batch_size,
            config.seed,
            config.initial_shuffle,
        ).peek_epoch_batches()
print(repr(import_s))
