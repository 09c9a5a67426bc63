"""The four workloads of the benchmark.

Each module defines the same interface, used by ``run.py`` and ``selftest.py``:

* ``ROUNDS_PER_SECOND`` -- rounds per second of ``--seconds``; fixes the
  number of rounds of a run by count, so no run depends on a deadline;
* ``TRACE_ROUNDS`` -- rounds of the workload in a traced run;
* ``setup(seed, workdir)`` -- builds the inputs; ``state.round`` lists the
  operations of one round, each an ``Op``;
* ``run_op(state, op, index)`` -- one timed operation, returns its output;
* ``check(state, op, output)`` -- ``None`` if the output is right, else why not;
* ``finish(state)`` -- run-level checks, a list of problems;
* ``plant(state, op, output)`` -- wrong outputs the checks must catch;
* ``teardown(state)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Op:
    """One operation of a round.

    ``known_fault`` names a fault of the program that makes this operation
    fail every time; the run stays correct when such an operation fails.
    """

    name: str
    known_fault: str | None = None
    data: dict = field(default_factory=dict)
