"""qgelab: desk-scale simulator and query-cost lab for adaptive gradient estimation.

The package is organized bottom-up:

- ``fermion``: sparse Jordan-Wigner ladder operators, k-body observable sets
  (each observable its numpy entries; a scipy matrix of them on request),
  particle-number sectors, the sum-of-squares norm of every sector (a column
  sum on the k-body stack, a Gram eigensolve on any list) and its binomial
  closed form; the exact k-body expectations from ladder strings alone.
- ``statevector``: the sector-random amplitudes a problem holds, and the
  reference route: dense 2^N pure states and their exact expectations.
- ``encode``: block encodings, eigenvalue polynomial transforms, exact
  evolution and the phase-encoding deviation check.
- ``probe``: phase-gradient probe registers, QFT readout, noise models.
- ``engine``: problems (N and the sector amplitudes, no 2^N vector), the
  adaptive estimation loop, the violation-run fraction, trace export.
- ``cost``: the iteration schedule and its one query price, run totals and
  method comparison tables priced through it.
- ``verify``: named cross-check suites behind the ``qgelab verify`` gate.
- ``cli``: the ``qgelab`` command.

Importing the package loads numpy alone, and so does every command,
``verify`` included, and the reference read (``expectations`` of a problem's
observables on its state).  scipy, an optional dependency (the ``reference``
extra), is loaded only by ``Observable.matrix``, ``sum_squares_sector_norm``
and ``encode`` on a scipy input, on first use.
"""

from .cost import C_MAX, KAPPA_R, CostParams, compare_table, total_queries
from .engine import (
    Problem,
    RunResult,
    Runs,
    ScheduleConfig,
    krdm_problem,
    run_adaptive,
    run_many,
)
from .fermion import (
    Observable,
    binom_norm_formula,
    estimation_observables,
    krdm_observable_set,
    sum_squares_sector_norm,
)
from .probe import NoiseSpec
from .statevector import PureState, expectations

__version__ = "0.1.0"

__all__ = [
    "C_MAX",
    "KAPPA_R",
    "CostParams",
    "NoiseSpec",
    "Observable",
    "Problem",
    "PureState",
    "RunResult",
    "Runs",
    "ScheduleConfig",
    "__version__",
    "binom_norm_formula",
    "compare_table",
    "estimation_observables",
    "expectations",
    "krdm_observable_set",
    "krdm_problem",
    "run_adaptive",
    "run_many",
    "sum_squares_sector_norm",
    "total_queries",
]
