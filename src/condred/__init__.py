"""Well-conditioned matrix promise problems as executable transformations.

The package has five layers:

* :mod:`condred.matcore` -- complex linear algebra on the stored form of a
  matrix, dense or sparse, and channel superoperators under a fixed
  row-major vectorization;
* :mod:`condred.problems` -- the promise problems as data, promise checking,
  a brute-force decision oracle and seeded instance generators;
* :mod:`condred.reductions` -- the condition-preserving reductions between
  the problems, with per-application provenance records;
* :mod:`condred.circuits` -- circuits with intermediate measurements and the
  compiler that turns them into measurement-free matrix instances, plus the
  clock Hamiltonian and stochastic-chain encodings;
* :mod:`condred.series` -- certified truncated-series approximators for
  log-determinants and inverse entries.

``condred.cli`` exposes all of it as a batch command line tool.
"""

from .matcore import hermitian_eigs, natural_representation, svd_values, vec_index
from .problems import (
    ConditionParams,
    Decision,
    DecisionValue,
    Kind,
    ProblemInstance,
    PromiseReport,
    check_promise,
    gen_conditioned_matrix,
    gen_instance,
    oracle_decide,
)
from .reductions import (
    DET_PLUS_CYCLE,
    MATINV_PLUS_CYCLE,
    RULES,
    ReductionRecord,
    chain,
    measure_record,
)
from .circuits import (
    ChannelGate,
    GeneralCircuit,
    StochasticChain,
    append_cleanup,
    circuit_to_itmatprod,
    clock_hamiltonian,
    eliminate_measurements,
    markov_to_matpow,
    simulate_acceptance,
)
from .series import ApproxResult, logdet_series, neumann_inverse_entry

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
