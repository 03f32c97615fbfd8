"""Well-conditioned matrix promise problems as executable transformations.

The package has five layers; import the layer module you need
(``from condred import problems``), since ``import condred`` loads none of
them:

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

__version__ = "0.1.0"
