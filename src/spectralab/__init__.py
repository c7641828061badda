"""spectralab: critical points of random polynomials and Ginibre-type spectra.

Library modules:

- polycore: root-based polynomials and logarithmic derivatives
- rootsolve: root-based critical points, companion roots, bracketed secular solves
- measures: empirical-measure distances, discrepancy, hull geometry, potentials
- matching: l1 matching distances and extremal spacing statistics
- randgen: deterministic seeded sampling
- rmt: random-matrix ensembles, kernels, Schur chains
- labcli: the spectra-lab experiment runner
- compute: the process's compute threads, shared by row kernels and trials
"""

__version__ = "0.1.0"
