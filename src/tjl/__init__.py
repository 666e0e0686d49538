"""Exact computation of level-zero division-algebra spectra over F_q(t).

Layered bottom-up: cyclotomic scalars, finite-field function-field
arithmetic, metacyclic groups and their irreps, the tame parameter
dictionary, quaternion order arithmetic, adelic factorization and Hecke
matrices, and the spectral decomposition that ties them together.

The package re-exports nothing: import each name from its module.  The
commands of tjl.cli are the library's one entry point.
"""
