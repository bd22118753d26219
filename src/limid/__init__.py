"""Influence diagram toolkit.

Model multistage decision problems as influence diagrams (chance, decision,
and value nodes with conditional probability tables), compile them through
gradual rooted junction trees into mixed-integer linear programs, and solve
for strategies that maximize expected utility or lower-tail conditional
value at risk, optionally under chance, logical, budget, or CVaR-floor
constraints.

The package re-exports nothing: import from the submodules
(``limid.diagram``, ``limid.rjt``, ``limid.mip``, ``limid.solve``, ...).
A process that needs only one of them, such as the ``limid.milp_backend``
solver child, loads only that module.
"""

__version__ = "0.1.0"
