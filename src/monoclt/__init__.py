"""monoclt: exact statistics and simulation oracles for monochromatic
edge/triangle counts under uniformly random vertex colorings.

Modules:
    graph         graph type, edge-list I/O, family generators
    census        triangle census, pyramid counts, 4-cycle count N(C4), b and s statistics
    moments       closed-form moments, the cumulant engine, CLT error-bound brackets
    ratpoly       exact polynomial evaluation and the JSON form of exact rationals
    fourthmoment  exact fourth-moment decomposition over configuration classes
    sim           Monte Carlo sampler, exhaustive enumeration, KS diagnostics
    errors        domain errors, all under MonocltError
    cli           command-line front end
"""

__version__ = "0.1.0"

from .errors import MonocltError

__all__ = ["MonocltError", "__version__"]
