"""divlab: exact desk-scale verification of intersecting-family diversity results.

Modules:
    bitfam        bitmask families, packed 2^n-point tables, lex k-subset
                  enumeration, degrees, diversity
    constructions named family builders and junta lifts
    shiftlex      (i,j)-shifts and Kruskal-Katona lex machinery
    bounds        exact binomial bounds, inequality sweeps and the
                  triangle-center decomposition with its diversity chain
    booleanlab    exact biased measures and influences on junta centers
    runstat       cyclic run-length statistics
    extremal      maximal-family enumeration and diversity search
    randfam       seeded random intersecting families
    report        run records: parameters, result tables, assertions
    verify        the acceptance criteria behind ``divlab verify-all``
    errors        shared exception types
    cli           command-line front end
"""

__version__ = "0.1.0"
