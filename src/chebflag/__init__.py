"""chebflag: exact coefficients of Chebyshev-type rational quotients,
eventual-positivity classification, and combinatorial cross-checks.

Every public name is imported from the module that defines it, for
example ``from chebflag.quotient import expand``; each module's
``__all__`` lists its names."""

__version__ = "0.1.0"
