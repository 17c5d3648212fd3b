"""Exception types shared across the package."""

import math


class OrbitscopeError(Exception):
    """Base class for all package errors."""


class IndexSetMismatch(OrbitscopeError):
    """Vectors or operators over N were combined with ones over Z."""


class ModeMismatch(OrbitscopeError):
    """Exact-rational and float64 values were mixed in one computation."""


class NumericOverflow(OrbitscopeError):
    """A float64-mode magnitude exceeded the overflow policy (log2 > 900)."""


class IndecisiveSpectrum(OrbitscopeError):
    """A block's spectral radius is r = 1 exactly, neither contracting nor expanding."""


class VerificationFailed(OrbitscopeError):
    """A witness failed its check; signals an arithmetic bug."""


class SearchFailed(OrbitscopeError):
    """Witness search gave up.

    ``reason`` is one of ``budget``, ``k-cap``, ``stagnation``,
    ``decay-bound``, ``collapse-bound`` or ``tail-bound``.  The last three
    are exact proofs that the target is not in the limit set: ``proof``
    then holds their ``k0``, ``eps`` and ``inequality`` (and, for
    ``tail-bound``, the ``coordinate``).  It is None for every other
    reason, each of which means "not found within this budget and
    strategy".
    """

    def __init__(self, message, *, reason, triple_index, best_residual,
                 best_delta_norm, attempts, budget_used, k_last, proof=None):
        super().__init__(message)
        self.reason = reason
        self.triple_index = triple_index
        self.best_residual = best_residual
        self.best_delta_norm = best_delta_norm
        self.attempts = attempts
        self.budget_used = budget_used
        self.k_last = k_last
        self.proof = proof

    def diagnostics(self):
        """The fields as JSON values; a non-finite float (no value reached) is None."""
        def finite(v):
            return None if isinstance(v, float) and not math.isfinite(v) else v
        return {
            "reason": self.reason,
            "triple_index": self.triple_index,
            "best_residual": finite(self.best_residual),
            "best_delta_norm": finite(self.best_delta_norm),
            "attempts": self.attempts,
            "budget_used": self.budget_used,
            "k_last": self.k_last,
            "proof": self.proof,
        }


class InputNotAWitnessFamily(OrbitscopeError):
    """A claimed witness family failed its stated preconditions."""

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures or []


class ConfigError(OrbitscopeError):
    """Invalid run configuration or CLI input."""
