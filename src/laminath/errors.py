"""Error types shared across the package.

Each error carries a stable machine-readable ``code`` used by the CLI for
exit-status mapping and JSON error objects.
"""

from __future__ import annotations


class LaminathError(Exception):
    code = "error"


class InvalidSlope(LaminathError):
    code = "invalid-slope"


class PrecisionExhausted(LaminathError):
    code = "precision-exhausted"


class ParityMismatch(LaminathError):
    code = "parity-mismatch"


class NotBlockShaped(LaminathError):
    code = "not-block-shaped"


class SingularHit(LaminathError):
    code = "singular-hit"

    def __init__(self, message, point=None, step=None):
        super().__init__(message)
        self.point = point
        self.step = step


class ClearanceViolated(LaminathError):
    code = "clearance-violated"


class CertificateViolation(LaminathError):
    code = "certificate-violation"  # a certificate's exact self-check failed


class InvalidGrowthFunction(LaminathError):
    code = "invalid-growth-function"


class DepthInsufficient(LaminathError):
    code = "depth-insufficient"


class InvalidSurface(LaminathError):
    code = "invalid-surface"


class CylinderDecomposition(LaminathError):
    code = "cylinder-decomposition-detected"


class BudgetExhausted(LaminathError):
    """A search ran out of budget; ``progress`` records how far it got."""

    code = "budget-exhausted"

    def __init__(self, message, **progress):
        super().__init__(message)
        self.progress = progress


class MemoryExhausted(LaminathError):
    code = "memory-exhausted"  # a MemoryError reached the CLI


# errors that make the CLI exit 3; every other error exits 2
EXHAUSTION_ERRORS = (PrecisionExhausted, DepthInsufficient, BudgetExhausted,
                     CylinderDecomposition, MemoryExhausted)
