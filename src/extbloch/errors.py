"""Exception types raised by the library."""


class CcsError(Exception):
    """Base class for all library-specific errors."""


class DeterminantError(CcsError):
    """Matrix determinant differs from 1 beyond tolerance."""


class DegenerateTuple(CcsError):
    """Two of the four cross-ratio points coincide."""


class LogOfZero(CcsError):
    """Principal logarithm requested at (numerically) zero."""


class OnCut(CcsError):
    """Dilogarithm argument lies on the cut (1, oo) with no side flag."""


class ZAtZeroOrOne(CcsError, ValueError):
    """A covering point's z lies (numerically) at 0 or 1."""


class ChiAtZero(CcsError):
    """The two-term torsion element is undefined at r = 0."""


class NotEven(CcsError):
    """A log-parameter triple does not round to even branch integers."""


class InvalidFlattening(CcsError):
    """Log parameters are not logarithms of a common cross-ratio."""


class DegenerateFT(CcsError):
    """A coordinate of the five-tuple hits 0, 1 or a coincidence."""


class DegenerateConfig(CcsError):
    """A vector configuration has a vanishing pairwise determinant."""


class NotVGood(CcsError):
    """A chain fails the det(g_i v, g_j v) != 0 condition for the given v."""


class NotACycle(CcsError, ValueError):
    """A chain given for evaluation is not a 3-cycle."""


class SamplingExhausted(CcsError):
    """Rejection sampling failed to find a generic vector."""


class RepairFailed(CcsError):
    """Repair failed: apex sampling, goodness or the certificate check."""


class Incomparable(CcsError):
    """Neither g1 < g2 nor g2 < g1 (quotient has c = 0)."""


class NotSortable(CcsError):
    """Bubble sort produced an order that fails pairwise verification."""


class PreconditionFailed(CcsError):
    """A named hypothesis of the small-positive agreement check failed."""


class PathDegenerate(CcsError):
    """A lifted coordinate hits 0, 1 or a cut endpoint."""


class OutOfGrid(CcsError):
    """A value too large, for the comparison tolerance, to be keyed."""


class SchemaError(CcsError):
    """A chain or report file does not match the expected JSON schema."""
