"""Exception hierarchy for the library.

Every error raised on a contract violation derives from EulerphiError, so
callers can tell contract failures apart from genuine bugs.  Each class
carries the CLI's exit code for it in exit_code: one code per class, 2 for a
usage error and 10-35 for the rest, never 1, which means "a verification
failed".
"""


class EulerphiError(Exception):
    """Base class for all library-level errors."""

    # a bare EulerphiError names no contract, so it exits as an internal
    # error would
    exit_code = 36


# --- construction / validation ------------------------------------------

class BadModulus(EulerphiError):
    """Character modulus is invalid (q < 1, wrong table length, bad discriminant)."""

    exit_code = 10


class WrongSupport(EulerphiError):
    """Character value nonzero at a residue not coprime to the modulus, or vice versa."""

    exit_code = 11


class NonMultiplicative(EulerphiError):
    """Character table fails complete multiplicativity or unit-modulus checks."""

    exit_code = 12


class BadProductSpec(EulerphiError):
    """Euler product local data violates a structural invariant."""

    exit_code = 13


class RootOutOfDisk(BadProductSpec):
    """An inverse root has modulus above 1."""

    exit_code = 14


class DegreeNotMinimal(BadProductSpec):
    """No prime has all d inverse roots nonzero (and the table is not all-zero)."""

    exit_code = 15


class NotPrime(EulerphiError):
    """A local operation was asked about a non-prime index."""

    exit_code = 16


# --- constants / series --------------------------------------------------

class CutoffTooSmall(EulerphiError):
    """Prime cutoff below the smallest admissible value."""

    exit_code = 17


class PrincipalCharacter(EulerphiError):
    """L(s, chi) requested for a principal character at s <= 1, where the
    series diverges (its pole is at s = 1)."""

    exit_code = 18


class PrecisionUnreachable(EulerphiError):
    """A constant has no usable bound: L(1, chi) is not separated from 0 by
    its bound, so A1 = 1/L(1, chi) has none, or C(F) of a default-one
    product is asked for above the degree its accelerated product handles."""

    exit_code = 19


class ModeUnavailable(EulerphiError):
    """Requested evaluation mode does not exist for this product kind."""

    exit_code = 20


class SOutOfRange(EulerphiError):
    """Series argument s outside the admissible half-plane/interval."""

    exit_code = 21


# --- tables ---------------------------------------------------------------

class OutOfMemory(EulerphiError):
    """Requested table size beyond the configured cap."""

    exit_code = 22


class XBeyondTable(EulerphiError):
    """Evaluation point beyond the tabulated range."""

    exit_code = 23


class CacheMismatch(EulerphiError):
    """On-disk table does not match the requested spec / size / mode."""

    exit_code = 24


# --- decomposition --------------------------------------------------------

class MBeyondTable(EulerphiError):
    """Series truncation M beyond the tabulated range."""

    exit_code = 25


class MSmallerThanX(EulerphiError):
    """Series truncation M below x, where the tail substitution is invalid."""

    exit_code = 26


class XBelowN(EulerphiError):
    """Fractional-part integral requested on an empty interval (x < n)."""

    exit_code = 27


class XBelowOne(EulerphiError):
    """Operation only valid for x >= 1."""

    exit_code = 28


class NonPositiveX(EulerphiError):
    """Operation only valid for x > 0."""

    exit_code = 29


# --- volterra ---------------------------------------------------------------

class BadGrid(EulerphiError):
    """Grid construction violates the half-offset / integer-avoidance invariant."""

    exit_code = 30


class AnchorOutOfRange(EulerphiError):
    """Solver anchor x0 outside (0, X]."""

    exit_code = 31


class NotIntegrableNearZero(EulerphiError):
    """Heuristic O(t) check near zero failed for the improper integral."""

    exit_code = 32


class NotHomogeneous(EulerphiError):
    """Candidate fails the homogeneous-equation residual pre-check."""

    exit_code = 33


class XBeyondGrid(EulerphiError):
    """Evaluation point beyond the grid's right endpoint."""

    exit_code = 34


# --- cli ---------------------------------------------------------------------

class UsageError(EulerphiError):
    """Malformed flags or config file."""

    exit_code = 2


class IoError(EulerphiError):
    """Output path not writable or input file unreadable."""

    exit_code = 35
