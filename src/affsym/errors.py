"""Exception hierarchy.

``InputError`` subclasses flag malformed input data (bad windows, bad
letters, unparseable text) and map to CLI exit status 2.  ``DomainError``
subclasses flag violated operation preconditions and map to exit status 3.
``ComputationError`` subclasses signal internal failures that would
contradict an identity the library relies on; they are never expected
to fire on valid input.
"""


class AffineError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AffineError, ValueError):
    """Malformed input value or text."""


class WindowLengthError(InputError):
    """Window does not have exactly n entries."""


class WindowSumError(InputError):
    """Window entries do not sum to n(n+1)/2."""


class DuplicateResidueError(InputError):
    """Two window entries are congruent mod n."""


class BadLetterError(InputError):
    """Word letter outside the residue range [0, n-1]."""


class FormatError(InputError):
    """Unparseable window/word/decomposition text."""


class DomainError(AffineError, ValueError):
    """Operation precondition violated."""


class PeriodMismatchError(DomainError):
    """Operands live in affine symmetric groups of different periods."""


class CongruentPairError(DomainError):
    """Transposition t_{r,s} requested with r = s mod n."""


class BadIndexError(DomainError):
    """Simple-reflection index outside [0, n-1]."""


class NotGrassmannianError(DomainError):
    """Element is not a minimal coset representative."""


class NotACoverError(DomainError):
    """Element does not cover the reference element in Bruhat order."""


class NotReducedError(DomainError):
    """Word expected to be reduced is not."""


class WordIsReducedError(DomainError):
    """Insertion index requested for a word that is already reduced."""


class MarkDeletionNotReducedError(DomainError):
    """Deleting the marked letter does not leave a reduced word."""


class NotVMarkedError(DomainError):
    """Marked word is not v-marked for the given v."""


class NotRightRCoverError(DomainError):
    """Element is not a right r-cover of the given v."""


class NotLeftRCoverError(DomainError):
    """Element is not a left r-cover of the given v."""


class MarkAbsentError(DomainError):
    """Marked residue is not a member of the subset."""


class FullSetError(DomainError):
    """Subset of Z/nZ must be proper."""


class DegreeMismatchError(DomainError):
    """Composition degree differs from the element length."""


class InvalidDecompositionError(DomainError):
    """Factor tuple is not length-additive."""


class IdentityInputError(DomainError):
    """Operation undefined on the identity permutation."""


class ComputationError(AffineError, RuntimeError):
    """Internal failure contradicting a verified identity."""


class SymmetryViolationError(ComputationError):
    """Composition counts for one partition class disagree."""


class SingularSystemError(ComputationError):
    """Basis coefficient tables are linearly dependent."""


class CycleOverflowError(ComputationError):
    """Walk exceeded the finite-cycle safety cap."""


class InvariantError(ComputationError):
    """Unique exchange or insertion, or a Little walk invariant, failed."""


class EnumerationError(ComputationError):
    """An enumeration disagrees with an independent count of its size."""
