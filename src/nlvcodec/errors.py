"""Exception hierarchy shared by all nlvcodec modules."""


class NlvError(Exception):
    """Base class for all nlvcodec errors."""


class EmptyArrayError(NlvError, ValueError):
    """Raised when an empty array is passed where n >= 1 is required."""


class RangeError(NlvError, IndexError):
    """Raised when a query or argument index is outside its valid range."""


class ParseError(NlvError, ValueError):
    """Raised when input text cannot be parsed as an integer array."""


class PreconditionError(NlvError, ValueError):
    """Raised when an encoder precondition fails (e.g. consecutive equal
    elements under a scheme that forbids them).

    ``index`` points at the offending position when one exists.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class CorruptionError(NlvError, ValueError):
    """Raised when a bitstream or container cannot be decoded.

    ``segment`` names the payload segment at fault and ``offset`` the
    position in it, when the decoder knows them: a bit position, or a
    trit position in the unpacked ``v_neutral``.
    """

    def __init__(self, message, segment=None, offset=None):
        super().__init__(message)
        self.segment = segment
        self.offset = offset


class AllocationError(NlvError, MemoryError):
    """Raised when a decode cannot allocate the n-entry tables that a
    container's header asks for.  A general container of a few bytes can
    declare any n up to MAX_N, since a long run costs it almost no bits."""


def allocation_error(n):
    """The AllocationError of a decode whose n-entry tables do not fit
    in memory."""
    return AllocationError("cannot allocate the decode tables for n = %d" % n)
