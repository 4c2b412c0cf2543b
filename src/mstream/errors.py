"""Exception hierarchy shared by all modules."""


class MStreamError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(MStreamError):
    """Wire shapes of two composed pieces do not line up."""


class EmptySupport(MStreamError):
    """A distribution was requested over an empty collection of values."""


class BadIndex(MStreamError):
    """An index set referred to wires that do not exist."""


class NotEnumerable(MStreamError):
    """An operation needed to enumerate an unbounded wire shape."""


class StateCapExceeded(MStreamError):
    """Exact observation grew past the configured state cap.

    The offending size is carried in ``size``, and the tick at which it was
    reached in ``tick`` when the caller knows it (else None).
    """

    def __init__(self, size, cap, tick=None):
        at = "" if tick is None else f" at tick {tick}"
        super().__init__(
            f"joint support reached {size} entries (cap {cap}){at}")
        self.size = size
        self.cap = cap
        self.tick = tick


class NondeterministicStream(MStreamError):
    """A deterministic evaluator met a kernel that is not Dirac."""


class TermTypeError(MStreamError):
    """A term or program does not typecheck.

    ``path`` locates the offending IR node (``()`` is the root); errors in a
    program's source name their definition instead and carry no path.
    """

    def __init__(self, message, path=None):
        if path is None:
            super().__init__(message)
        else:
            loc = "/".join(str(p) for p in path) if path else "root"
            super().__init__(f"{message} (at {loc})")
        self.message = message
        self.path = tuple(path or ())


class ParseError(MStreamError):
    """Source text could not be parsed; carries line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class CausalityError(MStreamError):
    """A recursive stream definition is not guarded by a delay."""


class ElaborationError(MStreamError):
    """Internal invariant violation while lowering a program to a term."""
