"""Exception hierarchy shared by all clusterknit modules, and the strict
integer reader that the text input boundaries share."""


def strict_int(text: str) -> int:
    """The integer spelled ``-?[0-9]+`` by ``text``, as JSON spells one.
    Anything ``int()`` would also take (underscores, surrounding spaces, a
    sign '+', non-ASCII digits) raises ValueError, as does a number past
    ``int()``'s digit limit."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class ClusterKnitError(Exception):
    """Base class for all errors raised by this package."""


# -- quiver ------------------------------------------------------------

class LoopError(ClusterKnitError):
    pass


class CycleError(ClusterKnitError):
    pass


class DisconnectedError(ClusterKnitError):
    pass


class TooSmallError(ClusterKnitError):
    pass


class NotAdaptedError(ClusterKnitError):
    pass


class NotReducedError(ClusterKnitError):
    pass


class VertexIndexError(ClusterKnitError, IndexError):
    """A vertex index outside 1..n: an arrow end of a quiver, a vertex to
    reflect or mutate at, or a letter of a sink sequence."""


class InputFormatError(ClusterKnitError):
    """Quiver or ordering JSON, or a ``--t`` vector, whose entries are not
    integers where integers belong."""


# -- mesh --------------------------------------------------------------

class TerminalConstraintError(ClusterKnitError):
    pass


class DynkinOverflowError(ClusterKnitError):
    pass


class LabelRangeError(ClusterKnitError, IndexError):
    """An interval label T_{i,[a,b]} outside the category: i is not a vertex
    or [a,b] does not lie in the levels 0..t_i that the label may use."""


# -- exchange / cluster ------------------------------------------------

class TwoCycleError(ClusterKnitError):
    pass


class FrozenMutationError(ClusterKnitError):
    pass


class AmbiguityError(ClusterKnitError):
    """Both mutation branches are total-tied but differ; refusing to guess."""


class SeedFormatError(ClusterKnitError):
    """Seed JSON whose parts disagree with its size r or with each other, or
    whose entries are not integers where integers belong."""


# -- laurent -----------------------------------------------------------

class ArityMismatchError(ClusterKnitError):
    pass


class NotDivisibleError(ClusterKnitError):
    """Exact division failed.  In mutation context this signals a broken
    invariant, never an expected condition."""


class NegativeExponentSubstitutionError(ClusterKnitError):
    pass


# -- rigidpath ---------------------------------------------------------

class ScheduleMismatchError(ClusterKnitError):
    pass


# -- euler -------------------------------------------------------------

class SummandIndexError(ClusterKnitError, IndexError):
    """k outside 1..r: the k-th summand of T_M^vee does not exist."""


class NotThinError(ClusterKnitError):
    pass


# -- minors ------------------------------------------------------------

class ShapeError(ClusterKnitError):
    pass
