"""Exception types shared across detgraph modules."""


class DetgraphError(Exception):
    """Base class for all detgraph errors."""


class NotASpanningTree(DetgraphError, ValueError):
    """An edge set that was required to be a spanning tree is not one."""


class ForestHasCycle(DetgraphError, ValueError):
    """An edge set that was required to be acyclic contains a cycle."""


class InvalidEmbedding(DetgraphError, ValueError):
    """Face walks do not describe a valid embedding in the sphere."""


class EnumerationCapExceeded(DetgraphError, RuntimeError):
    """An exhaustive enumeration was requested above the configured edge cap."""


class RankDeficient(DetgraphError, ValueError):
    """A family of vectors required to be independent is (numerically) dependent."""


class DegenerateForms(DetgraphError, ValueError):
    """Supplied forms violate the rank condition of the requested measure."""


class ImpossibleCondition(DetgraphError, ValueError):
    """Conditioning event has probability zero."""


class NumericDegeneracy(DetgraphError, RuntimeError):
    """A numerical quantity left its admissible range beyond repair."""


class MalformedInput(DetgraphError, ValueError):
    """Input data (a JSON document or an argument) lacks the expected structure."""
