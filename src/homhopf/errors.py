"""Exception types raised by constructors and solvers."""


class HomHopfError(Exception):
    """Base class for all package-specific errors."""


class NotAutomorphism(HomHopfError):
    """The supplied map is not a bialgebra automorphism."""


class NotIntertwining(HomHopfError):
    """A map fails to intertwine the structure automorphisms."""


class CentralityViolated(HomHopfError):
    """The centrality condition needed to build a quantum integral fails."""

    def __init__(self, g_label: str, h_label: str):
        super().__init__(f"centrality fails at ({g_label}, {h_label})")
        self.witness = (g_label, h_label)


class StructureDoesNotDescend(HomHopfError):
    """A structure map does not kill the balancing relations."""


class UnknownEntry(HomHopfError):
    """Requested catalog entry does not exist."""


class EquivalenceViolated(HomHopfError):
    """A theorem-level equivalence failed; indicates an implementation bug."""


class InstanceFormatError(HomHopfError):
    """Malformed instance file."""

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location
