"""Exception types shared across the package."""


class HkLabError(Exception):
    """Base class for all package errors."""


class ConfigError(HkLabError):
    """Invalid configuration: an input outside its documented range."""


class InfeasibleCapError(HkLabError):
    """No spherical cap meets the requested container/angle/size."""


class MeanConvexityError(HkLabError):
    """An operation requiring H > 0 met a vertex with H <= 0."""


class MeshQualityError(HkLabError):
    """Degenerate or below-threshold cells in a generated mesh."""


class SolverError(HkLabError):
    """Linear solver failed (non-convergence or loss of positive definiteness)."""


class DegenerateConfigurationError(HkLabError):
    """A denominator of a capillary constant vanished."""


class ContainerMismatchError(HkLabError):
    """Identity or check applied to a surface from the wrong container."""


class ConstantMismatchError(HkLabError):
    """Proof-chain replay received a solution not solved with the capillary constant."""


class WindowError(HkLabError):
    """Corner-fit window is empty or too small for a regression."""


class MeshFileError(HkLabError):
    """A mesh file is malformed or holds an invalid mesh."""
