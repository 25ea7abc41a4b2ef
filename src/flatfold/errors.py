"""Exception types shared across the package."""


class FlatFoldError(Exception):
    """Base class for every error this package raises on purpose."""


class StructuralError(FlatFoldError):
    """Malformed graph or degenerate geometry (self-loop, dangling index, ...)."""


class PlanarityError(StructuralError):
    """The embedding is not a planar straight-line graph (creases cross, ...)."""


class SchemaError(FlatFoldError):
    """An input document does not match the expected shape."""


class ParseError(FlatFoldError):
    """A textual input (angle list, MV string) could not be parsed."""


class ParityError(FlatFoldError):
    """An operation that needs an even number of creases got an odd one."""


class ExactnessError(FlatFoldError):
    """A sector angle was asked for that has no rational degree measure."""


class NotFlatFoldableError(FlatFoldError):
    """The closure condition fails, so no assignment can fold the vertex flat."""


class CapacityError(FlatFoldError):
    """The input exceeds the configured limit for exhaustive search."""


class UnsupportedError(FlatFoldError):
    """The input is legal but outside what this implementation models."""


class LocalMaekawaError(FlatFoldError):
    """Some interior vertex violates the local mountain-valley parity rule."""

    def __init__(self, vertex_ids):
        self.vertex_ids = tuple(vertex_ids)
        super().__init__("local M-V parity fails at vertices %s" % (list(self.vertex_ids),))
