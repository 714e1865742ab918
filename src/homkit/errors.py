"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Dimensions of the operands do not line up."""


class KindMismatchError(ValueError):
    """An operation received an algebra or representation of the wrong kind."""


class PreconditionError(ValueError):
    """A construction was fed input that fails its precondition check."""


class UnknownNameError(KeyError):
    """A document has no object of the requested type under that name."""

    def __str__(self) -> str:  # the message itself, not a KeyError's repr
        return str(self.args[0]) if self.args else ""


class SoundnessError(AssertionError):
    """A value advertised as a solution failed re-verification."""


class ParseError(ValueError):
    """Syntax or resolution error in DSL input, with source position."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}: {message}" if column == 0
                         else f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
