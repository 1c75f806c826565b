"""Exception types shared across the package."""


class GraphError(ValueError):
    """Invalid multigraph construction (bad weights, unknown endpoints, disconnected)."""


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class ParseError(ValueError):
    """Malformed textual input, with an optional source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        elif line is not None:
            message = f"{message} (line {line})"
        elif column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)


class BudgetExceededError(RuntimeError):
    """An enumeration would visit more candidates than the configured budget."""

    def __init__(self, count: int, budget: int):
        self.count = count
        self.budget = budget
        super().__init__(f"enumeration of {count} candidates exceeds budget {budget}")


class InternalError(RuntimeError):
    """An internal invariant failed: a defect in chipfire, not in the input.

    Raised instead of ``assert`` so the check also runs under ``python -O``.
    """
