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
    """An enumeration would visit more candidates than the configured budget.

    ``stage`` names the search that tripped (for instance ``"rank"``) and
    ``level`` the scan level it was about to enumerate; either is None
    where it does not apply.
    """

    def __init__(self, count: int, budget: int, stage: str | None = None, level: int | None = None):
        self.count = count
        self.budget = budget
        self.stage = stage
        self.level = level
        where = [stage] if stage else []
        if level is not None:
            where.append(f"level {level}")
        prefix = f"{' '.join(where)}: " if where else ""
        super().__init__(f"{prefix}enumeration of {count} candidates exceeds budget {budget}")


class InternalError(RuntimeError):
    """An internal invariant failed: a defect in chipfire, not in the input.

    Raised instead of ``assert`` so the check also runs under ``python -O``.
    """
