"""Exception types shared across the package."""


class DegenerateConstraintError(ValueError):
    """A constraint row/operator has zero norm and cannot be normalized.

    Callers sampling from data may catch this and drop the sample when the
    right-hand side set contains 0 (a zero row then constrains nothing).
    """


class ConfigurationError(ValueError):
    """A solver configuration or a problem parameter is out of its range.

    Raised for settings a caller chose, such as a step size, a sample
    budget, or a problem builder's sparsity, correlation, deviation bound or
    margin; input data of the wrong shape raises a plain ValueError instead.
    """


class UnsupportedProblemError(ValueError):
    """The problem instance lacks structure required by the requested solver."""


class DivergenceError(RuntimeError):
    """An iterate, or its running mean, became non-finite during a run."""

    def __init__(self, epoch: int, step: int):
        self.epoch = epoch
        self.step = step
        super().__init__(
            f"iterate diverged (non-finite) at epoch {epoch}, inner step {step}"
        )


class NoConvergenceError(RuntimeError):
    """An iterative routine hit its iteration cap before reaching tolerance."""


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")
