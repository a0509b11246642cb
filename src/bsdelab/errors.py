"""Exception and warning types shared across the library."""


class BsdelabError(Exception):
    """Base class for all library-specific failures."""


class SimulationDivergedError(BsdelabError):
    """Forward simulation produced a non-finite state."""

    def __init__(self, path: int, step: int):
        self.path = int(path)
        self.step = int(step)
        super().__init__(f"non-finite state at path={self.path}, step={self.step}")


class SingularRegressionError(BsdelabError):
    """A least-squares step was rank deficient beyond the condition threshold."""

    def __init__(self, step: int, cond: float):
        self.step = int(step)
        self.cond = float(cond)
        super().__init__(f"singular regression at step={self.step} (cond={self.cond:.3e})")


class SolverDivergedError(BsdelabError):
    """Backward recursion produced non-finite values."""


class InvalidArchitectureError(ValueError, BsdelabError):
    """Network layout is inconsistent with the requested architecture kind."""


class OracleOverflowError(BsdelabError):
    """Closed-form oracle could not be evaluated in finite arithmetic."""


class InvalidComparisonPairError(BsdelabError):
    """Terminal conditions violate the pathwise ordering precondition."""


class InvalidDriverError(BsdelabError):
    """Driver does not satisfy a structural precondition (convexity, y-independence)."""


class NoContractionError(BsdelabError):
    """Picard residuals failed to decrease; horizon likely too large."""

    def __init__(self, residuals):
        self.residuals = list(residuals)
        super().__init__(
            "residuals non-decreasing for 3 consecutive iterations: "
            + ", ".join(f"{r:.3e}" for r in self.residuals)
        )


class IncompleteCoefficientsError(BsdelabError):
    """A required derivative callback is missing."""


class UnstableGridError(BsdelabError):
    """Explicit time stepping violates the stability bound."""

    def __init__(self, n_time_steps: int, required: int):
        self.n_time_steps = int(n_time_steps)
        self.required = int(required)
        super().__init__(
            f"explicit scheme unstable: {self.n_time_steps} time steps given, "
            f"at least {self.required} required"
        )


class SolverInconsistentError(BsdelabError):
    """A structural sign condition failed at an interior grid node."""

    def __init__(self, node: int, message: str):
        self.node = int(node)
        super().__init__(f"{message} (node={self.node})")


class TrainingDivergedError(BsdelabError):
    """Training loss or parameters became non-finite."""

    def __init__(self, iteration: int):
        self.iteration = int(iteration)
        super().__init__(f"non-finite loss at iteration {self.iteration}")


class ConfigError(BsdelabError):
    """Experiment configuration is malformed."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        detail = f": {message}" if message else ""
        super().__init__(f"config error at '{field}'{detail}")


class ExtrapolationWarning(UserWarning):
    """A surface query fell outside the computed grid and was clamped."""
