"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates an operation's preconditions."""


class ContractError(ValueError):
    """An input breaks a documented data contract (e.g. an unnormalized probability vector)."""


class DataError(ValueError):
    """A record references data that is missing or inconsistent."""


class EmptyDatasetError(DataError):
    """A dataset file holds no samples."""


class UndefinedMetricError(ValueError):
    """A metric has no defined value on the given inputs (e.g. AUC with one class)."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""
