"""Exception types raised across the package."""


def _rebuild(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class AtcnetError(Exception):
    """Base class for all package-specific errors.

    Subclasses build their message from their own arguments, so unpickling
    restores the message and attributes instead of calling ``__init__`` again.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


class NonSquare(AtcnetError):
    def __init__(self, shape):
        super().__init__(f"combination matrix must be square, got shape {shape}")
        self.shape = shape


class NegativeWeight(AtcnetError):
    def __init__(self, source, receiver, value):
        super().__init__(
            f"weight from agent {source} to agent {receiver} is negative ({value})"
        )
        self.source = source
        self.receiver = receiver
        self.value = value


class NonFiniteWeight(AtcnetError):
    def __init__(self, source, receiver, value):
        super().__init__(
            f"weight from agent {source} to agent {receiver} is not finite ({value})"
        )
        self.source = source
        self.receiver = receiver
        self.value = value


class ColumnSumViolation(AtcnetError):
    def __init__(self, column, actual_sum):
        super().__init__(
            f"column {column} sums to {actual_sum}, expected 1 within tolerance"
        )
        self.column = column
        self.actual_sum = actual_sum


class NonPrimitiveSource(AtcnetError):
    def __init__(self, scc_id, members):
        super().__init__(
            f"source sub-network {scc_id} (agents {sorted(members)}) is periodic; "
            "a sending sub-network must be primitive"
        )
        self.scc_id = scc_id
        self.members = tuple(members)


class NoConvergence(AtcnetError):
    def __init__(self, max_iter, what="iteration"):
        super().__init__(f"{what} did not converge within {max_iter} iterations")
        self.max_iter = max_iter


class SingularSystem(AtcnetError):
    pass


class NotAnRAgent(AtcnetError):
    def __init__(self, agent_id):
        super().__init__(f"agent {agent_id} is not in the receiving group")
        self.agent_id = agent_id


class DimensionMismatch(AtcnetError):
    pass


class Diverged(AtcnetError):
    def __init__(self, agent, iteration, run=None):
        where = f"agent {agent} at iteration {iteration}"
        if run is not None:
            where += f" (run {run})"
        super().__init__(f"iterates diverged: {where}")
        self.agent = agent
        self.iteration = iteration
        self.run = run


class InsufficientData(AtcnetError):
    pass


class SingularAggregateHessian(AtcnetError):
    pass


class NonPositive(AtcnetError):
    def __init__(self, value):
        super().__init__(f"dB conversion needs a positive value, got {value}")
        self.value = value


class ConfigError(AtcnetError):
    def __init__(self, message, field=None):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field
