"""Exception hierarchy shared across the package."""


class CardioseqError(Exception):
    """Base class for all package errors."""


class InputError(CardioseqError):
    """Bad input (a data or model file): the command line exits 2, not 3."""


class EmptyDatasetError(InputError):
    pass


class MalformedRowError(InputError):
    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


class UnknownLabelError(MalformedRowError):
    pass


class AllMissingColumnError(CardioseqError):
    pass


class ColumnOverflowError(InputError):
    """A training column whose mean or range overflows, so it cannot be scaled."""


class ArityMismatchError(CardioseqError):
    pass


class MissingValueError(CardioseqError):
    pass


class EmptyBatchError(CardioseqError):
    pass


class ShapeMismatchError(CardioseqError):
    pass


class SingleClassDataError(CardioseqError):
    pass


class NonFiniteLossError(CardioseqError):
    pass


class NonFiniteInputError(CardioseqError):
    pass


class NonFiniteProbabilityError(InputError):
    """Values (a record's or a model's) too large for the model's arithmetic."""

    def __init__(self, where, probs):
        super().__init__(f"{where}: non-finite class probabilities {probs[0]} {probs[1]}")
        self.probs = probs


class TooFewSamplesError(CardioseqError):
    pass


class ModelFileError(InputError):
    pass


class NonAsciiFileError(InputError):
    pass
