"""Exception hierarchy shared across the package."""


class CardioseqError(Exception):
    """Base class for all package errors."""


class EmptyDatasetError(CardioseqError):
    pass


class MalformedRowError(CardioseqError):
    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UnknownLabelError(MalformedRowError):
    pass


class AllMissingColumnError(CardioseqError):
    pass


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


class StaleCacheError(CardioseqError):
    pass


class TooFewSamplesError(CardioseqError):
    pass


class ModelFileError(CardioseqError):
    pass
