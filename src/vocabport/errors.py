"""Exception types shared across the package."""


class VocabportError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(VocabportError):
    """Invalid data, configuration, or arguments."""


class FormatError(ValidationError):
    """A file does not conform to its declared on-disk format."""


class MalformedSpecError(ValidationError):
    """A tokenizer spec is internally inconsistent or incomplete.

    `item` is the index of the merge or token at fault, when there is one;
    the spec loaders turn it into a file line.
    """

    def __init__(self, message: str, item: int | None = None):
        super().__init__(message)
        self.item = item
