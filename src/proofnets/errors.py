"""Exception types shared across the package."""


class ProofNetError(Exception):
    """Base class for all errors raised by this package."""

    report = None  # the validation report behind an error, when it has one


class ParseError(ProofNetError):
    """Malformed surface syntax. `position` is a 1-based offset when known."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class ValidationError(ProofNetError):
    """A structure or proof failed validation. Carries the full report."""

    def __init__(self, report):
        self.report = report
        first = report.violations[0] if report.violations else None
        detail = f": {first[2]}" if first else ""
        super().__init__(f"{len(report.violations)} violation(s){detail}")


class FragmentError(ProofNetError):
    """A formula or typing does not belong to the required fragment."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class SwitchingLimitError(ProofNetError):
    """Exhaustive switching enumeration would exceed the configured cap."""


class CanonicalLimitError(ProofNetError):
    """The canonical-form search would run more traversals than its budget."""


class SequentializationError(ProofNetError):
    """A sequentializer's precondition failed. Carries the offending verdict
    or witness when one exists."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class RedexError(ProofNetError):
    """A requested reduction step does not exist in the structure."""


class TypeInferenceError(ProofNetError):
    """No consistent typing exists for an untyped structure."""
