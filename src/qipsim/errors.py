"""Exception hierarchy shared across the package.

Each class maps to a CLI exit code so command-line failures are
distinguishable by kind (parse / validation / engine / budget).
"""


class QipsimError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class ParseError(QipsimError):
    """A spec document could not be parsed or violates the document schema,
    or a path named on the command line could not be read or written."""

    exit_code = 2

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column or 0)
        super().__init__(message)


class ValidationError(QipsimError):
    """A verifier, prover, or claim failed a structural validation."""

    exit_code = 3


class LinalgError(ValidationError):
    """Bad dimensions or malformed operators in linear-algebra helpers."""


class EngineError(QipsimError):
    """A simulation run hit an inconsistent or unsupported configuration."""

    exit_code = 4


class BudgetError(QipsimError):
    """A run or sweep exceeded an explicit resource budget."""

    exit_code = 5


class FamilyInadequacyError(EngineError):
    """Requested exhaustive sweep cannot be certified for this verifier.

    Raised when the message-schedule optimum is requested for a verifier
    whose transition structure defeats the exact search (branching rows
    whose written symbols depend on hidden state), so a schedule sweep
    would not bound arbitrary provers.  Such protocols ship their own
    adversary families instead.
    """
