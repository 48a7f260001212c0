"""Exception hierarchy shared by the simulator modules.

Every protocol-level rejection raises a subclass of ProtocolError and leaves
the ledger and protocol state untouched, so callers can treat a raise as
"nothing happened".
"""


class ProtocolError(Exception):
    """Base class for all rule violations the simulator rejects."""


class ConfigError(ProtocolError):
    """A configuration value is outside its allowed bounds."""


class DuplicateAddress(ProtocolError):
    """Account registration collided with an existing address."""


class UnknownAddress(ProtocolError):
    """Operation referenced an address with no registered account."""


class InsufficientBalance(ProtocolError):
    """Debit would overdraw an account."""


class AuthTagError(ProtocolError):
    """An event's authentication tag does not verify against its sender."""


class WindowError(ProtocolError):
    """Operation attempted outside its allowed tick window."""


class BindingViolation(ProtocolError):
    """A revealed value does not hash to its earlier commitment."""


class PhaseError(ProtocolError):
    """Operation attempted in the wrong lottery phase, or a phase replay."""


class AdmissionRejected(ProtocolError):
    """Candidate failed proof-of-work or certification during enrollment."""


class ScenarioError(ProtocolError):
    """Scenario file failed to parse or validate."""


class ReportError(ProtocolError):
    """Report cannot be serialized, written, or read back."""
