"""Exception types shared across the package.

Errors split into three families: input problems (parsing, malformed
signatures/machines), logical negatives (a certificate that does not check,
a trace that does not replay), and internal misuse (plain ValueError).  The
command line maps input problems to exit status 2 and logical negatives to
exit status 1.
"""

from __future__ import annotations

import enum


class ParseError(ValueError):
    """Raised when one of the text formats fails to parse.

    Carries enough position information to print ``file:line:column``.
    Lines and columns count from 1; only ``\\n`` ends a line, so a ``\\r``
    before it is the line's last column.  The readers keep character
    offsets and convert one with :meth:`at` only for the error they raise.
    """

    def __init__(self, message: str, line: int, column: int, filename: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename
        where = f"{filename or '<input>'}:{line}:{column}"
        super().__init__(f"{where}: {message}")

    @classmethod
    def at(cls, message: str, text: str, offset: int, filename: str | None = None) -> ParseError:
        """The error at character ``offset`` of ``text``."""
        line_start = text.rfind("\n", 0, offset) + 1
        return cls(message, text.count("\n", 0, offset) + 1, offset - line_start + 1, filename)


# --- signature errors -------------------------------------------------------

class SignatureError(ValueError):
    pass


class UnknownLabel(SignatureError):
    """A subexponential label is not declared in the ambient signature."""


class UpwardClosureViolation(SignatureError):
    """The unbounded set is not upward closed under the label order."""


# --- machine validation errors ---------------------------------------------

class MachineError(ValueError):
    pass


class UnknownState(MachineError):
    """An entry or configuration mentions a state outside the machine."""


class SelfLoop(MachineError):
    """An entry has identical source and target states."""


class HaltFromHalting(MachineError):
    """An entry leaves the halting state, which must have no successor."""


class HaltingTarget(MachineError):
    """A non-halt entry jumps into the halting state.

    Only halt lands on the halting state; this keeps "the run reached the
    halting configuration" and "the trace ends with halt" interchangeable,
    which the logical encoding depends on.
    """


class NondeterministicState(MachineError):
    """Two entries from the same state have overlapping guard domains."""


# --- reduction errors -------------------------------------------------------

class AtomClash(ValueError):
    """A machine state collides with one of the reserved encoding atoms."""


class TraceMismatch(ValueError):
    """A trace does not replay on the simulator from the given configuration."""


class MalformedCertificate(ValueError):
    """A proof certificate does not have the structure the reduction expects."""


# --- proof checking ---------------------------------------------------------

class Reason(enum.Enum):
    """Machine-readable causes for rejecting a certificate node."""

    ARITY_MISMATCH = "arity-mismatch"
    CONTEXT_MISMATCH = "context-mismatch"
    PROMOTION_BLOCKED = "promotion-blocked"
    STRUCTURAL_ON_BOUNDED = "structural-on-bounded"
    NOT_NEUTRAL = "not-neutral"
    FOCUS_ON_NEGATIVE = "focus-on-negative"
    LINGERING_LINEAR = "lingering-linear"
    WRONG_DECIDE_FLAVOR = "wrong-decide-flavor"
    COPIED_BOUNDED = "copied-bounded"
    BLUR_ON_POSITIVE = "blur-on-positive"

    def __str__(self) -> str:
        return self.value


class CheckError(ValueError):
    """A certificate failed to check.

    ``path`` addresses the offending node as a sequence of premise indices
    from the root, so ``()`` is the root and ``(1, 0)`` is the first premise
    of the root's second premise.
    """

    def __init__(self, reason: Reason, message: str, path: tuple[int, ...] = ()):
        self.reason = reason
        self.message = message
        self.path = path
        at = ".".join(str(i) for i in path) or "root"
        super().__init__(f"{reason.value} at {at}: {message}")
