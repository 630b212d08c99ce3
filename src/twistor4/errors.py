"""Exception hierarchy.

Three families matter to callers (and to the CLI exit codes): expression or
input problems, geometric hypothesis failures (the requested computation is
only defined for immersed / isothermal / minimal surfaces), and numerical
breakdown inside an algorithm.
"""


class Twistor4Error(Exception):
    """Base class for all package errors."""


# --- expression / input errors -------------------------------------------

class ExpressionError(Twistor4Error):
    """Problem with a surface definition (text, JSON or evaluation domain)."""


class ExprSyntaxError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position  # 1-based offset into the source text


class ArityError(ExpressionError):
    pass


class UnknownIdentifier(ExpressionError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}' at offset {position}")
        self.name = name
        self.position = position


class DomainError(ExpressionError):
    """A jet is not finite: evaluation left the real domain or overflowed.
    The message names the innermost such sub-expression and the point."""

    def __init__(self, message: str, expr_text: str):
        super().__init__(f"{message} in '{expr_text}'")
        self.expr_text = expr_text


class GridTooSmall(ExpressionError):
    pass


# --- hypothesis failures ---------------------------------------------------

class HypothesisError(Twistor4Error):
    """A standing assumption of the requested computation does not hold."""


class NotImmersed(HypothesisError):
    pass


class NotIsothermal(HypothesisError):
    pass


class NotMinimal(HypothesisError):
    pass


# --- numerical breakdown ----------------------------------------------------

class NumericError(Twistor4Error):
    """An algorithm's internal consistency check failed."""


class NotAComplexStructure(NumericError):
    pass


class NonUnitCoords(NumericError):
    pass


class NonUnitQuaternion(NumericError):
    pass


class DegeneratePair(NumericError):
    pass


class NoCommonPlane(NumericError):
    pass


class NotSO4(NumericError):
    pass


class FactorizationFailed(NumericError):
    pass


class FrameConditionViolated(NumericError):
    pass


class DegenerateSeed(NumericError):
    pass


class SeedBranchFlip(NumericError):
    pass


class PoleOfChart(NumericError):
    pass
