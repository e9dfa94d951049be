"""Shared exception types."""


class BallBasisError(Exception):
    pass


class EmptySet(BallBasisError):
    pass


class NotDoubling(BallBasisError):
    pass


class OracleTooLarge(BallBasisError):
    pass


class RegularityViolation(BallBasisError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotACover(BallBasisError):
    pass


class PostconditionFailure(BallBasisError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class AlphaViolated(BallBasisError):
    def __init__(self, message, ball_id=None, ratio=None):
        super().__init__(message)
        self.ball_id = ball_id
        self.ratio = ratio


class ConstructionFailure(BallBasisError):
    def __init__(self, message, transcript=None):
        super().__init__(message)
        self.transcript = transcript or []


class NestingViolated(BallBasisError):
    pass


class NotComparable(BallBasisError):
    pass


class NotRestricted(BallBasisError):
    pass


class BetaOutOfRange(BallBasisError):
    pass


class LambdaExhausted(BallBasisError):
    pass


class InfZero(BallBasisError):
    pass


class ZeroBmoNorm(BallBasisError):
    pass


class ConfigError(BallBasisError):
    pass
