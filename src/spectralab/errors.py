"""Exception hierarchy shared by all spectralab modules.

Two branches matter to callers: ``ConfigError`` (bad inputs / bad experiment
configuration, CLI exit code 2) and ``NumericalError`` (an algorithm failed to
reach its tolerance, CLI exit code 3). Everything else is a precondition
violation on a library call.
"""


class SpectraError(Exception):
    """Base class for all spectralab errors."""


class ConfigError(SpectraError):
    """Invalid configuration or arguments (CLI exit code 2)."""


class NumericalError(SpectraError):
    """A numerical procedure failed to converge or broke down (CLI exit code 3)."""


# polynomial core
class ZeroDegree(SpectraError):
    pass


class NearPole(SpectraError):
    pass


# root solving
class NoConvergence(NumericalError):
    pass


class DegenerateInput(SpectraError):
    pass


# measures
class EmptyMeasure(SpectraError):
    pass


class ZeroPoint(SpectraError):
    pass


class VanishingEndCoefficient(SpectraError):
    pass


class HypothesisViolated(SpectraError):
    pass


class SingularOnContour(SpectraError):
    pass


# matching
class SizeMismatch(SpectraError):
    pass


class TooLarge(SpectraError):
    pass


class ComplexRoots(SpectraError):
    pass


class SignDegenerate(SpectraError):
    pass


class AlphaNotLeft(SpectraError):
    pass


class DuplicateValues(SpectraError):
    pass


# random generation
class BadProbability(ConfigError):
    pass


# random matrices
class DegenerateSpectrum(NumericalError):
    pass


class NumericalBreakdown(NumericalError):
    pass


class ResampleLimit(NumericalError):
    pass


class WrongSize(SpectraError):
    pass


# experiment lab
class UnknownExperiment(ConfigError):
    pass


class BadParams(ConfigError):
    pass


class IoError(SpectraError):
    pass
