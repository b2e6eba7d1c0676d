"""Typed errors shared across the harness.

Every error a caller is expected to branch on derives from HarnessError so
the CLI can render a one-line typed summary and exit nonzero.
"""

from __future__ import annotations

import copyreg


class HarnessError(Exception):
    """Base class for all harness errors. An instance pickles with its type,
    message and attributes, so it crosses a process boundary unchanged."""

    def __reduce__(self):
        # a subclass's __init__ may not take its message back, so the copy
        # is made without calling it
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# -- corpus ----------------------------------------------------------------

class FileUnreadable(HarnessError):
    pass


class FileUnwritable(HarnessError):
    """A file or directory the harness writes could not be made."""


class MissingColumn(HarnessError):
    def __init__(self, name: str, path=None):  # path: the TSV, if known
        super().__init__(f"required column missing: {name!r}"
                         + ("" if path is None else f" in {path}"))
        self.name = name


class RowParseError(HarnessError):
    """Raised in strict mode; in lenient mode the same (row, reason) pair is
    collected as a LoadDiagnostic instead."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class ScoreOutOfRange(HarnessError):
    pass


# -- prompts ---------------------------------------------------------------

class PlaceholderUnresolved(HarnessError):
    pass


class EmptyBin(HarnessError):
    def __init__(self, bin_label: str):
        super().__init__(f"no usable exemplar in score bin {bin_label}")
        self.bin_label = bin_label


class ExemplarCountMismatch(HarnessError):
    pass


class ExemplarLeakage(HarnessError):
    """A non-train segment was offered as an in-context exemplar."""


class TemplateMissing(HarnessError):
    pass


class TemplateInvalid(HarnessError):
    pass


# -- gateway ---------------------------------------------------------------

class EndpointMissing(HarnessError):
    pass


# -- metrics ---------------------------------------------------------------

class DegenerateVariance(HarnessError):
    """A correlation input (or its rank vector) is constant."""


class ZeroVariance(HarnessError):
    """Paired differences have zero spread but nonzero mean; t is infinite."""


class TooFewPairs(HarnessError):
    pass


# -- fertility -------------------------------------------------------------

class SampleTooLarge(HarnessError):
    pass


class TokenizerDefinitionError(HarnessError):
    pass


# -- sft export ------------------------------------------------------------

class EmptyTrainSplit(HarnessError):
    def __init__(self, pair: str):
        super().__init__(f"no train segments for pair {pair}")
        self.pair = pair


# -- pipeline --------------------------------------------------------------

class ManifestError(HarnessError):
    pass


class ChildFailed(HarnessError):
    """A child process running a pair's combos exited without an outcome."""
