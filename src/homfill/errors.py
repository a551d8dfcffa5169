"""Exception hierarchy shared by every module.

ParseError and DomainError cover input that no larger ball fixes, and
ResourceError exceeded budgets and balls too small for the request (exit
code 1 in the CLI).  InvariantError signals an internal inconsistency that
should never happen on valid inputs (exit 2).
"""


class HomfillError(Exception):
    pass


class ParseError(HomfillError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class DomainError(HomfillError):
    pass


class ResourceError(HomfillError):
    pass


class InvariantError(HomfillError):
    pass
