"""Domain exceptions. All inherit MonocltError so callers (and the CLI)
can distinguish domain failures from genuine bugs."""


class MonocltError(Exception):
    """Base class for all domain errors raised by this package."""


class SelfLoopError(MonocltError):
    def __init__(self, vertex, line_no=None):
        self.vertex = vertex
        self.line_no = line_no
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"self-loop at vertex {vertex}{where}")


class MalformedLineError(MonocltError):
    def __init__(self, line_no, content):
        self.line_no = line_no
        self.content = content
        super().__init__(f"malformed edge-list line {line_no}: {content!r}")


class BadParamsError(MonocltError):
    """Family parameters out of range."""


class CompositeUndefinedError(MonocltError):
    """The composite family needs a strictly negative 4-pyramid coefficient,
    which only happens for 2 <= c <= 4."""


class NoTrianglesError(MonocltError):
    """Triangle statistics are degenerate on triangle-free input."""


class NoEdgesError(MonocltError):
    """Edge statistics are degenerate on an empty edge set."""


class BudgetExceededError(MonocltError):
    """W, the closed-form bound on the rows class discovery reads, is
    past the budget."""


class TooLargeError(MonocltError):
    """A family graph, an edge-list header or an exhaustive coloring
    enumeration exceeded its cap."""


class UnsupportedFamilyError(MonocltError):
    """No reference limit law is implemented for this family."""
