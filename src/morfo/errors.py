"""Shared error types for resource loading, and the one way the package warns.

``warn`` prints each warning as one line, ``morfo: [<file>: ]<message>``, to
the current ``sys.stderr``.
"""

import sys

#: The data file the CLI is loading, while it loads one; a warning raised then names it.
loading = None


class LoadError(ValueError):
    """A data file (dictionary, rule table, mapping, ...) failed to load.

    Carries the offending line number when one is known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def warn(message: str) -> None:
    """Print ``morfo: [<file>: ]<message>`` to the current stderr; ``<file>`` is ``loading``."""
    where = f"{loading}: " if loading is not None else ""
    print(f"morfo: {where}{message}", file=sys.stderr)
