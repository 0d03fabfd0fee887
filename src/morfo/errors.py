"""Shared error types for resource loading, and the one way the package warns.

Warnings go to the ``morfo.*`` loggers through ``warn``, which imports
``logging`` only when a first warning comes, so a run that warns of nothing
never loads it.
"""

#: While set, each warning's text is also handed to this callable; see ``echo_warnings``.
_echo = None
#: The ``logging.Handler`` that hands records to ``_echo``, made on the first warning echoed.
_handler = None


class LoadError(ValueError):
    """A data file (dictionary, rule table, mapping, ...) failed to load.

    Carries the offending line number when one is known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def warn(logger_name: str, message: str, *args) -> None:
    """Log ``message % args`` as a warning on the ``logger_name`` logger (a ``morfo.*`` name)."""
    import logging
    global _handler

    if _echo is not None:
        if _handler is None:
            class Echo(logging.Handler):
                def emit(self, record):
                    _echo(record.getMessage())

            _handler = Echo(logging.WARNING)
        logging.getLogger("morfo").addHandler(_handler)  # a handler already there is kept once
    logging.getLogger(logger_name).warning(message, *args)


def echo_warnings(echo) -> None:
    """Hand the text of every later warning to ``echo`` too; ``None`` stops it.

    The CLI prints warnings to stderr this way for the length of a run. The
    handler that does it is added to the ``morfo`` logger by the first
    warning, and removed here.
    """
    global _echo
    _echo = echo
    if echo is None and _handler is not None:
        import logging

        logging.getLogger("morfo").removeHandler(_handler)
