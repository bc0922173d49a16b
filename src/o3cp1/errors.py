"""The one base class of the package's domain errors."""


class O3CP1Error(Exception):
    """Invalid input or a violated contract; the CLI reports it in one line."""
