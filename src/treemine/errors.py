"""Exception types shared across the pipeline."""


def position(text: str) -> tuple[int, int]:
    """1-based (line, column) of the character just past `text`."""
    return text.count("\n") + 1, len(text) - text.rfind("\n")


class SourceError(Exception):
    """An input file fails at a 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class LexError(SourceError):
    """Input contains a character sequence no token can cover."""


class ParseError(SourceError):
    """Input is outside the supported grammar."""

    def __init__(self, line: int, column: int, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(line, column, f"expected {expected}, found {found}")


class ConfigError(Exception):
    """Invalid configuration. Collects every problem found, not just the first."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
