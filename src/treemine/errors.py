"""Exception types shared across the pipeline."""


def position(text: str) -> tuple[int, int]:
    """1-based (line, column) of the character just past `text`."""
    return text.count("\n") + 1, len(text) - text.rfind("\n")


class LexError(Exception):
    """Input contains a character sequence no token can cover."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class ParseError(Exception):
    """Input is outside the supported grammar."""

    def __init__(self, line: int, column: int, expected: str, found: str):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(
            f"line {line}, column {column}: expected {expected}, found {found}"
        )


class ConfigError(Exception):
    """Invalid configuration. Collects every problem found, not just the first."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
