"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CapExceededError(RuntimeError):
    """A brute-force enumeration or a series was stopped at one of its safety caps."""
