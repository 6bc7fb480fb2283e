"""Exceptions shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class WorkCeilingError(RuntimeError):
    """An exhaustive computation would exceed the configured work ceiling."""

    def __init__(
        self,
        required: int,
        ceiling: int,
        what: str = "enumeration",
        unit: str = "elementary pair checks",
    ):
        self.required = required
        self.ceiling = ceiling
        super().__init__(
            f"{what} needs about {required} {unit}, "
            f"above the ceiling of {ceiling}; raise the ceiling to force it"
        )
