"""Exceptions shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class WorkCeilingError(RuntimeError):
    """An exhaustive computation would exceed the configured work ceiling.

    remedy tells the user what to change: by default the option that
    raises the ceiling; a fixed ceiling names the inputs to lower, since
    no option raises it.
    """

    def __init__(
        self,
        required: int,
        ceiling: int,
        what: str = "enumeration",
        unit: str = "elementary pair checks",
        remedy: str = "raise the ceiling with --work-ceiling (work_ceiling= in the library) to force it",
    ):
        self.required = required
        self.ceiling = ceiling
        super().__init__(
            f"{what} needs about {required} {unit}, "
            f"above the ceiling of {ceiling}; {remedy}"
        )
