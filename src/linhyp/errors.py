"""Exceptions shared across the package."""

from __future__ import annotations

import math

# a longer figure is printed as d.ddde+N: Python refuses str() of an int
# past 4,300 digits (sys.int_info.default_max_str_digits)
FIGURE_DIGITS = 4000


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class WorkCeilingError(RuntimeError):
    """An exhaustive computation would exceed the configured work ceiling.

    remedy tells the user what to change: by default the option that
    raises the ceiling; a fixed ceiling names the inputs to lower, since
    no option raises it.  verb says whether required was priced up front
    or metered ("stopped after"), or is a lower bound ("needs more
    than").  A figure of more than FIGURE_DIGITS digits is printed as
    its leading digits and power of ten (_figure).
    """

    def __init__(
        self,
        required: int,
        ceiling: int,
        what: str = "enumeration",
        unit: str = "elementary pair checks",
        remedy: str = "raise the ceiling with --work-ceiling (work_ceiling= in the library) to force it",
        verb: str = "needs about",
    ):
        self.required = required
        self.ceiling = ceiling
        super().__init__(
            f"{what} {verb} {_figure(required)} {unit}, "
            f"above the ceiling of {_figure(ceiling)}; {remedy}"
        )


def _figure(x: int) -> str:
    """x in decimal, or as d.ddde+N when it has more than FIGURE_DIGITS digits."""
    if x < 10 ** FIGURE_DIGITS:
        return str(x)
    exponent = math.log10(x)
    whole = math.floor(exponent)
    lead = round(10 ** (exponent - whole), 3)
    if lead == 10:
        lead, whole = 1.0, whole + 1
    return f"{lead:.3f}e+{whole}"
