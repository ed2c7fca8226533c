"""Dyadic rationals used as the two-sided time axis.

Every time in the package is a dyadic rational ``numerator * 2**-level``.
Instances are canonical (numerator odd, or level zero) so that equal times
compare and hash identically regardless of how they were built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlignmentError, ResolutionError

MAX_LEVEL = 20


@dataclass(frozen=True)
class DyadicTime:
    numerator: int
    level: int = 0

    def __post_init__(self):
        if not isinstance(self.numerator, int) or not isinstance(self.level, int):
            raise TypeError("numerator and level must be integers")
        if self.level < 0 or self.level > MAX_LEVEL:
            raise ResolutionError(f"level {self.level} outside [0, {MAX_LEVEL}]")
        num, lev = self.numerator, self.level
        while lev > 0 and num % 2 == 0:
            num //= 2
            lev -= 1
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "level", lev)

    @property
    def value(self) -> float:
        # Exact: |numerator| < 2**53 for all supported levels and horizons.
        return self.numerator * 2.0 ** (-self.level)

    @property
    def floor_int(self) -> int:
        return self.numerator >> self.level

    def at_level(self, level: int) -> int:
        """Integer grid index of this time on the ``level`` grid."""
        if level < self.level:
            raise AlignmentError(
                f"{self!r} not representable at level {level} (needs level {self.level})"
            )
        if level > MAX_LEVEL:
            raise ResolutionError(f"level {level} exceeds MAX_LEVEL={MAX_LEVEL}")
        return self.numerator << (level - self.level)

    def is_aligned(self, level: int) -> bool:
        return self.level <= level

    def _aligned(self, other) -> tuple[int, int]:
        """Both numerators on the finer of the two levels, as exact integers."""
        shift = self.level - other.level
        if shift >= 0:
            return self.numerator, other.numerator << shift
        return self.numerator << -shift, other.numerator

    def __lt__(self, other):
        a, b = self._aligned(other)
        return a < b

    def __le__(self, other):
        a, b = self._aligned(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._aligned(other)
        return a > b

    def __ge__(self, other):
        a, b = self._aligned(other)
        return a >= b

    def __add__(self, other):
        if isinstance(other, int):
            other = DyadicTime(other, 0)
        lev = max(self.level, other.level)
        return DyadicTime(self.at_level(lev) + other.at_level(lev), lev)

    def __sub__(self, other):
        if isinstance(other, int):
            other = DyadicTime(other, 0)
        lev = max(self.level, other.level)
        return DyadicTime(self.at_level(lev) - other.at_level(lev), lev)

    def __neg__(self):
        return DyadicTime(-self.numerator, self.level)

    def __repr__(self):
        if self.level == 0:
            return f"dyadic({self.numerator})"
        return f"dyadic({self.numerator}, {self.level})"


def dyadic(numerator: int, level: int = 0) -> DyadicTime:
    """Shorthand constructor."""
    return DyadicTime(numerator, level)
