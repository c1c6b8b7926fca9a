"""Colored permutations: elements of the wreath product Z_c wr S_n.

A colored permutation is stored as its length-n window: the images of
1..n together with their colors.  The action on the whole cn-letter
alphabet is derived from the window, since sending i -> v with color k
forces i^[j] -> v^[(k+j) mod c] for every color shift j.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"(\d+)(?:\[(\d+)\])?\Z")


def check_group(n: int, c: int) -> None:
    """Reject a group Z_c wr S_n that does not exist, alike in every module."""
    if n < 0 or c < 1:
        raise ValueError("need n >= 0 and c >= 1")


@dataclass(frozen=True, order=True)
class ColoredElement:
    """A single letter v^[k] of the colored alphabet."""

    value: int
    color: int

    def __str__(self) -> str:
        return f"{self.value}[{self.color}]" if self.color else str(self.value)


@dataclass(frozen=True)
class ColoredPermutation:
    c: int
    values: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "colors", tuple(self.colors))
        n = len(self.values)
        check_group(n, self.c)
        if len(self.colors) != n:
            raise ValueError("values and colors must have equal length")
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValueError(f"values {self.values} are not a permutation of 1..{n}")
        for k in self.colors:
            if not 0 <= k < self.c:
                raise ValueError(f"color {k} out of range [0, {self.c})")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def identity(cls, c: int, n: int) -> "ColoredPermutation":
        check_group(n, c)
        return cls(c, tuple(range(1, n + 1)), (0,) * n)

    @classmethod
    def maximal(cls, c: int, n: int) -> "ColoredPermutation":
        """The permutation 1^[c-1] 2^[c-1] ... n^[c-1] with the most colored inversions."""
        check_group(n, c)
        return cls(c, tuple(range(1, n + 1)), (c - 1,) * n)

    @classmethod
    def parse(cls, text: str, c: int, n: int | None = None) -> "ColoredPermutation":
        """Parse the "v[k]" token format; a bare "v" means color 0."""
        tokens = text.split()
        if n is not None and len(tokens) != n:
            raise ValueError(f"expected {n} tokens, got {len(tokens)}")
        values, colors = [], []
        for tok in tokens:
            m = _TOKEN_RE.match(tok)
            if not m:
                raise ValueError(f"bad token {tok!r}")
            values.append(int(m.group(1)))
            colors.append(int(m.group(2)) if m.group(2) else 0)
        return cls(c, tuple(values), tuple(colors))

    def __str__(self) -> str:
        return " ".join(
            str(ColoredElement(v, k)) for v, k in zip(self.values, self.colors)
        )

    def apply(self, x: ColoredElement) -> ColoredElement:
        """Image of the colored element x, using sigma(i^[j]) = (sigma(i))^[j]."""
        if not (1 <= x.value <= self.n and 0 <= x.color < self.c):
            raise ValueError(f"element {x} not in the alphabet of (c={self.c}, n={self.n})")
        v = self.values[x.value - 1]
        k = (self.colors[x.value - 1] + x.color) % self.c
        return ColoredElement(v, k)

    def compose(self, other: "ColoredPermutation") -> "ColoredPermutation":
        """The composite self o other (apply other first)."""
        if (self.c, self.n) != (other.c, other.n):
            raise ValueError("mismatched (c, n)")
        values = tuple(self.values[v - 1] for v in other.values)
        colors = tuple(
            (self.colors[v - 1] + k) % self.c
            for v, k in zip(other.values, other.colors)
        )
        return ColoredPermutation(self.c, values, colors)

    def __mul__(self, other: "ColoredPermutation") -> "ColoredPermutation":
        return self.compose(other)

    def inverse(self) -> "ColoredPermutation":
        values = [0] * self.n
        colors = [0] * self.n
        for i, (v, k) in enumerate(zip(self.values, self.colors), start=1):
            values[v - 1] = i
            colors[v - 1] = (-k) % self.c
        return ColoredPermutation(self.c, tuple(values), tuple(colors))

    def domain(self) -> list[ColoredElement]:
        """All c*n letters of the alphabet, sorted by (value, color)."""
        return [
            ColoredElement(v, k)
            for v in range(1, self.n + 1)
            for k in range(self.c)
        ]

    def cycle_decomposition(self) -> list[tuple[ColoredElement, ...]]:
        """Orbits of the full bijection on all c*n letters.

        Each cycle starts at its minimal element (by value, then color)
        and cycles are sorted by that representative, so the output is
        deterministic.
        """
        seen: set[ColoredElement] = set()
        cycles = []
        for start in self.domain():
            if start in seen:
                continue
            orbit = [start]
            seen.add(start)
            x = self.apply(start)
            while x != start:
                orbit.append(x)
                seen.add(x)
                x = self.apply(x)
            rep = min(range(len(orbit)), key=lambda i: orbit[i])
            cycles.append(tuple(orbit[rep:] + orbit[:rep]))
        cycles.sort(key=lambda cyc: cyc[0])
        return cycles

    def is_involution(self) -> bool:
        """A fixed value i needs 2*color == 0 (mod c); a transposition
        i <-> j needs its two colors to sum to 0 (mod c)."""
        values, colors, c = self.values, self.colors, self.c
        for i, v in enumerate(values, start=1):
            if v == i:
                if (2 * colors[i - 1]) % c != 0:
                    return False
            elif values[v - 1] != i:
                return False
            elif (colors[i - 1] + colors[v - 1]) % c != 0:
                return False
        return True

    def is_derangement(self) -> bool:
        """True when no value is fixed with color 0."""
        return not any(
            v == i and k == 0 for i, (v, k) in enumerate(zip(self.values, self.colors), start=1)
        )
