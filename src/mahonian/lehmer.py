"""Classical and colored Lehmer codes.

A classical code has entries 0 <= l_i < i; a colored code relaxes the
bound to c*i.  Entry i is indexed by the *value* i: it counts the
smaller values sitting to the right of i in one-line notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .perm import ColoredPermutation, check_group


class _Code:
    """What both code types share; entry i must lie in [0, c*i)."""

    def _check(self, c: int) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        for i, e in enumerate(self.entries, start=1):
            if not 0 <= e < c * i:
                raise ValueError(f"entry {e} at position {i} violates 0 <= l_i < {c}*{i}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def sum(self) -> int:
        return sum(self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.entries)) + ")"


@dataclass(frozen=True)
class LehmerCode(_Code):
    entries: tuple[int, ...]

    def __post_init__(self):
        self._check(1)


@dataclass(frozen=True)
class ColoredLehmerCode(_Code):
    c: int
    entries: tuple[int, ...]

    def __post_init__(self):
        check_group(len(self.entries), self.c)
        self._check(self.c)


# Unchecked tuple kernels: wrapped below, called as they are by oracle.lehmer_round_trips.


def encode_values(pi: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(w < v for w in pi[pi.index(v) + 1:]) for v in range(1, len(pi) + 1))


def insert_value(values: tuple[int, ...], i: int, e: int) -> tuple[int, ...]:
    return values[:len(values) - e] + (i,) + values[len(values) - e:]


def complement_entries(entries: Sequence[int], c: int) -> tuple[int, ...]:
    return tuple(c * i - 1 - e for i, e in enumerate(entries, start=1))


def split_entries(entries: Sequence[int], c: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(e // c for e in entries), tuple(e % c for e in entries)


def join_entries(a: Sequence[int], b: Sequence[int], c: int) -> tuple[int, ...]:
    return tuple(c * x + y for x, y in zip(a, b))


def colors_by_value(values: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The window colors when color b_v goes with the value v."""
    return tuple(b[v - 1] for v in values)


def colors_of_values(values: Sequence[int], colors: Sequence[int]) -> tuple[int, ...]:
    """Inverse of colors_by_value."""
    return tuple(k for _, k in sorted(zip(values, colors)))


def encode(pi: Sequence[int]) -> LehmerCode:
    """Lehmer code of a classical permutation: entry i counts values j < i
    appearing to the right of i."""
    pi = tuple(pi)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{len(pi)}")
    return LehmerCode(encode_values(pi))


def decode(code: LehmerCode) -> tuple[int, ...]:
    """Rebuild the permutation by inserting value i at position l_i from the right."""
    out: tuple[int, ...] = ()
    for i, e in enumerate(code.entries, start=1):
        out = insert_value(out, i, e)
    return out


def complement(code: ColoredLehmerCode) -> ColoredLehmerCode:
    """Entrywise reflection l_i -> c*i - 1 - l_i; an involution that flips the
    entry sum across the midpoint of its range."""
    return ColoredLehmerCode(code.c, complement_entries(code.entries, code.c))


def split_color(code: ColoredLehmerCode) -> tuple[LehmerCode, tuple[int, ...]]:
    """Write each entry as c*a_i + b_i with 0 <= b_i < c; returns (a, b)."""
    a, b = split_entries(code.entries, code.c)
    return LehmerCode(a), b


def join_color(a: LehmerCode, b: Sequence[int], c: int) -> ColoredLehmerCode:
    """Inverse of split_color: entries c*a_i + b_i."""
    if len(b) != a.n:
        raise ValueError("length mismatch between code and color vector")
    for k in b:
        if not 0 <= k < c:
            raise ValueError(f"color {k} out of range [0, {c})")
    return ColoredLehmerCode(c, join_entries(a.entries, b, c))


def split_radix(code: ColoredLehmerCode) -> tuple[tuple[int, ...], LehmerCode]:
    """Write each entry as q_i * i + r_i with 0 <= r_i < i; returns (q, r).

    The weighted sum of q encodes a partition into parts of size at most n
    with each part used at most c-1 times.
    """
    q = tuple(e // i for i, e in enumerate(code.entries, start=1))
    r = tuple(e % i for i, e in enumerate(code.entries, start=1))
    return q, LehmerCode(r)


def code_to_colored_perm(code: ColoredLehmerCode) -> ColoredPermutation:
    """Bijection onto colored permutations carrying the entry sum to tilde_inv_c.

    The classical part decodes to the underlying permutation; the color
    remainder b_i is attached to the value i wherever it sits.
    """
    a, b = split_color(code)
    values = decode(a)
    return ColoredPermutation(code.c, values, colors_by_value(values, b))


def perm_to_code(sigma: ColoredPermutation) -> ColoredLehmerCode:
    """Inverse of code_to_colored_perm."""
    b = colors_of_values(sigma.values, sigma.colors)
    return join_color(encode(sigma.values), b, sigma.c)


def iter_codes(n: int, c: int) -> Iterator[ColoredLehmerCode]:
    """All c^n * n! colored codes in lexicographic order, last entry fastest."""
    check_group(n, c)
    ranges = (range(c * i) for i in range(1, n + 1))
    return (ColoredLehmerCode(c, entries) for entries in product(*ranges))
