"""Lattice path words over the step alphabet {U, D}.

A word encodes a path from the origin: U raises the height by one, D
lowers it by one.  Everything else in the package is parameterized by
pairs of such words, so this module owns the height function, the
Dyck/ballot classification, the sign epsilon that splits each length
into two bases, the dominance order ("mu is weakly above lambda"), and
the basis enumeration used by the incidence matrices.

The sign of a length-L word ending at height h is the epsilon in
{0, 1} with h = L + 2*epsilon (mod 4); the two signs partition all
2^L words of a given length.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


@dataclass(frozen=True, eq=False)
class PathWord:
    """An immutable step word; the empty word is a valid Dyck path.

    Equality and hash are those of steps, so a word hashes as fast as
    its string; a word is never equal to a string.
    """

    steps: str = ""

    def __post_init__(self):
        bad = set(self.steps) - {"U", "D"}
        if bad:
            raise ValueError("steps must be over {U, D}, got %r" % "".join(sorted(bad)))

    @property
    def length(self) -> int:
        return len(self.steps)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Heights h(0..L) with h(0) = 0."""
        hs = [0]
        for s in self.steps:
            hs.append(hs[-1] + (1 if s == "U" else -1))
        return tuple(hs)

    def height(self, i: int) -> int:
        return self.heights[i]

    @property
    def end_height(self) -> int:
        return self.heights[-1]

    @cached_property
    def epsilon(self) -> int:
        """Sign epsilon with end height = length + 2 epsilon (mod 4)."""
        return ((self.end_height - self.length) // 2) % 2

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __str__(self) -> str:
        return self.steps

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Classification:
    is_dyck: bool
    is_ballot: bool
    epsilon: int
    end_height: int


def classify(w: PathWord) -> Classification:
    """Dyck/ballot flags and the type-D sign of a word.

    A ballot word stays weakly above height zero; a Dyck word is a
    ballot word that returns to zero.
    """
    ballot = min(w.heights) >= 0
    return Classification(
        is_dyck=ballot and w.end_height == 0,
        is_ballot=ballot,
        epsilon=w.epsilon,
        end_height=w.end_height,
    )


def is_above(mu: PathWord, lam: PathWord) -> bool:
    """True iff mu is weakly above lam at every vertex."""
    if mu.length != lam.length:
        raise ValueError(
            "words must have equal length, got %d and %d" % (mu.length, lam.length)
        )
    return all(map(operator.ge, mu.heights, lam.heights))


def all_words(n: int) -> Iterator[PathWord]:
    """All 2^n words of length n, lexicographic with U before D."""
    for steps in itertools.product("UD", repeat=n):
        yield PathWord("".join(steps))


def enumerate_type_d(n: int, epsilon: int) -> list[PathWord]:
    """The length-n sign-epsilon basis, highest path first.

    Lexicographic order with U before D starts at U...U (the highest
    path of the sign-0 basis) and ends at the lowest path.
    """
    if n < 1:
        raise ValueError("basis needs n >= 1, got %d" % n)
    if epsilon not in (0, 1):
        raise ValueError("epsilon must be 0 or 1, got %r" % (epsilon,))
    return [w for w in all_words(n) if w.epsilon == epsilon]


def dyck_words(n: int) -> list[PathWord]:
    """All Dyck words of length n (empty list when n is odd)."""
    return [w for w in all_words(n) if classify(w).is_dyck]


def truncate_last(w: PathWord) -> PathWord:
    """Drop the final step."""
    if w.length == 0:
        raise ValueError("cannot truncate the empty word")
    return PathWord(w.steps[:-1])
