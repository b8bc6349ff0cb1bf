"""Reduced words in the free product of two (or three) finite groups.

A test helper, not collected by pytest: tests/test_words.py checks the flat
and cosmash membership tests, and acceptance criterion 9 uses
eval_flat_action as its oracle.  No verb or pipeline stage needs words.

A letter is a pair (side, element): side indexes into the tuple of groups,
element is an index into that group's table.  Words reduce on construction:
identity letters vanish and adjacent same-side letters merge.
"""
from __future__ import annotations

from dataclasses import dataclass

from peiffer.groups import _is_index


class WordError(ValueError):
    pass


def _reduce(groups, letters):
    stack = []
    for side, x in letters:
        if not _is_index(side, len(groups)):
            raise WordError(f"side {side!r} out of range")
        G = groups[side]
        if not _is_index(x, G.order):
            raise WordError(f"element {x!r} out of range for side {side}")
        if x == G.identity:
            continue
        while stack and stack[-1][0] == side and x != G.identity:
            x = G.table[stack.pop()[1]][x]
        if x != G.identity:
            stack.append((side, x))
    return tuple(stack)


class FreeWord:
    """A reduced alternating word in a free product."""

    __slots__ = ("groups", "letters")

    def __init__(self, groups, letters=()):
        self.groups = tuple(groups)
        self.letters = _reduce(self.groups, letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.groups != other.groups:
            raise WordError("words over different free products")
        return FreeWord(self.groups, self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        inv = tuple(
            (s, self.groups[s].inv(x)) for s, x in reversed(self.letters)
        )
        return FreeWord(self.groups, inv)

    def restricted(self, sides) -> "FreeWord":
        """Drop all letters whose side is not in sides, then re-reduce."""
        keep = tuple(l for l in self.letters if l[0] in sides)
        return FreeWord(self.groups, keep)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, FreeWord)
            and self.groups == other.groups
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"FreeWord({list(self.letters)})"


def sigma_image(w: FreeWord) -> tuple:
    """Fold each side independently, preserving order within each side."""
    folds = [G.identity for G in w.groups]
    for side, x in w.letters:
        folds[side] = w.groups[side].table[folds[side]][x]
    return tuple(folds)


def in_flat(w: FreeWord, acting_side: int) -> bool:
    """Membership in A (flat) B where A is the group at acting_side."""
    return sigma_image(w)[acting_side] == w.groups[acting_side].identity


def in_cosmash(w: FreeWord) -> bool:
    folds = sigma_image(w)
    return all(f == G.identity for f, G in zip(folds, w.groups))


def in_ternary_cosmash(w: FreeWord) -> bool:
    """Kernel of the map into the three pairwise free products."""
    if len(w.groups) != 3:
        raise WordError("ternary membership needs three sides")
    for dropped in range(3):
        pair = tuple(s for s in range(3) if s != dropped)
        if len(w.restricted(pair)) != 0:
            return False
    return True


def membership(w: FreeWord, which: str) -> bool:
    if which == "flat-MN":
        return in_flat(w, 0)
    if which == "flat-NM":
        return in_flat(w, 1)
    if which == "cosmash":
        return in_cosmash(w)
    if which == "ternary-cosmash":
        return in_ternary_cosmash(w)
    raise WordError(f"unknown membership kind {which!r}")


@dataclass(frozen=True)
class ConjGenerator:
    """The word a b a^-1: conjugator a from the acting side, core b."""

    conjugator: int
    core: int


def flat_decompose(w: FreeWord, acting_side: int = 0, target_side: int = 1):
    """Write a flat word as a product of conjugation generators.

    Left-to-right sweep accumulating the running acting-side prefix; the
    product of the returned generators re-reduces to w.
    """
    if not in_flat(w, acting_side):
        raise WordError("word is not in the flat subgroup")
    A = w.groups[acting_side]
    prefix = A.identity
    out = []
    for side, x in w.letters:
        if side == acting_side:
            prefix = A.table[prefix][x]
        elif side == target_side:
            out.append(ConjGenerator(prefix, x))
        else:
            raise WordError("letter from an unexpected side")
    return out


def eval_flat_action(action, w, acting_side: int = 0, target_side: int = 1) -> int:
    """Evaluate a flat word under an action table: product of psi(a_i, x_i).

    Accepts a FreeWord or a raw letter sequence; raw input is evaluated
    as-is (no pre-reduction), which lets tests confirm well-definedness.
    """
    letters = w.letters if isinstance(w, FreeWord) else tuple(w)
    A, X = action.acting, action.target
    prefix = A.identity
    acc = X.identity
    for side, x in letters:
        if side == acting_side:
            prefix = A.table[prefix][x]
        elif side == target_side:
            acc = X.table[acc][action.table[prefix][x]]
        else:
            raise WordError("letter from an unexpected side")
    if prefix != A.identity:
        raise WordError("word is not in the flat subgroup")
    return acc


def parse_word(text: str, groups, side_names=("M", "N", "C")) -> FreeWord:
    """Parse the literal syntax "M:3 N:1 M:0" into a reduced word."""
    names = {name: i for i, name in enumerate(side_names[: len(groups)])}
    letters = []
    for tok in text.split():
        try:
            name, val = tok.split(":")
            letters.append((names[name], int(val)))
        except (ValueError, KeyError) as exc:
            raise WordError(f"bad letter {tok!r}") from exc
    return FreeWord(groups, letters)


def format_word(w: FreeWord, side_names=("M", "N", "C")) -> str:
    return " ".join(f"{side_names[s]}:{x}" for s, x in w.letters)
