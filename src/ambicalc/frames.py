"""Finite universes and bitmask subset encoding.

A frame holds the atomic propositions, at most 16; a situation space holds
the possible worlds, at most 64.  Both caps are fixed.  Subsets of either
universe are plain ints: bit ``k`` set means the element declared at
position ``k`` is in the subset.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DuplicateElement, MaskOutOfRange, UnknownElement


def _checked_names(names: Iterable[str], label: str, cap: int) -> tuple[str, ...]:
    out = tuple(names)
    if not out:
        raise ValueError(f"a {label} needs at least one element")
    if len(out) > cap:
        raise ValueError(f"{label} size {len(out)} exceeds the cap of {cap}")
    seen = set()
    for name in out:
        if not isinstance(name, str) or not name:
            raise ValueError(f"{label} element names must be non-empty strings")
        if "," in name and label == "frame":
            # atom names are joined with commas in document subset keys
            raise ValueError(f"atom name {name!r} may not contain a comma")
        if name in seen:
            raise DuplicateElement(f"{label} element {name!r} declared twice")
        seen.add(name)
    return out


class _Universe:
    """Common bitmask machinery for frames and situation spaces."""

    __slots__ = ("names", "_index", "_bit")

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self._index = {name: k for k, name in enumerate(names)}
        self._bit = {name: 1 << k for k, name in enumerate(names)}

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def full(self) -> int:
        """Mask of the whole universe."""
        return (1 << len(self.names)) - 1

    def check_mask(self, mask: int) -> int:
        if not isinstance(mask, int) or mask < 0 or mask > self.full:
            raise MaskOutOfRange(f"mask {mask!r} does not fit a universe of size {self.size}")
        return mask

    def encode(self, names: Iterable[str]) -> int:
        """Mask for a collection of element names; duplicates are rejected."""
        if not isinstance(names, (list, tuple)):
            names = tuple(names)
        try:
            # distinct bits sum to their OR; a repeated one carries, so the
            # popcount falls short of the number of names
            mask = sum(map(self._bit.__getitem__, names))
            if mask.bit_count() == len(names):
                return mask
        except (KeyError, TypeError):
            pass
        return self._encode_walk(names)

    def _encode_walk(self, names) -> int:
        """``encode`` one name at a time; raises for the first bad name."""
        mask = 0
        for name in names:
            try:
                bit = self._bit[name]
            except (KeyError, TypeError):
                raise UnknownElement(f"unknown element {name!r}") from None
            if mask & bit:
                raise DuplicateElement(f"element {name!r} listed twice")
            mask |= bit
        return mask

    def decode(self, mask: int) -> tuple[str, ...]:
        """Element names of a mask, in declaration order."""
        self.check_mask(mask)
        return tuple(name for k, name in enumerate(self.names) if mask >> k & 1)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"unknown element {name!r}") from None

    def format_subset(self, mask: int) -> str:
        members = self.decode(mask)
        return "{" + ",".join(members) + "}" if members else "∅"

    def __eq__(self, other):
        return type(other) is type(self) and other.names == self.names

    def __hash__(self):
        return hash((type(self).__name__, self.names))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.names)!r})"


class Frame(_Universe):
    """The universe of atomic propositions.  Hard cap of 16 atoms."""

    __slots__ = ()
    MAX_ATOMS = 16

    def __init__(self, atoms: Iterable[str]):
        super().__init__(_checked_names(atoms, "frame", self.MAX_ATOMS))

    @property
    def atoms(self) -> tuple[str, ...]:
        return self.names

    @property
    def m(self) -> int:
        return len(self.names)

    def subset_key(self, mask: int) -> str:
        """Canonical comma-joined key for a subset; the empty set is ''."""
        return ",".join(self.decode(mask))


class SituationSpace(_Universe):
    """The universe of situations.  Hard cap of 64 situations."""

    __slots__ = ()
    MAX_SITUATIONS = 64

    def __init__(self, situations: Iterable[str]):
        super().__init__(_checked_names(situations, "situation space", self.MAX_SITUATIONS))

    @property
    def n(self) -> int:
        return len(self.names)
