"""Symbols, words, subsequence projection, and alternation.

Words use 1-based positions throughout the public API: the first symbol of
``w`` is ``w.at(1)``, matching the index arithmetic used by the generator
families and the timestep partition. Every value in this module is immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class Symbol(str):
    """One alphabet symbol: a ``str`` that is its own token text.

    Tokens are opaque: ``"7"``, ``"x"`` and ``"(2,3)"`` are all just tokens.
    A symbol equals, hashes and orders exactly as its token text does.
    """

    __slots__ = ()

    def __new__(cls, token: str) -> "Symbol":
        if not isinstance(token, str):
            raise TypeError(f"symbol token must be a str, got {type(token).__name__}")
        if not token:
            raise ValueError("symbol token must be nonempty")
        if any(ch.isspace() for ch in token):
            raise ValueError(f"symbol token may not contain whitespace: {token!r}")
        return super().__new__(cls, token)

    @property
    def token(self) -> str:
        """The token text as a plain ``str``."""
        return str(self)

    def __repr__(self) -> str:
        return f"Symbol({str.__repr__(self)})"


@dataclass(frozen=True)
class Word:
    """An immutable sequence of symbols.

    A word may be empty (projections can produce the empty word); operations
    that need a nonempty word check that themselves.
    """

    symbols: tuple[Symbol, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        for sym in self.symbols:
            if not isinstance(sym, Symbol):
                raise TypeError(f"words hold Symbol values, got {type(sym).__name__}")

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Word":
        """Read a word from its tokens; equal tokens share one Symbol."""
        tokens = tuple(tokens)
        symbols = {tok: Symbol(tok) for tok in dict.fromkeys(tokens)}
        return cls(tuple(symbols[tok] for tok in tokens))

    @classmethod
    def from_chars(cls, text: str) -> "Word":
        """Read a word with one character per symbol, e.g. ``"acbacbab"``."""
        return cls.from_tokens(text)

    @cached_property
    def alphabet(self) -> frozenset[Symbol]:
        """The set of symbols that actually occur in the word."""
        return frozenset(self.symbols)

    @cached_property
    def occurrences(self) -> dict[Symbol, tuple[int, ...]]:
        """Map each symbol to its strictly increasing 1-based positions."""
        acc: dict[Symbol, list[int]] = {}
        for pos, sym in enumerate(self.symbols, start=1):
            acc.setdefault(sym, []).append(pos)
        return {sym: tuple(positions) for sym, positions in acc.items()}

    def at(self, position: int) -> Symbol:
        """Return the symbol at a 1-based position."""
        if not 1 <= position <= len(self.symbols):
            raise IndexError(f"position {position} outside [1, {len(self.symbols)}]")
        return self.symbols[position - 1]

    def tokens(self) -> list[str]:
        return list(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return " ".join(self.symbols)


def project(word: Word, symbols: Iterable[Symbol]) -> Word:
    """Longest subsequence of ``word`` using only the given symbols.

    ``symbols`` may include symbols that never occur; they simply select
    nothing. The order of the kept positions is preserved.
    """
    keep = frozenset(symbols)
    return Word(tuple(sym for sym in word.symbols if sym in keep))


def alternates(word: Word, x: Symbol, y: Symbol) -> bool:
    """True when ``x`` and ``y`` strictly alternate within ``word``.

    Equivalent to: the projection onto {x, y} never repeats a symbol in two
    adjacent positions. Projections of length 0 or 1 alternate trivially.
    Implemented as a single scan over the word.
    """
    if x == y:
        raise ValueError(f"alternation needs two distinct symbols, got {x!r} twice")
    prev: Symbol | None = None
    for sym in word.symbols:
        if sym == x or sym == y:
            if sym == prev:
                return False
            prev = sym
    return True


def power(word: Word, k: int) -> Word:
    """Concatenate ``k`` copies of ``word``; ``k`` must be at least 1."""
    if k < 1:
        raise ValueError(f"word power needs k >= 1, got {k}")
    return Word(word.symbols * k)


def occurrence_indices(word: Word, x: Symbol) -> tuple[int, ...]:
    """Strictly increasing 1-based positions where ``x`` occurs; empty if absent."""
    return word.occurrences.get(x, ())
