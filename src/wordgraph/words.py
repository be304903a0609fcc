"""Symbols, words and word powers.

Positions are 1-based throughout the public API: ``w.occurrences`` lists
the symbol ``w.symbols[p - 1]`` at position ``p``, matching the index
arithmetic used by the generator families and the timestep partition. Every
value in this module is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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

    A word may be empty; operations that need a nonempty word check that
    themselves.
    """

    symbols: tuple[Symbol, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        if not all(map(isinstance, self.symbols, repeat(Symbol))):
            bad = next(sym for sym in self.symbols if not isinstance(sym, Symbol))
            raise TypeError(f"words hold Symbol values, got {type(bad).__name__}")

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Word":
        """Read a word from its tokens; equal tokens share one Symbol."""
        tokens = tuple(tokens)
        symbols = {tok: Symbol(tok) for tok in dict.fromkeys(tokens)}
        return cls(tuple(map(symbols.__getitem__, tokens)))

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

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return " ".join(self.symbols)


def power(word: Word, k: int) -> Word:
    """Concatenate ``k`` copies of ``word``; ``k`` must be at least 1."""
    if k < 1:
        raise ValueError(f"word power needs k >= 1, got {k}")
    return Word(word.symbols * k)

