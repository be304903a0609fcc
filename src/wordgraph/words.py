"""Symbols, words and word powers, and ``cached``, the descriptor behind
every cached field of the package's immutable values.

Positions are 1-based throughout the public API: ``w.occurrences`` lists
the symbol ``w.symbols[p - 1]`` at position ``p``, matching the index
arithmetic used by the generator families and the timestep partition. Every
value in this module is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd
from typing import Callable, Iterable, Iterator


class cached:
    """A value computed from its instance on first access and stored in the
    instance ``__dict__``, where later lookups find it before this
    descriptor.

    Unlike ``functools.cached_property`` before Python 3.12, a fill takes no
    lock: the values are pure functions of immutable instances, so two
    threads that race to fill one store equal values. Writing ``__dict__``
    directly also works on frozen dataclasses, and leaves their ``==`` and
    ``hash`` unchanged. For the same reason a constructor that has already
    computed a field's value may store it in ``__dict__`` under the field's
    name, and the field is then never computed. ``func`` is the wrapped
    function.
    """

    def __init__(self, func: Callable) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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
        if any(map(str.isspace, token)):
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
        """Read a word from its tokens; equal tokens share one Symbol.

        A power u^k is read by its primitive root: only the tokens of u
        become symbols, the word repeats them k times, and the root's
        length is stored as the word's ``_period``.
        """
        tokens = tuple(tokens)
        period = _period_of(tokens)
        symbols = {tok: Symbol(tok) for tok in dict.fromkeys(tokens[:period])}
        root = tuple(map(symbols.__getitem__, tokens[:period]))
        # Every symbol was made just above, so the word skips the check of
        # ``__post_init__``, which would test each position's type.
        word = object.__new__(cls)
        vars(word).update(
            symbols=root * (len(tokens) // period) if period else (), _period=period
        )
        return word

    @classmethod
    def from_chars(cls, text: str) -> "Word":
        """Read a word with one character per symbol, e.g. ``"acbacbab"``."""
        return cls.from_tokens(text)

    @cached
    def alphabet(self) -> frozenset[Symbol]:
        """The set of symbols that actually occur in the word."""
        return frozenset(self.symbols)

    @cached
    def occurrences(self) -> dict[Symbol, tuple[int, ...]]:
        """Map each symbol to its strictly increasing 1-based positions,
        keyed in first-occurrence order."""
        acc: dict[Symbol, list[int]] = {}
        for pos, sym in enumerate(self.symbols, start=1):
            acc.setdefault(sym, []).append(pos)
        return {sym: tuple(positions) for sym, positions in acc.items()}

    @cached
    def _period(self) -> int:
        """The length p of the primitive root u, the shortest word with
        ``self == u^k``: the length itself when the word is no proper power,
        the empty word included. See ``_period_of``."""
        return _period_of(self.symbols)

    @cached
    def _root_occurrences(self) -> dict[Symbol, tuple[int, ...]]:
        """``occurrences`` of one period, the root u of ``self == u^k``;
        ``occurrences`` itself, the same object, when the word is no proper
        power."""
        period = self._period
        if period == len(self.symbols):
            return self.occurrences
        return Word(self.symbols[:period]).occurrences

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return " ".join(self.symbols)


def _period_of(seq: tuple[str, ...]) -> int:
    """The length p of the shortest prefix that ``seq`` repeats, ``seq ==
    seq[:p] * (len(seq) // p)``: ``len(seq)`` when it repeats none shorter.

    The exponent k = n / p divides both the length n and the count of the
    first item, so p is a multiple of n / gcd(n, count), and only those
    multiples that divide n are tried, shortest first. The first item must
    begin the second copy before the sequence is compared with itself
    shifted by p. Items compare by ``==``, so tokens and symbols alike are
    read by their root.
    """
    n = len(seq)
    if n < 2:
        return n
    first = seq[0]
    g = gcd(n, seq.count(first))
    if g == 1:
        return n
    step = n // g
    for p in range(step, n // 2 + 1, step):
        if n % p == 0 and seq[p] == first and seq[p:] == seq[:-p]:
            return p
    return n


def power(word: Word, k: int) -> Word:
    """Concatenate ``k`` copies of ``word``; ``k`` must be at least 1."""
    if k < 1:
        raise ValueError(f"word power needs k >= 1, got {k}")
    return Word(word.symbols * k)

