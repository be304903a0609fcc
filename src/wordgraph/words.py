"""Symbols, words stored as their primitive root and copy count, word
powers, and ``cached``, the descriptor behind every cached field of the
package's immutable values.

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
from typing import Callable, Iterable, Iterator, Sequence


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


@dataclass(frozen=True, init=False)
class Word:
    """An immutable sequence of symbols, stored as ``root``, its primitive
    root u, the shortest word with ``symbols == u^k``, and ``copies``, that
    k: 0 for the empty word, whose root is empty. The primitive root is
    unique, so equal words have equal roots and counts, which ``==`` and
    ``hash`` compare; ``symbols`` is derived. A word may be empty;
    operations that need a nonempty word check that themselves.
    """

    root: tuple[Symbol, ...]
    copies: int

    def __init__(self, symbols: Iterable[Symbol] = ()) -> None:
        symbols = tuple(symbols)
        if not all(map(isinstance, symbols, repeat(Symbol))):
            bad = next(sym for sym in symbols if not isinstance(sym, Symbol))
            raise TypeError(f"words hold Symbol values, got {type(bad).__name__}")
        period = _period_of(symbols)
        vars(self).update(root=symbols[:period], copies=len(symbols) // period if period else 0)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Word":
        """Read a word from its tokens, one per character of a ``str`` such
        as ``"acbacbab"``; equal tokens share one Symbol, and only the
        tokens of one copy of the primitive root become symbols."""
        tokens = tuple(tokens)
        period = _period_of(tokens)
        return cls._from_root(tokens[:period], len(tokens) // period if period else 0)

    @classmethod
    def _from_root(cls, tokens: Sequence[str], copies: int) -> "Word":
        """The word ``copies`` times the primitive root read from ``tokens``,
        with one Symbol per distinct token."""
        symbols = {tok: Symbol(tok) for tok in dict.fromkeys(tokens)}
        return _power(tuple(map(symbols.__getitem__, tokens)), copies)

    @cached
    def symbols(self) -> tuple[Symbol, ...]:
        """Every position's symbol: ``copies`` copies of ``root``."""
        return self.root * self.copies

    @cached
    def occurrences(self) -> dict[Symbol, tuple[int, ...]]:
        """Map each symbol to its strictly increasing 1-based positions,
        keyed in first-occurrence order."""
        acc: dict[Symbol, list[int]] = {}
        for pos, sym in enumerate(self.symbols, start=1):
            acc.setdefault(sym, []).append(pos)
        return {sym: tuple(positions) for sym, positions in acc.items()}

    @cached
    def _root_occurrences(self) -> dict[Symbol, tuple[int, ...]]:
        """``occurrences`` of one copy of the root; ``occurrences`` itself,
        the same object, when the word is no proper power."""
        return self.occurrences if self.copies <= 1 else _power(self.root, 1).occurrences

    def __len__(self) -> int:
        return len(self.root) * self.copies

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return " ".join([" ".join(self.root)] * self.copies)


def _period_of(seq: Sequence[str]) -> int:
    """The length p of the shortest prefix that ``seq`` repeats, ``seq ==
    seq[:p] * (len(seq) // p)``: ``len(seq)`` when it repeats none shorter.

    The exponent k = n / p divides both the length n and the count of the
    first item, so p is a multiple of n / gcd(n, count), and only those
    multiples that divide n are tried, shortest first. The first item must
    begin the second copy before the sequence is compared with itself
    shifted by p. Items compare by ``==``, so tokens and symbols alike are
    read by their root; on a ``str`` the items are its characters.
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


def _power(root: tuple[Symbol, ...], copies: int) -> Word:
    """The word of ``copies`` copies of ``root``, a primitive root of
    Symbols, built without ``Word``'s type check and period search."""
    word = object.__new__(Word)
    vars(word).update(root=root, copies=copies)
    return word


def power(word: Word, k: int) -> Word:
    """Concatenate ``k`` copies of ``word``, ``k`` at least 1: ``word``'s
    root, with ``k`` times its copies."""
    if k < 1:
        raise ValueError(f"word power needs k >= 1, got {k}")
    return _power(word.root, word.copies * k)
