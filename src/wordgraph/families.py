"""Generator families with fully predictable temporal structure.

Two constructions are provided:

* the path family: a word of length 2n over symbols 1..n whose graph is the
  n-vertex path, with short factors that force long waits between moves;
* the layered family: a column interleaving of n/d path words over pair
  symbols (i, j) whose graph joins exactly consecutive layers, completely.

Alongside the generators live closed forms for the words' symbols, start
points and lifetimes, used as independent cross-checks of the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, make_edge
from .words import Symbol, Word, power


class OutOfFormulaRangeError(ValueError):
    """Raised when a position falls outside a closed form's domain."""


@dataclass(frozen=True)
class PathFamilySpec:
    """Parameters of one path-family instance: path length and power."""

    n: int
    k: int = 1

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"path family needs n >= 3, got {self.n}")
        if self.k < 1:
            raise ValueError(f"power must be >= 1, got {self.k}")

    def build(self) -> Word:
        return power(path_word(self.n), self.k)


@dataclass(frozen=True)
class LayeredFamilySpec:
    """Parameters of one layered-family instance: vertices, layers, power."""

    n: int
    d: int
    k: int = 1

    def __post_init__(self) -> None:
        if self.d < 3:
            raise ValueError(f"layered family needs d >= 3, got {self.d}")
        if self.n % self.d or self.n // self.d < 2:
            raise ValueError(
                f"vertex count {self.n} must be a multiple of {self.d} layers,"
                " with at least two vertices per layer"
            )
        if self.k < 1:
            raise ValueError(f"power must be >= 1, got {self.k}")

    def build(self) -> Word:
        return power(layered_word(self.n, self.d), self.k)


def path_word(n: int) -> Word:
    """Length-2n word over symbols 1..n representing the n-vertex path.

    Rules: positions 1..3 hold 1 2 1; for x in 2..n-1 position 2x holds x+1
    and position 2x+1 holds x; position 2n holds n.
    """
    if n < 3:
        raise ValueError(f"path word needs n >= 3, got {n}")
    out = [0] * (2 * n + 1)
    out[1], out[2], out[3] = 1, 2, 1
    for x in range(2, n):
        out[2 * x] = x + 1
        out[2 * x + 1] = x
    out[2 * n] = n
    return Word.from_tokens(str(out[i]) for i in range(1, 2 * n + 1))


def predicted_symbol_at(n: int, k: int, pos: int) -> Symbol:
    """Closed form for the symbol of path_word(n)^k at a 1-based position.

    Writing pos = c*2n + l with l in [4, 2n-1], the symbol is l/2 + 1 for
    even l and (l-1)/2 for odd l. Positions whose residue l falls outside
    [4, 2n-1] (the seam positions 1..3 and 2n of each copy) are out of range.
    """
    if n < 3:
        raise ValueError(f"path word needs n >= 3, got {n}")
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    if not 1 <= pos <= 2 * n * k:
        raise ValueError(f"position {pos} outside [1, {2 * n * k}]")
    residue = (pos - 1) % (2 * n) + 1
    if not 4 <= residue <= 2 * n - 1:
        raise OutOfFormulaRangeError(
            f"position {pos} has in-copy offset {residue}, outside [4, {2 * n - 1}]"
        )
    value = residue // 2 + 1 if residue % 2 == 0 else (residue - 1) // 2
    return Symbol(str(value))


def predicted_path_timesteps(n: int, k: int) -> tuple[int, tuple[int, ...]]:
    """Closed form for (lifetime, start points) of path_word(n)^k.

    One copy yields t1 = floor((n+3)/2) factors; for even n this equals
    floor((2n+5)/4) and every interior start follows 4i - 5. The last start
    of a copy is 2n - 1 for even n but 2n for odd n, and the pattern repeats
    with period 2n, giving lifetime k*(t1 - 1) + 1. Verified against the
    greedy scan for every supported (n, k).
    """
    if n < 4:
        raise ValueError(f"start-point closed form needs n >= 4, got {n}")
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    t1 = (n + 3) // 2
    tail = [4 * i - 5 for i in range(2, t1 + 1)]
    if n % 2:
        tail[-1] -= 1
    starts = [1]
    for copy in range(k):
        offset = 2 * copy * n
        starts.extend(offset + s for s in tail)
    lifetime = k * (t1 - 1) + 1
    return lifetime, tuple(starts)


def layered_word(n: int, d: int) -> Word:
    """Column interleaving of n/d path words over pair symbols (i, j).

    Column l of the result lists the l-th symbols of all n/d path words,
    forward for l = 1 and even l < 2d, reversed for odd l >= 3 and for the
    final column 2d. The reversal of the last column is what keeps the two
    occurrences of every layer-d symbol from alternating, so no edges appear
    inside the last layer.
    """
    spec = LayeredFamilySpec(n, d)
    per_layer = spec.n // spec.d
    column_layers = [int(sym) for sym in path_word(d)]
    out: list[Symbol] = []
    for column, layer in enumerate(column_layers, start=1):
        rows: range | reversed = range(1, per_layer + 1)
        forward = column == 1 or (column % 2 == 0 and column != 2 * d)
        if not forward:
            rows = reversed(range(1, per_layer + 1))
        out.extend(Symbol(f"({row},{layer})") for row in rows)
    return Word(tuple(out))


def layered_edge_oracle(n: int, d: int) -> frozenset[Edge]:
    """Expected edge set of the layered family: complete bipartite between
    consecutive layers, nothing else."""
    spec = LayeredFamilySpec(n, d)
    per_layer = spec.n // spec.d
    edges: set[Edge] = set()
    for layer in range(1, d):
        for i in range(1, per_layer + 1):
            for j in range(1, per_layer + 1):
                edges.add(
                    make_edge(Symbol(f"({i},{layer})"), Symbol(f"({j},{layer + 1})"))
                )
    return frozenset(edges)
