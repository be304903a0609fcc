"""Generator families with fully predictable temporal structure.

Two constructions are provided:

* the path family: a word of length 2n over symbols 1..n whose graph is the
  n-vertex path, with short factors that force long waits between moves;
* the layered family: a column interleaving of n/d path words over pair
  symbols (i, j) whose graph joins exactly consecutive layers, completely.

The closed forms of the words' symbols, start points, lifetimes and edge
sets live beside the tests, as independent cross-checks of the scan.
"""

from __future__ import annotations

from .words import Symbol, Word


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


def layered_word(n: int, d: int) -> Word:
    """Column interleaving of n/d path words over pair symbols (i, j).

    Column l of the result lists the l-th symbols of all n/d path words,
    forward for l = 1 and even l < 2d, reversed for odd l >= 3 and for the
    final column 2d. The reversal of the last column is what keeps the two
    occurrences of every layer-d symbol from alternating, so no edges appear
    inside the last layer.
    """
    if d < 3:
        raise ValueError(f"layered family needs d >= 3, got {d}")
    if n % d or n // d < 2:
        raise ValueError(
            f"vertex count {n} must be a multiple of {d} layers,"
            " with at least two vertices per layer"
        )
    per_layer = n // d
    column_layers = [int(sym) for sym in path_word(d)]
    out: list[Symbol] = []
    for column, layer in enumerate(column_layers, start=1):
        rows: range | reversed = range(1, per_layer + 1)
        forward = column == 1 or (column % 2 == 0 and column != 2 * d)
        if not forward:
            rows = reversed(range(1, per_layer + 1))
        out.extend(Symbol(f"({row},{layer})") for row in rows)
    return Word(tuple(out))
