import json

import pytest

from references import layered_edge_oracle, path_edges, predicted_path_timesteps
from wordgraph import cli
from wordgraph.cli import run_cli
from wordgraph.families import layered_word, path_word
from wordgraph.graphs import build_graph, diameter
from wordgraph.temporal import start_points
from wordgraph.words import Symbol, power

# Closed forms for the family words, written independently of the
# generators; the tests below hold them, and those in ``references``,
# against the generated words.


class OutOfFormulaRangeError(ValueError):
    """Raised when a position falls outside a closed form's domain."""


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


class TestPathWord:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (3, "1 2 1 3 2 3"),
            (4, "1 2 1 3 2 4 3 4"),
            (8, "1 2 1 3 2 4 3 5 4 6 5 7 6 8 7 8"),
        ],
    )
    def test_examples(self, n, expected):
        assert str(path_word(n)) == expected

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            path_word(2)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_graph_is_exactly_the_path(self, n):
        word = path_word(n)
        assert len(word) == 2 * n
        path = [str(x) for x in range(1, n + 1)]
        assert build_graph(word).edges == path_edges(path)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_occurrence_gaps(self, n):
        # interior symbols have occurrences exactly 3 apart; the two
        # boundary symbols have gap 2
        word = path_word(n)
        for x in range(1, n + 1):
            first, second = word.occurrences[Symbol(str(x))]
            expected_gap = 2 if x in (1, n) else 3
            assert second - first == expected_gap


class TestPredictedSymbolAt:
    @pytest.mark.parametrize(
        "n, k, pos, expected",
        [
            (8, 1, 6, "4"),
            (8, 1, 7, "3"),
            (4, 2, 12, "3"),
        ],
    )
    def test_examples(self, n, k, pos, expected):
        assert predicted_symbol_at(n, k, pos) == Symbol(expected)

    @pytest.mark.parametrize("pos", [1, 2, 3, 16, 17, 19, 32])
    def test_out_of_formula_positions(self, pos):
        with pytest.raises(OutOfFormulaRangeError):
            predicted_symbol_at(8, 2, pos)

    def test_position_outside_word_rejected(self):
        with pytest.raises(ValueError):
            predicted_symbol_at(8, 1, 17)

    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_with_generated_word_everywhere_in_range(self, n, k):
        word = power(path_word(n), k)
        for pos in range(1, 2 * n * k + 1):
            residue = (pos - 1) % (2 * n) + 1
            if 4 <= residue <= 2 * n - 1:
                assert predicted_symbol_at(n, k, pos) == word.symbols[pos - 1]


class TestPredictedPathTimesteps:
    @pytest.mark.parametrize(
        "n, k, lifetime, starts",
        [
            (8, 1, 5, (1, 3, 7, 11, 15)),
            (4, 2, 5, (1, 3, 7, 11, 15)),
            (6, 1, 4, (1, 3, 7, 11)),
        ],
    )
    def test_examples(self, n, k, lifetime, starts):
        assert predicted_path_timesteps(n, k) == (lifetime, starts)

    @pytest.mark.parametrize("n", range(4, 21))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_greedy_scan(self, n, k):
        lifetime, starts = predicted_path_timesteps(n, k)
        scanned = start_points(power(path_word(n), k))
        assert starts == scanned
        assert lifetime == len(scanned)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            predicted_path_timesteps(3, 1)
        with pytest.raises(ValueError):
            predicted_path_timesteps(8, 0)


class TestLayeredWord:
    def test_example_8_4(self):
        expected = (
            "(1,1) (2,1) (1,2) (2,2) (2,1) (1,1) (1,3) (2,3)"
            " (2,2) (1,2) (1,4) (2,4) (2,3) (1,3) (2,4) (1,4)"
        )
        assert str(layered_word(8, 4)) == expected

    def test_smallest_legal_instance(self):
        word = layered_word(6, 3)
        assert len(word) == 12
        assert len(word.alphabet) == 6

    @pytest.mark.parametrize(
        "n, d",
        [(8, 2), (9, 4), (4, 4), (10, 10)],
    )
    def test_bad_shapes_rejected(self, n, d):
        with pytest.raises(ValueError):
            layered_word(n, d)

    @pytest.mark.parametrize(
        "n, d, expected_count",
        [(8, 4, 12), (6, 3, 8)],
    )
    def test_edge_oracle_counts(self, n, d, expected_count):
        assert len(layered_edge_oracle(n, d)) == expected_count

    @pytest.mark.parametrize(
        "n, d",
        [(8, 4), (12, 4), (15, 5), (12, 6), (6, 3), (16, 4), (12, 3)],
    )
    def test_graph_matches_edge_oracle(self, n, d):
        # simultaneously: no intra-layer or layer-skipping edges, and every
        # consecutive-layer edge present
        assert build_graph(layered_word(n, d)).edges == layered_edge_oracle(n, d)

    @pytest.mark.parametrize("n, d", [(8, 4), (12, 4), (15, 5), (12, 6)])
    def test_powers_keep_the_same_graph(self, n, d):
        word = layered_word(n, d)
        assert build_graph(power(word, 3)).edges == layered_edge_oracle(n, d)

    @pytest.mark.parametrize("n, d", [(8, 4), (15, 5), (12, 6)])
    def test_measured_diameter_is_layers_minus_one(self, n, d):
        assert diameter(build_graph(layered_word(n, d))) == d - 1


class TestFamilySpecs:
    """Bad family parameters are rejected by the generators and by ``power``,
    and ``gen`` reports them as invalid arguments."""

    @staticmethod
    def gen_fails(capsys, *argv):
        assert run_cli(["gen", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "invalid-arguments"

    def test_path_spec_builds_power(self, capsys):
        assert run_cli(["gen", "path", "--n", "4", "--k", "2"]) == 0
        assert capsys.readouterr().out == f"{power(path_word(4), 2)}\n"
        with pytest.raises(ValueError):
            path_word(2)
        with pytest.raises(ValueError):
            power(path_word(4), 0)
        self.gen_fails(capsys, "path", "--n", "2")
        self.gen_fails(capsys, "path", "--n", "4", "--k", "0")
        # A power too long to index fails before anything is allocated.
        self.gen_fails(capsys, "path", "--n", "5", "--k", str(10**20))

    def test_power_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(word, k):
            raise MemoryError

        monkeypatch.setattr(cli, "power", exhausted)
        assert run_cli(["gen", "path", "--n", "5", "--k", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "out-of-memory"

    def test_layered_spec_builds_power(self, capsys):
        assert run_cli(["gen", "layered", "--n", "6", "--d", "3", "--k", "2"]) == 0
        assert capsys.readouterr().out == f"{power(layered_word(6, 3), 2)}\n"
        with pytest.raises(ValueError):
            layered_word(8, 3)
        with pytest.raises(ValueError):
            power(layered_word(6, 3), 0)
        self.gen_fails(capsys, "layered", "--n", "8", "--d", "3")
        self.gen_fails(capsys, "layered", "--n", "6", "--d", "3", "--k", "0")
