import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from islandkit import coloring
from islandkit.cli import build_parser, main
from islandkit.decomposition import PathDecomposition, write_decomposition
from islandkit.graphs import vset

REPO = Path(__file__).resolve().parent.parent
NOT_GIVEN = object()  # the default of every optional argument in the README check


@pytest.fixture
def k23(tmp_path):
    path = tmp_path / "K23.txt"
    assert main(["gen", "complete_bipartite", "2", "3", str(path)]) == 0
    return str(path)


@pytest.fixture
def p3(tmp_path):
    path = tmp_path / "p3.txt"
    assert main(["gen", "path", "3", str(path)]) == 0
    return str(path)


@pytest.fixture
def grid10(tmp_path):
    path = tmp_path / "grid10.txt"
    assert main(["gen", "triangulated_grid", "10", "10", str(path)]) == 0
    return str(path)


class TestGen:
    def test_fan(self, tmp_path, capsys):
        out = tmp_path / "fan.txt"
        assert main(["gen", "fan", "1", "3", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "n: 4" in captured

    def test_unknown_family(self, tmp_path):
        assert main(["gen", "moebius", "3", str(tmp_path / "x.txt")]) == 1


class TestIsland:
    def test_brute(self, k23, capsys):
        assert main(["island", k23, "2", "brute"]) == 0
        assert "min_island_size: 3" in capsys.readouterr().out

    def test_brute_t_zero_is_a_named_error(self, k23, capsys):
        assert main(["island", k23, "0", "brute"]) == 1
        assert "error: t must be >= 1" in capsys.readouterr().err

    def test_t_above_degree(self, k23, capsys):
        assert main(["island", k23, "9", "brute"]) == 0
        assert "min_island_size: 1" in capsys.readouterr().out

    def test_sparse_on_grid(self, grid10, capsys):
        assert main(["island", grid10, "4", "sparse", "0.3"]) == 0
        assert "verified: True" in capsys.readouterr().out

    def test_sparse_dense_negative(self, tmp_path, capsys):
        path = tmp_path / "K55.txt"
        main(["gen", "complete_bipartite", "5", "5", str(path)])
        assert main(["island", str(path), "2", "sparse", "0.25"]) == 2


class TestColorPercolateShatter:
    def test_color_grid(self, grid10, capsys):
        assert main(["color", grid10, "4"]) == 0
        assert "verified: True" in capsys.readouterr().out

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_color_t_below_one_is_a_named_error(self, k23, capsys, t):
        assert main(["color", k23, t]) == 1
        err = capsys.readouterr().err
        assert "error: t must be >= 1" in err
        assert "residual" not in err

    def test_color_component_above_the_largest_island_fails(self, p3, monkeypatch, capsys):
        # islands {0, 1} and {2} of one colour join into a component of 3;
        # the colouring's own clustering (3) agrees with itself
        def joined(G, t, finder):
            col = coloring.ClusteredColoring((0, 0, 0), t, 3)
            return col, coloring.IslandEliminationTrace((((0, 1), (0, 0)), ((2,), (0,))))

        monkeypatch.setattr(coloring, "greedy_clustered_coloring", joined)
        capsys.readouterr()
        assert main(["color", p3, "2"]) == 1
        assert "greedy coloring failed re-verification" in capsys.readouterr().err

    def test_percolate(self, k23, capsys):
        assert main(["percolate", k23, "0,1", "2"]) == 0
        assert "percolates: True" in capsys.readouterr().out

    def test_shatter_json_deterministic(self, grid10, capsys):
        assert main(["--json", "shatter", grid10, "0.2"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["--json", "shatter", grid10, "0.2"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["payload"] == second["payload"]
        assert first["input_digest"] == second["input_digest"]

    def test_shatter_brute(self, tmp_path, grid10, capsys):
        c12 = str(tmp_path / "c12.txt")
        assert main(["gen", "cycle", "12", c12]) == 0
        capsys.readouterr()
        assert main(["--json", "shatter", c12, "0.25", "brute"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["oracle"] == "brute"
        # the lexicographically first balanced 2-cut of C12 leaves parts of 2 and 8
        assert report["payload"]["X"] == [0, 3] and report["payload"]["C"] == 8
        assert main(["shatter", grid10, "0.2", "brute"]) == 1
        assert "error: |S|=100 exceeds brute-force separator cap 16" in capsys.readouterr().err

    def test_json_is_one_line(self, grid10, capsys):
        capsys.readouterr()
        assert main(["--json", "percolate", grid10, "0,1", "2"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)["payload"]["percolates"] is True

    def test_negative_json_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "K55.txt"
        main(["gen", "complete_bipartite", "5", "5", str(path)])
        capsys.readouterr()
        assert main(["--json", "island", str(path), "2", "sparse", "0.25"]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "reason" in json.loads(out)["negative"]


class TestColorLists:
    @pytest.fixture
    def p4(self, tmp_path):
        path = tmp_path / "p4.txt"
        assert main(["gen", "path", "4", str(path)]) == 0
        return str(path)

    def test_lists_color_a_path(self, p4, tmp_path, capsys):
        lists = tmp_path / "lists.txt"
        lists.write_text("0 1\n" * 4)
        capsys.readouterr()
        assert main(["color", p4, "2", "--lists", str(lists)]) == 0
        assert "verified: True" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0 1\n0 1\n", "line 3: expected 4 lists"),
            ("0 1\n" * 5, "line 5: expected 4 lists"),
            ("0 1\n1 1\n0 1\n0 1\n", "line 2: duplicate colour"),
            ("0 1\n0 1\n0 -1\n0 1\n", "line 3: negative colour"),
        ],
    )
    def test_bad_lists_name_the_line(self, p4, tmp_path, capsys, text, message):
        lists = tmp_path / "lists.txt"
        lists.write_text(text)
        capsys.readouterr()
        assert main(["color", p4, "2", "--lists", str(lists)]) == 1
        assert message in capsys.readouterr().err


class TestPathdecomp:
    def test_fan_chain_to_minor(self, tmp_path, capsys):
        graph = tmp_path / "fan50.txt"
        main(["gen", "fan", "1", "50", str(graph)])
        P = PathDecomposition(tuple(vset([i, i + 1, 50]) for i in range(49)))
        pd = tmp_path / "fan50.pd"
        pd.write_text(write_decomposition(P))
        code = main(
            ["pathdecomp", str(graph), str(pd), "linked,appuniv,largeint,extract", "2", "3", "1"]
        )
        assert code == 0
        assert "'kind': 'minor'" in capsys.readouterr().out

    def test_too_small_negative_exit(self, tmp_path):
        graph = tmp_path / "p6.txt"
        main(["gen", "path", "6", str(graph)])
        P = PathDecomposition(tuple(vset([i, i + 1]) for i in range(5)))
        pd = tmp_path / "p6.pd"
        pd.write_text(write_decomposition(P))
        assert main(["pathdecomp", str(graph), str(pd), "largeint,extract", "2", "9", "9"]) == 2

    @pytest.mark.parametrize(
        "kind, step, stage",
        [("tree", "linked", "make_linked"), ("path", "treepath", "tree_to_path")],
    )
    def test_wrong_decomposition_kind_names_the_stage(self, tmp_path, capsys, kind, step, stage):
        graph = tmp_path / "fan.txt"
        main(["gen", "fan", "1", "6", str(graph)])
        # the fan's path decomposition, or the same bags on a path-shaped tree
        bags = "".join(f"bag {i} {i + 1} 6\n" for i in range(5))
        edges = "".join(f"edge {i} {i + 1}\n" for i in range(4))
        pd = tmp_path / "fan.dec"
        pd.write_text(f"path 5\n{bags}" if kind == "path" else f"tree 5\n{edges}{bags}")
        capsys.readouterr()
        assert main(["pathdecomp", str(graph), str(pd), step]) == 1
        want, got = ("Tree", "Path") if kind == "path" else ("Path", "Tree")
        message = f"error: {stage} needs a {want}Decomposition, got a {got}Decomposition\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "t,m,l,name",
        [("2", "3", "-1", "l"), ("2", "3", "0", "l"), ("2", "0", "1", "m"), ("0", "3", "1", "t")],
    )
    def test_parameters_below_one_are_errors(self, tmp_path, capsys, t, m, l, name):
        graph = tmp_path / "p12.txt"
        main(["gen", "path", "12", str(graph)])
        P = PathDecomposition(tuple(vset([i, i + 1]) for i in range(11)))
        pd = tmp_path / "p12.pd"
        pd.write_text(write_decomposition(P))
        capsys.readouterr()
        chain = "appuniv,largeint,extract"
        assert main(["--json", "pathdecomp", str(graph), str(pd), chain, t, m, l]) == 1
        assert f"needs {name} >= 1" in capsys.readouterr().err


class TestPathdecompValidation:
    """Each decomposition is validated against the graph once: by the stage
    it enters, or after the chain when no stage received it."""

    @pytest.fixture
    def fan(self, tmp_path):
        path = tmp_path / "fan50.txt"
        assert main(["gen", "fan", "1", "50", str(path)]) == 0  # path 0..49, apex 50
        return str(path)

    def decomposition(self, tmp_path, kind):
        bags = "".join(f"bag {i} {i + 1} 50\n" for i in range(49))
        edges = "".join(f"edge {i} {i + 1}\n" for i in range(48))
        pd = tmp_path / "fan50.dec"
        pd.write_text(f"tree 49\n{edges}{bags}" if kind == "tree" else f"path 49\n{bags}")
        return str(pd)

    @pytest.mark.parametrize(
        "kind, chain, calls",
        [
            ("path", "linked,appuniv,largeint,extract", 4),
            ("tree", "treepath,linked,appuniv,largeint,extract", 5),
            ("path", "linked", 2),
            ("path", "proper", 1),
        ],
    )
    def test_one_validation_per_decomposition(
        self, fan, tmp_path, validations, kind, chain, calls
    ):
        assert main(["pathdecomp", fan, self.decomposition(tmp_path, kind), chain]) == 0
        assert len(validations) == calls

    @pytest.mark.parametrize(
        "chain, stage",
        [
            ("appuniv,largeint,extract", "make_appearance_universal"),
            ("largeint,extract", "make_large_interiors"),
            ("proper", "after proper"),
            ("proper,linked", "make_linked"),
        ],
    )
    def test_uncovered_edge_is_named(self, tmp_path, capsys, chain, stage):
        graph = tmp_path / "fan.txt"
        main(["gen", "fan", "1", "6", str(graph)])
        # the apex misses the last bag, so the edge (5,6) lies in no bag
        bags = "".join(f"bag {i} {i + 1} 6\n" for i in range(4)) + "bag 4 5\n"
        pd = tmp_path / "fan.pd"
        pd.write_text(f"path 5\n{bags}")
        capsys.readouterr()
        assert main(["pathdecomp", str(graph), str(pd), chain]) == 1
        err = capsys.readouterr().err
        assert stage in err and "edge (5,6) uncovered" in err


class TestVerify:
    def test_island_ok(self, k23):
        assert main(["verify", k23, "--island", "0,2,3", "--t", "2"]) == 0

    def test_island_bad(self, k23):
        assert main(["verify", k23, "--island", "2,3", "--t", "2"]) == 2

    def test_missing_file_is_error(self):
        assert main(["verify", "no-such-file.txt"]) == 1

    def test_crlf_file_with_comment(self, tmp_path, capsys):
        data = b"# a triangle\r\n3 3\r\n0 1\r\n1 2  # chord\r\n0 2\r\n"
        path = tmp_path / "crlf.txt"
        path.write_bytes(data)
        assert main(["--json", "verify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["payload"]["n"], report["payload"]["m"]) == (3, 3)
        assert report["input_digest"] == hashlib.sha256(data).hexdigest()


class TestVerifyDecomposition:
    """verify --decomposition re-checks a decomposition file against G."""

    @pytest.fixture
    def fan(self, tmp_path):
        path = tmp_path / "fan.txt"
        assert main(["gen", "fan", "1", "6", str(path)]) == 0  # path 0..5, apex 6
        return str(path)

    def verify(self, fan, tmp_path, text):
        pd = tmp_path / "fan.pd"
        pd.write_text(text)
        return main(["--json", "verify", fan, "--decomposition", str(pd)])

    def test_valid_decomposition(self, fan, tmp_path, capsys):
        bags = "".join(f"bag {i} {i + 1} 6\n" for i in range(5))
        capsys.readouterr()
        assert self.verify(fan, tmp_path, f"path 5\n{bags}") == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["decomposition_ok"] is True
        assert "violation" not in payload

    def test_uncovered_edge_is_a_negative(self, fan, tmp_path, capsys):
        # the apex misses the last bag, so the edge (5,6) lies in no bag
        bags = "".join(f"bag {i} {i + 1} 6\n" for i in range(4)) + "bag 4 5\n"
        capsys.readouterr()
        assert self.verify(fan, tmp_path, f"path 5\n{bags}") == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # the negative only, not also the report
        negative = json.loads(out)["negative"]
        assert negative["decomposition_ok"] is False
        assert negative["violation"] == "edge (5,6) uncovered"

    def test_malformed_file_names_the_line(self, fan, tmp_path, capsys):
        capsys.readouterr()
        assert self.verify(fan, tmp_path, "path 2\nbag 0 1 6\nbag 1 x\n") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: line 3: expected integers after 'bag'" in captured.err


class TestVertexIdsAtTheBoundary:
    def test_percolate_negative_seed_is_error(self, p3, capsys):
        capsys.readouterr()
        assert main(["--json", "percolate", p3, "-1", "1"]) == 1
        assert "vertex -1 out of range" in capsys.readouterr().err

    def test_percolate_malformed_seed_names_the_token(self, p3, capsys):
        capsys.readouterr()
        assert main(["percolate", p3, "1,x", "1"]) == 1
        err = capsys.readouterr().err
        assert "error: seeds: 'x' is not a vertex id" in err
        assert "invalid literal" not in err

    def test_verify_malformed_island_names_the_token(self, p3, capsys):
        capsys.readouterr()
        assert main(["verify", p3, "--island", "0,1.5", "--t", "1"]) == 1
        assert "error: --island: '1.5' is not a vertex id" in capsys.readouterr().err

    def test_verify_island_out_of_range_is_error(self, p3, capsys):
        capsys.readouterr()
        assert main(["verify", p3, "--island", "0,1,2,7", "--t", "1"]) == 1
        assert "vertex 7 out of range" in capsys.readouterr().err


    def test_ids_are_ascii_digits(self, p3, capsys):
        capsys.readouterr()
        assert main(["percolate", p3, "0_1,+2", "1"]) == 1
        assert "error: seeds: '0_1' is not a vertex id" in capsys.readouterr().err
        assert main(["verify", p3, "--island", "+1", "--t", "1"]) == 1
        assert "error: --island: '+1' is not a vertex id" in capsys.readouterr().err

    def test_colours_are_ascii_digits(self, p3, tmp_path, capsys):
        lists = tmp_path / "lists.txt"
        lists.write_text("0 1\n0 +1\n0 1\n")
        capsys.readouterr()
        assert main(["color", p3, "2", "--lists", str(lists)]) == 1
        assert "line 2: expected integer colours" in capsys.readouterr().err


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_island_alpha(self, p3, capsys, value):
        capsys.readouterr()
        assert main(["island", p3, "2", "sparse", value]) == 1
        err = capsys.readouterr().err
        assert f"error: alpha must be finite, got {value}" in err
        assert "Fraction" not in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_shatter_epsilon(self, p3, capsys, value):
        capsys.readouterr()
        assert main(["shatter", p3, value]) == 1
        err = capsys.readouterr().err
        assert f"error: epsilon must be finite, got {value}" in err
        assert "Fraction" not in err


class TestUsageErrors:
    """A malformed command line exits 1, never 2, the code of an honest
    negative; main returns the code rather than raising SystemExit."""

    @pytest.mark.parametrize("value", ["abc", "-inf"])
    def test_shatter_epsilon(self, p3, capsys, value):
        capsys.readouterr()
        assert main(["shatter", p3, value]) == 1
        assert "islandkit shatter: error:" in capsys.readouterr().err

    def test_colour_knobs_are_gone(self, k23, capsys):
        # color's island finder reads fixed constants, not per-run knobs
        for argv in (["--bruteforce-cap", "5", "color", k23, "2"],
                     ["color", k23, "2", "--alpha", "0.6"]):
            assert main(argv) == 1, argv
            assert "islandkit: error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "islandkit: error:" in capsys.readouterr().err

    def test_help_still_exits_0(self, capsys):
        assert main(["shatter", "--help"]) == 0
        assert "usage: islandkit shatter" in capsys.readouterr().out


def _readme_cli_block() -> str:
    readme = (REPO / "README.md").read_text()
    return readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]


class TestReadme:
    def test_cli_block_runs_as_written(self, tmp_path):
        """Each line of the README's CLI block, in order, under bash in an
        empty directory, with islandkit run from src/: every line exits 0."""
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHON": sys.executable}
        prelude = 'set -o pipefail\nislandkit() { "$PYTHON" -m islandkit.cli "$@"; }\n'
        out = []
        for line in filter(None, _readme_cli_block().splitlines()):
            run = subprocess.run(
                ["bash", "-c", prelude + line],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert run.returncode == 0, (line, run.stderr)
            out.append(run.stdout)
        assert "kind': 'minor'" in "".join(out)

    def test_every_optional_argument_has_an_example(self):
        """Every flag and every optional positional is given by some
        islandkit line of the README's CLI block."""
        parser = build_parser.__wrapped__()  # a fresh parser: defaults change below
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        optional = {}  # (subcommand or None, dest) -> how the report names it
        for sub, p in [(None, parser), *subparsers.choices.items()]:
            for action in p._actions:
                if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
                    continue
                if action.option_strings or action.nargs == "?":
                    name = action.option_strings[-1] if action.option_strings else action.dest
                    optional[sub, action.dest] = f"{sub} {name}" if sub else name
                    action.default = NOT_GIVEN
        given = set()
        for line in _readme_cli_block().splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["islandkit"]:
                args = vars(parser.parse_args(words[1:]))
                for sub, dest in optional:
                    if sub in (None, args["subcommand"]) and args[dest] is not NOT_GIVEN:
                        given.add((sub, dest))
        assert sorted(optional[key] for key in optional.keys() - given) == []
