import hashlib
import json
import shlex
import subprocess
from pathlib import Path

import pytest

from islandkit.cli import main
from islandkit.decomposition import PathDecomposition, write_decomposition
from islandkit.graphs import vset


@pytest.fixture
def k23(tmp_path):
    path = tmp_path / "K23.txt"
    assert main(["gen", "complete_bipartite", "2", "3", str(path)]) == 0
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

    def test_color_nonpositive_alpha_is_rejected_at_entry(self, tmp_path, capsys):
        # 36 vertices: above the brute-force cap, so the sparse finder runs
        path = tmp_path / "g66.txt"
        assert main(["gen", "triangulated_grid", "6", "6", str(path)]) == 0
        capsys.readouterr()
        assert main(["color", str(path), "4", "--alpha", "-1"]) == 1
        err = capsys.readouterr().err
        assert "error: --alpha must be > 0, got -1.0" in err
        assert "residual" not in err

    @pytest.mark.parametrize("alpha", ["0", "-1"])
    def test_color_nonpositive_alpha_is_rejected_below_bruteforce_cap(
        self, k23, capsys, alpha
    ):
        # 5 vertices: only the brute-force finder would run, alpha is never read
        assert main(["color", k23, "2", "--alpha", alpha]) == 1
        assert "error: --alpha must be > 0" in capsys.readouterr().err

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


class TestVertexIdsAtTheBoundary:
    @pytest.fixture
    def p3(self, tmp_path):
        path = tmp_path / "p3.txt"
        assert main(["gen", "path", "3", str(path)]) == 0
        return str(path)

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


class TestReadme:
    def test_cli_block_runs_as_written(self, tmp_path, monkeypatch, capsys):
        """Each line of the README's CLI block, in order, in an empty
        directory: islandkit lines through main, the rest through sh."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        for line in filter(None, block.splitlines()):
            words = shlex.split(line, comments=True)
            if words[0] == "islandkit":
                assert main(words[1:]) in (0, 2), line
            else:
                subprocess.run(line, shell=True, check=True)
        assert "kind': 'minor'" in capsys.readouterr().out
