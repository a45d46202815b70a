"""Command line front end: flag grammar, outputs, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from posskc import cli
from posskc.bench import CrossValidation, GenConfig, even_pool, random_network
from posskc.cli import EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, parse_term
from posskc.cnf import stratified_levels
from posskc.errors import QueryError
from posskc.network import serialize_network
from posskc.nnf import NnfDag, write_nnf
from posskc.pkb import PkbPipeline

ROOT = Path(__file__).resolve().parent.parent
ALARM = str(ROOT / "fixtures" / "alarm.pnet")
TRIAGE = str(ROOT / "fixtures" / "triage.pnet")
"""Multi-valued: a three-valued root, and one degree-0 entry."""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseTerm:
    def test_single_and_multiple(self):
        assert parse_term("F=f2") == {"F": "f2"}
        assert parse_term("F=f2,D=d1") == {"F": "f2", "D": "d1"}
        assert parse_term("") == {}

    def test_whitespace_tolerated(self):
        assert parse_term(" F = f2 , D = d1 ") == {"F": "f2", "D": "d1"}

    def test_missing_equals(self):
        with pytest.raises(QueryError):
            parse_term("Ff2")

    def test_conflicting_assignment(self):
        with pytest.raises(QueryError):
            parse_term("F=f1,F=f2")


class TestValidate:
    def test_good_network(self, capsys):
        code, out, _ = run(capsys, "validate", ALARM)
        assert code == EXIT_OK
        assert out.startswith("ok: alarm:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.pnet")
        assert code == EXIT_RUNTIME
        assert "no-such-file" in err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.pnet"
        bad.write_text("network x\nvar X x1 x2\ncpt X\nx1 0.5\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == EXIT_INPUT
        assert "line" in err


class TestOracle:
    def test_marginal_pair(self, capsys):
        code, out, _ = run(capsys, "oracle", ALARM, "--target", "D=d1,B=b1")
        assert (code, out.strip()) == (EXIT_OK, "0.7")

    def test_conditional(self, capsys):
        code, out, _ = run(
            capsys, "oracle", ALARM, "--target", "F=f2", "--evidence", "D=d1"
        )
        assert (code, out.strip()) == (EXIT_OK, "0.4")


class TestQuery:
    @pytest.mark.parametrize("method", ["pf", "logical", "pkb"])
    def test_example_answer(self, capsys, method):
        code, out, _ = run(
            capsys,
            "query",
            ALARM,
            "--method",
            method,
            "--target",
            "F=f2",
            "--evidence",
            "D=d1",
        )
        assert (code, out.strip()) == (EXIT_OK, "0.4")

    def test_json_record(self, capsys):
        code, out, _ = run(
            capsys,
            "query",
            ALARM,
            "--method",
            "pkb",
            "--target",
            "F=f2",
            "--evidence",
            "D=d1",
            "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["degree"] == "0.4"
        assert payload["joint"] == "0.4"
        assert payload["evidence"] == "0.7"
        assert payload["method"] == "pkb"
        assert payload["compile_ms"] >= 0
        assert payload["query_ms"] >= 0

    def test_python_dash_m_runs_the_cli(self):
        def posskc(*argv):
            return subprocess.run(
                [sys.executable, "-m", "posskc", *argv], cwd=ROOT, capture_output=True,
                text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60,
            )

        done = posskc("query", ALARM, "--method", "pkb", "--target", "F=f2", "--evidence", "D=d1", "--json")
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads(done.stdout)["degree"] == "0.4"
        done = posskc("query", ALARM, "--method", "nope", "--target", "F=f2")
        assert done.returncode == EXIT_USAGE
        assert done.stdout == ""
        assert done.stderr.startswith("posskc query: error: argument --method")

    def test_unknown_value_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "query", ALARM, "--method", "pkb", "--target", "F=f3"
        )
        assert code == EXIT_INPUT
        assert "f3" in err

    def test_unknown_method_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "query", ALARM, "--method", "magic", "--target", "F=f2"
        )
        assert code == EXIT_USAGE

    def test_missing_target_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "query", ALARM, "--method", "pf")
        assert code == EXIT_USAGE

    def test_json_answers_by_one_query(self, capsys, monkeypatch):
        """``--json`` takes its degree, and its ``query_ms``, from one call
        of the pipeline's ``query``; the two marginals come after it."""
        for method, (build, _) in cli.METHODS.items():
            calls = []
            original = build.query

            def counted(pipeline, x, e, original=original):
                calls.append((x, e))
                return original(pipeline, x, e)

            monkeypatch.setattr(build, "query", counted)
            code, out, _ = run(
                capsys, "query", TRIAGE, "--method", method, "--target", "S=high",
                "--evidence", "F=fever", "--json",
            )
            assert code == EXIT_OK
            assert calls == [({"S": "high"}, {"F": "fever"})], method
            payload = json.loads(out)
            assert (payload["degree"], payload["joint"], payload["evidence"]) == ("0.3", "0.3", "0.6")

    def test_methods_agree_with_oracle(self, capsys):
        """Meta-test: every method reproduces the oracle's answer, on the
        binary alarm network and on the multi-valued triage one, where a
        pf target on S zeroes two indicators."""
        queries = {
            ALARM: [
                ("F=f2", "D=d1"),
                ("F=f1", "D=d1"),
                ("B=b2", ""),
                ("D=d2", "F=f2,B=b1"),
                ("D=d1,B=b1", ""),
            ],
            TRIAGE: [
                ("S=high", "F=fever"),
                ("S=mid", "F=nofever"),
                ("F=nofever", "S=high"),
                ("A=admit", "S=high,T=neg"),
                ("S=low,T=pos", ""),
                ("S=mid", "A=home"),
            ],
        }
        for network, pairs in queries.items():
            for target, evidence in pairs:
                args = ["oracle", network, "--target", target]
                if evidence:
                    args += ["--evidence", evidence]
                code, expected, _ = run(capsys, *args)
                assert code == EXIT_OK
                for method in ("pf", "logical", "pkb"):
                    args = ["query", network, "--method", method, "--target", target]
                    if evidence:
                        args += ["--evidence", evidence]
                    code, out, _ = run(capsys, *args)
                    assert (code, out) == (EXIT_OK, expected)


class TestEncodeAndCompile:
    def test_encode_stdout_is_dimacs(self, capsys):
        code, out, _ = run(capsys, "encode", ALARM, "--method", "pkb")
        assert code == EXIT_OK
        assert "p cnf 7 6" in out

    def test_logical_and_pkb_write_the_same_cnf(self, capsys):
        code, logical, _ = run(capsys, "encode", ALARM, "--method", "logical")
        assert code == EXIT_OK
        assert logical == run(capsys, "encode", ALARM, "--method", "pkb")[1]
        assert "c var 4 level 1 0.8" in logical

    def test_encode_pf_modes_differ(self, capsys, tmp_path):
        local = tmp_path / "local.cnf"
        plain = tmp_path / "plain.cnf"
        assert run(capsys, "encode", ALARM, "--method", "pf", "-o", str(local))[0] == 0
        assert (
            run(
                capsys,
                "encode",
                ALARM,
                "--method",
                "pf",
                "--no-local-structure",
                "-o",
                str(plain),
            )[0]
            == 0
        )
        assert "p cnf 12 12" in local.read_text()
        assert "p cnf 18 46" in plain.read_text()

    @pytest.mark.parametrize("method", ["logical", "pkb"])
    def test_no_local_structure_outside_pf_is_usage_error(self, capsys, method):
        code, out, err = run(
            capsys, "encode", ALARM, "--method", method, "--no-local-structure"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "--no-local-structure" in err

    def test_compile_round_trip(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        nnf = tmp_path / "f.nnf"
        run(capsys, "encode", ALARM, "--method", "logical", "-o", str(cnf))
        code, _, _ = run(
            capsys,
            "compile",
            str(cnf),
            "-o",
            str(nnf),
            "--smooth",
            "--assert-deterministic",
        )
        assert code == EXIT_OK
        assert nnf.read_text().startswith("nnf ")

    @pytest.mark.parametrize("binary_only", [True, False], ids=["binary", "multivalued"])
    def test_compiled_file_equals_the_pipeline_dag(self, capsys, tmp_path, binary_only):
        """A stratified base's DIMACS file carries its level roles, so
        `compile` decides the level variables first, as the pipeline does."""
        nets = [
            random_network(
                GenConfig(8, max_parents=2, degree_pool=even_pool(9), seed=s, binary_only=binary_only)
            )
            for s in range(12)
        ]
        pipelines = [kb for kb in map(PkbPipeline, nets) if stratified_levels(kb.cnf)][:3]
        assert len(pipelines) == 3
        pnet, cnf = tmp_path / "n.pnet", tmp_path / "k.cnf"
        for kb in pipelines:
            pnet.write_text(serialize_network(kb.net))
            assert run(capsys, "encode", str(pnet), "--method", "pkb", "-o", str(cnf))[0] == EXIT_OK
            code, out, _ = run(capsys, "compile", str(cnf))
            assert (code, out) == (EXIT_OK, write_nnf(kb.dag))

    def test_compile_budget_is_runtime_error(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        run(capsys, "encode", ALARM, "--method", "pf", "-o", str(cnf))
        code, _, err = run(
            capsys, "compile", str(cnf), "--node-budget", "1", "-o", "/dev/null"
        )
        assert code == EXIT_RUNTIME
        assert "budget" in err

    def test_assert_deterministic_refuses_a_nondeterministic_dag(
        self, capsys, tmp_path, monkeypatch
    ):
        """An Or labelled 1 over the leaves 1 and 2 does not split on 1."""
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        dag = NnfDag((("L", 1, ()), ("L", 2, ()), ("O", 1, (0, 1))), 2, 2)
        monkeypatch.setattr(cli, "compile_cnf", lambda f, node_budget: dag)
        assert run(capsys, "compile", str(cnf)) == (EXIT_OK, write_nnf(dag), "")
        code, out, err = run(capsys, "compile", str(cnf), "--assert-deterministic")
        assert (code, out, err) == (EXIT_RUNTIME, "", "compiled DAG is not deterministic\n")


class TestStats:
    def test_table_lists_all_methods(self, capsys):
        code, out, _ = run(capsys, "stats", ALARM)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == [
            "method",
            "cnf_vars",
            "cnf_clauses",
            "nnf_nodes",
            "nnf_edges",
        ]
        methods = [l.split()[0] for l in lines[1:]]
        assert methods == ["pf", "logical", "pkb"]
        logical = lines[2].split()
        assert logical[1:3] == ["7", "6"]

    def test_budget_between_circuit_and_dag(self, capsys):
        """Budget 40 builds alarm's 32-node pf circuit but not its 47-node
        DAG: the pf row reads as a budget failure, the others still print."""
        code, out, _ = run(capsys, "stats", ALARM, "--node-budget", "40")
        assert code == EXIT_OK
        rows = [l.split() for l in out.splitlines()[1:]]
        assert rows == [
            ["pf", "budget", "exceeded"],
            ["logical", "7", "6", "27", "34"],
            ["pkb", "7", "6", "27", "34"],
        ]

    @pytest.mark.parametrize(
        "argv,text",
        [
            (
                (ALARM,),
                "method   cnf_vars cnf_clauses nnf_nodes nnf_edges\n"
                "pf             12          12        47        61\n"
                "logical         7           6        27        34\n"
                "pkb             7           6        27        34\n",
            ),
            (
                (ALARM, "--node-budget", "40"),
                "method   cnf_vars cnf_clauses nnf_nodes nnf_edges\n"
                "pf                                budget exceeded\n"
                "logical         7           6        27        34\n"
                "pkb             7           6        27        34\n",
            ),
            (
                (TRIAGE,),
                "method   cnf_vars cnf_clauses nnf_nodes nnf_edges\n"
                "pf             20          22        85       124\n"
                "logical        13          16        61        90\n"
                "pkb            13          16        61        90\n",
            ),
        ],
        ids=["alarm", "alarm-budget-40", "triage"],
    )
    def test_table_text_is_pinned(self, capsys, argv, text):
        """The exact table, widths included: each size column is as wide
        as its name, and a budget row right-aligns its note under them."""
        assert run(capsys, "stats", *argv) == (EXIT_OK, text, "")


class TestBenchAndCheck:
    def test_bench_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            capsys,
            "bench",
            "--sizes",
            "3:5:2",
            "--per-size",
            "1",
            "--seed",
            "8",
            "-o",
            str(out),
        )
        assert code == EXIT_OK
        assert "wrote 6 rows" in stdout
        text = out.read_text()
        assert text.startswith("# posskc comparison sweep")
        assert "seed,n_nodes,method" in text

    def test_bench_stdout(self, capsys):
        code, stdout, _ = run(capsys, "bench", "--sizes", "3", "--per-size", "1")
        assert code == EXIT_OK
        assert stdout.startswith("# posskc comparison sweep")

    def test_bench_dash_is_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run(capsys, "bench", "--sizes", "3", "--per-size", "1", "-o", "-")
        assert code == EXIT_OK
        assert stdout.startswith("# posskc comparison sweep")
        assert "wrote" not in stdout
        assert list(tmp_path.iterdir()) == []

    def test_bench_bad_sizes(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "9:3")
        assert code == EXIT_USAGE
        assert "size" in err

    def test_bench_range_of_four_fields(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "1:2:3:4")
        assert code == EXIT_USAGE == 64
        assert (
            "argument --sizes: bad sizes '1:2:3:4': expected start:stop[:step]"
            " or a comma list, each size at least 1"
        ) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "--sizes", "0"),
            ("bench", "--sizes", "0:2"),
            ("check", "--max-vars", "1"),
            ("check", "--nets", "0"),
            ("check", "--queries", "0"),
            ("bench", "--sizes", "3", "--per-size", "0"),
            ("stats", ALARM, "--node-budget", "-5"),
            ("stats", ALARM, "--node-budget", "0"),
            ("compile", ALARM, "--node-budget", "0"),
            ("bench", "--sizes", "3", "--node-budget", "0"),
            ("bench", "--sizes", "3", "--degrees", "0"),
            ("check", "--degrees", "0"),
            ("check", "--degrees", "10000"),
        ],
    )
    def test_out_of_range_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_bench_degrees_and_node_budget_reach_the_sweep(self, capsys):
        code, stdout, _ = run(
            capsys, "bench", "--sizes", "6", "--per-size", "2", "--degrees", "3", "--node-budget", "1"
        )
        assert code == EXIT_OK
        assert "degree_pool={0.25,0.5,0.75}" in stdout
        assert stdout.splitlines()[1].endswith(" node_budget=1")
        rows = [ln for ln in stdout.splitlines() if ln and not ln.startswith(("#", "seed,"))]
        assert len(rows) == 6
        assert all(ln.endswith(",budget") for ln in rows)

    def test_check_on_a_coarse_pool(self, capsys):
        code, stdout, _ = run(
            capsys, "check", "--nets", "4", "--max-vars", "6", "--queries", "2", "--degrees", "9"
        )
        assert code == EXIT_OK
        assert "checked 8 queries: 0 mismatches" in stdout

    def test_check_clean_run(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code, stdout, _ = run(
            capsys,
            "check",
            "--nets",
            "3",
            "--max-vars",
            "5",
            "--queries",
            "2",
            "--seed",
            "6",
            "-o",
            str(report),
        )
        assert code == EXIT_OK
        assert "0 mismatches" in stdout
        assert report.read_text().startswith("cross-validation:")

    def test_check_exit_code_follows_the_mismatch_count(self, capsys, monkeypatch):
        """A mismatch fails the run whatever the report's wording."""
        text = "cross-validation: stub\nchecked 10 queries: 0 mismatches so far\nstub\n"
        monkeypatch.setattr(
            cli, "cross_validate", lambda **kw: CrossValidation(10, ("stub",), text)
        )
        code, stdout, _ = run(capsys, "check")
        assert code == EXIT_RUNTIME
        assert stdout == text


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE
