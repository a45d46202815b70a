"""Generator, baselines, and the three-way comparison harness."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from posskc.bench import (
    CSV_HEADER,
    FINE_POOL_SIZE,
    ComparisonRow,
    GenConfig,
    SplitMix64,
    aggregate_means,
    compare_network,
    cross_validate,
    default_query,
    even_pool,
    random_network,
    run_comparison,
)
from posskc.circuits import encode_pf
from posskc.cnf import cnf_stats
from posskc.degrees import ONE, SCALE, ZERO, Degree, parse_degree
from posskc.network import parse_network, serialize_network
from posskc.pkb import encode_pkb

from helpers import baseline_counts

D = parse_degree
ROOT = Path(__file__).resolve().parent.parent


class TestSplitMix64:
    def test_reference_vector(self):
        # published outputs for the splitmix64 stream seeded with 1234567
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 0x599ED017FB08FC85
        assert rng.next_u64() == 0x2C73F08458540FA5
        assert rng.next_u64() == 0x883EBCE5A3F27C77

    def test_next_below_range(self):
        rng = SplitMix64(99)
        for _ in range(1000):
            assert 0 <= rng.next_below(7) < 7

    def test_choice_and_shuffle_are_deterministic(self):
        items = list(range(10))
        a, b = SplitMix64(5), SplitMix64(5)
        xs, ys = list(items), list(items)
        a.shuffle(xs)
        b.shuffle(ys)
        assert xs == ys
        assert sorted(xs) == items
        assert SplitMix64(5).choice(items) == SplitMix64(5).choice(items)

    def test_empty_range_is_refused(self):
        for draw in (lambda rng: rng.next_below(0), lambda rng: rng.choice([])):
            with pytest.raises(ValueError, match="^next_below needs a positive bound$"):
                draw(SplitMix64(5))


class TestEvenPool:
    def test_nine_degree_scale(self):
        assert even_pool(9) == frozenset(D(f"0.{k}") for k in range(1, 10))

    def test_fine_pool_is_the_default(self):
        fine = even_pool(FINE_POOL_SIZE)
        assert fine == frozenset(Degree(k * SCALE // 10000) for k in range(1, 10000))
        assert even_pool(FINE_POOL_SIZE) is fine
        for binary_only in (True, False):
            for seed in range(4):
                default = GenConfig(9, seed=seed, binary_only=binary_only)
                explicit = GenConfig(9, seed=seed, binary_only=binary_only, degree_pool=fine)
                assert serialize_network(random_network(default)) == serialize_network(
                    random_network(explicit)
                )

    def test_query_path_builds_no_pool(self):
        script = (
            "import gc, posskc\n"
            "from posskc import bench, cli\n"
            "from posskc.degrees import Degree\n"
            "cli.main(['query', 'fixtures/alarm.pnet', '--method', 'pkb',"
            " '--target', 'F=f2', '--evidence', 'D=d1'])\n"
            "print(bench.even_pool.cache_info().currsize,"
            " sum(type(o) is Degree for o in gc.get_objects()))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        answer, counts = done.stdout.splitlines()
        assert answer.startswith("0.4")
        pools, degrees = map(int, counts.split())
        assert pools == 0
        assert degrees < 100  # the fine pool alone holds 9,999

    @pytest.mark.parametrize("k", [0, -1, 10000])
    def test_rejects_out_of_range(self, k):
        with pytest.raises(ValueError):
            even_pool(k)


class TestGenConfig:
    def test_rejects_empty_network(self):
        with pytest.raises(ValueError):
            GenConfig(n_nodes=0)

    def test_rejects_negative_parents(self):
        with pytest.raises(ValueError):
            GenConfig(n_nodes=3, max_parents=-1)

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            GenConfig(n_nodes=3, degree_pool=frozenset())

    def test_rejects_pool_outside_open_interval(self):
        with pytest.raises(ValueError):
            GenConfig(n_nodes=3, degree_pool=frozenset({ONE}))
        with pytest.raises(ValueError):
            GenConfig(n_nodes=3, degree_pool=frozenset({ZERO}))


class TestRandomNetwork:
    def test_deterministic(self):
        cfg = GenConfig(n_nodes=8, seed=42)
        assert serialize_network(random_network(cfg)) == serialize_network(
            random_network(cfg)
        )

    def test_seed_changes_output(self):
        a = serialize_network(random_network(GenConfig(n_nodes=8, seed=1)))
        b = serialize_network(random_network(GenConfig(n_nodes=8, seed=2)))
        assert a != b

    def test_structure_invariants(self):
        pool = frozenset({D("0.25"), D("0.5"), D("0.75")})
        for seed in range(10):
            cfg = GenConfig(n_nodes=9, max_parents=3, degree_pool=pool, seed=seed)
            net = random_network(cfg)
            assert len(net.variables) == 9
            allowed = pool | {ONE}
            for v in net.variables:
                assert len(net.parents[v.name]) <= 3
                assert len(v.domain) == 2
                for d in net.cpt[v.name].values():
                    assert d in allowed

    def test_multivalued_domains(self):
        cfg = GenConfig(n_nodes=12, seed=3, binary_only=False)
        net = random_network(cfg)
        sizes = {len(v.domain) for v in net.variables}
        assert sizes <= {2, 3, 4}
        assert max(sizes) > 2  # 12 draws virtually always hit a wider domain

    def test_every_config_is_normalized(self):
        # parse/validation would reject otherwise; check directly anyway
        net = random_network(GenConfig(n_nodes=7, seed=11))
        for v in net.variables:
            for cfg in net.parent_configs(v.name):
                assert max(net.cpt[v.name][(val, cfg)] for val in v.domain) == ONE


class TestBaselines:
    def test_example_circuit_baseline(self, alarm):
        assert baseline_counts(alarm, "circuit") == {"vars": 12, "clauses": 26}

    def test_example_logical_baseline(self, alarm):
        assert baseline_counts(alarm, "logical") == {"vars": 15, "clauses": 12}

    def test_unknown_scheme(self, alarm):
        with pytest.raises(ValueError):
            baseline_counts(alarm, "nope")

    def test_circuit_baseline_matches_local_encoding_when_degenerate(self):
        net = parse_network(
            "network b\nvar X x1 x2\nvar Y y1 y2\nparents Y X\n"
            "cpt X\nx1 : 1\nx2 : 1\n"
            "cpt Y\ny1 | x1 : 1\ny2 | x1 : 0\ny1 | x2 : 0\ny2 | x2 : 1"
        )
        assert baseline_counts(net, "circuit") == cnf_stats(
            encode_pf(net, local_structure=True)
        )


class TestSizeOrdering:
    def test_base_encoding_strictly_smaller_than_circuit_encoding(self):
        # binary networks: the base route drops one variable per node and
        # the whole indicator block
        for seed in range(8):
            net = random_network(GenConfig(n_nodes=7, seed=100 + seed))
            pf = cnf_stats(encode_pf(net, local_structure=True))
            kb = cnf_stats(encode_pkb(net))
            assert kb["vars"] < pf["vars"]
            assert kb["clauses"] < pf["clauses"]


class TestCompareNetwork:
    def test_example_rows(self, alarm):
        rows = compare_network(alarm, seed=7)
        assert [r.method for r in rows] == ["pf", "logical", "pkb"]
        for r in rows:
            assert r.status == "ok"
            assert r.n_nodes == 3
            assert r.seed == 7
            assert r.nnf_nodes > 0
            assert r.nnf_edges > 0
            assert r.compile_ms >= 0
            assert r.query_ms >= 0
        by = {r.method: r for r in rows}
        assert (by["logical"].cnf_vars, by["logical"].cnf_clauses) == (7, 6)
        assert (by["pkb"].cnf_vars, by["pkb"].cnf_clauses) == (7, 6)
        assert (by["pf"].cnf_vars, by["pf"].cnf_clauses) == (12, 12)

    def test_budget_rows_are_marked_not_raised(self, alarm):
        rows = compare_network(alarm, node_budget=1)
        assert [r.status for r in rows] == ["budget"] * 3
        for r in rows:
            assert r.cnf_vars > 0
            assert r.nnf_nodes == 0
            assert r.nnf_edges == 0

    def test_budget_between_circuit_and_dag(self, alarm):
        """Budget 40 builds alarm's 32-node pf circuit but not its 47-node
        DAG, so the pf row is a budget row and the others are measured."""
        rows = compare_network(alarm, node_budget=40)
        assert [r.status for r in rows] == ["budget", "ok", "ok"]
        assert (rows[0].cnf_vars, rows[0].nnf_nodes) == (12, 0)
        assert [(r.nnf_nodes, r.nnf_edges) for r in rows[1:]] == [(27, 34)] * 2

    def test_csv_line_field_count(self, alarm):
        rows = compare_network(alarm)
        for r in rows:
            assert len(r.csv_line().split(",")) == len(CSV_HEADER.split(","))

    def test_explicit_query_is_used(self, alarm):
        rows = compare_network(alarm, query=({"F": "f2"}, {"D": "d1"}))
        assert all(r.status == "ok" for r in rows)


class TestDefaultQuery:
    def test_deterministic_and_well_formed(self, alarm):
        x1, e1 = default_query(alarm, 12)
        x2, e2 = default_query(alarm, 12)
        assert (x1, e1) == (x2, e2)
        assert len(x1) == 1
        assert len(e1) == 1
        assert next(iter(x1)) != next(iter(e1))

    def test_single_variable_net_gets_empty_evidence(self):
        net = parse_network("network s\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 0.5")
        x, e = default_query(net, 3)
        assert len(x) == 1 and e == {}


class TestRunComparison:
    def test_small_sweep_shape(self):
        rows, aggregates = run_comparison([3, 5], per_size=2, seed=77)
        assert len(rows) == 12
        assert set(aggregates) == {
            (3, "pf"),
            (3, "logical"),
            (3, "pkb"),
            (5, "pf"),
            (5, "logical"),
            (5, "pkb"),
        }
        for m in aggregates.values():
            assert m["count"] == 2

    def test_csv_output(self):
        buf = io.StringIO()
        rows, aggregates = run_comparison([3], per_size=2, seed=9, out=buf)
        text = buf.getvalue()
        lines = text.splitlines()
        assert lines[0] == "# posskc comparison sweep"
        assert lines[1] == (
            "# config: seed=9 sizes=[3] per_size=2 max_parents=3"
            " degree_pool={0.0001..0.9999 (9999 values)} binary_only=True node_budget=1000000"
        )
        assert lines[2] == CSV_HEADER
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 1 + len(rows)  # header + rows
        means = [l for l in lines if l.startswith("# mean ")]
        assert len(means) == len(aggregates)

    def test_csv_text_is_pinned(self):
        """The header and the mean comments, literally: the row text is
        derived from ``SIZE_COLUMNS`` and ``ComparisonRow``."""
        buf = io.StringIO()
        run_comparison([3], per_size=2, seed=9, out=buf)
        lines = buf.getvalue().splitlines()
        assert lines[2] == CSV_HEADER == (
            "seed,n_nodes,method,cnf_vars,cnf_clauses,nnf_nodes,nnf_edges,"
            "compile_ms,query_ms,status"
        )
        assert [l for l in lines if l.startswith("# mean ")] == [
            "# mean n_nodes=3 method=logical count=2 cnf_vars=7.00 cnf_clauses=4.00"
            " nnf_nodes=21.00 nnf_edges=22.00",
            "# mean n_nodes=3 method=pf count=2 cnf_vars=10.00 cnf_clauses=10.00"
            " nnf_nodes=33.00 nnf_edges=35.00",
            "# mean n_nodes=3 method=pkb count=2 cnf_vars=7.00 cnf_clauses=4.00"
            " nnf_nodes=21.00 nnf_edges=22.00",
        ]
        assert lines[3].startswith("12587370737594032228,3,pf,10,10,33,35,")

    @pytest.mark.parametrize(
        "k,note",
        [(3, "{0.25,0.5,0.75}"), (13, "{0.071428571..0.928571428 (13 values)}")],
    )
    def test_pool_note(self, k, note):
        buf = io.StringIO()
        run_comparison([3], per_size=1, seed=9, degree_pool=even_pool(k), out=buf)
        assert buf.getvalue().splitlines()[1] == (
            f"# config: seed=9 sizes=[3] per_size=1 max_parents=3 degree_pool={note}"
            " binary_only=True node_budget=1000000"
        )

    def test_csv_to_path(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_comparison([3], per_size=1, seed=2, out=str(out))
        assert out.read_text().startswith("# posskc comparison sweep")


class TestAggregateMeans:
    def test_budget_rows_excluded(self):
        ok = ComparisonRow(1, 5, "pf", 10, 12, 40, 80, 1.0, 0.1, "ok")
        ok2 = ComparisonRow(2, 5, "pf", 20, 24, 60, 120, 1.0, 0.1, "ok")
        bust = ComparisonRow(3, 5, "pf", 10, 12, 0, 0, 1.0, 0.0, "budget")
        agg = aggregate_means([ok, ok2, bust])
        assert agg[(5, "pf")]["count"] == 2
        assert agg[(5, "pf")]["cnf_vars"] == 15.0
        assert agg[(5, "pf")]["nnf_nodes"] == 50.0

    def test_keys_and_row_text_are_pinned(self):
        rows = [
            ComparisonRow(1, 3, "pf", 10, 10, 33, 35, 0.5734, 0.0926),
            ComparisonRow(2, 3, "pf", 11, 13, 40, 44, 12.0, 0.0, "budget"),
        ]
        assert [r.csv_line() for r in rows] == [
            "1,3,pf,10,10,33,35,0.573,0.093,ok",
            "2,3,pf,11,13,40,44,12.000,0.000,budget",
        ]
        assert aggregate_means(rows) == {
            (3, "pf"): {
                "cnf_vars": 10.0,
                "cnf_clauses": 10.0,
                "nnf_nodes": 33.0,
                "nnf_edges": 35.0,
                "count": 1,
            }
        }
        assert list(aggregate_means(rows)[(3, "pf")]) == [
            "cnf_vars", "cnf_clauses", "nnf_nodes", "nnf_edges", "count",
        ]


class TestCrossValidate:
    def test_clean_report(self):
        result = cross_validate(nets=5, max_vars=6, queries=3, seed=13)
        assert (result.checked, result.mismatches) == (15, ())
        lines = result.report.splitlines()
        assert lines[0] == (
            "cross-validation: 5 networks (2..6 nodes), 3 queries each, seed 13"
        )
        assert lines[1] == "checked 15 queries: 0 mismatches"

    def test_multivalued_clean(self):
        result = cross_validate(
            nets=3, max_vars=5, queries=2, seed=21, binary_only=False
        )
        assert (result.checked, result.mismatches) == (6, ())

    @pytest.mark.parametrize("degrees", [1, 3, 9])
    @pytest.mark.parametrize("binary_only", [True, False], ids=["binary", "multivalued"])
    def test_coarse_pools_clean(self, degrees, binary_only):
        """Few degrees make many bases stratified (about 30-90% here), so
        the ladder and the level-first order meet the oracle.  One degree
        gives one-level bases: stratified, with no ladder clause."""
        result = cross_validate(
            nets=60,
            max_vars=10 if binary_only else 7,
            queries=5,
            seed=300 + degrees,
            degree_pool=even_pool(degrees),
            binary_only=binary_only,
        )
        assert (result.checked, result.mismatches) == (300, ())

    @pytest.mark.parametrize("max_vars", [1, 0, -3])
    def test_rejects_max_vars_below_two(self, max_vars):
        with pytest.raises(ValueError, match="max_vars must be at least 2"):
            cross_validate(nets=1, max_vars=max_vars)

    @pytest.mark.parametrize("nets,queries", [(0, 5), (1, 0), (-2, 5)])
    def test_rejects_no_nets_or_queries(self, nets, queries):
        with pytest.raises(ValueError, match="nets and queries must be at least 1"):
            cross_validate(nets=nets, queries=queries)
