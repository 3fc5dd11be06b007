import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result_line(wall_s, rss_mb) -> str:
    """A bench/run.py result line with two metrics."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})


class TestSummarize:
    def test_medians_quartiles_ratio_and_wins(self):
        parent = [result_line(w, 30.0) for w in (0.080, 0.076, 0.078, 0.077, 0.079)]
        change = [result_line(w, r) for w, r in
                  ((0.072, 31.0), (0.077, 30.5), (0.071, 29.0), (0.073, 30.0), (0.070, 32.0))]
        rows = bench_pairs.summarize(parent, change, {"wall_s": "lower"})
        assert [r[0] for r in rows] == ["wall_s", "peak_rss_mb"]
        name, unit, qa, qb, ratio, won, pairs = rows[0]
        assert (name, unit, pairs) == ("wall_s", "s", 5)
        assert qa == pytest.approx((0.077, 0.078, 0.079))
        assert qb == pytest.approx((0.071, 0.072, 0.073))
        assert ratio == pytest.approx(0.072 / 0.078)
        assert won == 4  # pair 2: 0.077 is not below 0.076
        # a metric BENCHMARK.json does not name is better lower; ties do not win
        assert rows[1][2:] == ((30.0, 30.0, 30.0), (30.0, 30.5, 31.0), pytest.approx(30.5 / 30), 1, 5)

    def test_higher_is_better_counts_the_other_way(self):
        rows = bench_pairs.summarize(
            [result_line(1.0, 1.0)] * 3, [result_line(2.0, 0.5)] * 3, {"wall_s": "higher", "peak_rss_mb": "higher"}
        )
        assert [r[5] for r in rows] == [3, 0]

    def test_one_pair_has_its_value_for_every_quartile(self):
        (row, _) = bench_pairs.summarize([result_line(0.5, 1.0)], [result_line(0.25, 1.0)], {})
        assert row[2:6] == ((0.5, 0.5, 0.5), (0.25, 0.25, 0.25), 0.5, 1)
        assert "0.5 [0.5, 0.5] s" in bench_pairs.format_rows([row])

    def test_needs_one_result_of_each_side_per_pair(self):
        with pytest.raises(ValueError):
            bench_pairs.summarize([result_line(1.0, 1.0)] * 2, [result_line(1.0, 1.0)], {})
        with pytest.raises(ValueError):
            bench_pairs.summarize([], [], {})
