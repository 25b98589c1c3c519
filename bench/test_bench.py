"""Self-tests of the benchmark's own arithmetic and input generator.

    python3 -m pytest bench -q
"""

import statistics
import sys
from pathlib import Path

import pytest

from stats import (
    MIN_BEYOND,
    failed_frac,
    percentile,
    quartile_spread,
    self_time,
    tail_percentile,
    union_length,
)
from calibrate import REFERENCE_S, ReferenceTime
from tracing import integrate_totals, layer_busy, layer_self

ROOT = Path(__file__).resolve().parent.parent


# {{{ percentiles


def test_percentile_nearest_rank():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 90) == 90
    assert percentile(xs, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2


@pytest.mark.parametrize("n", [11, 20, 50, 55, 99, 100, 101, 150, 200, 999, 1000, 5000])
@pytest.mark.parametrize("p", [90.0, 99.0])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    xs = [float(i) for i in range(n)]
    used = tail_percentile(n, p)
    assert 50.0 <= used <= p
    beyond = sum(x > percentile(xs, used) for x in xs)
    if used > 50.0:
        assert beyond >= MIN_BEYOND
    if used < p:
        # the next whole percentile up would leave fewer than ten beyond
        higher = min(p, used + 1.0)
        assert sum(x > percentile(xs, higher) for x in xs) < MIN_BEYOND


def test_tail_percentile_exact_cases():
    assert tail_percentile(100, 90.0) == 90.0
    assert tail_percentile(99, 90.0) == 89.0
    assert tail_percentile(50, 90.0) == 80.0
    assert tail_percentile(1000, 99.0) == 99.0
    assert tail_percentile(200, 99.0) == 95.0
    assert tail_percentile(5, 90.0) == 50.0


def test_quartile_spread_matches_statistics():
    values = [9.0, 10.0, 11.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 12.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / med)


# }}}


# {{{ failure ratio


def test_failed_frac_base_is_attempted():
    # 3 failures out of 10 attempted is 0.3, not 3 / 7 successes
    assert failed_frac(3, 10) == pytest.approx(0.3)
    assert failed_frac(0, 10) == 0.0
    assert failed_frac(10, 10) == 1.0


def test_failed_frac_rejects_bad_counts():
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(11, 10)


# }}}


# {{{ span arithmetic


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(0, 5), (1, 2), (3, 4)]) == 5.0


def test_self_time_subtracts_union_of_children():
    # overlapping children count once; a child running past the parent's end
    # is clipped to it
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, 0, attrs]


def test_layer_self_with_nested_children():
    # cli.main [0, 10] -> scenarios.run_scenario [1, 9]
    #   -> integrate [2, 6] and process.absorbing_check [6, 8]
    #        -> integrate [6.5, 7.5] under the process span
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("scenarios.run_scenario", 1.0, 9.0, 0),
        _span("integrate.integrate", 2.0, 6.0, 1, {"mode": "fixed", "steps": 4, "truncated": False}),
        _span("process.absorbing_check", 6.0, 8.0, 1),
        _span("integrate.integrate", 6.5, 7.5, 3, {"mode": "adaptive", "steps": 2, "truncated": True}),
    ]
    assert layer_self(spans, "cli") == pytest.approx(2.0)
    assert layer_self(spans, "scenarios") == pytest.approx(2.0)
    assert layer_self(spans, "process") == pytest.approx(1.0)
    assert layer_self(spans, "integrate") == pytest.approx(5.0)
    # self times partition the outermost span
    total = sum(layer_self(spans, layer) for layer in ("cli", "scenarios", "process", "integrate"))
    assert total == pytest.approx(10.0)
    assert integrate_totals(spans) == {"calls": 2, "steps": 6, "truncated": 1, "under_process": 1}


def test_layer_busy_counts_nested_same_layer_once():
    spans = [
        _span("stability.stability_report", 0.0, 4.0, -1),
        _span("stability.eigenvalues_3x3", 1.0, 2.0, 0),
        _span("stability.r0_all", 5.0, 6.0, -1),
    ]
    assert layer_busy(spans, "stability") == pytest.approx(5.0)
    assert layer_self(spans, "stability") == pytest.approx(5.0)


# }}}


def test_reference_time_scales_each_segment_by_its_kernel_time():
    k = REFERENCE_S
    ref = ReferenceTime([0.0, 10.0, 20.0], [[k, k], [k, k], [4 * k, 4 * k]])
    # first segment at reference speed; the second at the median of 1 and
    # 4 kernel times, 2.5, so a second there counts 0.4 s
    assert ref.duration(0.0, 10.0) == pytest.approx(10.0)
    assert ref.duration(5.0, 15.0) == pytest.approx(5.0 + 5.0 * 0.4)
    # outside the sampled range the nearest segment's scale extends
    assert ref.duration(-10.0, 0.0) == pytest.approx(10.0)
    assert ref.duration(20.0, 30.0) == pytest.approx(4.0)
    assert ReferenceTime([3.0], [[2 * k]]).duration(0.0, 10.0) == pytest.approx(5.0)


def test_configs_cover_their_time_span(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import hbvkit.cli  # noqa: F401  (the workload calls hbvkit.cli.main)
    import hbvkit as hk
    from workloads import CONFIG_BLOCKS, CONFIG_T_END, Configs

    for seed in range(5):
        work = tmp_path / str(seed)
        work.mkdir()
        wl = Configs(hk, seed, work)  # also checks the load_config round trip
        assert len(wl.configs) == CONFIG_BLOCKS * wl.cycle
        for start in range(0, len(wl.configs), wl.cycle):
            block = wl.configs[start:start + wl.cycle]
            commands = sorted(c.command for c in block)
            assert commands == sorted(["simulate", "conditions", "absorbing"] * 6)
            assert sum(c.doc["control"]["mode"] == "fixed" for c in block) == 9
        for cfg in wl.configs:
            times = cfg.doc["forcing"]["times"]
            assert times[0] == 0.0 and times[-1] == CONFIG_T_END == cfg.doc["t_span"][1]
            assert all(b > a for a, b in zip(times, times[1:]))
            p = cfg.doc["params"]
            assert p["mu2"] > (1.0 - p["epsilon"]) * p["p"]


def test_sweep_draw_stopped_short_is_counted_apart_from_failures(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import hbvkit as hk
    from workloads import Sweep

    wl = Sweep(hk, 2, tmp_path)
    # draw 344 of seed 2 runs out of steps before t = 2; draw 0 does not
    assert wl.run(344)[2] is False
    assert wl.run(0)[2] is False
    assert wl.short == {344}
    assert wl.notes(345)[0].startswith("short_frac = 0.00289855 (1 of 345 draws")
    assert wl.notes(300)[0].startswith("short_frac = 0 (0 of 300 draws")
