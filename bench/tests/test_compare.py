from nocbench.catalog import END_TO_END
from nocbench.compare import compare_runs, exact_mismatches

BOUND = dict((n, b) for n, _, _, b in END_TO_END)["wall_s"]


def runs(workload, wall, trace=0, metrics=None, seed0=3):
    return [
        {"workload": workload, "seed": seed0 + i, "trace": trace, "failed": 0,
         "metrics": metrics if metrics is not None else {"wall_s": w}}
        for i, w in enumerate(wall)
    ]


STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]


def verdict(a, b):
    rows = compare_runs(runs("w", a), runs("w", b))
    assert [r["metric"] for r in rows] == ["wall_s"]
    return rows[0]


def test_within_bound_is_ok():
    factor = 1 + BOUND / 2
    row = verdict(STEADY, [x * factor for x in STEADY])
    assert row["verdict"] == "ok" and abs(row["ratio_b_over_a"] - factor) < 1e-9
    assert row["bound"] == BOUND


def test_worse_than_bound_is_a_regression():
    assert verdict(STEADY, [x * (1 + 2 * BOUND) for x in STEADY])["verdict"] == "regression"
    assert verdict(STEADY, [x * 0.5 for x in STEADY])["verdict"] == "ok"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0, 10.0, 12.0, 8.0]
    assert verdict(noisy, noisy)["verdict"] == "unresolved"
    assert verdict(noisy, [x / 3 for x in noisy])["verdict"] == "ok"


def test_one_row_per_workload():
    rows = compare_runs(runs("a", STEADY) + runs("b", STEADY),
                        runs("a", STEADY) + runs("b", STEADY))
    assert sorted(r["workload"] for r in rows) == ["a", "b"]


def test_exact_values_of_traced_runs_must_repeat():
    m = {"netsim.sim.avg_latency_cycles.mesh_wf_r015": 25.24, "hw.timing_s": 0.1,
         "verify.netlists_proved": 40}
    a = runs("w", [0], trace=1, metrics=m)
    assert exact_mismatches(a, runs("w", [0], trace=1, metrics=dict(m, **{"hw.timing_s": 0.2}))) == []
    bad = exact_mismatches(a, runs("w", [0], trace=1, metrics=dict(m, **{"verify.netlists_proved": 39})))
    assert len(bad) == 1 and "verify.netlists_proved" in bad[0]
