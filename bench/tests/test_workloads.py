from pathlib import Path

from nocbench.workloads import (
    SIZES, SMOKE_SIZES, antithetic_rates, canonical_output, command_sequence,
    output_digest, table_rows,
)

TABLE = """mesh wf/pessimistic
inj rate  latency  p50     p95
--------  -------  ------  -------
0.050     23.511   23.000  38.000
0.150     25.637   25.000  43.000
zero-load 23.5 cycles, saturation ~0.396 flits/cycle
cache: 0 hit(s), 2 miss(es) (/tmp/x/c.json)
"""


def test_rates_are_a_function_of_the_seed():
    a = antithetic_rates(3, 36, 0.02, 0.22, "dispatch")
    assert a == antithetic_rates(3, 36, 0.02, 0.22, "dispatch")
    assert a != antithetic_rates(4, 36, 0.02, 0.22, "dispatch")
    assert a != antithetic_rates(3, 36, 0.02, 0.22, "quality")


def test_rates_are_distinct_sorted_in_range_with_a_fixed_sum():
    sums = set()
    for seed in range(20):
        for n in (4, 5, 36):
            rates = antithetic_rates(seed, n, 0.02, 0.22)
            assert len(set(rates)) == n and rates == sorted(rates)
            assert all(0.02 <= r <= 0.22 for r in rates)
            if n == 36:
                sums.add(round(sum(rates), 2))
    assert len(sums) == 1  # the work a seed causes does not depend on the seed


def test_canonical_output_drops_cache_line_and_temp_paths():
    state = Path("/tmp/x")
    cold = canonical_output(TABLE, state)
    warm = canonical_output(
        TABLE.replace("0 hit(s), 2 miss(es)", "2 hit(s), 0 miss(es)"), state)
    assert cold == warm and "cache:" not in cold
    other = canonical_output("wrote /tmp/y/out.txt   \n", Path("/tmp/y"))
    assert other == "wrote <T>/out.txt\n"
    assert output_digest(TABLE, state) == output_digest(
        TABLE.replace("/tmp/x", "/tmp/z"), Path("/tmp/z"))
    assert output_digest(TABLE, state) != output_digest(TABLE.replace("23.511", "23.512"), state)


def test_table_rows_stop_at_the_summary_line():
    rows = table_rows(TABLE)
    assert [r[0] for r in rows] == ["0.050", "0.150"]
    assert rows[0][1] == "23.511"
    assert table_rows("no table here\n") == []


def test_command_sequences_keep_state_under_the_state_dir():
    state = Path("/state")
    for sizes in (SIZES, SMOKE_SIZES):
        for workload in sizes:
            seq = command_sequence(workload, sizes[workload], 3, state, "127.0.0.1:1")
            assert seq and len({label for label, _ in seq}) == len(seq)
            for _, argv in seq:
                assert argv[1:3] == ["-m", "repro"]
                if "--cache-path" in argv:
                    assert argv[argv.index("--cache-path") + 1].startswith("/state/")
    labels = [l for l, _ in command_sequence(
        "dispatch_smallpoints", SIZES["dispatch_smallpoints"], 3, state, "h:1")]
    assert labels == ["inline", "pool", "connect"]
