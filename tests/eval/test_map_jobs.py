"""The offline commands' share of the hardened pool: :func:`map_jobs`.

Jobs are plain closures over a list the forked workers inherit; results
must come back in job order, failures must name the job, and the loop
must run inline wherever workers cannot (or need not) be forked.
"""

import multiprocessing
import os

import pytest

from repro.eval.runner import JobError, map_jobs


def _square_with_pid(x):
    return x * x, os.getpid()


class TestResults:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_results_in_job_order(self, jobs):
        items = list(range(7))
        out = map_jobs(_square_with_pid, items, jobs=jobs)
        assert [square for square, _ in out] == [x * x for x in items]

    def test_jobs_run_in_workers_and_report_here(self):
        seen = []
        out = map_jobs(
            _square_with_pid, [3, 1, 2], jobs=2,
            done=lambda i, result: seen.append((i, result[0], os.getpid())),
        )
        assert os.getpid() not in {pid for _, pid in out}
        assert sorted(seen) == [(0, 9, os.getpid()), (1, 1, os.getpid()),
                                (2, 4, os.getpid())]
        assert multiprocessing.active_children() == []

    def test_closures_are_inherited_not_pickled(self):
        # A lambda does not pickle: it reaches the workers only by fork.
        offset = 10
        assert map_jobs(lambda x: x + offset, [1, 2], jobs=2) == [11, 12]

    def test_no_jobs(self):
        assert map_jobs(_square_with_pid, [], jobs=4) == []


class TestFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_raising_job_fails_the_map_with_its_type_and_label(self, jobs):
        def job(x):
            if x == 3:
                raise ValueError("bad input 3")
            return x

        with pytest.raises(JobError) as info:
            map_jobs(job, [1, 2, 3, 4], jobs=jobs, label=lambda x: f"job-{x}")
        err = info.value
        assert (err.label, err.kind, err.error) == ("job-3", "exception", "ValueError")
        assert "job-3" in str(err) and "bad input 3" in str(err)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_a_crash_not_an_empty_result(self):
        def job(x):
            if x == 2:
                os._exit(3)
            return [x]

        with pytest.raises(JobError) as info:
            map_jobs(job, [1, 2, 3], jobs=2, label=lambda x: f"job-{x}")
        err = info.value
        assert (err.label, err.kind, err.error) == ("job-2", "crash", "WorkerCrashed")
        assert "exited with code 3" in str(err)
        assert multiprocessing.active_children() == []

    def test_an_unpicklable_result_is_reported(self):
        with pytest.raises(JobError) as info:
            map_jobs(lambda x: (lambda: x), [1, 2], jobs=2)
        assert info.value.kind == "exception"


class TestInline:
    """Where the loop runs in this process: every result carries this
    process's pid and no worker is started."""

    def _assert_inline(self, **kwargs):
        out = map_jobs(_square_with_pid, [1, 2, 3], **kwargs)
        assert [pid for _, pid in out] == [os.getpid()] * 3

    def test_one_usable_cpu(self, monkeypatch):
        monkeypatch.setattr("repro.eval.runner.usable_cpus", lambda: 1)
        self._assert_inline()

    def test_one_job(self):
        out = map_jobs(_square_with_pid, [5], jobs=4)
        assert out == [(25, os.getpid())]

    def test_not_the_fork_start_method(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "spawn")
        self._assert_inline(jobs=2)

    def test_inside_a_daemonic_pool_worker(self):
        def outer(x):
            inner = map_jobs(_square_with_pid, [x, x + 1], jobs=2)
            return os.getpid(), [pid for _, pid in inner]

        for worker_pid, inner_pids in map_jobs(outer, [1, 2], jobs=2):
            assert worker_pid != os.getpid()
            assert inner_pids == [worker_pid, worker_pid]
