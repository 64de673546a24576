"""Per-rule source-linter tests: minimal positive and negative snippets.

Scope is derived from the (synthetic) path handed to
``lint_source_file``, so each snippet can be linted as if it lived in
any package without touching the real tree.
"""

import textwrap

import pytest

from repro.analysis.srclint import (
    ALL_SRC_RULES,
    ASYNC_PACKAGES,
    GUARDED_PACKAGES,
    HOT_LOOP_PACKAGES,
    SIMULATION_PACKAGES,
    lint_source_file,
    lint_source_tree,
)

NETSIM = "repro/netsim/mod.py"
CORE = "repro/core/mod.py"
HW = "repro/hw/mod.py"
EVAL = "repro/eval/mod.py"
SERVE = "repro/serve/mod.py"


def rules(code, path=NETSIM):
    return {f.rule for f in lint_source_file(path, textwrap.dedent(code))}


class TestScopes:
    def test_package_constants_are_consistent(self):
        assert set(HOT_LOOP_PACKAGES) <= set(SIMULATION_PACKAGES)
        assert set(GUARDED_PACKAGES) <= set(SIMULATION_PACKAGES)
        assert len(ALL_SRC_RULES) == 5
        assert "serve" in ASYNC_PACKAGES

    def test_non_simulation_code_is_exempt(self):
        code = "import random\nx = random.random()\n"
        assert rules(code, EVAL) == set()
        assert rules(code, "tools/gen.py") == set()
        assert "SRC-UNSEEDED-RANDOM" in rules(code, CORE)


class TestUnseededRandom:
    def test_module_level_random_flagged(self):
        assert "SRC-UNSEEDED-RANDOM" in rules("x = random.random()\n", CORE)
        assert "SRC-UNSEEDED-RANDOM" in rules("random.shuffle(items)\n", HW)

    def test_seeded_random_instance_allowed(self):
        assert rules("rng = random.Random(42)\nx = rng.random()\n", CORE) == set()

    def test_numpy_global_rng_flagged(self):
        assert "SRC-UNSEEDED-RANDOM" in rules("x = np.random.rand(4)\n", CORE)
        assert "SRC-UNSEEDED-RANDOM" in rules("numpy.random.shuffle(a)\n", CORE)

    def test_seeded_numpy_constructor_allowed(self):
        assert rules("rng = np.random.default_rng(7)\n", CORE) == set()
        assert rules("rng = np.random.default_rng(seed=s)\n", CORE) == set()
        assert rules("rng = numpy.random.PCG64(9)\n", CORE) == set()

    def test_argless_numpy_constructor_flagged(self):
        findings = lint_source_file(CORE, "rng = np.random.default_rng()\n")
        assert [f.rule for f in findings] == ["SRC-UNSEEDED-RANDOM"]
        assert "seed" in findings[0].message


class TestWallClock:
    def test_time_reads_flagged(self):
        for call in ("time.time()", "time.perf_counter()", "time.monotonic_ns()"):
            assert "SRC-WALL-CLOCK" in rules(f"t = {call}\n", CORE), call

    def test_datetime_now_flagged(self):
        assert "SRC-WALL-CLOCK" in rules("t = datetime.datetime.now()\n", CORE)

    def test_sleep_is_not_a_clock_read(self):
        assert rules("time.sleep(1)\n", CORE) == set()


class TestSetIteration:
    def test_for_over_set_call_flagged(self):
        assert "SRC-SET-ITERATION" in rules(
            "for x in set(items):\n    use(x)\n", CORE
        )

    def test_for_over_set_literal_flagged(self):
        assert "SRC-SET-ITERATION" in rules(
            "for x in {a, b}:\n    use(x)\n", NETSIM
        )

    def test_comprehension_over_frozenset_flagged(self):
        assert "SRC-SET-ITERATION" in rules(
            "ys = [f(x) for x in frozenset(items)]\n", CORE
        )

    def test_sorted_wrapper_allowed(self):
        assert rules("for x in sorted(set(items)):\n    use(x)\n", CORE) == set()

    def test_only_hot_loop_packages_checked(self):
        assert rules("for x in set(items):\n    use(x)\n", HW) == set()


class TestObserverGuard:
    def test_unguarded_call_flagged(self):
        code = """
        def step(self):
            self.observer.cycle_end(self, 0)
        """
        findings = lint_source_file(NETSIM, textwrap.dedent(code))
        assert [f.rule for f in findings] == ["SRC-OBSERVER-GUARD"]
        assert "self.observer" in findings[0].message

    def test_is_not_none_guard_accepted(self):
        code = """
        def step(self):
            if self.observer is not None:
                self.observer.cycle_end(self, 0)
        """
        assert rules(code) == set()

    def test_truthiness_guard_accepted(self):
        code = """
        def step(self):
            if self.fault_state:
                self.fault_state.credit_event(0, 0, 0, 0)
        """
        assert rules(code) == set()

    def test_guard_with_conjunction_accepted(self):
        code = """
        def step(self, busy):
            if self.observer is not None and busy:
                self.observer.cycle_end(self, 0)
        """
        assert rules(code) == set()

    def test_early_return_narrowing(self):
        code = """
        def step(self):
            if self.observer is None:
                return
            self.observer.cycle_end(self, 0)
        """
        assert rules(code) == set()

    def test_assert_narrowing(self):
        code = """
        def step(self):
            assert self.fault_state is not None
            self.fault_state.credit_event(0, 0, 0, 0)
        """
        assert rules(code) == set()

    def test_alias_guard_accepted(self):
        code = """
        def step(self):
            fs = self.fault_state
            if fs is not None:
                fs.credit_event(0, 0, 0, 0)
        """
        assert rules(code) == set()

    def test_unguarded_alias_flagged(self):
        code = """
        def step(self):
            fs = self.fault_state
            fs.credit_event(0, 0, 0, 0)
        """
        assert rules(code) == {"SRC-OBSERVER-GUARD"}

    def test_guard_does_not_cover_else_branch(self):
        code = """
        def step(self):
            if self.observer is not None:
                pass
            else:
                self.observer.cycle_end(self, 0)
        """
        assert rules(code) == {"SRC-OBSERVER-GUARD"}

    def test_guard_does_not_leak_past_the_if(self):
        code = """
        def step(self):
            if self.observer is not None:
                pass
            self.observer.cycle_end(self, 0)
        """
        assert rules(code) == {"SRC-OBSERVER-GUARD"}

    def test_guard_does_not_leak_into_nested_function(self):
        code = """
        def outer(self):
            if self.observer is not None:
                def inner():
                    self.observer.cycle_end(self, 0)
        """
        assert rules(code) == {"SRC-OBSERVER-GUARD"}

    def test_only_guarded_packages_checked(self):
        code = """
        def step(self):
            self.observer.cycle_end(self, 0)
        """
        assert rules(code, CORE) == set()

    def test_unrelated_attributes_exempt(self):
        code = """
        def step(self):
            self.router.receive_credit(0, 0)
        """
        assert rules(code) == set()


class TestGuardedAttributeAccess:
    """The rule covers *any* attribute access, not just calls: the
    fault-aware routing branches (counter bumps, table reads) must sit
    behind the same ``fault_state is None`` fast-path idiom."""

    def test_unguarded_counter_bump_flagged(self):
        code = """
        def route(self):
            self.fault_state.counters["escape_reroutes"] += 1
        """
        assert rules(code) == {"SRC-OBSERVER-GUARD"}

    def test_unguarded_attribute_read_flagged(self):
        code = """
        def route(self):
            return self.fault_state.has_permanent_link_faults
        """
        assert rules(code) == {"SRC-OBSERVER-GUARD"}

    def test_bare_parameter_name_flagged(self):
        # A parameter named `fault_state` carries the same contract.
        code = """
        def bind(self, fault_state):
            self.perm = fault_state.permanent_link_faults()
        """
        assert rules(code) == {"SRC-OBSERVER-GUARD"}

    def test_early_return_idiom_accepted(self):
        code = """
        def bind(self, fault_state):
            if fault_state is None:
                self.perm = frozenset()
                return
            self.perm = fault_state.permanent_link_faults()
        """
        assert rules(code) == set()

    def test_guarded_counter_bump_via_alias_accepted(self):
        code = """
        def route(self):
            fs = self.fault_state
            if fs is None:
                return 0
            fs.counters["escape_reroutes"] += 1
            return 1
        """
        assert rules(code) == set()

    def test_boolop_progressive_narrowing_accepted(self):
        # `x is not None and x.attr`: the second conjunct only runs
        # when the first held (the network.py credit-arming idiom).
        code = """
        def arm(self, fault_state):
            self.armed = fault_state is not None and fault_state.has_credit_faults
        """
        assert rules(code) == set()

    def test_boolop_without_narrowing_flagged(self):
        code = """
        def arm(self, fault_state):
            self.armed = bool(fault_state.has_credit_faults)
        """
        assert rules(code) == {"SRC-OBSERVER-GUARD"}

    def test_or_raise_narrowing_accepted(self):
        # `if x is None or not x.y: raise` proves x non-None below.
        code = """
        def check(self, fault_state):
            if fault_state is None or not fault_state.has_permanent_link_faults:
                raise ValueError("no permanent faults")
            fault_state.counters["watchdog_degraded_trips"] += 1
        """
        assert rules(code) == set()

    def test_assignment_to_the_attribute_is_exempt(self):
        # Storing/clearing the attribute is how the guard is set up.
        code = """
        def attach(self, fault_state):
            self.fault_state = fault_state
        """
        assert rules(code) == set()


class TestAsyncBlocking:
    """SRC-ASYNC-BLOCKING: no synchronous waits inside ``async def``
    bodies in the event-loop packages -- one blocking call stalls every
    worker sharing the loop."""

    def test_blocking_sleep_in_async_def_flagged(self):
        code = """
        async def handler(self):
            time.sleep(0.1)
        """
        findings = lint_source_file(SERVE, textwrap.dedent(code))
        assert [f.rule for f in findings] == ["SRC-ASYNC-BLOCKING"]
        assert "asyncio.sleep" in findings[0].message

    def test_blocking_io_calls_flagged(self):
        for call in (
            "subprocess.run(cmd)",
            "subprocess.check_output(cmd)",
            "socket.create_connection(addr)",
            "open('results.json')",
        ):
            code = f"async def handler(self):\n    x = {call}\n"
            assert rules(code, SERVE) == {"SRC-ASYNC-BLOCKING"}, call

    def test_sync_def_in_async_package_exempt(self):
        code = """
        def helper(self):
            time.sleep(0.1)
        """
        assert rules(code, SERVE) == set()

    def test_nested_sync_helper_inside_async_def_exempt(self):
        # Only the innermost enclosing def matters: a sync closure is
        # typically handed to run_in_executor and may block freely.
        code = """
        async def handler(self):
            def work():
                time.sleep(0.1)
            await loop.run_in_executor(None, work)
        """
        assert rules(code, SERVE) == set()

    def test_async_def_nested_in_sync_def_flagged(self):
        code = """
        def factory():
            async def handler():
                time.sleep(0.1)
            return handler
        """
        assert rules(code, SERVE) == {"SRC-ASYNC-BLOCKING"}

    def test_non_async_packages_exempt(self):
        code = "async def handler(self):\n    time.sleep(0.1)\n"
        assert rules(code, CORE) == set()
        assert rules(code, NETSIM) == set()

    def test_pragma_suppression(self):
        code = (
            "async def handler(self):\n"
            "    time.sleep(0.1)  # lint: ignore[SRC-ASYNC-BLOCKING]\n"
        )
        assert rules(code, SERVE) == set()

    def test_async_primitives_not_flagged(self):
        code = """
        async def handler(self):
            await asyncio.sleep(0.1)
            async with session.get(url) as resp:
                data = await resp.json()
        """
        assert rules(code, SERVE) == set()


class TestPragmasAndSyntax:
    def test_inline_ignore_suppresses_one_line(self):
        code = (
            "def step(self):\n"
            "    self.observer.a()  # lint: ignore[SRC-OBSERVER-GUARD]\n"
            "    self.observer.b()\n"
        )
        findings = lint_source_file(NETSIM, code)
        assert len(findings) == 1 and "line 3" in findings[0].location

    def test_ignore_accepts_rule_lists(self):
        code = "t = time.time()  # lint: ignore[SRC-WALL-CLOCK, SRC-SYNTAX]\n"
        assert rules(code, CORE) == set()

    def test_unparsable_file_yields_src_syntax(self):
        findings = lint_source_file(CORE, "def broken(:\n")
        assert [f.rule for f in findings] == ["SRC-SYNTAX"]
        assert findings[0].severity == "error"


class TestTreeLinting:
    def test_tree_scope_is_relative_to_package_parent(self, tmp_path):
        pkg = tmp_path / "repro" / "netsim"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def step(self):\n    self.observer.cycle_end(self, 0)\n"
        )
        (pkg / "good.py").write_text("x = 1\n")
        findings = lint_source_tree(tmp_path / "repro")
        assert [f.scope for f in findings] == ["repro/netsim/bad.py"]

    def test_real_tree_is_clean(self, repo_src):
        assert lint_source_tree(repo_src / "repro") == []


class TestGeneratedKernels:
    """The compiled-kernel templates carry the netsim determinism
    contract even though they never exist on disk (satellite of the
    compiled-kernel PR): the linter renders and scans them."""

    def test_rendered_templates_are_clean(self):
        from repro.analysis.srclint import lint_generated_kernels

        assert lint_generated_kernels() == []

    def test_generated_scope_enforces_simulation_rules(self):
        # A doctored template must be caught: the synthetic path places
        # generated modules in the netsim scope, where the wall-clock
        # and unseeded-randomness rules apply.
        from repro.analysis.srclint import GENERATED_KERNEL_SCOPE
        from repro.netsim.codegen import source_for, template_specs

        spec = template_specs()[0]
        doctored = (
            source_for(spec)
            + "\n_t0 = time.perf_counter()\n_jitter = random.random()\n"
        )
        found = rules(doctored, f"{GENERATED_KERNEL_SCOPE}/{spec.slug()}.py")
        assert "SRC-WALL-CLOCK" in found
        assert "SRC-UNSEEDED-RANDOM" in found

    @pytest.mark.parametrize(
        "guarded, unguarded",
        [
            ("_blocked is not None and _fs is not None and _q in _blocked",
             "_blocked is not None and _q in _blocked"),
            ("_stuck is not None and _fs is not None and _cands",
             "_stuck is not None and _cands"),
        ],
        ids=["blocked", "stuck"],
    )
    def test_hooked_render_fault_state_guards_are_checked(
        self, guarded, unguarded
    ):
        # The hooked render binds the fault state to `_fs`; dropping the
        # guard in front of one `_fs` access must surface a finding.
        from repro.analysis.srclint import GENERATED_KERNEL_SCOPE
        from repro.netsim.codegen import source_for, template_specs

        spec = template_specs()[0]
        source = source_for(spec, hooked=True)
        path = f"{GENERATED_KERNEL_SCOPE}/{spec.slug()}-hooked.py"
        assert guarded in source
        assert rules(source, path) == set()
        doctored = source.replace(guarded, unguarded, 1)
        assert rules(doctored, path) == {"SRC-OBSERVER-GUARD"}

    def test_kernel_locals_are_guarded_only_in_generated_scope(self):
        code = """
        def step(_fs, _obs):
            _fs.counters["x"] += 1
            _obs.hook()
        """
        assert rules(code) == set()
        assert rules(code, "repro/netsim/generated/k.py") == {
            "SRC-OBSERVER-GUARD"
        }

    def test_bad_template_surfaces_with_its_slug(self, monkeypatch):
        from repro.analysis import srclint
        from repro.netsim import codegen

        monkeypatch.setattr(
            codegen,
            "iter_template_sources",
            lambda: iter([("doctored-slug", "t = time.time()\n")]),
        )
        findings = srclint.lint_generated_kernels()
        assert [f.rule for f in findings] == ["SRC-WALL-CLOCK"]
        assert "doctored-slug" in findings[0].scope


class TestProfilerGuard:
    """The ``profiler`` hook follows the same None-fast-path contract as
    ``observer``/``fault_state`` (performance-observatory PR): every
    hook call in the simulation packages must sit under an
    ``is not None`` guard."""

    def test_unguarded_profiler_call_flagged(self):
        code = """
        def step(self):
            t0 = self.profiler.begin()
        """
        assert rules(code) == {"SRC-OBSERVER-GUARD"}

    def test_guarded_profiler_call_accepted(self):
        code = """
        def step(self):
            if self.profiler is not None:
                t0 = self.profiler.begin()
        """
        assert rules(code) == set()

    def test_profiler_alias_guard_accepted(self):
        code = """
        def step(self):
            prof = self.profiler
            if prof is not None:
                t0 = prof.begin()
        """
        assert rules(code) == set()

    def test_unguarded_profiler_alias_flagged(self):
        code = """
        def step(self):
            prof = self.profiler
            t0 = prof.begin()
        """
        assert rules(code) == {"SRC-OBSERVER-GUARD"}

    def test_conditional_expression_guard_accepted(self):
        # The hook idiom used around loops in the router kernels.
        code = """
        def step(self, prof):
            t0 = prof.begin() if prof is not None else 0.0
        """
        assert rules(code) == set()

    def test_profiled_templates_render_and_lint_clean(self):
        # iter_template_sources() yields every variant; the profiled ones
        # (plain and hooked) must carry phase hooks yet stay lint-clean
        # (their entry aliases the profiler and early-returns on None).
        from repro.netsim.codegen import iter_template_sources

        slugs = dict(iter_template_sources())
        profiled = {s: src for s, src in slugs.items() if "-prof" in s}
        assert profiled, "expected profiled template variants"
        for slug, source in profiled.items():
            assert "_prof.phase(" in source
            assert rules(source, f"repro/netsim/generated/{slug}.py") == set()
        # The unprofiled variants must not pay for hooks they don't use.
        for slug, source in slugs.items():
            if "-prof" not in slug:
                assert "_prof.phase(" not in source
