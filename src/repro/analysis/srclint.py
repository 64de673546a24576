"""Repo-invariant source linter.

AST-based custom rules encoding contracts this repository relies on but
no general-purpose linter knows about.  The *simulation code paths*
(``repro/core``, ``repro/netsim``, ``repro/faults``, ``repro/hw``) must
stay deterministic and observer-clean:

========================  ========  ==========================================
rule id                   severity  violation
========================  ========  ==========================================
``SRC-UNSEEDED-RANDOM``   error     module-level RNG use (``random.random()``,
                                    ``np.random.rand()``) in simulation code:
                                    all randomness must flow through seeded
                                    ``Random(seed)`` / ``default_rng(seed)``
                                    instances so runs are reproducible
``SRC-WALL-CLOCK``        error     wall-clock reads (``time.time()``,
                                    ``datetime.now()``...) in simulation code:
                                    simulated time is the only clock; real
                                    time makes results machine-dependent
``SRC-SET-ITERATION``     error     iterating a ``set``/``frozenset`` directly
                                    in ``repro/core`` / ``repro/netsim``:
                                    set order depends on ``PYTHONHASHSEED``
                                    for str keys -- wrap in ``sorted(...)``
``SRC-OBSERVER-GUARD``    error     any attribute access through
                                    ``observer``, ``fault_state`` or
                                    ``profiler`` in ``repro/netsim`` (and
                                    through the ``_obs`` / ``_fs`` locals
                                    of rendered kernels) without an
                                    ``is not None`` guard: the
                                    None fast path is the performance
                                    contract (CHANGES.md PRs 2-3), and
                                    fault-aware routing branches must sit
                                    behind the same guard idiom
``SRC-ASYNC-BLOCKING``    error     blocking calls (``time.sleep``, sync
                                    ``open``/``socket``/``subprocess``)
                                    directly inside an ``async def`` body in
                                    ``repro/serve``: one blocked coroutine
                                    stalls the whole event loop -- every
                                    worker lease, heartbeat and cache probe
                                    behind it
========================  ========  ==========================================

Scopes are decided from the path relative to the package root, so unit
tests can lint snippets under synthetic paths.  ``# lint: ignore[RULE]``
on the offending line suppresses a single finding in place (for the
rare intentional exception; prefer fixing).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .findings import Finding

__all__ = [
    "lint_source_file",
    "lint_source_tree",
    "lint_generated_kernels",
    "GENERATED_KERNEL_SCOPE",
    "SIMULATION_PACKAGES",
    "HOT_LOOP_PACKAGES",
    "GUARDED_PACKAGES",
    "ASYNC_PACKAGES",
    "ALL_SRC_RULES",
]

ALL_SRC_RULES: Tuple[str, ...] = (
    "SRC-UNSEEDED-RANDOM",
    "SRC-WALL-CLOCK",
    "SRC-SET-ITERATION",
    "SRC-OBSERVER-GUARD",
    "SRC-ASYNC-BLOCKING",
)

#: Packages whose code runs inside a simulation (determinism-bearing).
SIMULATION_PACKAGES = ("core", "netsim", "faults", "hw")
#: Packages whose hot loops must not depend on hash iteration order.
HOT_LOOP_PACKAGES = ("core", "netsim")
#: Packages where observer/fault_state access must stay behind the
#: is-not-None fast path.
GUARDED_PACKAGES = ("netsim",)
#: Packages running under an asyncio event loop, where a blocking call
#: in a coroutine stalls every other task on the loop.
ASYNC_PACKAGES = ("serve",)

#: Module-level RNG entry points (the unseeded global generators).
_RANDOM_MODULE_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "seed", "getrandbits",
}
#: Wall-clock reads (monotonic counters included: any real-time read
#: inside simulation logic makes behaviour timing-dependent).
_WALL_CLOCK_FUNCS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}
#: numpy RNG constructors: fine when seeded, flagged when argument-free.
_SEEDED_RNG_CONSTRUCTORS = {
    "default_rng", "RandomState", "Generator", "SeedSequence",
    "PCG64", "Philox", "MT19937", "SFC64",
}
#: Attribute names whose access must be None-guarded in GUARDED_PACKAGES.
_GUARDED_ATTRS = ("observer", "fault_state", "profiler")

#: Synthetic path prefix for rendered compiled-kernel templates.  It
#: places the generated code in the ``netsim`` scope, so every
#: simulation-determinism rule (unseeded randomness, wall-clock reads,
#: set iteration, observer guards) applies to it unchanged.
GENERATED_KERNEL_SCOPE = "repro/netsim/generated"
#: Locals the ``-hooked`` kernel renders bind the router's observer and
#: fault state to, guarded like the attributes themselves.  ``_prof``
#: is not among them: a profiled render is only bound while a profiler
#: is attached.
_GENERATED_GUARDED_NAMES = ("_obs", "_fs")

#: Calls that block the thread, with the async-native replacement the
#: finding message recommends.  Matched on the trailing two components
#: of the dotted call, like the wall-clock table.
_BLOCKING_CALLS: Dict[Tuple[str, str], str] = {
    ("time", "sleep"): "await asyncio.sleep(...)",
    ("socket", "socket"): "asyncio.open_connection / loop.sock_* APIs",
    ("socket", "create_connection"): "asyncio.open_connection(...)",
    ("subprocess", "run"): "asyncio.create_subprocess_exec(...)",
    ("subprocess", "Popen"): "asyncio.create_subprocess_exec(...)",
    ("subprocess", "call"): "asyncio.create_subprocess_exec(...)",
    ("subprocess", "check_output"): "asyncio.create_subprocess_exec(...)",
    ("subprocess", "check_call"): "asyncio.create_subprocess_exec(...)",
}

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Z0-9-]+(?:,\s*[A-Z0-9-]+)*)\]")


def _block_terminates(stmts: Sequence[ast.stmt]) -> bool:
    """True when control never falls off the end of ``stmts``."""
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for other shapes."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _rel_package(path: str) -> Tuple[str, ...]:
    """Path components below the ``repro`` package root, if any."""
    parts = Path(path).parts
    if "repro" in parts:
        ix = len(parts) - 1 - list(reversed(parts)).index("repro")
        return parts[ix + 1 :]
    return parts


class _IgnoreMap:
    """Per-line ``# lint: ignore[RULE]`` pragmas."""

    def __init__(self, code: str) -> None:
        self.by_line: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(code.splitlines(), start=1):
            m = _IGNORE_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                self.by_line[lineno] = rules

    def ignored(self, rule: str, lineno: int) -> bool:
        return rule in self.by_line.get(lineno, set())


class _SourceLinter(ast.NodeVisitor):
    def __init__(self, rel_path: str, code: str) -> None:
        self.rel_path = rel_path
        self.findings: List[Finding] = []
        self._ignores = _IgnoreMap(code)
        pkg = _rel_package(rel_path)
        top = pkg[0] if pkg else ""
        self.in_simulation = top in SIMULATION_PACKAGES
        self.in_hot_loop = top in HOT_LOOP_PACKAGES
        self.in_guarded = top in GUARDED_PACKAGES
        self.in_async_pkg = top in ASYNC_PACKAGES
        self._guarded_names = _GUARDED_ATTRS
        if rel_path.startswith(GENERATED_KERNEL_SCOPE + "/"):
            self._guarded_names += _GENERATED_GUARDED_NAMES
        #: stack of guard expressions proven non-None on this path
        self._guards: List[Set[str]] = []
        #: per-function aliases: local name -> guarded dotted source
        self._alias_stack: List[Dict[str, str]] = []
        #: one entry per enclosing def; True while the innermost
        #: enclosing function is an ``async def`` (a sync helper nested
        #: inside a coroutine is scheduled by its caller, not the loop)
        self._async_stack: List[bool] = []

    # -- reporting -----------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if self._ignores.ignored(rule, lineno):
            return
        self.findings.append(
            Finding(rule, "error", self.rel_path, f"line {lineno}", message)
        )

    # -- determinism rules ---------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if self.in_simulation and dotted:
            self._check_random(node, dotted)
            self._check_wall_clock(node, dotted)
        if (
            self.in_async_pkg
            and self._async_stack
            and self._async_stack[-1]
        ):
            self._check_async_blocking(node, dotted)
        self.generic_visit(node)

    def _check_async_blocking(self, node: ast.Call, dotted: Optional[str]) -> None:
        """Inside an ``async def``: flag calls that block the thread."""
        if dotted == "open":
            self._emit(
                "SRC-ASYNC-BLOCKING", node,
                "synchronous open() inside an async def blocks the event "
                "loop; run file I/O via loop.run_in_executor(...) or do it "
                "before entering the coroutine",
            )
            return
        if dotted is None:
            return
        parts = dotted.split(".")
        if len(parts) >= 2:
            hint = _BLOCKING_CALLS.get((parts[-2], parts[-1]))
            if hint is not None:
                self._emit(
                    "SRC-ASYNC-BLOCKING", node,
                    f"blocking call {dotted}() inside an async def stalls "
                    f"the whole event loop; use {hint}",
                )

    def _check_random(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        # random.random() / np.random.rand() / numpy.random.shuffle(...)
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _RANDOM_MODULE_FUNCS
        ):
            self._emit(
                "SRC-UNSEEDED-RANDOM", node,
                f"call to module-level random.{parts[1]}(); use a seeded "
                "random.Random(seed) instance instead",
            )
        elif (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
        ):
            func = parts[2]
            if func in _SEEDED_RNG_CONSTRUCTORS:
                # Constructing a generator is the sanctioned pattern --
                # but only when an explicit seed is passed.
                if not node.args and not node.keywords:
                    self._emit(
                        "SRC-UNSEEDED-RANDOM", node,
                        f"{dotted}() without a seed draws entropy from the "
                        "OS; pass an explicit seed",
                    )
                return
            self._emit(
                "SRC-UNSEEDED-RANDOM", node,
                f"call to numpy global RNG {dotted}(); use "
                "numpy.random.default_rng(seed) instead",
            )

    def _check_wall_clock(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if len(parts) >= 2 and (parts[-2], parts[-1]) in _WALL_CLOCK_FUNCS:
            self._emit(
                "SRC-WALL-CLOCK", node,
                f"wall-clock read {dotted}() in simulation code; simulated "
                "cycles are the only clock allowed here",
            )

    # -- set iteration order -------------------------------------------
    def visit_comprehension(self, node: ast.comprehension) -> None:
        if self.in_hot_loop:
            self._check_set_iter(node.iter)
        self.generic_visit(node)

    def _check_set_iter(self, iter_node: ast.AST) -> None:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            self._emit(
                "SRC-SET-ITERATION", iter_node,
                "iteration over a set literal/comprehension: order depends "
                "on PYTHONHASHSEED; wrap in sorted(...)",
            )
        elif (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")
        ):
            self._emit(
                "SRC-SET-ITERATION", iter_node,
                f"iteration over {iter_node.func.id}(...): order depends on "
                "PYTHONHASHSEED; wrap in sorted(...)",
            )

    # -- observer / fault_state guards ---------------------------------
    def _guard_exprs(self, test: ast.AST, when_true: bool) -> Set[str]:
        """Dotted expressions proven non-None when ``test`` is truthy
        (``when_true``) or falsy (``not when_true``)."""
        proven: Set[str] = set()
        if isinstance(test, ast.BoolOp):
            # `a is not None and ...`: every conjunct holds on the true
            # branch.  Dually, `a is None or ...` falsy means every
            # disjunct is falsy (used by `if x is None or ...: raise`).
            if isinstance(test.op, ast.And) and when_true:
                for clause in test.values:
                    proven |= self._guard_exprs(clause, True)
            elif isinstance(test.op, ast.Or) and not when_true:
                for clause in test.values:
                    proven |= self._guard_exprs(clause, False)
            return proven
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left = _dotted(test.left)
            is_none = (
                isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
            )
            if left and is_none:
                if isinstance(test.ops[0], ast.IsNot) and when_true:
                    proven.add(left)
                elif isinstance(test.ops[0], ast.Is) and not when_true:
                    proven.add(left)
        elif when_true:
            # `if self.observer:` -- truthiness implies non-None.
            dotted = _dotted(test)
            if dotted:
                proven.add(dotted)
        return proven

    def visit_If(self, node: ast.If) -> None:
        self._visit_branching(node.test, node.body, node.orelse)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self._visit_branching(node.test, [node.body], [node.orelse])

    def _visit_branching(self, test, body, orelse) -> None:
        self.visit(test)
        self._guards.append(self._guard_exprs(test, True))
        self._visit_block(body)
        self._guards.pop()
        self._guards.append(self._guard_exprs(test, False))
        self._visit_block(orelse)
        self._guards.pop()

    def _visit_block(self, stmts: Sequence[ast.stmt]) -> None:
        """Visit a statement list with flow narrowing.

        Two statement shapes prove an expression non-None for every
        *later* statement in the same block:

        * ``if x is None: <...terminal>`` (early return/raise/continue/
          break) -- the flip side of the branch guard;
        * ``assert x is not None`` -- execution past it implies truth.
        """
        self._guards.append(set())
        for stmt in stmts:
            self.visit(stmt)
            if (
                isinstance(stmt, ast.If)
                and not stmt.orelse
                and _block_terminates(stmt.body)
            ):
                self._guards[-1] |= self._guard_exprs(stmt.test, False)
            elif isinstance(stmt, ast.Assert):
                self._guards[-1] |= self._guard_exprs(stmt.test, True)
        self._guards.pop()

    def visit_Module(self, node: ast.Module) -> None:
        self._visit_block(node.body)

    def visit_For(self, node: ast.For) -> None:
        if self.in_hot_loop:
            self._check_set_iter(node.iter)
        self.visit(node.target)
        self.visit(node.iter)
        self._visit_block(node.body)
        self._visit_block(node.orelse)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._visit_block(node.body)
        self._visit_block(node.orelse)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self.visit(item)
        self._visit_block(node.body)

    def visit_Try(self, node: ast.Try) -> None:
        self._visit_block(node.body)
        for handler in node.handlers:
            self._visit_block(handler.body)
        self._visit_block(node.orelse)
        self._visit_block(node.finalbody)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node, is_async=True)

    def _enter_function(self, node, is_async: bool = False) -> None:
        for dec in node.decorator_list:
            self.visit(dec)
        self.visit(node.args)
        self._alias_stack.append({})
        self._async_stack.append(is_async)
        outer_guards = self._guards
        self._guards = []
        self._visit_block(node.body)
        self._guards = outer_guards
        self._async_stack.pop()
        self._alias_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        # Track `fs = self.fault_state` style aliases so a later
        # `if fs is not None:` guard covers calls through `fs`.
        if self._alias_stack and len(node.targets) == 1:
            target = node.targets[0]
            src = _dotted(node.value)
            if isinstance(target, ast.Name) and src and self._is_guarded_name(src):
                self._alias_stack[-1][target.id] = src
        self.generic_visit(node)

    def _is_guarded_name(self, dotted: str) -> bool:
        return dotted.split(".")[-1] in self._guarded_names

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        """Progressive narrowing inside one boolean expression.

        In ``x is not None and x.y`` the second conjunct only evaluates
        when the first held; dually, in ``x is None or x.y`` the second
        disjunct only evaluates when ``x`` is non-None.  Each operand is
        visited under the guards established by the operands before it.
        """
        proven: Set[str] = set()
        for clause in node.values:
            self._guards.append(set(proven))
            self.visit(clause)
            self._guards.pop()
            if isinstance(node.op, ast.And):
                proven |= self._guard_exprs(clause, True)
            else:  # Or: later disjuncts run only when this one is falsy
                proven |= self._guard_exprs(clause, False)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.in_guarded:
            self._check_guarded_access(node)
        self.generic_visit(node)

    def _check_guarded_access(self, node: ast.Attribute) -> None:
        """Any access shaped ``<expr>.attr`` where ``<expr>`` is an
        observer-like attribute (or an alias of one) must sit under an
        ``is not None`` guard for that same expression.

        Covers calls (``fs.counters[...] += 1`` and ``obs.hook(...)``
        alike): every branch of fault-aware/instrumented code stays
        behind the None fast-path check.
        """
        target = _dotted(node.value)
        if target is None:
            return
        aliases = self._alias_stack[-1] if self._alias_stack else {}
        if not (self._is_guarded_name(target) or target in aliases):
            return
        # Accept a guard on the expression itself or on anything it
        # aliases (fs -> self.fault_state).
        candidates = {target}
        if target in aliases:
            candidates.add(aliases[target])
        for guards in self._guards:
            if candidates & guards:
                return
        self._emit(
            "SRC-OBSERVER-GUARD", node,
            f"access through {target!r} without an `is not None` guard; the "
            "None fast path is the simulation performance contract",
        )


def lint_source_file(path: str, code: Optional[str] = None) -> List[Finding]:
    """Lint one file; ``code`` overrides reading from disk (tests)."""
    if code is None:
        code = Path(path).read_text()
    try:
        tree = ast.parse(code, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                "SRC-SYNTAX", "error", path,
                f"line {exc.lineno or 0}", f"file does not parse: {exc.msg}",
            )
        ]
    linter = _SourceLinter(path, code)
    linter.visit(tree)
    return linter.findings


def lint_generated_kernels() -> List[Finding]:
    """Lint the rendered compiled-kernel template sources.

    The ``compiled`` kernel executes generated modules inside the
    simulation, so they carry the same determinism contract as
    hand-written ``repro/netsim`` code -- but they never exist on disk
    for :func:`lint_source_tree` to find.  Render each representative
    template design point and lint it under a synthetic
    ``repro/netsim/generated/<slug>.py`` path instead.
    """
    from ..netsim.codegen import iter_template_sources

    findings: List[Finding] = []
    for slug, source in iter_template_sources():
        findings.extend(
            lint_source_file(f"{GENERATED_KERNEL_SCOPE}/{slug}.py", source)
        )
    return findings


def lint_source_tree(root: Path) -> List[Finding]:
    """Lint every ``*.py`` under ``root`` (the ``repro`` package dir).

    Scopes are reported relative to ``root.parent`` so findings read
    ``repro/netsim/router.py`` regardless of where the tree lives.
    """
    root = Path(root)
    findings: List[Finding] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent)
        findings.extend(lint_source_file(str(rel), path.read_text()))
    return findings
