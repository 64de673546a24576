"""Compiled per-design-point allocation kernels (ROADMAP: compiled backend).

At simulator construction the ``compiled`` kernel generates straight-line
Python specialized for the router's concrete configuration -- unrolled
constants for the port/VC counts, pre-resolved arbiter kinds (round-robin
pointer pokes are inlined, matrix arbiters stay method calls), baked-in
sparse VC-transition candidate tables, and the departure/event-scheduling
path from :meth:`Router._depart` fully inlined.  The generated module is
compiled once per :class:`KernelSpec` and cached process-wide; every
router sharing a design point reuses the same factory.

Bit-identity contract: the generated step replicates
:meth:`Router._allocation_step_reference` exactly -- same grants, same
arbiter state evolution, same event-list append order, and (in the
hooked variant) the same observer calls and fault counters in the same
order.  The equivalence matrix in ``tests/perf`` and
``scripts/check_bit_identity.py`` pins this contract.

Each spec renders along two independent axes.  The *profiled* variant
emits ``repro.obs.profiling`` phase marks (routing / vc_alloc /
link_traversal) inline against the profiler bound when the step was
made.  The *hooked* variant carries the observer and fault hooks --
blocked-link and stuck-VC request masking, the fault counters, the
``SimObserver`` calls -- against the observer, fault state and stuck-VC
map bound when the step was made; it skips the scalar shortcuts of the
plain render, takes the uncontested shortcut only while no observer is
attached, and never sets the stall latch while anything is attached.
The plain render carries neither.  Which variant runs is decided by
:meth:`Router._bind_step` whenever instrumentation is attached or
detached, not per cycle.  Every variant is cached per ``(spec,
profiled, hooked)`` and every one is rendered for the source linter.

The generated source is inspectable via
``scripts/check_bit_identity.py --dump-kernel DIR``.  It deliberately
imports nothing and reads no clocks or RNGs; the repo linter (``repro
lint --source``) scans the rendered templates for unseeded randomness /
wall-clock reads like any simulation-package file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .kernels import DEFAULT_KERNEL, KERNELS

__all__ = [
    "KERNELS",
    "DEFAULT_KERNEL",
    "CodegenUnsupported",
    "KernelSpec",
    "spec_for_router",
    "generate_source",
    "source_for",
    "kernel_factory",
    "template_specs",
    "iter_template_sources",
]


class CodegenUnsupported(ValueError):
    """Raised when a router configuration cannot be specialized.

    Only reachable through non-standard allocator wiring (dense VC
    allocation or the ``rotate_priority=False`` wavefront ablation);
    every configuration reachable via :class:`SimulationConfig`
    specializes.
    """


@dataclass(frozen=True)
class KernelSpec:
    """The complete design point a generated kernel is specialized for."""

    num_ports: int
    num_message_classes: int
    num_resource_classes: int
    vcs_per_class: int
    vc_arch: str
    vc_arbiter: str
    sw_arch: str
    sw_arbiter: str
    scheme: str
    lookahead: bool

    @property
    def num_vcs(self) -> int:
        return (
            self.num_message_classes
            * self.num_resource_classes
            * self.vcs_per_class
        )

    def slug(self) -> str:
        """Filesystem/display identifier for the generated module."""
        la = "la" if self.lookahead else "nola"
        return (
            f"p{self.num_ports}-m{self.num_message_classes}"
            f"r{self.num_resource_classes}c{self.vcs_per_class}"
            f"-va_{self.vc_arch}_{self.vc_arbiter}"
            f"-sa_{self.sw_arch}_{self.sw_arbiter}-{self.scheme}-{la}"
        )


def spec_for_router(router) -> KernelSpec:
    """Derive the :class:`KernelSpec` of a constructed router.

    Raises :class:`CodegenUnsupported`, naming the router and the
    offending field, for configurations the generator does not model
    (see the class docstring).
    """
    va = router.vc_alloc
    sw = router.sw_alloc
    part = router.partition
    if not va.sparse:
        raise CodegenUnsupported(
            f"router {router.id}: the compiled kernel requires sparse VC "
            "allocation, but vc_alloc.sparse is False"
        )
    ns_core = sw._nonspec_alloc
    wavefronts = [("vc_alloc", wf) for wf in va._wavefronts]
    for name in ("_nonspec_alloc", "_spec_alloc"):
        core = getattr(sw, name)
        if core is not None and core._wavefront is not None:
            wavefronts.append((f"sw_alloc.{name}", core._wavefront))
    for owner, wf in wavefronts:
        if not wf.rotate_priority:
            raise CodegenUnsupported(
                f"router {router.id}: the compiled kernel requires rotating "
                f"wavefront priority, but a {owner} wavefront has "
                "rotate_priority=False"
            )
    return KernelSpec(
        num_ports=router.num_ports,
        num_message_classes=part.num_message_classes,
        num_resource_classes=part.num_resource_classes,
        vcs_per_class=part.vcs_per_class,
        vc_arch=va.arch,
        vc_arbiter=va.arbiter_kind,
        sw_arch=sw.arch,
        sw_arbiter=ns_core.arbiter_kind,
        scheme=sw.scheme,
        lookahead=router.lookahead,
    )


def template_specs() -> Tuple[KernelSpec, ...]:
    """Representative specs covering every generator branch.

    Used by the source linter (``repro lint --source``) to scan the
    rendered templates, and by the dump/inspection tests.
    """

    def mesh(va, vaa, sa, saa, scheme, lookahead=True):
        return KernelSpec(5, 2, 1, 2, va, vaa, sa, saa, scheme, lookahead)

    return (
        mesh("sep_if", "rr", "sep_if", "rr", "pessimistic"),
        mesh("sep_of", "m", "sep_of", "m", "conventional"),
        mesh("wf", "rr", "wf", "rr", "pessimistic"),
        mesh("sep_if", "rr", "sep_if", "rr", "nonspec"),
        mesh("sep_if", "fixed", "sep_if", "fixed", "pessimistic", False),
        # fbfly-shaped point: two resource classes, non-power-of-two V.
        KernelSpec(10, 2, 2, 3, "wf", "rr", "sep_if", "rr", "pessimistic", True),
    )


class _Emitter:
    """Indentation-tracking line buffer for the generated module."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.level = 0

    def line(self, text: str = "") -> None:
        self.lines.append("    " * self.level + text if text else "")

    def push(self) -> None:
        self.level += 1

    def pop(self) -> None:
        self.level -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _idx_exprs(n: int):
    """(div, mod) expression builders for a constant divisor ``n``."""
    if n & (n - 1) == 0 and n > 0:
        shift = n.bit_length() - 1
        mask = n - 1
        if shift == 0:
            return (lambda e: f"{e}"), (lambda e: "0")
        return (lambda e: f"({e} >> {shift})"), (lambda e: f"({e} & {mask})")
    return (lambda e: f"({e} // {n})"), (lambda e: f"({e} % {n})")


class _Gen:
    """Renders the specialized step function for one :class:`KernelSpec`.

    ``profiled=True`` renders the phase-hook variant: every routing
    call, VC-allocation core and inlined departure is bracketed with
    ``_prof.begin()`` / ``_prof.phase(...)`` marks against the profiler
    bound by ``make_step``.  ``hooked=True`` renders the observer and
    fault hooks against the ``_obs`` / ``_fs`` / ``_stuck`` bindings of
    ``make_step`` (see the module docstring).  The default render
    contains neither.
    """

    def __init__(
        self, spec: KernelSpec, profiled: bool = False, hooked: bool = False
    ) -> None:
        self.spec = spec
        self.profiled = profiled
        self.hooked = hooked
        self.P = spec.num_ports
        self.V = spec.num_vcs
        self.M = spec.num_message_classes
        self.R = spec.num_resource_classes
        self.C = spec.vcs_per_class
        self.RC = self.R * self.C
        self.divV, self.modV = _idx_exprs(self.V)
        self.divRC, self.modRC = _idx_exprs(self.RC)
        self.spec_on = spec.scheme != "nonspec"
        # Request-set emptiness tests: wavefront switch cores count the
        # requests the scan wrote into their scratch arrays.
        wf = spec.sw_arch == "wf"
        self.ns_any = "_nsn" if wf else "ns_items"
        self.sp_any = "_spn" if wf else "sp_items"
        self.e = _Emitter()

    # -- phase-hook micro-ops ---------------------------------------------
    def pb(self) -> None:
        """Emit a phase-start mark (no-op in the unprofiled variant)."""
        if self.profiled:
            self.e.line("_pt_ = _prof.begin()")

    def pe(self, name: str) -> None:
        """Emit the matching phase-end attribution mark."""
        if self.profiled:
            self.e.line(f"_prof.phase({name!r}, _pt_)")

    # -- arbiter micro-ops ------------------------------------------------
    def select(self, res: str, arb: str, lst: str, kind: str) -> None:
        """Emit ``res = <kind arbiter at arb>.select_sparse(lst)``.

        ``lst`` is a non-empty ascending index list; round-robin is
        inlined as a pointer scan, matrix stays a method call, fixed
        priority folds to the first element.
        """
        e = self.e
        if kind == "rr":
            e.line(f"_sa_ = {arb}")
            e.line("_sp_ = _sa_._pointer")
            e.line(f"{res} = -1")
            e.line(f"for _sx_ in {lst}:")
            e.push()
            e.line("if _sx_ >= _sp_:")
            e.push()
            e.line(f"{res} = _sx_")
            e.line("break")
            e.pop()
            e.pop()
            e.line(f"if {res} < 0:")
            e.push()
            e.line(f"{res} = {lst}[0]")
            e.pop()
        elif kind == "fixed":
            e.line(f"{res} = {lst}[0]")
        else:
            e.line(f"{res} = {arb}.select_sparse({lst})")

    def advance(self, arb: str, winner: str, n: int, kind: str) -> None:
        """Emit the priority update of ``arb`` (an ``n``-input arbiter)."""
        e = self.e
        if kind == "rr":
            e.line(f"_aa_ = {arb}")
            e.line(f"_aw_ = {winner} + 1")
            e.line(f"_aa_._pointer = _aw_ if _aw_ < {n} else 0")
        elif kind == "m":
            e.line(f"{arb}.advance({winner})")
        # fixed: advance is validation-only (no state).

    def tree_advance(self, out: str, winner: str) -> None:
        """Emit ``_va_out_arbs[out].advance(winner)`` (P*V tree arbiter)."""
        e = self.e
        kind = self.spec.vc_arbiter
        if kind == "rr":
            e.line(f"_aa_ = _va_out_groups[{out}][{self.divV(winner)}]")
            e.line(f"_aw_ = {self.modV(winner)} + 1")
            e.line(f"_aa_._pointer = _aw_ if _aw_ < {self.V} else 0")
            e.line(f"_aa_ = _va_out_tops[{out}]")
            e.line(f"_aw_ = {self.divV(winner)} + 1")
            e.line(f"_aa_._pointer = _aw_ if _aw_ < {self.P} else 0")
        elif kind == "m":
            e.line(f"_va_out_arbs[{out}].advance({winner})")

    # -- grant bookkeeping ------------------------------------------------
    def va_commit(self, flat: str, q: str, u: str) -> None:
        """Emit the router-side commit of one VC grant (fused: the
        reference kernel commits after switch allocation, but switch
        allocation reads neither the input-VC records nor the output
        holders, so committing at grant time is behavior-identical)."""
        e = self.e
        e.line(f"_gi_ = _ivc_flat[{flat}]")
        e.line(f"_gi_.output_port = {q}")
        e.line(f"_gi_.output_vc = {u}")
        e.line(f"_holder[{q}][{u}] = ({self.divV(flat)}, {self.modV(flat)})")
        if self.spec_on or self.hooked:
            e.line(f"granted_now[{flat}] = ({q}, {u})")

    def depart(self, p: str, v: str, observed: bool = False) -> None:
        """Emit the inlined body of :meth:`Router._depart` for ``(p, v)``.

        Requires ``_fev``/``_cev``/``_sg`` in scope; event-list append
        order is exactly the reference kernel's (callers iterate
        departures in the same ascending-port order).  ``observed``
        appends the ``flit_departed`` observer call (hooked render).
        """
        e = self.e
        self.pb()
        e.line(f"_pv_ = {p} * {self.V} + {v}")
        e.line("_di_ = _ivc_flat[_pv_]")
        e.line("_dq_ = _di_.output_port")
        e.line("_du_ = _di_.output_vc")
        e.line("_dqu_ = _di_.queue")
        e.line("_fl_ = _dqu_.pop(0)")
        e.line("if _fl_.is_tail:")
        e.push()
        e.line("_di_.output_port = -1")
        e.line("_di_.output_vc = -1")
        e.line("_holder[_dq_][_du_] = None")
        e.pop()
        e.line("if not _dqu_:")
        e.push()
        e.line("_busy_discard(_pv_)")
        e.pop()
        e.line("_sg += 1")
        e.line("_port_flits[_dq_] += 1")
        e.line("_credits[_dq_][_du_] -= 1")
        e.line("_when_ = now + _out_del[_dq_]")
        e.line("_lst_ = _fev.get(_when_)")
        e.line("if _lst_ is None:")
        e.push()
        e.line("_fev[_when_] = [_out_pre[_dq_] + (_du_, _fl_)]")
        e.pop()
        e.line("else:")
        e.push()
        e.line("_lst_.append(_out_pre[_dq_] + (_du_, _fl_))")
        e.pop()
        e.line(f"_cp_ = _up_pre[{p}]")
        e.line("if _cp_ is not None:")
        e.push()
        e.line(f"_when_ = now + _up_del[{p}]")
        e.line("_lst_ = _cev.get(_when_)")
        e.line("if _lst_ is None:")
        e.push()
        e.line(f"_cev[_when_] = [_cp_ + ({v},)]")
        e.pop()
        e.line("else:")
        e.push()
        e.line(f"_lst_.append(_cp_ + ({v},))")
        e.pop()
        e.pop()
        if observed:
            e.line("if _obs is not None:")
            e.push()
            e.line(f"_obs.flit_departed(_rid, {p}, {v}, _dq_, _du_, _fl_, now)")
            e.pop()
        self.pe("link_traversal")

    # -- switch-allocator cores -------------------------------------------
    def sw_core(self, items: str, pfx: str, commit: bool,
                store: Callable[[str, str, str], None]) -> None:
        """Emit one switch-allocator core over ``items``.

        ``pfx`` selects the arbiter closure set (``_sa`` / ``_sp``);
        ``commit`` applies priority updates at grant time (the staged
        variant leaves them to the speculative mask loop, which replays
        exactly the updates :meth:`SwitchAllocator.commit` would);
        ``store(p, v, q)`` emits the grant bookkeeping.
        """
        arch, kind = self.spec.sw_arch, self.spec.sw_arbiter
        e = self.e
        if arch == "sep_if":
            self._sw_sep_if(items, pfx, kind, commit, store)
        elif arch == "sep_of":
            self._sw_sep_of(items, pfx, kind, commit, store)
        else:
            self._sw_wf(items, pfx, kind, commit, store)

    def _sw_adv(self, pfx: str, kind: str, v: str, p: str, q: str) -> None:
        self.advance(f"{pfx}_vc_arbs[{p}]", v, self.V, kind)
        if self.spec.sw_arch != "wf":
            self.advance(f"{pfx}_port_arbs[{q}]", p, self.P, kind)

    def _sw_sep_if(self, items, pfx, kind, commit, store):
        e = self.e
        e.line(f"_n = len({items})")
        e.line("if _n == 1:")
        e.push()
        e.line(f"_p, _v, _q = {items}[0]")
        store("_p", "_v", "_q")
        if commit:
            self._sw_adv(pfx, kind, "_v", "_p", "_q")
        e.pop()
        e.line("else:")
        e.push()
        e.line("by_out = {}")
        e.line("bid_vc = {}")
        e.line("_i = 0")
        e.line("while _i < _n:")
        e.push()
        e.line(f"_t = {items}[_i]")
        e.line("_p = _t[0]")
        e.line("_v = _t[1]")
        e.line("_q = _t[2]")
        e.line("_j = _i + 1")
        e.line(f"if _j < _n and {items}[_j][0] == _p:")
        e.push()
        e.line("_vs = [_v]")
        e.line("_qs = [_q]")
        e.line(f"while _j < _n and {items}[_j][0] == _p:")
        e.push()
        e.line(f"_t = {items}[_j]")
        e.line("_vs.append(_t[1])")
        e.line("_qs.append(_t[2])")
        e.line("_j += 1")
        e.pop()
        self.select("_v", f"{pfx}_vc_arbs[_p]", "_vs", kind)
        e.line("_q = _qs[_vs.index(_v)]")
        e.pop()
        e.line("bid_vc[_p] = _v")
        e.line("_lst = by_out.get(_q)")
        e.line("if _lst is None:")
        e.push()
        e.line("by_out[_q] = [_p]")
        e.pop()
        e.line("else:")
        e.push()
        e.line("_lst.append(_p)")
        e.pop()
        e.line("_i = _j")
        e.pop()
        e.line("for _q, _ports in by_out.items():")
        e.push()
        e.line("if len(_ports) == 1:")
        e.push()
        e.line("_w = _ports[0]")
        e.pop()
        e.line("else:")
        e.push()
        self.select("_w", f"{pfx}_port_arbs[_q]", "_ports", kind)
        e.pop()
        e.line("_v = bid_vc[_w]")
        store("_w", "_v", "_q")
        if commit:
            self._sw_adv(pfx, kind, "_v", "_w", "_q")
        e.pop()
        e.pop()

    def _sw_sep_of(self, items, pfx, kind, commit, store):
        e = self.e
        e.line("cols = {}")
        e.line("rowsd = {}")
        e.line(f"for _p, _v, _q in {items}:")
        e.push()
        e.line("_row = rowsd.get(_p)")
        e.line("if _row is None:")
        e.push()
        e.line("rowsd[_p] = [(_v, _q)]")
        e.pop()
        e.line("else:")
        e.push()
        e.line("_row.append((_v, _q))")
        e.pop()
        e.line("_col = cols.get(_q)")
        e.line("if _col is None:")
        e.push()
        e.line("cols[_q] = [_p]")
        e.pop()
        e.line("elif _col[-1] != _p:")
        e.push()
        e.line("_col.append(_p)")
        e.pop()
        e.pop()
        e.line("offers = {}")
        e.line("for _q, _ports in cols.items():")
        e.push()
        e.line("if len(_ports) == 1:")
        e.push()
        e.line("offers[_q] = _ports[0]")
        e.pop()
        e.line("else:")
        e.push()
        self.select("_w", f"{pfx}_port_arbs[_q]", "_ports", kind)
        e.line("offers[_q] = _w")
        e.pop()
        e.pop()
        e.line("for _p, _row in rowsd.items():")
        e.push()
        e.line("_vs = [_vv for _vv, _qq in _row if offers.get(_qq) == _p]")
        e.line("if not _vs:")
        e.push()
        e.line("continue")
        e.pop()
        e.line("if len(_vs) == 1:")
        e.push()
        e.line("_v = _vs[0]")
        e.pop()
        e.line("else:")
        e.push()
        self.select("_v", f"{pfx}_vc_arbs[_p]", "_vs", kind)
        e.pop()
        e.line("for _vv, _qq in _row:")
        e.push()
        e.line("if _vv == _v:")
        e.push()
        e.line("_q = _qq")
        e.line("break")
        e.pop()
        e.pop()
        store("_p", "_v", "_q")
        if commit:
            self._sw_adv(pfx, kind, "_v", "_p", "_q")
        e.pop()

    def _sw_wf(self, items, pfx, kind, commit, store):
        # Consumes the scratch arrays the busy scan filled (per-port VC
        # bitmasks + per-VC requested outputs) instead of request-tuple
        # lists; ``items`` is unused.  The scratch is cleared on exit.
        e = self.e
        P, V = self.P, self.V
        vb = "_nsvb" if pfx == "_sa" else "_spvb"
        qa = "_nsq" if pfx == "_sa" else "_spq"
        # Wave-ordered sweep as one flat integer sort: each distinct
        # (input, output) request packs to ``wave << 2b | p << b | q``,
        # so an int sort visits requests by (wave, p, q) -- exactly the
        # stable wave-bucket order of the interpreted allocator.
        qb = max(1, (P - 1).bit_length())
        e.line(f"_start = {pfx}_wf._diagonal")
        e.line("_enc = []")
        e.line("_encap = _enc.append")
        e.line(f"for _p in range({P}):")
        e.push()
        e.line(f"_m = {vb}[_p]")
        e.line("if not _m:")
        e.push()
        e.line("continue")
        e.pop()
        e.line(f"_pb = _p * {V}")
        e.line("_qm = 0")
        e.line("while _m:")
        e.push()
        e.line("_low = _m & -_m")
        e.line("_m -= _low")
        e.line(f"_q = {qa}[_pb + _low.bit_length() - 1]")
        e.line("_b = 1 << _q")
        e.line("if not _qm & _b:")
        e.push()
        e.line("_qm |= _b")
        e.line(
            f"_encap((((_p + _q - _start) % {P}) << {2 * qb})"
            f" | (_p << {qb}) | _q)"
        )
        e.pop()
        e.pop()
        e.pop()
        e.line("_enc.sort()")
        e.line("_ru = 0")
        e.line("_cu = 0")
        e.line("for _k in _enc:")
        e.push()
        e.line(f"_p = (_k >> {qb}) & {(1 << qb) - 1}")
        e.line(f"_q = _k & {(1 << qb) - 1}")
        e.line("if (_ru >> _p) & 1 or (_cu >> _q) & 1:")
        e.push()
        e.line("continue")
        e.pop()
        e.line("_ru |= 1 << _p")
        e.line("_cu |= 1 << _q")
        e.line(f"_m = {vb}[_p]")
        e.line("if _m & (_m - 1):")
        e.push()
        # Multi-VC port: gather the VCs requesting ``_q`` in ascending
        # order (the order the scan appended them in).
        e.line(f"_pb = _p * {V}")
        e.line("_vs = []")
        e.line("while _m:")
        e.push()
        e.line("_low = _m & -_m")
        e.line("_m -= _low")
        e.line("_vv = _low.bit_length() - 1")
        e.line(f"if {qa}[_pb + _vv] == _q:")
        e.push()
        e.line("_vs.append(_vv)")
        e.pop()
        e.pop()
        e.line("if len(_vs) == 1:")
        e.push()
        e.line("_v = _vs[0]")
        e.pop()
        e.line("else:")
        e.push()
        self.select("_v", f"{pfx}_vc_arbs[_p]", "_vs", kind)
        e.pop()
        e.pop()
        e.line("else:")
        e.push()
        e.line("_v = _m.bit_length() - 1")
        e.pop()
        store("_p", "_v", "_q")
        if commit:
            self.advance(f"{pfx}_vc_arbs[_p]", "_v", self.V, kind)
        e.pop()
        e.line(f"{pfx}_wf._diagonal = (_start + 1) % {P}")
        e.line(f"{vb}[:] = _ZP")

    # -- VC-allocator cores -----------------------------------------------
    def va_core(self) -> None:
        arch = self.spec.vc_arch
        if arch == "sep_if":
            self._va_sep_if()
        elif arch == "sep_of":
            self._va_sep_of()
        else:
            self._va_wf()

    def _va_stage1_pick(self, res: str, i: str, cands: str) -> None:
        e = self.e
        e.line(f"if len({cands}) == 1:")
        e.push()
        e.line(f"{res} = {cands}[0]")
        e.pop()
        e.line("else:")
        e.push()
        self.select(res, f"_va_in_arbs[{i}]", cands, self.spec.vc_arbiter)
        e.pop()

    def _va_sep_if(self) -> None:
        e = self.e
        kind = self.spec.vc_arbiter
        V = self.V
        e.line("if len(va_items) == 1:")
        e.push()
        e.line("_t = va_items[0]")
        e.line("_i = _t[0]")
        e.line("_q = _t[1]")
        e.line("_cands = _t[2]")
        self._va_stage1_pick("_c", "_i", "_cands")
        self.advance("_va_in_arbs[_i]", "_c", V, kind)
        e.line(f"_b = _q * {V} + _c")
        self.tree_advance("_b", "_i")
        self.va_commit("_i", "_q", "_c")
        e.pop()
        e.line("else:")
        e.push()
        e.line("vbid = {}")
        e.line("for _i, _q, _cands in va_items:")
        e.push()
        self._va_stage1_pick("_c", "_i", "_cands")
        e.line(f"_b = _q * {V} + _c")
        e.line("_lst = vbid.get(_b)")
        e.line("if _lst is None:")
        e.push()
        e.line("vbid[_b] = [_i]")
        e.pop()
        e.line("else:")
        e.push()
        e.line("_lst.append(_i)")
        e.pop()
        e.pop()
        e.line("for _b, _who in vbid.items():")
        e.push()
        e.line("if len(_who) == 1:")
        e.push()
        e.line("_w = _who[0]")
        e.pop()
        e.line("else:")
        e.push()
        e.line("_w = _va_out_arbs[_b].select_sparse(_who)")
        e.pop()
        e.line(f"_q = {self.divV('_b')}")
        e.line(f"_c = {self.modV('_b')}")
        self.advance("_va_in_arbs[_w]", "_c", V, kind)
        self.tree_advance("_b", "_w")
        self.va_commit("_w", "_q", "_c")
        e.pop()
        e.pop()

    def _va_sep_of(self) -> None:
        e = self.e
        V = self.V
        e.line("vreq = {}")
        e.line("for _i, _q, _cands in va_items:")
        e.push()
        e.line(f"_base = _q * {V}")
        e.line("for _c in _cands:")
        e.push()
        e.line("_o = _base + _c")
        e.line("_lst = vreq.get(_o)")
        e.line("if _lst is None:")
        e.push()
        e.line("vreq[_o] = [_i]")
        e.pop()
        e.line("else:")
        e.push()
        e.line("_lst.append(_i)")
        e.pop()
        e.pop()
        e.pop()
        e.line("voff = {}")
        e.line("for _o, _who in vreq.items():")
        e.push()
        e.line("if len(_who) == 1:")
        e.push()
        e.line("voff[_o] = _who[0]")
        e.pop()
        e.line("else:")
        e.push()
        e.line("voff[_o] = _va_out_arbs[_o].select_sparse(_who)")
        e.pop()
        e.pop()
        e.line("for _i, _q, _cands in va_items:")
        e.push()
        e.line(f"_base = _q * {V}")
        e.line("_off = [_c for _c in _cands if voff.get(_base + _c) == _i]")
        e.line("if not _off:")
        e.push()
        e.line("continue")
        e.pop()
        e.line("if len(_off) == 1:")
        e.push()
        e.line("_c = _off[0]")
        e.pop()
        e.line("else:")
        e.push()
        self.select("_c", "_va_in_arbs[_i]", "_off", self.spec.vc_arbiter)
        e.pop()
        self.advance("_va_in_arbs[_i]", "_c", V, self.spec.vc_arbiter)
        e.line("_o = _base + _c")
        self.tree_advance("_o", "_i")
        self.va_commit("_i", "_q", "_c")
        e.pop()

    def _va_wf(self) -> None:
        e = self.e
        M, V, RC = self.M, self.V, self.RC
        S = self.P * RC
        # Flat integer sort per message-class block, packing each
        # (input row, output column) request as ``wave << 2b | a << b | c``
        # so one int sort reproduces the stable wave-bucket order of the
        # interpreted wavefront (see _sw_wf).
        sb = max(1, (S - 1).bit_length())
        smask = (1 << sb) - 1

        def _sweep(i_expr: str, c_expr: str) -> None:
            e.line("_enc.sort()")
            e.line("_ru = 0")
            e.line("_cu = 0")
            e.line("for _k in _enc:")
            e.push()
            e.line(f"_a = (_k >> {sb}) & {smask}")
            e.line(f"_cc = _k & {smask}")
            e.line("if (_ru >> _a) & 1 or (_cu >> _cc) & 1:")
            e.push()
            e.line("continue")
            e.pop()
            e.line("_ru |= 1 << _a")
            e.line("_cu |= 1 << _cc")
            e.line(f"_i = {i_expr}")
            e.line(f"_c = {c_expr}")
            e.line(f"_q = {self.divRC('_cc')}")
            self.va_commit("_i", "_q", "_c")
            e.pop()

        enc_expr = (
            f"_encap((((_a + _cc - _start) % {S}) << {2 * sb})"
            f" | (_a << {sb}) | _cc)"
        )
        if M == 1:
            e.line("_wfo = _va_wfs[0]")
            e.line("_start = _wfo._diagonal")
            e.line("_enc = []")
            e.line("_encap = _enc.append")
            e.line("for _i, _q, _cands in va_items:")
            e.push()
            e.line(f"_a = {self.divV('_i')} * {RC} + {self.modV('_i')}")
            e.line(f"_cb = _q * {RC}")
            e.line("for _c in _cands:")
            e.push()
            e.line(f"_cc = _cb + {self.modRC('_c')}")
            e.line(enc_expr)
            e.pop()
            e.pop()
            # va_items entries always carry candidates, so the block is
            # non-empty and the diagonal rotates unconditionally.
            _sweep(
                f"{self.divRC('_a')} * {V} + {self.modRC('_a')}",
                self.modRC("_cc"),
            )
            e.line(f"_wfo._diagonal = (_start + 1) % {S}")
        else:
            e.line(f"_encs = [[] for _b in range({M})]")
            e.line("_starts = [_w._diagonal for _w in _va_wfs]")
            e.line("for _i, _q, _cands in va_items:")
            e.push()
            e.line(f"_iv = {self.modV('_i')}")
            e.line(f"_b = {self.divRC('_iv')}")
            e.line(f"_a = {self.divV('_i')} * {RC} + {self.modRC('_iv')}")
            e.line(f"_cb = _q * {RC}")
            e.line("_start = _starts[_b]")
            e.line("_encap = _encs[_b].append")
            e.line("for _c in _cands:")
            e.push()
            e.line(f"_cc = _cb + {self.modRC('_c')}")
            e.line(enc_expr)
            e.pop()
            e.pop()
            e.line(f"for _b in range({M}):")
            e.push()
            e.line("_enc = _encs[_b]")
            e.line("if not _enc:")
            e.push()
            e.line("continue")
            e.pop()
            _sweep(
                f"{self.divRC('_a')} * {V} + _b * {RC} + {self.modRC('_a')}",
                f"_b * {RC} + {self.modRC('_cc')}",
            )
            e.line(f"_va_wfs[_b]._diagonal = (_starts[_b] + 1) % {S}")
            e.pop()

    # -- whole-module rendering -------------------------------------------
    def render(self) -> str:
        spec = self.spec
        e = self.e
        P, V, M, R, C = self.P, self.V, self.M, self.R, self.C
        e.line(f'"""Generated allocation kernel: {spec.slug()}.')
        e.line("")
        e.line("Auto-generated by repro.netsim.codegen -- do not edit.")
        e.line(f"Specialized for P={P}, V={V} (M={M}, R={R}, C={C}),")
        e.line(
            f"VA={spec.vc_arch}/{spec.vc_arbiter}, "
            f"SA={spec.sw_arch}/{spec.sw_arbiter}, "
            f"scheme={spec.scheme}, lookahead={spec.lookahead}."
        )
        if self.profiled:
            e.line("Profiled variant: emits repro.obs.profiling phase hooks.")
        if self.hooked:
            e.line("Hooked variant: emits observer and fault hooks.")
        e.line('"""')
        e.line("")
        cands = tuple(
            tuple(range((m * R + r) * C, (m * R + r) * C + C))
            for m in range(M)
            for r in range(R)
        )
        e.line(f"_CANDS = {cands!r}")
        e.line("")
        e.line("")
        e.line("def make_step(router):")
        e.push()
        self._emit_bindings()
        e.line("")
        e.line("def step(network, now):")
        e.push()
        self._emit_step_body()
        e.pop()
        e.line("")
        e.line("return step")
        e.pop()
        return e.source()

    def _emit_bindings(self) -> None:
        e = self.e
        spec = self.spec
        e.line("if (")
        e.push()
        e.line(f"router.num_ports != {self.P}")
        e.line(f"or router.num_vcs != {self.V}")
        e.line(f"or router.vc_alloc.arch != {spec.vc_arch!r}")
        e.line(f"or router.vc_alloc.arbiter_kind != {spec.vc_arbiter!r}")
        e.line("or not router.vc_alloc.sparse")
        e.line(f"or router.sw_alloc.arch != {spec.sw_arch!r}")
        e.line(f"or router.sw_alloc.scheme != {spec.scheme!r}")
        e.line(
            "or router.sw_alloc._nonspec_alloc.arbiter_kind != "
            f"{spec.sw_arbiter!r}"
        )
        e.line(f"or bool(router.lookahead) is not {spec.lookahead!r}")
        e.pop()
        e.line("):")
        e.push()
        e.line('raise ValueError("router does not match compiled kernel spec")')
        e.pop()
        e.line("_router = router")
        e.line("_busy = router._busy")
        e.line("_busy_discard = _busy.discard")
        e.line("_ivc_flat = router._ivc_flat")
        e.line("_credits = router.credits")
        e.line("_holder = router.output_holder")
        # The router's pre-split link tables (event-tuple prefixes and
        # landing delays), filled in place as the topology is wired.
        e.line("_out_pre = router._out_pre")
        e.line("_out_del = router._out_del")
        e.line("_up_pre = router._up_pre")
        e.line("_up_del = router._up_del")
        if self.profiled:
            e.line("_prof = router.profiler")
        if self.hooked:
            # Bound once: Router._bind_step makes a new step whenever an
            # observer or fault state is attached or detached.
            e.line("_rid = router.id")
            e.line("_obs = router.observer")
            e.line("_fs = router.fault_state")
            e.line("_stuck = router._stuck_by_port")
        e.line("_port_flits = router.port_flits")
        e.line("_sa = router.sw_alloc._nonspec_alloc")
        e.line("_sa_vc_arbs = _sa._vc_arbs")
        if spec.sw_arch == "wf":
            e.line("_sa_wf = _sa._wavefront")
        else:
            e.line("_sa_port_arbs = _sa._port_arbs")
        if self.spec_on:
            e.line("_sp = router.sw_alloc._spec_alloc")
            e.line("_sp_vc_arbs = _sp._vc_arbs")
            if spec.sw_arch == "wf":
                e.line("_sp_wf = _sp._wavefront")
            else:
                e.line("_sp_port_arbs = _sp._port_arbs")
        e.line("_va = router.vc_alloc")
        if spec.vc_arch == "wf":
            e.line("_va_wfs = _va._wavefronts")
        else:
            e.line("_va_in_arbs = _va._input_arbs")
            e.line("_va_out_arbs = _va._output_arbs")
            if spec.vc_arbiter == "rr":
                e.line("_va_out_groups = [_t._group_arbs for _t in _va_out_arbs]")
                e.line("_va_out_tops = [_t._top_arb for _t in _va_out_arbs]")
        # Persistent scratch for the generic path (allocated once per
        # closure, reset by the code paths that populate them): per-port
        # grant slots, and for wavefront switch cores the per-port VC
        # bitmasks / per-VC output requests the busy scan fills in place
        # of request-tuple lists.
        e.line(f"_nsg = [-1] * {self.P}")
        if self.spec_on:
            e.line(f"_spg = [None] * {self.P}")
        if spec.sw_arch == "wf":
            e.line(f"_ZP = (0,) * {self.P}")
            e.line(f"_nsvb = [0] * {self.P}")
            e.line(f"_nsq = [0] * {self.P * self.V}")
            if self.spec_on:
                e.line(f"_spvb = [0] * {self.P}")
                e.line(f"_spq = [0] * {self.P * self.V}")

    # -- per-cycle step body ----------------------------------------------
    def _emit_step_body(self) -> None:
        if not self.hooked:
            self._emit_scalar_paths()
        self._emit_scan()
        self._emit_uncontested()
        self._emit_contested()

    def _emit_scalar_paths(self) -> None:
        """Emit the shortcuts for one, two and three-or-more busy VCs
        ahead of the generic scan (plain and profiled renders only: they
        carry no hook sites)."""
        e = self.e
        spec = self.spec
        # Scalar fast path for the dominant cycle shape: exactly one busy
        # VC that already holds an output VC.  No sorting and no request
        # lists -- grant, depart and return with plain locals.  A waiting
        # head (VA needed) falls through to the generic path below.
        e.line("_nb = len(_busy)")
        e.line("if _nb == 1:")
        e.push()
        e.line("for _pv in _busy:")
        e.push()
        e.line("break")
        e.pop()
        e.line("_ivc = _ivc_flat[_pv]")
        e.line("_u = _ivc.output_vc")
        e.line("if _u >= 0:")
        e.push()
        e.line("_q = _ivc.output_port")
        e.line("if _credits[_q][_u] > 0:")
        e.push()
        e.line(f"_p = {self.divV('_pv')}")
        e.line(f"_v = {self.modV('_pv')}")
        self._scalar_ns_grant()
        e.line("_router.switch_grants += _sg")
        e.pop()
        e.line("else:")
        e.push()
        # Zero requests this cycle -- same idle latch as the generic
        # scan's empty case (the lone VC is stalled on credits).
        e.line("_router._alloc_idle = True")
        e.pop()
        e.line("return")
        e.pop()
        self._scalar_single_waiting()
        e.pop()
        # Two busy VCs, both already holding output VCs: the common
        # streaming shape.  Conflicting or mixed shapes fall through to
        # the generic scan below.
        e.line("elif _nb == 2:")
        e.push()
        e.line("_pv = min(_busy)")
        e.line("_pv2 = max(_busy)")
        e.line("_ivc = _ivc_flat[_pv]")
        e.line("_u = _ivc.output_vc")
        e.line("_ivc2 = _ivc_flat[_pv2]")
        e.line("_u2 = _ivc2.output_vc")
        e.line("if _u >= 0 and _u2 >= 0:")
        e.push()
        e.line("_q = _ivc.output_port")
        e.line("_q2 = _ivc2.output_port")
        e.line("if _credits[_q][_u] > 0:")
        e.push()
        e.line("if _credits[_q2][_u2] > 0:")
        e.push()
        e.line(f"_p = {self.divV('_pv')}")
        e.line(f"_p2 = {self.divV('_pv2')}")
        e.line("if _p != _p2 and _q != _q2:")
        e.push()
        # _pv < _pv2 and distinct ports imply _p < _p2: grant/depart
        # order matches the generic uncontested loop.
        e.line(f"_v = {self.modV('_pv')}")
        self._scalar_ns_grant(rotate=False)
        e.line("_p = _p2")
        e.line("_q = _q2")
        e.line(f"_v = {self.modV('_pv2')}")
        self._scalar_ns_grant(bind_events=False, rotate=False)
        if spec.sw_arch == "wf":
            e.line(f"_sa_wf._diagonal = (_sa_wf._diagonal + 1) % {self.P}")
        e.line("_router.switch_grants += _sg")
        e.line("return")
        e.pop()
        e.pop()
        e.line("else:")
        e.push()
        e.line(f"_p = {self.divV('_pv')}")
        e.line(f"_v = {self.modV('_pv')}")
        self._scalar_ns_grant()
        e.line("_router.switch_grants += _sg")
        e.line("return")
        e.pop()
        e.pop()
        e.line("elif _credits[_q2][_u2] > 0:")
        e.push()
        e.line("_q = _q2")
        e.line(f"_p = {self.divV('_pv2')}")
        e.line(f"_v = {self.modV('_pv2')}")
        self._scalar_ns_grant()
        e.line("_router.switch_grants += _sg")
        e.line("return")
        e.pop()
        e.line("else:")
        e.push()
        e.line("_router._alloc_idle = True")
        e.line("return")
        e.pop()
        e.pop()
        # One active + one waiting head: the other common streaming
        # shape (a head arrives behind an in-flight packet).
        e.line("elif _u >= 0:")
        e.push()
        self._scalar_mixed("_pv", "_ivc", "_u", "_pv2", "_ivc2")
        e.pop()
        e.line("elif _u2 >= 0:")
        e.push()
        self._scalar_mixed("_pv2", "_ivc2", "_u2", "_pv", "_ivc")
        e.pop()
        e.pop()
        # Three or more busy VCs, all holding output VCs with credit and
        # pairwise-distinct input and output ports: row- and
        # column-disjoint requests cannot knock each other out in any of
        # the three architectures, so every request is granted -- commit
        # straight off the sorted busy list with no scratch fills and no
        # wave sort.  Ascending _pv order is ascending port order here
        # (ports are distinct), matching the generic uncontested loop's
        # grant, departure and event-append order.  Any waiting head,
        # credit stall or port conflict breaks out to the generic scan.
        e.line("else:")
        e.push()
        e.line("_pvs = sorted(_busy)")
        e.line("_ins = 0")
        e.line("_outs = 0")
        e.line("for _pv in _pvs:")
        e.push()
        e.line("_ivc = _ivc_flat[_pv]")
        e.line("_u = _ivc.output_vc")
        e.line("if _u < 0:")
        e.push()
        e.line("break")
        e.pop()
        e.line("_q = _ivc.output_port")
        e.line("if _credits[_q][_u] <= 0:")
        e.push()
        e.line("break")
        e.pop()
        e.line(f"_b = 1 << {self.divV('_pv')}")
        e.line("if _ins & _b:")
        e.push()
        e.line("break")
        e.pop()
        e.line("_ins |= _b")
        e.line("_b = 1 << _q")
        e.line("if _outs & _b:")
        e.push()
        e.line("break")
        e.pop()
        e.line("_outs |= _b")
        e.pop()
        e.line("else:")
        e.push()
        e.line("_fev = network._flit_events")
        e.line("_cev = network._credit_events")
        e.line("_sg = 0")
        e.line("for _pv in _pvs:")
        e.push()
        e.line(f"_p = {self.divV('_pv')}")
        e.line(f"_v = {self.modV('_pv')}")
        self.advance("_sa_vc_arbs[_p]", "_v", self.V, spec.sw_arbiter)
        if spec.sw_arch != "wf":
            e.line("_q = _ivc_flat[_pv].output_port")
            self.advance("_sa_port_arbs[_q]", "_p", self.P, spec.sw_arbiter)
        self.depart("_p", "_v")
        e.pop()
        if spec.sw_arch == "wf":
            e.line(f"_sa_wf._diagonal = (_sa_wf._diagonal + 1) % {self.P}")
        e.line("_router.switch_grants += _sg")
        e.line("return")
        e.pop()
        e.pop()

    def _emit_scan(self) -> None:
        """Emit the generic busy-VC scan that builds the request sets,
        and the zero-request return."""
        e = self.e
        spec = self.spec
        hooked = self.hooked
        if hooked:
            e.line("if _fs is not None:")
            e.push()
            e.line("_blocked = _fs.blocked_ports(_rid, now)")
            e.pop()
            e.line("else:")
            e.push()
            e.line("_blocked = None")
            e.pop()
        wf = spec.sw_arch == "wf"
        if wf:
            # Wavefront cores consume the scratch arrays directly; the
            # scan fills them in place of request-tuple lists.
            e.line("_nsn = 0")
            if self.spec_on:
                e.line("_spn = 0")
        else:
            e.line("ns_items = []")
            if self.spec_on:
                e.line("sp_items = []")
        e.line("va_items = []")
        # Observed cycles always take the contested path, whose observer
        # calls count every request and grant.
        e.line("uncontested = _obs is None" if hooked else "uncontested = True")
        e.line("prev_p = -1")
        e.line("out_seen = 0")
        if self.spec_on and spec.scheme == "pessimistic":
            e.line("ns_in = 0")
        if not spec.lookahead:
            e.line("did_route = False")
        e.line("for _pv in sorted(_busy):")
        e.push()
        e.line("_ivc = _ivc_flat[_pv]")
        e.line("_u = _ivc.output_vc")
        e.line("if _u >= 0:")
        e.push()
        e.line("_q = _ivc.output_port")
        if hooked:
            self._blocked_skip()
        e.line("if _credits[_q][_u] > 0:")
        e.push()
        e.line(f"_p = {self.divV('_pv')}")
        if wf:
            e.line(f"_nsvb[_p] |= 1 << {self.modV('_pv')}")
            e.line("_nsq[_pv] = _q")
            e.line("_nsn += 1")
        else:
            e.line(f"ns_items.append((_p, {self.modV('_pv')}, _q))")
        e.line("if _p == prev_p or (out_seen >> _q) & 1:")
        e.push()
        e.line("uncontested = False")
        e.pop()
        e.line("prev_p = _p")
        e.line("out_seen |= 1 << _q")
        if self.spec_on and spec.scheme == "pessimistic":
            e.line("ns_in |= 1 << _p")
        e.pop()
        if hooked:
            e.line("elif _obs is not None:")
            e.push()
            e.line("_obs.credit_stall(_rid, _q, _u)")
            e.pop()
        e.pop()
        e.line("else:")
        e.push()
        e.line("_front = _ivc.queue[0]")
        e.line("if not _front.is_head:")
        e.push()
        e.line("continue")
        e.pop()
        e.line("_q = _front.out_port")
        if not spec.lookahead:
            e.line("if _q < 0:")
            e.push()
            self.pb()
            e.line("_front.out_port = _router.route_fn(network, _router, _front.packet)")
            self.pe("routing")
            e.line("did_route = True")
            e.line("continue")
            e.pop()
        if hooked:
            self._blocked_skip()
        e.line("_pkt = _front.packet")
        e.line("_h = _holder[_q]")
        if self.M == 1 and self.R == 1:
            cands_src = repr(tuple(range(self.C)))
        elif self.R == 1:
            cands_src = "_CANDS[_pkt.message_class]"
        else:
            cands_src = f"_CANDS[_pkt.message_class * {self.R} + _pkt.resource_class]"
        e.line(f"_cands = [_w for _w in {cands_src} if _h[_w] is None]")
        if hooked:
            # Stuck VCs leave the candidate set; the map lists every
            # stuck VC, vc_stuck() applies its start cycle.
            e.line("if _stuck is not None and _cands:")
            e.push()
            e.line("_sh = _stuck.get(_q)")
            e.line("if _sh:")
            e.push()
            e.line(
                "_kept = [_w for _w in _cands"
                " if _w not in _sh or not _fs.vc_stuck(_rid, _q, _w, now)]"
            )
            e.line('_fs.counters["stuck_vc_masked"] += len(_cands) - len(_kept)')
            e.line("_cands = _kept")
            e.pop()
            e.pop()
        e.line("if _cands:")
        e.push()
        e.line("va_items.append((_pv, _q, _cands))")
        if self.spec_on:
            if wf:
                e.line(f"_spvb[{self.divV('_pv')}] |= 1 << {self.modV('_pv')}")
                e.line("_spq[_pv] = _q")
                e.line("_spn += 1")
            else:
                e.line(f"sp_items.append(({self.divV('_pv')}, {self.modV('_pv')}, _q))")
        e.line("uncontested = False")
        e.pop()
        if hooked:
            e.line("elif _obs is not None:")
            e.push()
            e.line("_obs.vc_starved(_rid, _q)")
            e.pop()
        e.pop()
        e.pop()
        # Zero requests: latch the stall (the speculative set is
        # non-empty exactly when va_items is).  Only a router with
        # nothing attached may latch: an observer expects its per-cycle
        # stall events, and a link fault can lift while the router idles.
        waiting = self.sp_any if self.spec_on else "va_items"
        e.line(f"if not {self.ns_any} and not {waiting}:")
        e.push()
        latch = []
        if hooked:
            latch.append("_obs is None and _fs is None")
        if not spec.lookahead:
            latch.append("not did_route")
        if latch:
            e.line(f"if {' and '.join(latch)}:")
            e.push()
        e.line("_router._alloc_idle = True")
        if latch:
            e.pop()
        e.line("return")
        e.pop()

    def _blocked_skip(self) -> None:
        """Emit the hooked scan's downed-link check on ``_q``: the flit
        waits in place and the fault state counts the held request."""
        e = self.e
        e.line("if _blocked is not None and _q in _blocked:")
        e.push()
        e.line('_fs.counters["link_blocked_requests"] += 1')
        e.line("continue")
        e.pop()

    def _emit_uncontested(self) -> None:
        e = self.e
        spec = self.spec
        e.line("if uncontested:")
        e.push()
        e.line("_fev = network._flit_events")
        e.line("_cev = network._credit_events")
        e.line("_sg = 0")
        if spec.sw_arch == "wf":
            # Uncontested implies at most one request per input port:
            # each non-zero VC bitmask is a single bit.  Grants run in
            # ascending-port order, matching the scan's item order, and
            # the scratch is cleared as it is consumed.
            e.line(f"for _p in range({self.P}):")
            e.push()
            e.line("_m = _nsvb[_p]")
            e.line("if _m:")
            e.push()
            e.line("_nsvb[_p] = 0")
            e.line("_v = _m.bit_length() - 1")
            e.line(f"_q = _nsq[_p * {self.V} + _v]")
            self.advance("_sa_vc_arbs[_p]", "_v", self.V, spec.sw_arbiter)
            self.depart("_p", "_v")
            e.pop()
            e.pop()
            # The wavefront rotates its diagonal once per non-empty
            # allocation; the request set is non-empty here (uncontested
            # implies no VA/spec requests, and the zero-request case
            # returned above).
            e.line(f"_sa_wf._diagonal = (_sa_wf._diagonal + 1) % {self.P}")
        else:
            e.line("for _p, _v, _q in ns_items:")
            e.push()
            self.advance("_sa_vc_arbs[_p]", "_v", self.V, spec.sw_arbiter)
            self.advance("_sa_port_arbs[_q]", "_p", self.P, spec.sw_arbiter)
            self.depart("_p", "_v")
            e.pop()
        e.line("_router.switch_grants += _sg")
        e.line("return")
        e.pop()

    def _emit_contested(self) -> None:
        e = self.e
        spec = self.spec
        P, V = self.P, self.V
        hooked = self.hooked
        ns_any, sp_any = self.ns_any, self.sp_any
        if self.spec_on or hooked:
            e.line("granted_now = {}")
        e.line("if va_items:")
        e.push()
        self.pb()
        self.va_core()
        self.pe("vc_alloc")
        if hooked:
            # The cores commit grants in their own order; the observer
            # hears of them in request order.
            e.line("if _obs is not None:")
            e.push()
            e.line("for _t in va_items:")
            e.push()
            e.line("_i = _t[0]")
            e.line("if _i in granted_now:")
            e.push()
            e.line(
                f"_obs.vc_granted(_rid, {self.divV('_i')}, {self.modV('_i')},"
                " _ivc_flat[_i].queue[0], now)"
            )
            e.pop()
            e.pop()
            e.pop()
        e.pop()
        if self.spec_on and spec.scheme == "conventional":
            e.line("_gin = 0")
            e.line("_gout = 0")
        e.line(f"if {ns_any}:")
        e.push()
        self.sw_core("ns_items", "_sa", True, self._store_ns)
        e.pop()
        if self.spec_on:
            e.line("_sw = 0")
            e.line("_miss = 0")
            e.line(f"if {sp_any}:")
            e.push()
            e.line(f"if {ns_any}:")
            e.push()
            self.sw_core("sp_items", "_sp", False, self._store_sp)
            # Masking (update-on-success): discarded grants never advance
            # the speculative core's arbiters; survivors replay exactly
            # the advances SwitchAllocator.commit would apply.
            e.line(f"for _p in range({P}):")
            e.push()
            e.line("_g = _spg[_p]")
            e.line("if _g is None:")
            e.push()
            e.line("continue")
            e.pop()
            if spec.scheme == "pessimistic":
                e.line("if (ns_in >> _p) & 1 or (out_seen >> _g[1]) & 1:")
            else:
                e.line("if (_gin >> _p) & 1 or (_gout >> _g[1]) & 1:")
            e.push()
            e.line("_spg[_p] = None")
            e.line("_miss += 1")
            e.pop()
            e.line("else:")
            e.push()
            e.line("_v = _g[0]")
            if spec.sw_arch != "wf":
                e.line("_q = _g[1]")
            self.advance("_sp_vc_arbs[_p]", "_v", V, spec.sw_arbiter)
            if spec.sw_arch != "wf":
                self.advance("_sp_port_arbs[_q]", "_p", P, spec.sw_arbiter)
            e.pop()
            e.pop()
            e.pop()
            e.line("else:")
            e.push()
            # No non-speculative requests: neither masking scheme can
            # discard, so the speculative core commits inline.
            self.sw_core("sp_items", "_sp", True, self._store_sp)
            e.pop()
            e.pop()
        # Departures, in the reference kernel's order: non-speculative
        # winners ascending by port, then speculative winners ascending
        # by port.  The persistent grant scratch is cleared as it is
        # consumed.
        e.line("_fev = network._flit_events")
        e.line("_cev = network._credit_events")
        e.line("_sg = 0")
        e.line(f"if {ns_any}:")
        e.push()
        e.line(f"for _p in range({P}):")
        e.push()
        e.line("_v = _nsg[_p]")
        e.line("if _v >= 0:")
        e.push()
        e.line("_nsg[_p] = -1")
        self.depart("_p", "_v", observed=hooked)
        e.pop()
        e.pop()
        e.pop()
        if hooked:
            e.line("_nsw = _sg")
        if self.spec_on:
            e.line(f"if {sp_any}:")
            e.push()
            e.line(f"for _p in range({P}):")
            e.push()
            e.line("_g = _spg[_p]")
            e.line("if _g is None:")
            e.push()
            e.line("continue")
            e.pop()
            e.line("_spg[_p] = None")
            e.line("_v = _g[0]")
            e.line(f"_vag = granted_now.get(_p * {V} + _v)")
            e.line(
                "if _vag is not None and _vag[0] == _g[1] "
                "and _credits[_g[1]][_vag[1]] > 0:"
            )
            e.push()
            e.line("_sw += 1")
            self.depart("_p", "_v", observed=hooked)
            e.pop()
            e.line("else:")
            e.push()
            e.line("_miss += 1")
            e.pop()
            e.pop()
            e.pop()
        e.line("_router.switch_grants += _sg")
        if self.spec_on:
            e.line("_router.speculative_wins += _sw")
            e.line("_router.misspeculations += _miss")
        if hooked:
            # Every waiting head with candidates also bids speculatively,
            # so without speculation its count is the VC request count.
            wf = spec.sw_arch == "wf"
            ns_requests = ns_any if wf else f"len({ns_any})"
            if not self.spec_on:
                sp_requests = "len(va_items)"
            else:
                sp_requests = sp_any if wf else f"len({sp_any})"
            wins, kills = ("_sw", "_miss") if self.spec_on else ("0", "0")
            e.line("if _obs is not None:")
            e.push()
            e.line("_obs.alloc_cycle(")
            e.push()
            e.line("_rid,")
            e.line("now,")
            e.line("va_requests=len(va_items),")
            e.line("va_grants=len(granted_now),")
            e.line(f"sa_nonspec_requests={ns_requests},")
            e.line(f"sa_spec_requests={sp_requests},")
            e.line("sa_nonspec_grants=_nsw,")
            e.line(f"sa_spec_wins={wins},")
            e.line(f"sa_spec_kills={kills},")
            e.pop()
            e.line(")")
            e.pop()

    def _scalar_ns_grant(self, bind_events: bool = True, rotate: bool = True) -> None:
        """Emit one uncontested switch grant over bound ``_p``/``_v``/``_q``
        locals: SA priority updates plus the inlined departure."""
        e = self.e
        spec = self.spec
        self.advance("_sa_vc_arbs[_p]", "_v", self.V, spec.sw_arbiter)
        if spec.sw_arch != "wf":
            self.advance("_sa_port_arbs[_q]", "_p", self.P, spec.sw_arbiter)
        elif rotate:
            e.line(f"_sa_wf._diagonal = (_sa_wf._diagonal + 1) % {self.P}")
        if bind_events:
            e.line("_fev = network._flit_events")
            e.line("_cev = network._credit_events")
            e.line("_sg = 0")
        self.depart("_p", "_v")

    def _emit_cands(self, front: str) -> None:
        """Emit the free-output-VC candidate scan into ``_cands``."""
        e = self.e
        e.line(f"_pkt = {front}.packet")
        if self.M == 1 and self.R == 1:
            cands_src = repr(tuple(range(self.C)))
        elif self.R == 1:
            cands_src = "_CANDS[_pkt.message_class]"
        else:
            cands_src = f"_CANDS[_pkt.message_class * {self.R} + _pkt.resource_class]"
        e.line(f"_cands = [_w for _w in {cands_src} if _h[_w] is None]")

    def _emit_va_single(self, pv: str, ivc: str, q: str, c: str) -> None:
        """Emit the single-bidder VC allocation for ``(pv, q)`` over the
        bound ``_cands`` list, leaving the granted VC in ``c`` and
        committing the grant (the sole stage-2 bidder wins outright)."""
        e = self.e
        spec = self.spec
        V, RC, P = self.V, self.RC, self.P
        kind = spec.vc_arbiter
        self.pb()
        if spec.vc_arch in ("sep_if", "sep_of"):
            # Identical single-item reductions for both separable duals.
            e.line("if len(_cands) == 1:")
            e.push()
            e.line(f"{c} = _cands[0]")
            e.pop()
            e.line("else:")
            e.push()
            self.select(c, f"_va_in_arbs[{pv}]", "_cands", kind)
            e.pop()
            self.advance(f"_va_in_arbs[{pv}]", c, V, kind)
            e.line(f"_b = {q} * {V} + {c}")
            self.tree_advance("_b", pv)
        else:
            # Wavefront: one input row, winner is the candidate on the
            # earliest wave (distinct columns give distinct waves).
            S = P * RC
            if self.M == 1:
                e.line("_wfo = _va_wfs[0]")
                e.line(f"_a = {self.divV(pv)} * {RC} + {self.modV(pv)}")
            else:
                e.line(f"_iv = {self.modV(pv)}")
                e.line(f"_bb = {self.divRC('_iv')}")
                e.line("_wfo = _va_wfs[_bb]")
                e.line(f"_a = {self.divV(pv)} * {RC} + {self.modRC('_iv')}")
            e.line("_start = _wfo._diagonal")
            e.line(f"_cb = {q} * {RC}")
            e.line(f"_bk = {S}")
            e.line("_bc = -1")
            e.line("for _cx in _cands:")
            e.push()
            e.line(f"_cc = _cb + {self.modRC('_cx')}")
            e.line(f"_k = (_a + _cc - _start) % {S}")
            e.line("if _k < _bk:")
            e.push()
            e.line("_bk = _k")
            e.line("_bc = _cc")
            e.pop()
            e.pop()
            if self.M == 1:
                e.line(f"{c} = {self.modRC('_bc')}")
            else:
                e.line(f"{c} = _bb * {RC} + {self.modRC('_bc')}")
            e.line(f"_wfo._diagonal = (_start + 1) % {S}")
        e.line(f"{ivc}.output_port = {q}")
        e.line(f"{ivc}.output_vc = {c}")
        e.line(f"_h[{c}] = ({self.divV(pv)}, {self.modV(pv)})")
        self.pe("vc_alloc")

    def _scalar_single_waiting(self, pv: str = "_pv", ivc: str = "_ivc") -> None:
        """Emit the lone-waiting-head scalar path (one waiting head, no
        non-speculative requests): VC allocation plus, under speculation,
        the single-request speculative switch pass -- all on plain locals.

        Mirrors the generic contested path for a one-item request set:
        with no non-speculative requests the speculative core commits
        inline and its grant can only miss on downstream credits.
        """
        e = self.e
        spec = self.spec
        V, P = self.V, self.P
        e.line(f"_front = {ivc}.queue[0]")
        e.line("if not _front.is_head:")
        e.push()
        e.line("_router._alloc_idle = True")
        e.line("return")
        e.pop()
        e.line("_q = _front.out_port")
        if not spec.lookahead:
            e.line("if _q < 0:")
            e.push()
            self.pb()
            e.line("_front.out_port = _router.route_fn(network, _router, _front.packet)")
            self.pe("routing")
            e.line("return")
            e.pop()
        e.line("_h = _holder[_q]")
        self._emit_cands("_front")
        e.line("if not _cands:")
        e.push()
        e.line("_router._alloc_idle = True")
        e.line("return")
        e.pop()
        self._emit_va_single(pv, ivc, "_q", "_c")
        if self.spec_on:
            # -- single-request speculative switch pass ---------------
            e.line(f"_p = {self.divV(pv)}")
            e.line(f"_v = {self.modV(pv)}")
            self.advance("_sp_vc_arbs[_p]", "_v", V, spec.sw_arbiter)
            if spec.sw_arch != "wf":
                self.advance("_sp_port_arbs[_q]", "_p", P, spec.sw_arbiter)
            else:
                e.line(f"_sp_wf._diagonal = (_sp_wf._diagonal + 1) % {P}")
            e.line("if _credits[_q][_c] > 0:")
            e.push()
            e.line("_fev = network._flit_events")
            e.line("_cev = network._credit_events")
            e.line("_sg = 0")
            self.depart("_p", "_v")
            e.line("_router.switch_grants += _sg")
            e.line("_router.speculative_wins += 1")
            e.pop()
            e.line("else:")
            e.push()
            e.line("_router.misspeculations += 1")
            e.pop()
        e.line("return")

    def _scalar_mixed(self, apv: str, aivc: str, au: str, wpv: str, wivc: str) -> None:
        """Emit the one-active + one-waiting scalar path (two busy VCs).

        The active VC is the only possible non-speculative request, the
        waiting head the only VC/speculative request.  With a granted
        non-speculative port, the speculative grant survives masking iff
        it collides with neither the active input port nor its output
        (the pessimistic and conventional masks coincide for a single
        granted request).  Every emitted path returns.
        """
        e = self.e
        spec = self.spec
        V, P = self.V, self.P
        e.line(f"_q = {aivc}.output_port")
        e.line(f"if _credits[_q][{au}] > 0:")
        e.push()
        e.line(f"_p = {self.divV(apv)}")
        e.line(f"_v = {self.modV(apv)}")
        e.line(f"_front = {wivc}.queue[0]")
        e.line("if _front.is_head:")
        e.push()
        e.line("_wq = _front.out_port")
        if not spec.lookahead:
            e.line("if _wq < 0:")
            e.push()
            self.pb()
            e.line("_front.out_port = _router.route_fn(network, _router, _front.packet)")
            self.pe("routing")
            self._scalar_ns_grant()
            e.line("_router.switch_grants += _sg")
            e.line("return")
            e.pop()
        e.line("_h = _holder[_wq]")
        self._emit_cands("_front")
        e.line("if _cands:")
        e.push()
        self._emit_va_single(wpv, wivc, "_wq", "_wc")
        # Non-speculative advances for the active grant (the generic
        # path runs the VA core first; the arbiter sets are disjoint).
        self.advance("_sa_vc_arbs[_p]", "_v", V, spec.sw_arbiter)
        if spec.sw_arch != "wf":
            self.advance("_sa_port_arbs[_q]", "_p", P, spec.sw_arbiter)
        else:
            e.line(f"_sa_wf._diagonal = (_sa_wf._diagonal + 1) % {P}")
        e.line("_fev = network._flit_events")
        e.line("_cev = network._credit_events")
        e.line("_sg = 0")
        if self.spec_on:
            e.line(f"_wp = {self.divV(wpv)}")
            e.line(f"_wv = {self.modV(wpv)}")
            if spec.sw_arch == "wf":
                # The staged speculative core rotates its diagonal even
                # when masking later discards the grant.
                e.line(f"_sp_wf._diagonal = (_sp_wf._diagonal + 1) % {P}")
            self.depart("_p", "_v")
            e.line("if _wp != _p and _wq != _q:")
            e.push()
            # Survived masking: replay the commit-time updates.
            self.advance("_sp_vc_arbs[_wp]", "_wv", V, spec.sw_arbiter)
            if spec.sw_arch != "wf":
                self.advance("_sp_port_arbs[_wq]", "_wp", P, spec.sw_arbiter)
            e.line("if _credits[_wq][_wc] > 0:")
            e.push()
            self.depart("_wp", "_wv")
            e.line("_router.switch_grants += _sg")
            e.line("_router.speculative_wins += 1")
            e.pop()
            e.line("else:")
            e.push()
            e.line("_router.switch_grants += _sg")
            e.line("_router.misspeculations += 1")
            e.pop()
            e.pop()
            e.line("else:")
            e.push()
            e.line("_router.switch_grants += _sg")
            e.line("_router.misspeculations += 1")
            e.pop()
        else:
            self.depart("_p", "_v")
            e.line("_router.switch_grants += _sg")
        e.line("return")
        e.pop()
        e.pop()
        # Waiter contributes no request: lone uncontested active grant.
        self._scalar_ns_grant()
        e.line("_router.switch_grants += _sg")
        e.line("return")
        e.pop()
        e.line("else:")
        e.push()
        # Active VC stalled on credits: the waiting head is alone.
        self._scalar_single_waiting(wpv, wivc)
        e.pop()

    def _store_ns(self, p: str, v: str, q: str) -> None:
        e = self.e
        e.line(f"_nsg[{p}] = {v}")
        if self.spec_on and self.spec.scheme == "conventional":
            e.line(f"_gin |= 1 << {p}")
            e.line(f"_gout |= 1 << {q}")

    def _store_sp(self, p: str, v: str, q: str) -> None:
        self.e.line(f"_spg[{p}] = ({v}, {q})")


# ----------------------------------------------------------------------
# factory / cache
# ----------------------------------------------------------------------
_SOURCES: Dict[Tuple[KernelSpec, bool, bool], str] = {}
_FACTORIES: Dict[Tuple[KernelSpec, bool, bool], Callable] = {}


def _resolve_malloc_trim() -> Optional[Callable[[int], int]]:
    """glibc's ``malloc_trim``, or ``None`` where there is none.

    Resolved once per process: a ``ctypes.CDLL`` made per call leaves
    cyclic garbage behind each time.
    """
    try:
        import ctypes

        trim = ctypes.CDLL(None).malloc_trim
    except (ImportError, OSError, AttributeError, TypeError):
        return None
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    return trim


_malloc_trim = _resolve_malloc_trim()


def generate_source(
    spec: KernelSpec, profiled: bool = False, hooked: bool = False
) -> str:
    """Render the generated-kernel module source for ``spec``."""
    return _Gen(spec, profiled, hooked).render()


def source_for(spec: KernelSpec, profiled: bool = False, hooked: bool = False) -> str:
    """Cached :func:`generate_source`."""
    key = (spec, profiled, hooked)
    src = _SOURCES.get(key)
    if src is None:
        src = generate_source(spec, profiled, hooked)
        _SOURCES[key] = src
    return src


def _variant_slug(spec: KernelSpec, profiled: bool = False, hooked: bool = False) -> str:
    """Display name of one render: the spec's slug plus ``-prof`` and/or
    ``-hooked``."""
    return spec.slug() + ("-prof" if profiled else "") + ("-hooked" if hooked else "")


def kernel_factory(
    spec: KernelSpec, profiled: bool = False, hooked: bool = False
) -> Callable:
    """Compile (once per spec and variant, process-wide) and return
    ``make_step``."""
    key = (spec, profiled, hooked)
    fn = _FACTORIES.get(key)
    if fn is None:
        src = source_for(spec, profiled, hooked)
        name = _variant_slug(spec, profiled, hooked)
        code = compile(src, f"<compiled-kernel:{name}>", "exec")
        ns: dict = {}
        exec(code, ns)
        fn = ns["make_step"]
        _FACTORIES[key] = fn
        # Parsing and compiling the module peaks at a few MiB of C heap
        # that pymalloc (which allocates its arenas with mmap) never
        # reuses: hand it back to the OS rather than keep it for life
        # (docs/PERFORMANCE.md, "A built network holds only its state").
        if _malloc_trim is not None:
            _malloc_trim(0)
    return fn


def iter_template_sources() -> Iterator[Tuple[str, str]]:
    """Yield ``(slug, source)`` for the representative template specs,
    covering every render of each: plain, profiled, hooked, and both."""
    for spec in template_specs():
        for hooked in (False, True):
            for profiled in (False, True):
                yield (
                    _variant_slug(spec, profiled, hooked),
                    source_for(spec, profiled, hooked),
                )
