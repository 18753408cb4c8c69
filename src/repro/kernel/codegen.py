"""Straight-line code generation for the compiled evaluation plan.

The second fused execution strategy: instead of interpreting the plan
one ``(code, out, fanin)`` tuple at a time, render it **once** into
straight-line Python source — one expression per gate, no loops, no
gate-code dispatch — ``compile()`` it, and cache the function on the
:class:`CompiledCircuit`.  CPython then executes the whole netlist
pass as consecutive ``LOAD_FAST``/``BINARY_OP`` bytecode: no tuple
unpacking, no per-gate branch chain, no list-comprehension fanin
gathers.

Five generators live here:

* :func:`logic_fn` — the two-valued pass.  The same rendered source
  serves both word representations: Python-int lane words call it
  with the int lane mask, numpy ``uint64`` arrays with the all-ones
  word (``~x & mask`` is the polymorphic invert).
* :func:`planes7_fn` — the full 7-valued forward pass, the plane
  calculus of :mod:`repro.logic.seven_valued` inlined per gate.
* :func:`planes10_fn` — the full 10-valued forward pass: the 7-valued
  plane math plus the hazard-free plane of
  :mod:`repro.logic.ten_valued`, inlined per gate.
* :func:`step_table` — the TPG implication engine's table.
  ``imply()`` pops one gate at a time (worklist order, not plan
  order), so instead of a straight line it gets one fused step body
  per (algebra, code, arity): fanin reads, the inlined forward rule,
  the merge into the output, the unrolled backward prefix/suffix
  chains and the fanin merges, all in one call that returns only
  which signals changed.  Built once per circuit and algebra and
  memoized on the :class:`CompiledCircuit`; :func:`unjustified_table`
  is its justification counterpart.  Supports both the 3-valued and
  the 7-valued algebra.
* :func:`forward_table` / :func:`backward_table` — the forward and
  backward halves of a step as separate per-signal functions with the
  ``Algebra.forward`` / ``Algebra.backward`` contracts, for callers
  that hold their own plane lists.
* :func:`cone_fault_fn` — per-fault-site compiled stuck-at cone
  resimulation: the site's transitive fanout cone rendered as one
  straight-line body that forces the site, re-evaluates only cone
  gates (reading unaffected signals from the good-machine values) and
  returns the output-difference lane word directly.

:data:`NATIVE_SOURCE` also lives here: the C translation unit the
native word backend compiles once per process
(:mod:`repro.kernel.native`).  It is not rendered per circuit: data-
driven interpreters read the circuit's plan and fanin tables from a
context struct passed on every call, so one library serves every
circuit (straight-line C also made gcc's per-function passes a
minutes-long build on thousand-gate circuits).

All generated code is asserted bit-identical to the interpreted
oracle by ``tests/test_fusion.py`` (hypothesis cross-checks).

Input lane words handed to the generated functions must already be
confined to the lane mask (both engines guarantee this); the
generated bodies only re-mask where the interpreted rules do.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .compiled import (
    CODE_AND,
    CODE_BUF,
    CODE_NAND,
    CODE_NOR,
    CODE_NOT,
    CODE_OR,
    CODE_XNOR,
    CODE_XOR,
    CompiledCircuit,
)

_AND_FAMILY = (CODE_AND, CODE_NAND)
_OR_FAMILY = (CODE_OR, CODE_NOR)
_XOR_FAMILY = (CODE_XOR, CODE_XNOR)
_INVERTING = (CODE_NAND, CODE_NOR, CODE_XNOR, CODE_NOT)


# ---------------------------------------------------------------------------
# expression emitters (shared by full-pass rendering and per-gate functions)
# ---------------------------------------------------------------------------


def _emit_logic(code: int, ins: Sequence[str], out: str) -> str:
    """One two-valued gate as a single assignment statement."""
    if code == CODE_BUF:
        return f"{out} = {ins[0]}"
    if code == CODE_NOT:
        return f"{out} = ~{ins[0]} & mask"
    if code in _AND_FAMILY:
        body = " & ".join(ins)
    elif code in _OR_FAMILY:
        body = " | ".join(ins)
    elif code in _XOR_FAMILY:
        body = " ^ ".join(ins)
    else:  # pragma: no cover - plan only contains known codes
        raise ValueError(f"unhandled gate code {code}")
    if code in _INVERTING:
        return f"{out} = ~({body}) & mask"
    return f"{out} = {body}"


PlaneNames = Tuple[str, str, str, str]


def _emit_planes7(
    code: int, ins: Sequence[PlaneNames], outs: PlaneNames
) -> List[str]:
    """One 7-valued gate as a block of assignments.

    *ins* / *outs* name the (zero, one, stable, instable) plane
    variables.  Scratch names (``_zs0`` …) are reused across blocks —
    straight-line code, each block completes before the next starts.
    The math is the scalar calculus of
    :mod:`repro.logic.seven_valued`, inlined.
    """
    n = len(ins)
    oz, oo, os_, oi = outs
    if code == CODE_BUF:
        z, o, s, i = ins[0]
        return [f"{oz}, {oo}, {os_}, {oi} = {z}, {o}, {s}, {i}"]
    if code == CODE_NOT:
        z, o, s, i = ins[0]
        return [f"{oz}, {oo}, {os_}, {oi} = {o}, {z}, {s}, {i}"]

    lines: List[str] = []
    if code in _AND_FAMILY or code in _OR_FAMILY:
        for k, (z, o, s, i) in enumerate(ins):
            lines.append(f"_zs{k} = {z} & {s}")
            lines.append(f"_os{k} = {o} & {s}")
            lines.append(f"_i0{k} = _zs{k} | ({o} & {i})")
            lines.append(f"_i1{k} = _os{k} | ({z} & {i})")
        zs = [f"_zs{k}" for k in range(n)]
        os2 = [f"_os{k}" for k in range(n)]
        i0s = [f"_i0{k}" for k in range(n)]
        i1s = [f"_i1{k}" for k in range(n)]
        zero_names = [z for z, _, _, _ in ins]
        one_names = [o for _, o, _, _ in ins]
        if code in _AND_FAMILY:
            lines.append(f"_z = {' | '.join(zero_names)}")
            lines.append(f"_o = {' & '.join(one_names)}")
            lines.append(f"_s = {' | '.join(zs)} | ({' & '.join(os2)})")
            lines.append(
                f"_i = ((_o & ({' | '.join(i0s)})) | "
                f"(_z & ({' & '.join(i1s)}))) & ~_s"
            )
        else:
            lines.append(f"_z = {' & '.join(zero_names)}")
            lines.append(f"_o = {' | '.join(one_names)}")
            lines.append(f"_s = ({' & '.join(zs)}) | {' | '.join(os2)}")
            lines.append(
                f"_i = ((_o & ({' & '.join(i0s)})) | "
                f"(_z & ({' | '.join(i1s)}))) & ~_s"
            )
        if code in _INVERTING:
            lines.append(f"{oz}, {oo}, {os_}, {oi} = _o, _z, _s, _i")
        else:
            lines.append(f"{oz}, {oo}, {os_}, {oi} = _z, _o, _s, _i")
        return lines

    if code in _XOR_FAMILY:
        az, ao, as_, ai = ins[0]
        lines.append(f"_az, _ao, _as, _ai = {az}, {ao}, {as_}, {ai}")
        for z, o, s, i in ins[1:]:
            lines.append("_x0 = (_az & _as) | (_ao & _ai)")
            lines.append("_x1 = (_ao & _as) | (_az & _ai)")
            lines.append(f"_y0 = ({z} & {s}) | ({o} & {i})")
            lines.append(f"_y1 = ({o} & {s}) | ({z} & {i})")
            lines.append(f"_tz = (_az & {z}) | (_ao & {o})")
            lines.append(f"_to = (_az & {o}) | (_ao & {z})")
            lines.append(f"_ts = _as & {s}")
            lines.append(
                "_ti = ((_to & ((_x0 & _y0) | (_x1 & _y1))) | "
                "(_tz & ((_x0 & _y1) | (_x1 & _y0)))) & ~_ts"
            )
            lines.append("_az, _ao, _as, _ai = _tz, _to, _ts, _ti")
        if code == CODE_XNOR:
            lines.append(f"{oz}, {oo}, {os_}, {oi} = _ao, _az, _as, _ai")
        else:
            lines.append(f"{oz}, {oo}, {os_}, {oi} = _az, _ao, _as, _ai")
        return lines

    raise ValueError(f"unhandled gate code {code}")  # pragma: no cover


def _emit_planes3(
    code: int, ins: Sequence[Tuple[str, str]], outs: Tuple[str, str]
) -> List[str]:
    """One 3-valued gate block (two planes: zero, one)."""
    oz, oo = outs
    if code == CODE_BUF:
        z, o = ins[0]
        return [f"{oz}, {oo} = {z}, {o}"]
    if code == CODE_NOT:
        z, o = ins[0]
        return [f"{oz}, {oo} = {o}, {z}"]
    zero_names = [z for z, _ in ins]
    one_names = [o for _, o in ins]
    if code in _AND_FAMILY:
        zeros, ones = " | ".join(zero_names), " & ".join(one_names)
    elif code in _OR_FAMILY:
        zeros, ones = " & ".join(zero_names), " | ".join(one_names)
    elif code in _XOR_FAMILY:
        lines = [f"_az, _ao = {zero_names[0]}, {one_names[0]}"]
        for z, o in ins[1:]:
            lines.append(f"_tz = (_az & {z}) | (_ao & {o})")
            lines.append(f"_to = (_az & {o}) | (_ao & {z})")
            lines.append("_az, _ao = _tz, _to")
        if code == CODE_XNOR:
            lines.append(f"{oz}, {oo} = _ao, _az")
        else:
            lines.append(f"{oz}, {oo} = _az, _ao")
        return lines
    else:  # pragma: no cover - plan only contains known codes
        raise ValueError(f"unhandled gate code {code}")
    if code in _INVERTING:
        return [f"{oz} = {ones}", f"{oo} = {zeros}"]
    return [f"{oz} = {zeros}", f"{oo} = {ones}"]


Planes10Names = Tuple[str, str, str, str, str]


def _emit_planes10(
    code: int, ins: Sequence[Planes10Names], outs: Planes10Names
) -> List[str]:
    """One 10-valued gate as a block of assignments.

    The first four planes are exactly the 7-valued block
    (:func:`_emit_planes7`); the fifth (hazard-free) plane inlines the
    ``_and_hazard_free`` / ``_or_hazard_free`` / ``_xor_hazard_free``
    rules of :mod:`repro.logic.ten_valued`, ORing the output stability
    plane in at the end as the interpreted ``forward`` does.  The
    hazard plane is inversion-invariant, so negated codes share their
    base family's rule.
    """
    oz, oo, os_, oi, oh = outs
    ins7 = [names[:4] for names in ins]
    if code in (CODE_BUF, CODE_NOT):
        lines = _emit_planes7(code, ins7, (oz, oo, os_, oi))
        lines.append(f"{oh} = {ins[0][4]} | {ins[0][2]}")
        return lines
    lines = _emit_planes7(code, ins7, (oz, oo, os_, oi))
    n = len(ins)
    if code in _AND_FAMILY or code in _OR_FAMILY:
        for k, (z, o, s, i, h) in enumerate(ins):
            lines.append(f"_nd{k} = {h} & ({s} | {o})")
            lines.append(f"_ni{k} = {h} & ({s} | {z})")
        nd = " & ".join(f"_nd{k}" for k in range(n))
        ni = " & ".join(f"_ni{k}" for k in range(n))
        if code in _AND_FAMILY:
            held = " | ".join(f"({z} & {s})" for z, _o, s, _i, _h in ins)
        else:
            held = " | ".join(f"({o} & {s})" for _z, o, s, _i, _h in ins)
        lines.append(f"_hf = {held} | (mask & {nd}) | (mask & {ni})")
    else:  # XOR family
        lines.append("_sp0 = mask")
        for k, names in enumerate(ins):
            lines.append(f"_sp{k + 1} = _sp{k} & {names[2]}")
        lines.append(f"_sq{n} = mask")
        for k in range(n - 1, -1, -1):
            lines.append(f"_sq{k} = _sq{k + 1} & {ins[k][2]}")
        clean = " | ".join(
            f"(_sp{k} & _sq{k + 1} & {ins[k][4]})" for k in range(n)
        )
        lines.append(f"_hf = _sp{n} | {clean}")
    lines.append(f"{oh} = _hf | {os_}")
    return lines


# ---------------------------------------------------------------------------
# full-pass renderers
# ---------------------------------------------------------------------------


def render_logic_source(compiled: CompiledCircuit) -> str:
    """The whole two-valued pass as one straight-line function."""
    lines = ["def _fused_logic(inputs, mask):"]
    for k, pi in enumerate(compiled.py_inputs):
        lines.append(f"    v{pi} = inputs[{k}] & mask")
    for code, out, fanin, _gt in compiled.plan:
        lines.append(
            "    " + _emit_logic(code, [f"v{f}" for f in fanin], f"v{out}")
        )
    signals = ", ".join(f"v{s}" for s in range(compiled.n_signals))
    lines.append(f"    return [{signals}]")
    return "\n".join(lines) + "\n"


def render_planes7_source(compiled: CompiledCircuit) -> str:
    """The whole 7-valued forward pass as one straight-line function."""
    lines = ["def _fused_planes7(inputs, mask):"]
    for k, pi in enumerate(compiled.py_inputs):
        lines.append(f"    z{pi}, o{pi}, s{pi}, i{pi} = inputs[{k}]")
    for code, out, fanin, _gt in compiled.plan:
        ins = [(f"z{f}", f"o{f}", f"s{f}", f"i{f}") for f in fanin]
        outs = (f"z{out}", f"o{out}", f"s{out}", f"i{out}")
        for line in _emit_planes7(code, ins, outs):
            lines.append("    " + line)
    rows = ", ".join(
        f"(z{s}, o{s}, s{s}, i{s})" for s in range(compiled.n_signals)
    )
    lines.append(f"    return [{rows}]")
    return "\n".join(lines) + "\n"


def render_planes10_source(compiled: CompiledCircuit) -> str:
    """The whole 10-valued forward pass as one straight-line function."""
    lines = ["def _fused_planes10(inputs, mask):"]
    for k, pi in enumerate(compiled.py_inputs):
        lines.append(
            f"    z{pi}, o{pi}, s{pi}, i{pi}, h{pi} = inputs[{k}]"
        )
    for code, out, fanin, _gt in compiled.plan:
        ins = [
            (f"z{f}", f"o{f}", f"s{f}", f"i{f}", f"h{f}") for f in fanin
        ]
        outs = (f"z{out}", f"o{out}", f"s{out}", f"i{out}", f"h{out}")
        for line in _emit_planes10(code, ins, outs):
            lines.append("    " + line)
    rows = ", ".join(
        f"(z{s}, o{s}, s{s}, i{s}, h{s})" for s in range(compiled.n_signals)
    )
    lines.append(f"    return [{rows}]")
    return "\n".join(lines) + "\n"


def _compile_fn(source: str, name: str, tag: str) -> Callable:
    namespace: dict = {}
    exec(compile(source, f"<repro.fused:{tag}>", "exec"), namespace)
    return namespace[name]


def logic_fn(compiled: CompiledCircuit) -> Callable:
    """The memoized compiled two-valued pass: ``fn(inputs, mask)``.

    Returns per-signal lane words as a list, index-aligned with
    signal ids.  Works for Python-int words (pass the int lane mask)
    and numpy ``uint64`` rows (pass the all-ones word) alike.
    """
    fn = compiled._fusion_cache.get("logic_fn")
    if fn is None:
        fn = _compile_fn(
            render_logic_source(compiled),
            "_fused_logic",
            f"logic:{compiled.circuit.name}",
        )
        compiled._fusion_cache["logic_fn"] = fn
    return fn


def planes7_fn(compiled: CompiledCircuit) -> Callable:
    """The memoized compiled 7-valued pass: ``fn(inputs, mask)``.

    *inputs* is one (zero, one, stable, instable) tuple per primary
    input, aligned with ``compiled.py_inputs``; returns one plane
    tuple per signal.  Representation-polymorphic like
    :func:`logic_fn`.
    """
    fn = compiled._fusion_cache.get("planes7_fn")
    if fn is None:
        fn = _compile_fn(
            render_planes7_source(compiled),
            "_fused_planes7",
            f"planes7:{compiled.circuit.name}",
        )
        compiled._fusion_cache["planes7_fn"] = fn
    return fn


def planes10_fn(compiled: CompiledCircuit) -> Callable:
    """The memoized compiled 10-valued pass: ``fn(inputs, mask)``.

    *inputs* is one (zero, one, stable, instable, hazard-free) tuple
    per primary input, aligned with ``compiled.py_inputs``; returns
    one plane tuple per signal.  Representation-polymorphic like
    :func:`logic_fn`.
    """
    fn = compiled._fusion_cache.get("planes10_fn")
    if fn is None:
        fn = _compile_fn(
            render_planes10_source(compiled),
            "_fused_planes10",
            f"planes10:{compiled.circuit.name}",
        )
        compiled._fusion_cache["planes10_fn"] = fn
    return fn


# ---------------------------------------------------------------------------
# backward emitters (the TPG implication engine's unique implications)
# ---------------------------------------------------------------------------
#
# ``Algebra.backward`` computes the unique backward implications of one
# gate with prefix/suffix products over the fanin planes (list-built,
# one Python loop per direction per call).  The emitters below unroll
# those chains for one fixed (code, arity) into straight-line lines.
# The value-plane swaps the interpreted dispatchers apply for
# OR/NOR/NAND/XNOR are applied to the plane *names* handed to the
# AND/XOR core, so the emitted math is literally the core of the
# interpreted rules and the swaps cost nothing at run time.

_SWAP_OUT = (CODE_NAND, CODE_OR, CODE_XNOR)  # core sees swapped output planes
_SWAP_IN = (CODE_OR, CODE_NOR)  # core sees swapped input value planes

#: Per-fanin addition expressions, in the algebra's plane order.
Additions = List[Tuple[str, ...]]


def _emit_others(
    lines: List[str], tag: str, terms: Sequence[str], op: str = "&"
) -> List[Optional[str]]:
    """Fold of every term but the k-th, for each k, by prefix/suffix.

    Composite terms are bound once (``_<tag>t<k>``); prefix folds are
    ``_<tag>p<k>``, suffix folds ``_<tag>q<k>``.  ``None`` marks an
    empty fold (a single-input gate), the identity of *op*.
    """
    n = len(terms)
    names = []
    for k, term in enumerate(terms):
        if term.isidentifier():
            names.append(term)
        else:
            lines.append(f"_{tag}t{k} = {term}")
            names.append(f"_{tag}t{k}")
    pre: List[Optional[str]] = [None, names[0]]
    for k in range(1, n - 1):
        lines.append(f"_{tag}p{k + 1} = {pre[k]} {op} {names[k]}")
        pre.append(f"_{tag}p{k + 1}")
    suf: List[Optional[str]] = [None] * (n + 1)
    suf[n - 1] = names[n - 1]
    for k in range(n - 2, 0, -1):
        lines.append(f"_{tag}q{k} = {names[k]} {op} {suf[k + 1]}")
        suf[k] = f"_{tag}q{k}"
    others = []
    for k in range(n):
        parts = [p for p in (pre[k], suf[k + 1]) if p is not None]
        others.append(f" {op} ".join(parts) if parts else None)
    return others


def _and(*parts: Optional[str]) -> str:
    """AND of the non-empty *parts*; an empty AND is the lane mask."""
    present = [p for p in parts if p is not None]
    return " & ".join(present) if present else "mask"


def _emit_backward7(
    code: int, ins: Sequence[PlaneNames], outs: PlaneNames
) -> Tuple[List[str], Additions]:
    """One 7-valued backward block: its lines and per-fanin additions.

    *ins* / *outs* name the (zero, one, stable, instable) planes of the
    fanins and of the output, exactly as :func:`_emit_planes7` takes
    them; scratch names start with an underscore.
    """
    oz, oo, os_, oi = outs
    if code == CODE_BUF:
        return [], [outs]
    if code == CODE_NOT:
        return [], [(oo, oz, os_, oi)]
    if code in _SWAP_OUT:
        oz, oo = oo, oz
    swap_in = code in _SWAP_IN
    if swap_in:
        ins = [(o, z, s, i) for z, o, s, i in ins]
    lines: List[str] = []
    adds: Additions = []
    if code in _AND_FAMILY or code in _OR_FAMILY:
        ones = _emit_others(lines, "1", [o for _z, o, _s, _i in ins])
        cant_s0 = _emit_others(lines, "2", [f"{o} | {i}" for _z, o, _s, i in ins])
        stable = _emit_others(lines, "3", [s for _z, _o, s, _i in ins])
        lines.append(f"_s1 = {oo} & {os_}")
        lines.append(f"_n0 = {oz} & {os_}")
        lines.append(f"_fa = {oz} & {oi}")
        lines.append(f"_ri = {oo} & {oi}")
        for k, (z, o, _s, _i) in enumerate(ins):
            lines.append(f"_m{k} = {_and('_n0', cant_s0[k])}")
            lines.append(f"_az{k} = ({_and(oz, ones[k])}) | _m{k}")
            lines.append(f"_as{k} = _s1 | _m{k} | (_fa & {o})")
            lines.append(f"_ai{k} = (_fa & {z}) | ({_and('_ri', stable[k])})")
            if swap_in:
                adds.append((oo, f"_az{k}", f"_as{k}", f"_ai{k}"))
            else:
                adds.append((f"_az{k}", oo, f"_as{k}", f"_ai{k}"))
        return lines, adds
    # XOR family
    known = _emit_others(lines, "k", [f"{z} | {o}" for z, o, _s, _i in ins])
    parity = _emit_others(lines, "p", [o for _z, o, _s, _i in ins], "^")
    stable = _emit_others(lines, "s", [s for _z, _o, s, _i in ins])
    lines.append(f"_ok = {oz} | {oo}")
    for k in range(len(ins)):
        lines.append(f"_r{k} = {parity[k] or 0}")
        lines.append(f"_a{k} = {_and(known[k], '_ok')}")
        lines.append(f"_io{k} = (({oo} & ~_r{k}) | ({oz} & _r{k})) & _a{k}")
        lines.append(f"_iz{k} = (({oo} & _r{k}) | ({oz} & ~_r{k})) & _a{k}")
        lines.append(f"_ai{k} = {_and(oi, stable[k])}")
        adds.append((f"_iz{k}", f"_io{k}", os_, f"_ai{k}"))
    return lines, adds


def _emit_backward3(
    code: int, ins: Sequence[Tuple[str, str]], outs: Tuple[str, str]
) -> Tuple[List[str], Additions]:
    """One 3-valued backward block (two planes: zero, one)."""
    a0, a1 = outs
    if code == CODE_BUF:
        return [], [outs]
    if code == CODE_NOT:
        return [], [(a1, a0)]
    if code in _SWAP_OUT:
        a0, a1 = a1, a0
    swap_in = code in _SWAP_IN
    if swap_in:
        ins = [(o, z) for z, o in ins]
    lines: List[str] = []
    adds: Additions = []
    if code in _AND_FAMILY or code in _OR_FAMILY:
        ones = _emit_others(lines, "1", [o for _z, o in ins])
        for k in range(len(ins)):
            lines.append(f"_az{k} = {_and(a0, ones[k])}")
            adds.append((a1, f"_az{k}") if swap_in else (f"_az{k}", a1))
        return lines, adds
    # XOR family
    known = _emit_others(lines, "k", [f"{z} | {o}" for z, o in ins])
    parity = _emit_others(lines, "p", [o for _z, o in ins], "^")
    lines.append(f"_ok = {a0} | {a1}")
    for k in range(len(ins)):
        lines.append(f"_r{k} = {parity[k] or 0}")
        lines.append(f"_a{k} = {_and(known[k], '_ok')}")
        lines.append(f"_io{k} = (({a1} & ~_r{k}) | ({a0} & _r{k})) & _a{k}")
        lines.append(f"_iz{k} = (({a1} & _r{k}) | ({a0} & ~_r{k})) & _a{k}")
        adds.append((f"_iz{k}", f"_io{k}"))
    return lines, adds


#: algebra name -> (plane letters, forward emitter, backward emitter).
#: Algebras without an entry keep the interpreted ``Algebra`` dispatch.
_TPG_EMITTERS = {
    "seven_valued": ("zosi", _emit_planes7, _emit_backward7),
    "three_valued": ("zo", _emit_planes3, _emit_backward3),
}


def _fanin_names(algebra_name: str, n: int) -> List[Tuple[str, ...]]:
    """Plane variable names of fanins ``0 .. n-1`` (``z0, o0, ...``)."""
    letters = _TPG_EMITTERS[algebra_name][0]
    return [tuple(f"{p}{k}" for p in letters) for k in range(n)]


def _tuple_src(items: Sequence[str]) -> str:
    joined = ", ".join(items)
    return f"({joined},)" if len(items) == 1 else f"({joined})"


def _render_forward(algebra_name: str, code: int, n: int) -> str:
    """Source of ``_fwd(ins, mask) -> planes`` (``Algebra.forward``)."""
    ins = _fanin_names(algebra_name, n)
    outs = ("_rz", "_ro", "_rs", "_ri")[: len(ins[0])]
    lines = ["def _fwd(ins, mask):"]
    for k, names in enumerate(ins):
        lines.append(f"    {', '.join(names)} = ins[{k}]")
    body = _TPG_EMITTERS[algebra_name][1](code, ins, outs)
    lines.extend("    " + line for line in body)
    lines.append(f"    return {_tuple_src(outs)}")
    return "\n".join(lines) + "\n"


def _render_backward(algebra_name: str, code: int, n: int) -> str:
    """Source of ``_bwd(out, ins, mask) -> additions``
    (``Algebra.backward``)."""
    ins = _fanin_names(algebra_name, n)
    outs = ("oz", "oo", "os", "oi")[: len(ins[0])]
    body, adds = _TPG_EMITTERS[algebra_name][2](code, ins, outs)
    lines = ["def _bwd(out, ins, mask):", f"    {', '.join(outs)} = out"]
    for k, names in enumerate(ins):
        lines.append(f"    {', '.join(names)} = ins[{k}]")
    lines.extend("    " + line for line in body)
    lines.append(f"    return {_tuple_src([_tuple_src(add) for add in adds])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fused implication steps and justification bodies (the TPG engine's table)
# ---------------------------------------------------------------------------
#
# ``TpgState.imply`` visits one gate at a time in worklist order.  A
# step body does the whole visit in one call: it reads the fanin planes
# from the state's plane list, evaluates the gate forward, ORs the
# result into the output, runs the backward chain on the merged output
# and ORs each fanin's additions in, fanin by fanin.  Each fanin
# re-reads its planes before merging, so a gate reading one signal
# twice merges both additions in order exactly like the interpreted
# ``assign`` sequence.  Every signal that actually changes is appended
# to the trail as ``(signal, old planes)`` and its conflict lanes, if it
# has any, to *clashes* as ``(signal, lanes)``; the body returns how
# many signals changed, and the engine does the rest of the bookkeeping.

#: Names the merged output planes and a committed fanin's planes take.
_MERGED = ("_mz", "_mo", "_ms", "_mi")
_COMMIT = ("_cz", "_co", "_cs", "_ci")
_OLD = ("_wz", "_wo", "_ws", "_wi")


def _emit_commit(target: str, adds: Sequence[str], news: Sequence[str]) -> List[str]:
    """OR *adds* into ``planes[target]``; record the change if any.

    *news* names the merged planes, which stay bound afterwards.  The
    merge skips ``TpgState.assign``'s ``& mask``: stored planes and the
    additions computed from them are already confined to the lane mask.
    The conflict lanes are the algebra's illegal plane pairs: zero &
    one, and for the 7-valued logic also stable & instable.
    """
    olds = _OLD[: len(adds)]
    lines = [f"_w = planes[{target}]", f"{', '.join(olds)} = _w"]
    for new, old, add in zip(news, olds, adds):
        lines.append(f"{new} = {old} | {add}")
    clash = f"({news[0]} & {news[1]})"
    if len(news) == 4:
        clash += f" | ({news[2]} & {news[3]})"
    changed = " or ".join(f"{new} != {old}" for new, old in zip(news, olds))
    lines += [
        f"if {changed}:",
        f"    planes[{target}] = ({', '.join(news)})",
        f"    trail.append(({target}, _w))",
        f"    _c = {clash}",
        "    if _c:",
        f"        clashes.append(({target}, _c))",
        "    _n += 1",
    ]
    return lines


def _emit_fanin_reads(algebra_name: str, n: int) -> Tuple[List[str], List]:
    """Lines binding ``f0..`` to the fanin ids and ``z0, o0, ..`` to
    their planes; returns the lines and the plane names."""
    ins = _fanin_names(algebra_name, n)
    lines = [f"{', '.join(f'f{k}' for k in range(n))}, = fanin"]
    lines += [f"{', '.join(names)} = planes[f{k}]" for k, names in enumerate(ins)]
    return lines, ins


def _render_step(algebra_name: str, code: int, n: int, use_backward: bool) -> str:
    """Source of ``_step(planes, out, fanin, mask, trail, clashes)``."""
    emit_forward, emit_backward = _TPG_EMITTERS[algebra_name][1:]
    body, ins = _emit_fanin_reads(algebra_name, n)
    width = len(ins[0])
    forward = ("_fz", "_fo", "_fs", "_fi")[:width]
    merged = _MERGED[:width]
    body += emit_forward(code, ins, forward)
    body.append("_n = 0")
    body += _emit_commit("out", forward, merged)
    if use_backward:
        lines, adds = emit_backward(code, ins, merged)
        body += lines
        for k, add in enumerate(adds):
            body += _emit_commit(f"f{k}", add, _COMMIT[:width])
    body.append("return _n")
    head = "def _step(planes, out, fanin, mask, trail, clashes):"
    return "\n".join([head] + ["    " + line for line in body]) + "\n"


def _render_unjustified(algebra_name: str, code: int, n: int) -> str:
    """Source of ``_unj(planes, out, fanin, mask)``: the raw unjustified
    lane mask, every assigned output bit the forward rule does not
    reproduce (``Algebra.unjustified``)."""
    emit_forward = _TPG_EMITTERS[algebra_name][1]
    body, ins = _emit_fanin_reads(algebra_name, n)
    width = len(ins[0])
    forward = ("_fz", "_fo", "_fs", "_fi")[:width]
    olds = _OLD[:width]
    body += emit_forward(code, ins, forward)
    body.append(f"{', '.join(olds)} = planes[out]")
    miss = " | ".join(f"({old} & ~{f})" for old, f in zip(olds, forward))
    body.append(f"return ({miss}) & mask")
    head = "def _unj(planes, out, fanin, mask):"
    return "\n".join([head] + ["    " + line for line in body]) + "\n"


#: kind -> (renderer, function name) of the per-shape TPG bodies.
_SHAPE_RENDERERS = {
    "forward": (_render_forward, "_fwd"),
    "backward": (_render_backward, "_bwd"),
    "step": (lambda a, code, n: _render_step(a, code, n, True), "_step"),
    "step_forward": (lambda a, code, n: _render_step(a, code, n, False), "_step"),
    "unjustified": (_render_unjustified, "_unj"),
}

#: (kind, algebra name, code, arity) -> compiled body.  Shared
#: process-wide: the bodies depend only on the gate shape, never on the
#: circuit, so every circuit's tables reuse them.
_SHAPE_CACHE: dict = {}


def _shape_fn(kind: str, algebra_name: str, code: int, arity: int) -> Optional[Callable]:
    if algebra_name not in _TPG_EMITTERS:
        return None
    key = (kind, algebra_name, code, arity)
    fn = _SHAPE_CACHE.get(key)
    if fn is None:
        render, name = _SHAPE_RENDERERS[kind]
        fn = _SHAPE_CACHE[key] = _compile_fn(
            render(algebra_name, code, arity), name, ":".join(map(str, key))
        )
    return fn


def gate_forward_fn(
    algebra_name: str, code: int, arity: int
) -> Optional[Callable]:
    """A specialized ``fn(ins, mask) -> planes`` for one gate shape.

    *ins* is the sequence of fanin plane tuples (as handed to
    ``Algebra.forward``); the body is the fully inlined plane math for
    exactly this (code, arity) — no gate-type dispatch, no Python
    folds.  Returns ``None`` for algebras without an emitter (callers
    fall back to the interpreted ``Algebra.forward``).
    """
    return _shape_fn("forward", algebra_name, code, arity)


def gate_backward_fn(
    algebra_name: str, code: int, arity: int
) -> Optional[Callable]:
    """A specialized ``fn(out, ins, mask) -> additions`` for one gate shape.

    The returned function computes the unique backward implications —
    one plane tuple of additions per fanin, exactly
    ``Algebra.backward``'s contract — with the prefix/suffix chains
    unrolled.  ``None`` for algebras without an emitter.
    """
    return _shape_fn("backward", algebra_name, code, arity)


def _signal_table(
    compiled: CompiledCircuit, kind: str, algebra_name: str
) -> Optional[List[Optional[Callable]]]:
    """Per-signal bodies of *kind*, built once per circuit and algebra.

    Index-aligned with signal ids; primary inputs hold ``None`` (the
    engine never evaluates them).  Memoized in
    ``compiled._fusion_cache`` (shared: callers must not mutate it);
    ``None`` for algebras without an emitter.
    """
    if algebra_name not in _TPG_EMITTERS:
        return None
    key = ("tpg", kind, algebra_name)
    table = compiled._fusion_cache.get(key)
    if table is None:
        codes = compiled.py_codes
        fanins = compiled.py_fanin
        table = compiled._fusion_cache[key] = [
            None
            if is_input
            else _shape_fn(kind, algebra_name, codes[s], len(fanins[s]))
            for s, is_input in enumerate(compiled.is_input)
        ]
    return table


def forward_table(
    compiled: CompiledCircuit, algebra_name: str
) -> Optional[List[Optional[Callable]]]:
    """Per-signal :func:`gate_forward_fn` bodies, or ``None``."""
    return _signal_table(compiled, "forward", algebra_name)


def backward_table(
    compiled: CompiledCircuit, algebra_name: str
) -> Optional[List[Optional[Callable]]]:
    """Per-signal :func:`gate_backward_fn` bodies, or ``None``."""
    return _signal_table(compiled, "backward", algebra_name)


def step_table(
    compiled: CompiledCircuit, algebra_name: str, use_backward: bool = True
) -> Optional[List[Optional[Callable]]]:
    """Per-signal fused implication steps, or ``None``.

    ``table[s](planes, s, fanin, mask, trail, clashes) -> n_changed``
    performs one ``imply()`` visit of gate *s*: the forward evaluation
    and, with *use_backward*, the unique backward implications, merged
    into *planes* in the interpreted engine's order.
    """
    kind = "step" if use_backward else "step_forward"
    return _signal_table(compiled, kind, algebra_name)


def unjustified_table(
    compiled: CompiledCircuit, algebra_name: str
) -> Optional[List[Optional[Callable]]]:
    """Per-signal ``fn(planes, s, fanin, mask) -> lanes`` bodies: the
    raw ``Algebra.unjustified`` mask of gate *s*, or ``None``."""
    return _signal_table(compiled, "unjustified", algebra_name)


# ---------------------------------------------------------------------------
# the native kernel: one circuit-generic C translation unit
# ---------------------------------------------------------------------------


# Every entry point interprets a circuit's level-order plan and its
# per-signal gate-code / fanin-CSR / controlling-value tables, which
# arrive on each call in a ``repro_ctx`` struct -- so the C text is the
# same for every circuit and one compiled library serves them all.
# The per-gate switch dispatch is noise next to the slab memory traffic
# each gate's plane math streams.  The fold formulas are the n-ary
# emitter formulas of :func:`_emit_planes7` / :func:`_emit_planes10`
# transcribed over C accumulators: bitwise AND/OR folds are
# order-insensitive, and the order-sensitive XOR chains iterate fanins
# in CSR order, which is plan fanin order, so every pass stays
# bit-identical to the Python oracles.
_C_PASSES = r"""
#include <stdint.h>
typedef uint64_t u64;

typedef struct {
  long n_plan;             /* gates in level order */
  long max_arity;          /* widest gate fanin */
  const int32_t *plan_out; /* (n_plan,) output signal per plan step */
  const int8_t *code;      /* (n_signals,) gate code */
  const int32_t *fanin_off; /* (n_signals + 1,) CSR offsets */
  const int32_t *fanin_idx; /* CSR fanin signals */
  const int8_t *ctrl;      /* (n_signals,) controlling value, -1 = none */
} repro_ctx;

void repro_logic_pass(const repro_ctx *ctx, u64 *V, long n) {
  long t, w, k;
  for (t = 0; t < ctx->n_plan; t++) {
    long out = ctx->plan_out[t];
    int code = ctx->code[out];
    const int32_t *fi = ctx->fanin_idx + ctx->fanin_off[out];
    long nf = ctx->fanin_off[out + 1] - ctx->fanin_off[out];
    u64 *dst = V + out * n;
    for (w = 0; w < n; w++) {
      u64 acc = V[(long)fi[0] * n + w];
      switch (code) {
        case 3: case 4: /* AND / NAND */
          for (k = 1; k < nf; k++) acc &= V[(long)fi[k] * n + w];
          if (code == 4) acc = ~acc;
          break;
        case 5: case 6: /* OR / NOR */
          for (k = 1; k < nf; k++) acc |= V[(long)fi[k] * n + w];
          if (code == 6) acc = ~acc;
          break;
        case 7: case 8: /* XOR / XNOR */
          for (k = 1; k < nf; k++) acc ^= V[(long)fi[k] * n + w];
          if (code == 8) acc = ~acc;
          break;
        case 2: acc = ~acc; break; /* NOT */
        default: break;            /* BUF */
      }
      dst[w] = acc;
    }
  }
}

/* One 7-valued AND/OR-family gate: the n-ary accumulator folds of the
   fused emitters, inversion as a final zero/one plane swap. */
static void _p7_andor(u64 *Z, u64 *O, u64 *S, u64 *I, long out,
                      int or_family, int invert,
                      const int32_t *fi, long nf, long n) {
  long w, k;
  for (w = 0; w < n; w++) {
    u64 rz, ro, rs, ri;
    if (or_family) {
      u64 zA = ~(u64)0, oO = 0, zsA = ~(u64)0, osO = 0;
      u64 i0A = ~(u64)0, i1O = 0;
      for (k = 0; k < nf; k++) {
        long fs = fi[k];
        u64 z = Z[fs * n + w], o = O[fs * n + w];
        u64 s = S[fs * n + w], i = I[fs * n + w];
        u64 zs = z & s, os = o & s;
        zA &= z; oO |= o; zsA &= zs; osO |= os;
        i0A &= zs | (o & i); i1O |= os | (z & i);
      }
      rz = zA; ro = oO; rs = zsA | osO;
      ri = ((ro & i0A) | (rz & i1O)) & ~rs;
    } else {
      u64 zO = 0, oA = ~(u64)0, zsO = 0, osA = ~(u64)0;
      u64 i0O = 0, i1A = ~(u64)0;
      for (k = 0; k < nf; k++) {
        long fs = fi[k];
        u64 z = Z[fs * n + w], o = O[fs * n + w];
        u64 s = S[fs * n + w], i = I[fs * n + w];
        u64 zs = z & s, os = o & s;
        zO |= z; oA &= o; zsO |= zs; osA &= os;
        i0O |= zs | (o & i); i1A &= os | (z & i);
      }
      rz = zO; ro = oA; rs = zsO | osA;
      ri = ((ro & i0O) | (rz & i1A)) & ~rs;
    }
    if (invert) { u64 tmp = rz; rz = ro; ro = tmp; }
    Z[out * n + w] = rz; O[out * n + w] = ro;
    S[out * n + w] = rs; I[out * n + w] = ri;
  }
}

/* One 7-valued XOR-family gate: the emitters' left-fold binary chain
   in fanin order (the XOR calculus is order-sensitive only in its
   intermediate names, but the fold order is kept identical anyway). */
static void _p7_xor(u64 *Z, u64 *O, u64 *S, u64 *I, long out, int invert,
                    const int32_t *fi, long nf, long n) {
  long w, k;
  for (w = 0; w < n; w++) {
    long fs = fi[0];
    u64 az = Z[fs * n + w], ao = O[fs * n + w];
    u64 as = S[fs * n + w], ai = I[fs * n + w];
    for (k = 1; k < nf; k++) {
      fs = fi[k];
      u64 z = Z[fs * n + w], o = O[fs * n + w];
      u64 s = S[fs * n + w], i = I[fs * n + w];
      u64 x0 = (az & as) | (ao & ai);
      u64 x1 = (ao & as) | (az & ai);
      u64 y0 = (z & s) | (o & i);
      u64 y1 = (o & s) | (z & i);
      u64 tz = (az & z) | (ao & o);
      u64 to = (az & o) | (ao & z);
      u64 ts = as & s;
      u64 ti = ((to & ((x0 & y0) | (x1 & y1))) |
                (tz & ((x0 & y1) | (x1 & y0)))) & ~ts;
      az = tz; ao = to; as = ts; ai = ti;
    }
    if (invert) { u64 tmp = az; az = ao; ao = tmp; }
    Z[out * n + w] = az; O[out * n + w] = ao;
    S[out * n + w] = as; I[out * n + w] = ai;
  }
}

void repro_planes7_pass(const repro_ctx *ctx, u64 *Z, u64 *O, u64 *S,
                        u64 *I, long n) {
  long t, w;
  for (t = 0; t < ctx->n_plan; t++) {
    long out = ctx->plan_out[t];
    int code = ctx->code[out];
    const int32_t *fi = ctx->fanin_idx + ctx->fanin_off[out];
    long nf = ctx->fanin_off[out + 1] - ctx->fanin_off[out];
    if (code <= 2) { /* BUF / NOT: copy, NOT swaps zero/one */
      long src = fi[0];
      for (w = 0; w < n; w++) {
        u64 z = Z[src * n + w], o = O[src * n + w];
        Z[out * n + w] = code == 2 ? o : z;
        O[out * n + w] = code == 2 ? z : o;
        S[out * n + w] = S[src * n + w];
        I[out * n + w] = I[src * n + w];
      }
    } else if (code <= 6) {
      _p7_andor(Z, O, S, I, out, code >= 5, code == 4 || code == 6,
                fi, nf, n);
    } else {
      _p7_xor(Z, O, S, I, out, code == 8, fi, nf, n);
    }
  }
}

/* 10-valued AND/OR-family gate: the 7-valued folds plus the
   hazard-free plane (held-at-controlling | no-dynamic | no-inverse
   hazard), ORing the output stability plane in at the end. */
static void _p10_andor(u64 *Z, u64 *O, u64 *S, u64 *I, u64 *H, long out,
                       int or_family, int invert,
                       const int32_t *fi, long nf, long n) {
  long w, k;
  for (w = 0; w < n; w++) {
    u64 rz, ro, rs, ri;
    u64 ndA = ~(u64)0, niA = ~(u64)0, held;
    if (or_family) {
      u64 zA = ~(u64)0, oO = 0, zsA = ~(u64)0, osO = 0;
      u64 i0A = ~(u64)0, i1O = 0;
      for (k = 0; k < nf; k++) {
        long fs = fi[k];
        u64 z = Z[fs * n + w], o = O[fs * n + w];
        u64 s = S[fs * n + w], i = I[fs * n + w], h = H[fs * n + w];
        u64 zs = z & s, os = o & s;
        zA &= z; oO |= o; zsA &= zs; osO |= os;
        i0A &= zs | (o & i); i1O |= os | (z & i);
        ndA &= h & (s | o); niA &= h & (s | z);
      }
      rz = zA; ro = oO; rs = zsA | osO;
      ri = ((ro & i0A) | (rz & i1O)) & ~rs;
      held = osO;
    } else {
      u64 zO = 0, oA = ~(u64)0, zsO = 0, osA = ~(u64)0;
      u64 i0O = 0, i1A = ~(u64)0;
      for (k = 0; k < nf; k++) {
        long fs = fi[k];
        u64 z = Z[fs * n + w], o = O[fs * n + w];
        u64 s = S[fs * n + w], i = I[fs * n + w], h = H[fs * n + w];
        u64 zs = z & s, os = o & s;
        zO |= z; oA &= o; zsO |= zs; osA &= os;
        i0O |= zs | (o & i); i1A &= os | (z & i);
        ndA &= h & (s | o); niA &= h & (s | z);
      }
      rz = zO; ro = oA; rs = zsO | osA;
      ri = ((ro & i0O) | (rz & i1A)) & ~rs;
      held = zsO;
    }
    if (invert) { u64 tmp = rz; rz = ro; ro = tmp; }
    Z[out * n + w] = rz; O[out * n + w] = ro;
    S[out * n + w] = rs; I[out * n + w] = ri;
    H[out * n + w] = held | ndA | niA | rs;
  }
}

/* 10-valued XOR-family gate: 7-valued fold plus the prefix/suffix
   stability products of the hazard-free rule (an input's hazard is
   masked only when every *other* input is stable).  *sp* is scratch
   for nf + 1 prefix products. */
static void _p10_xor(u64 *Z, u64 *O, u64 *S, u64 *I, u64 *H, long out,
                     int invert, const int32_t *fi, long nf, long n,
                     u64 *sp) {
  long w, k;
  for (w = 0; w < n; w++) {
    long fs = fi[0];
    u64 az = Z[fs * n + w], ao = O[fs * n + w];
    u64 as = S[fs * n + w], ai = I[fs * n + w];
    for (k = 1; k < nf; k++) {
      fs = fi[k];
      u64 z = Z[fs * n + w], o = O[fs * n + w];
      u64 s = S[fs * n + w], i = I[fs * n + w];
      u64 x0 = (az & as) | (ao & ai);
      u64 x1 = (ao & as) | (az & ai);
      u64 y0 = (z & s) | (o & i);
      u64 y1 = (o & s) | (z & i);
      u64 tz = (az & z) | (ao & o);
      u64 to = (az & o) | (ao & z);
      u64 ts = as & s;
      u64 ti = ((to & ((x0 & y0) | (x1 & y1))) |
                (tz & ((x0 & y1) | (x1 & y0)))) & ~ts;
      az = tz; ao = to; as = ts; ai = ti;
    }
    sp[0] = ~(u64)0;
    for (k = 0; k < nf; k++) sp[k + 1] = sp[k] & S[(long)fi[k] * n + w];
    u64 sq = ~(u64)0, clean = 0;
    for (k = nf - 1; k >= 0; k--) {
      clean |= sp[k] & sq & H[(long)fi[k] * n + w];
      sq &= S[(long)fi[k] * n + w];
    }
    if (invert) { u64 tmp = az; az = ao; ao = tmp; }
    Z[out * n + w] = az; O[out * n + w] = ao;
    S[out * n + w] = as; I[out * n + w] = ai;
    H[out * n + w] = sp[nf] | clean | as;
  }
}

void repro_planes10_pass(const repro_ctx *ctx, u64 *Z, u64 *O, u64 *S,
                         u64 *I, u64 *H, long n) {
  long t, w;
  u64 sp[ctx->max_arity + 1];
  for (t = 0; t < ctx->n_plan; t++) {
    long out = ctx->plan_out[t];
    int code = ctx->code[out];
    const int32_t *fi = ctx->fanin_idx + ctx->fanin_off[out];
    long nf = ctx->fanin_off[out + 1] - ctx->fanin_off[out];
    if (code <= 2) { /* BUF / NOT: h-plane is inversion-invariant */
      long src = fi[0];
      for (w = 0; w < n; w++) {
        u64 z = Z[src * n + w], o = O[src * n + w];
        Z[out * n + w] = code == 2 ? o : z;
        O[out * n + w] = code == 2 ? z : o;
        S[out * n + w] = S[src * n + w];
        I[out * n + w] = I[src * n + w];
        H[out * n + w] = H[src * n + w] | S[src * n + w];
      }
    } else if (code <= 6) {
      _p10_andor(Z, O, S, I, H, out, code >= 5, code == 4 || code == 6,
                 fi, nf, n);
    } else {
      _p10_xor(Z, O, S, I, H, out, code == 8, fi, nf, n, sp);
    }
  }
}
"""


# The per-batch fault walks and the stuck-at cone interpreter: one
# call per fault batch, fanin and controlling values read from the
# same context tables the passes use.
_C_WALKS = r"""
void repro_detect_walk(const repro_ctx *ctx, const u64 *Z, const u64 *O,
                       const u64 *S, const u64 *I, long n,
                       const int32_t *path_flat, const int32_t *path_off,
                       const uint8_t *final_one, long n_faults, int robust,
                       const u64 *valid, u64 *out) {
  long f, p, w;
  for (f = 0; f < n_faults; f++) {
    const int32_t *path = path_flat + path_off[f];
    long plen = path_off[f + 1] - path_off[f];
    u64 *det = out + f * n;
    long s0 = path[0];
    const u64 *launch = final_one[f] ? O : Z;
    u64 any = 0;
    for (w = 0; w < n; w++) {
      det[w] = I[s0 * n + w] & launch[s0 * n + w];
      any |= det[w];
    }
    for (p = 1; p < plen && any; p++) {
      long sig = path[p], on = path[p - 1];
      int c = ctx->ctrl[sig];
      int32_t k;
      for (k = ctx->fanin_off[sig]; k < ctx->fanin_off[sig + 1]; k++) {
        long fs = ctx->fanin_idx[k];
        if (fs == on) continue;
        if (c < 0) {
          /* XOR-like: nonrobust imposes nothing, robust needs
             glitch-free (stable) side inputs */
          if (robust)
            for (w = 0; w < n; w++) det[w] &= S[fs * n + w];
          continue;
        }
        /* nc = 1 - c: the plane holding the non-controlling final */
        const u64 *ncp = c ? Z : O;
        for (w = 0; w < n; w++) det[w] &= ncp[fs * n + w];
        if (robust)
          for (w = 0; w < n; w++)
            det[w] &= S[fs * n + w] | ~ncp[on * n + w];
      }
      any = 0;
      for (w = 0; w < n; w++) any |= det[w];
    }
    for (w = 0; w < n; w++) det[w] &= valid[w];
  }
}

void repro_strength_walk(const repro_ctx *ctx, const u64 *Z, const u64 *O,
                         const u64 *S, const u64 *I, const u64 *H, long n,
                         const int32_t *path_flat, const int32_t *path_off,
                         const uint8_t *final_one, long n_faults,
                         const u64 *valid,
                         u64 *out_nr, u64 *out_r, u64 *out_st) {
  long f, p, w;
  for (f = 0; f < n_faults; f++) {
    const int32_t *path = path_flat + path_off[f];
    long plen = path_off[f + 1] - path_off[f];
    u64 *nr = out_nr + f * n;
    u64 *r = out_r + f * n;
    u64 *st = out_st + f * n;
    long s0 = path[0];
    const u64 *launch = final_one[f] ? O : Z;
    u64 any = 0;
    for (w = 0; w < n; w++) {
      u64 l = I[s0 * n + w] & launch[s0 * n + w];
      nr[w] = l; r[w] = l; st[w] = l;
      any |= l;
    }
    for (p = 1; p < plen && any; p++) {
      long sig = path[p], on = path[p - 1];
      int c = ctx->ctrl[sig];
      int32_t k;
      for (k = ctx->fanin_off[sig]; k < ctx->fanin_off[sig + 1]; k++) {
        long fs = ctx->fanin_idx[k];
        if (fs == on) continue;
        if (c < 0) {
          for (w = 0; w < n; w++) {
            r[w] &= S[fs * n + w];
            st[w] &= S[fs * n + w];
          }
          continue;
        }
        const u64 *ncp = c ? Z : O;
        for (w = 0; w < n; w++) {
          u64 has_nc = ncp[fs * n + w];
          u64 stable_where = S[fs * n + w] | ~ncp[on * n + w];
          nr[w] &= has_nc;
          r[w] &= has_nc & stable_where;
          st[w] &= has_nc & H[fs * n + w] & stable_where;
        }
      }
      any = 0;
      for (w = 0; w < n; w++) any |= nr[w];
    }
    for (w = 0; w < n; w++) {
      nr[w] &= valid[w];
      r[w] &= valid[w];
      st[w] &= valid[w];
    }
  }
}

/* Cone fanin refs: >= 0 is a cone-local scratch slot (slot 0 = the
   forced fault site), < 0 is -(signal + 1) into the good-machine slab. */
static u64 _cone_load(const u64 *good, const u64 *scratch, long n,
                      int32_t ref, long w) {
  if (ref >= 0) return scratch[(long)ref * n + w];
  return good[(long)(-ref - 1) * n + w];
}

/* Stuck-at cone resimulation of a fault batch.  Fault f's cone record
   starts at cones + cone_off[f]: n_steps, n_pos, then per step (code,
   out slot, arity, fanin refs...), then n_pos (PO signal, PO slot)
   pairs.  diff row f gets the lanes where any PO differs. */
void repro_stuck_cones(const u64 *good, long n, const int32_t *cones,
                       const int32_t *cone_off, const uint8_t *forced_one,
                       long n_faults, u64 *scratch, u64 *diff) {
  long f, t, w, k;
  for (f = 0; f < n_faults; f++) {
    const int32_t *r = cones + cone_off[f];
    long n_steps = r[0], n_pos = r[1];
    u64 forced = forced_one[f] ? ~(u64)0 : 0;
    u64 *d = diff + f * n;
    r += 2;
    for (w = 0; w < n; w++) scratch[w] = forced;
    for (t = 0; t < n_steps; t++) {
      int code = r[0];
      u64 *dst = scratch + (long)r[1] * n;
      long nf = r[2];
      const int32_t *fi = r + 3;
      r += 3 + nf;
      for (w = 0; w < n; w++) {
        u64 acc = _cone_load(good, scratch, n, fi[0], w);
        switch (code) {
          case 3: case 4: /* AND / NAND */
            for (k = 1; k < nf; k++)
              acc &= _cone_load(good, scratch, n, fi[k], w);
            if (code == 4) acc = ~acc;
            break;
          case 5: case 6: /* OR / NOR */
            for (k = 1; k < nf; k++)
              acc |= _cone_load(good, scratch, n, fi[k], w);
            if (code == 6) acc = ~acc;
            break;
          case 7: case 8: /* XOR / XNOR */
            for (k = 1; k < nf; k++)
              acc ^= _cone_load(good, scratch, n, fi[k], w);
            if (code == 8) acc = ~acc;
            break;
          case 2: acc = ~acc; break; /* NOT */
          default: break;            /* BUF */
        }
        dst[w] = acc;
      }
    }
    for (w = 0; w < n; w++) d[w] = 0;
    for (k = 0; k < n_pos; k++, r += 2) {
      const u64 *g = good + (long)r[0] * n;
      const u64 *v = scratch + (long)r[1] * n;
      for (w = 0; w < n; w++) d[w] |= g[w] ^ v[w];
    }
  }
}
"""

#: The whole native kernel: the same C for every circuit.
NATIVE_SOURCE = _C_PASSES + _C_WALKS

#: The cffi (ABI-mode) declarations of the kernel's entry points.
NATIVE_CDEF = """
typedef struct {
  long n_plan;
  long max_arity;
  const int32_t *plan_out;
  const int8_t *code;
  const int32_t *fanin_off;
  const int32_t *fanin_idx;
  const int8_t *ctrl;
} repro_ctx;
void repro_logic_pass(const repro_ctx *ctx, uint64_t *v, long n);
void repro_planes7_pass(const repro_ctx *ctx, uint64_t *z, uint64_t *o,
                        uint64_t *s, uint64_t *i, long n);
void repro_planes10_pass(const repro_ctx *ctx, uint64_t *z, uint64_t *o,
                         uint64_t *s, uint64_t *i, uint64_t *h, long n);
void repro_detect_walk(const repro_ctx *ctx, const uint64_t *z,
                       const uint64_t *o, const uint64_t *s,
                       const uint64_t *i, long n,
                       const int32_t *path_flat, const int32_t *path_off,
                       const uint8_t *final_one, long n_faults, int robust,
                       const uint64_t *valid, uint64_t *out);
void repro_strength_walk(const repro_ctx *ctx, const uint64_t *z,
                         const uint64_t *o, const uint64_t *s,
                         const uint64_t *i, const uint64_t *h, long n,
                         const int32_t *path_flat, const int32_t *path_off,
                         const uint8_t *final_one, long n_faults,
                         const uint64_t *valid, uint64_t *out_nr,
                         uint64_t *out_r, uint64_t *out_st);
void repro_stuck_cones(const uint64_t *good, long n, const int32_t *cones,
                       const int32_t *cone_off, const uint8_t *forced_one,
                       long n_faults, uint64_t *scratch, uint64_t *diff);
"""


# ---------------------------------------------------------------------------
# per-cone stuck-at resimulation functions
# ---------------------------------------------------------------------------


def render_cone_source(compiled: CompiledCircuit, site: int) -> str:
    """The stuck-at resimulation of one fault site as straight-line code.

    ``fn(good, forced, mask)`` forces the site's lane word to
    *forced*, re-evaluates exactly the gates in the site's transitive
    fanout cone (in topological order, reading signals outside the
    cone from the good-machine values) and returns the lane word of
    good/faulty differences across the primary outputs — zero lanes
    where the fault does not propagate.  Works for Python-int words
    and numpy ``uint64`` rows alike (``mask`` is the polymorphic
    invert operand, as in :func:`logic_fn`).
    """
    lines = ["def _cone(good, forced, mask):", f"    v{site} = forced"]
    in_cone = {site}
    for s in compiled.cone_of(site):
        if s == site or compiled.is_input[s]:
            continue
        names = [
            f"v{f}" if f in in_cone else f"good[{f}]"
            for f in compiled.py_fanin[s]
        ]
        lines.append("    " + _emit_logic(compiled.py_codes[s], names, f"v{s}"))
        in_cone.add(s)
    terms = [
        f"(good[{po}] ^ v{po})"
        for po in compiled.py_outputs
        if po in in_cone
    ]
    lines.append("    return " + (" | ".join(terms) if terms else "0"))
    return "\n".join(lines) + "\n"


def cone_fault_fn(compiled: CompiledCircuit, site: int) -> Callable:
    """The memoized compiled cone resimulation of one fault site.

    Cached on the compiled circuit's fusion memo (keyed by site), so
    the sa0/sa1 fault pair — and every simulator over the same
    circuit — shares one body; the memo is dropped on pickling like
    every other exec-compiled artifact (:meth:`CompiledCircuit.
    __getstate__`) and rebuilt on first use in each process.
    """
    key = ("stuckat_cone", site)
    fn = compiled._fusion_cache.get(key)
    if fn is None:
        fn = _compile_fn(
            render_cone_source(compiled, site),
            "_cone",
            f"stuckat:{compiled.circuit.name}:{site}",
        )
        compiled._fusion_cache[key] = fn
    return fn
