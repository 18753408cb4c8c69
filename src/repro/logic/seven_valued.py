"""The 7-valued bit-plane logic for robust TPG (paper Table 2).

Robust tests must reason about signal *stability* across the two test
vectors, not only final values.  Following Lin & Reddy (the logic the
paper uses), every signal takes one of seven values, encoded in four
bit-planes per the paper's Table 2:

==============  =====  =====  ==========  ============
logic value     0-bit  1-bit  stable-bit  instable-bit
==============  =====  =====  ==========  ============
0s (stable 0)     1      0        1            0
1s (stable 1)     0      1        1            0
0i (falling)      1      0        0            1
1i (rising)       0      1        0            1
0x (final 0)      1      0        0            0
1x (final 1)      0      1        0            0
X                 0      0        0            0
==============  =====  =====  ==========  ============

Semantics over the two-vector test (V1 then V2):

* the 0/1 planes give the settled **final** value (under V2),
* the **stable** bit asserts the signal provably holds its final value
  throughout the test, with no hazard, for *every* delay assignment,
* the **instable** bit asserts the signal provably changes (its
  settled initial value under V1 differs from the final value).

``0-bit & 1-bit`` or ``stable & instable`` in a lane is a conflict.

The forward rules form a conservative hazard calculus: e.g. an AND
output is stable-0 iff some input is stable-0, stable-1 iff all inputs
are stable-1; an XOR output is only stable when all its inputs are
(two opposite transitions through an XOR can glitch even though the
initial and final values agree).  Initial values are derived per lane:
``init1 = (1-bit & stable) | (0-bit & instable)``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuit import GateType

#: Number of bit-planes per signal: (zero, one, stable, instable).
N_PLANES = 4

Planes = Tuple[int, int, int, int]

#: The unassigned value (every lane X).
X: Planes = (0, 0, 0, 0)

#: Named single-lane encodings, keyed as in the paper's Table 2.
VALUES = {
    "S0": (1, 0, 1, 0),
    "S1": (0, 1, 1, 0),
    "F": (1, 0, 0, 1),  # 0 with a transition: falling
    "R": (0, 1, 0, 1),  # 1 with a transition: rising
    "U0": (1, 0, 0, 0),  # final 0, history unknown
    "U1": (0, 1, 0, 0),  # final 1, history unknown
    "X": (0, 0, 0, 0),
}

_NAMES = {v: k for k, v in VALUES.items()}


def encode(name: str) -> Planes:
    """Single-lane plane pattern of the named value (see :data:`VALUES`)."""
    try:
        return VALUES[name]
    except KeyError:
        raise ValueError(f"unknown 7-valued name {name!r}") from None


def encode_word(name: str, lanes: int) -> Planes:
    """Plane pattern with the named value in the given lane mask."""
    z, o, s, i = encode(name)
    return (lanes * z, lanes * o, lanes * s, lanes * i)


def decode_lane(planes: Planes, lane: int) -> str:
    """Name of the value in one lane ('S0', ..., 'X', or 'C' on conflict)."""
    bits = tuple((p >> lane) & 1 for p in planes)
    if (bits[0] and bits[1]) or (bits[2] and bits[3]):
        return "C"
    return _NAMES.get(bits, "C")


def conflict(planes: Planes) -> int:
    """Lane mask of illegal assignments (0&1 set, or stable&instable)."""
    return (planes[0] & planes[1]) | (planes[2] & planes[3])


def known(planes: Planes) -> int:
    """Lane mask where any information is assigned."""
    return planes[0] | planes[1] | planes[2] | planes[3]


def merge(a: Planes, b: Planes) -> Planes:
    """Union of two assignments (may create conflicts — by design)."""
    return (a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3])


def init_planes(p: Planes) -> Tuple[int, int]:
    """Derived (init0, init1) lane masks of the settled initial value."""
    z, o, s, i = p
    return (z & s) | (o & i), (o & s) | (z & i)


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------


def _and_forward(inputs: Sequence[Planes], mask: int) -> Planes:
    ones = mask
    zeros = 0
    stable0 = 0
    stable1 = mask
    ii0 = 0
    ii1 = mask
    for p in inputs:
        z, o, s, _i = p
        ones &= o
        zeros |= z
        stable0 |= z & s
        stable1 &= o & s
        i0, i1 = init_planes(p)
        ii0 |= i0
        ii1 &= i1
    stable = stable0 | stable1
    instable = (ones & ii0) | (zeros & ii1)
    # stability and instability are mutually exclusive by construction
    # for consistent inputs; inconsistent lanes surface as conflicts.
    return (zeros, ones, stable, instable & ~stable)


def _or_forward(inputs: Sequence[Planes], mask: int) -> Planes:
    ones = 0
    zeros = mask
    stable0 = mask
    stable1 = 0
    ii0 = mask
    ii1 = 0
    for p in inputs:
        z, o, s, _i = p
        ones |= o
        zeros &= z
        stable0 &= z & s
        stable1 |= o & s
        i0, i1 = init_planes(p)
        ii0 &= i0
        ii1 |= i1
    stable = stable0 | stable1
    instable = (ones & ii0) | (zeros & ii1)
    return (zeros, ones, stable, instable & ~stable)


def _xor_pair(a: Planes, b: Planes) -> Planes:
    az, ao, asb, _ = a
    bz, bo, bsb, _ = b
    zeros = (az & bz) | (ao & bo)
    ones = (az & bo) | (ao & bz)
    stable = asb & bsb
    ai0, ai1 = init_planes(a)
    bi0, bi1 = init_planes(b)
    io0 = (ai0 & bi0) | (ai1 & bi1)
    io1 = (ai0 & bi1) | (ai1 & bi0)
    instable = ((ones & io0) | (zeros & io1)) & ~stable
    return (zeros, ones, stable, instable)


def _invert(p: Planes) -> Planes:
    return (p[1], p[0], p[2], p[3])


def forward(gate_type: GateType, inputs: Sequence[Planes], mask: int) -> Planes:
    """Implied output planes of *gate_type* over *inputs*, all lanes."""
    if gate_type is GateType.BUF:
        (a,) = inputs
        return a
    if gate_type is GateType.NOT:
        (a,) = inputs
        return _invert(a)
    if gate_type is GateType.AND:
        return _and_forward(inputs, mask)
    if gate_type is GateType.NAND:
        return _invert(_and_forward(inputs, mask))
    if gate_type is GateType.OR:
        return _or_forward(inputs, mask)
    if gate_type is GateType.NOR:
        return _invert(_or_forward(inputs, mask))
    if gate_type in (GateType.XOR, GateType.XNOR):
        acc = inputs[0]
        for b in inputs[1:]:
            acc = _xor_pair(acc, b)
        if gate_type is GateType.XNOR:
            return _invert(acc)
        return acc
    raise ValueError(f"cannot evaluate gate type {gate_type}")


# ---------------------------------------------------------------------------
# slab-form forward evaluation (vectorized over gate groups)
# ---------------------------------------------------------------------------
#
# The fused numpy execution strategy (:mod:`repro.kernel.fusion`)
# evaluates a whole group of same-type gates at once: each plane
# arrives as a ``(n_gates, arity, n_words)`` uint64 slab and the gate
# semantics reduce over the arity axis.  The rules below are the very
# same plane calculus as the scalar ``forward`` above, expressed with
# ``np.bitwise_*.reduce`` instead of Python folds — the test suite
# asserts bit-identity between the two.

def and_forward_slab(z, o, s, i):
    """AND-group forward over plane slabs; reduce along ``axis=-2``.

    Returns the (zero, one, stable, instable) output planes, one row
    per gate in the group.  Callers handle inversion (NAND) by
    swapping the first two returned planes.
    """
    import numpy as np

    ones = np.bitwise_and.reduce(o, axis=-2)
    zeros = np.bitwise_or.reduce(z, axis=-2)
    zs = z & s
    os_ = o & s
    stable = np.bitwise_or.reduce(zs, axis=-2) | np.bitwise_and.reduce(os_, axis=-2)
    ii0 = np.bitwise_or.reduce(zs | (o & i), axis=-2)
    ii1 = np.bitwise_and.reduce(os_ | (z & i), axis=-2)
    instable = ((ones & ii0) | (zeros & ii1)) & ~stable
    return zeros, ones, stable, instable


def or_forward_slab(z, o, s, i):
    """OR-group forward over plane slabs (dual of the AND rule)."""
    import numpy as np

    ones = np.bitwise_or.reduce(o, axis=-2)
    zeros = np.bitwise_and.reduce(z, axis=-2)
    zs = z & s
    os_ = o & s
    stable = np.bitwise_and.reduce(zs, axis=-2) | np.bitwise_or.reduce(os_, axis=-2)
    ii0 = np.bitwise_and.reduce(zs | (o & i), axis=-2)
    ii1 = np.bitwise_or.reduce(os_ | (z & i), axis=-2)
    instable = ((ones & ii0) | (zeros & ii1)) & ~stable
    return zeros, ones, stable, instable


def xor_forward_slab(z, o, s, i):
    """XOR-group forward over plane slabs: pairwise fold along arity.

    XOR has no reduce form (the instability rule couples initial
    values pairwise), so the fold mirrors ``_xor_pair`` — still one
    vectorized pass per fanin position, not per gate.
    """
    az, ao, asb, ai = z[..., 0, :], o[..., 0, :], s[..., 0, :], i[..., 0, :]
    for k in range(1, z.shape[-2]):
        bz, bo, bs, bi = z[..., k, :], o[..., k, :], s[..., k, :], i[..., k, :]
        ai0 = (az & asb) | (ao & ai)
        ai1 = (ao & asb) | (az & ai)
        bi0 = (bz & bs) | (bo & bi)
        bi1 = (bo & bs) | (bz & bi)
        zeros = (az & bz) | (ao & bo)
        ones = (az & bo) | (ao & bz)
        stable = asb & bs
        instable = (
            (ones & ((ai0 & bi0) | (ai1 & bi1)))
            | (zeros & ((ai0 & bi1) | (ai1 & bi0)))
        ) & ~stable
        az, ao, asb, ai = zeros, ones, stable, instable
    return az, ao, asb, ai


def unjustified_planes(
    gate_type: GateType, output: Planes, inputs: Sequence[Planes], mask: int
) -> Planes:
    """Per-plane lane masks of assigned output bits not implied by inputs."""
    f = forward(gate_type, inputs, mask)
    return tuple((have & ~implied) & mask for have, implied in zip(output, f))  # type: ignore[return-value]


def unjustified(gate_type: GateType, output: Planes, inputs: Sequence[Planes], mask: int) -> int:
    """Lanes where some assigned output bit is not implied by the inputs.

    Every plane participates: a required *stable* bit that the inputs
    do not yet force is an unjustified value (the paper: "the stable
    values have to be justified from the primary inputs").
    """
    miss = 0
    for plane in unjustified_planes(gate_type, output, inputs, mask):
        miss |= plane
    return miss & mask


# ---------------------------------------------------------------------------
# backward implication
# ---------------------------------------------------------------------------


def _and_backward(out: Planes, inputs: Sequence[Planes], mask: int) -> List[Planes]:
    """Unique backward implications through an AND gate.

    Value rules mirror the 3-valued case; additionally:

    * output stable-1 -> every input stable-1,
    * output stable-0 with every other input unable to be stable-0
      (already final-1 or instable) -> this input stable-0,
    * output falling (final 0, instable) -> every input has initial 1:
      inputs known final-0 must be falling, inputs known final-1 must
      be stable,
    * output rising -> every input final 1; if all other inputs are
      stable, this input must be rising.
    """
    oz, oo, os, oi = out
    n = len(inputs)
    stable1 = oo & os
    stable0_needed = oz & os
    falling = oz & oi
    rising = oo & oi

    # prefix/suffix products for the two unique implications
    ones_pre = [mask] * (n + 1)
    cant_s0_pre = [mask] * (n + 1)
    stable_pre = [mask] * (n + 1)
    for i, p in enumerate(inputs):
        z, o, s, ii = p
        ones_pre[i + 1] = ones_pre[i] & o
        cant_s0_pre[i + 1] = cant_s0_pre[i] & (o | ii)
        stable_pre[i + 1] = stable_pre[i] & s
    ones_suf = [mask] * (n + 1)
    cant_s0_suf = [mask] * (n + 1)
    stable_suf = [mask] * (n + 1)
    for i in range(n - 1, -1, -1):
        z, o, s, ii = inputs[i]
        ones_suf[i] = ones_suf[i + 1] & o
        cant_s0_suf[i] = cant_s0_suf[i + 1] & (o | ii)
        stable_suf[i] = stable_suf[i + 1] & s

    additions: List[Planes] = []
    for i, p in enumerate(inputs):
        z, o, s, ii = p
        add_z = 0
        add_o = 0
        add_s = 0
        add_i = 0
        # final-value rules (as in the 3-valued logic)
        add_o |= oo
        others_one = ones_pre[i] & ones_suf[i + 1]
        add_z |= oz & others_one
        # stable-1: all inputs stable 1
        add_s |= stable1
        # stable-0 unique implication
        others_cant = cant_s0_pre[i] & cant_s0_suf[i + 1]
        m = stable0_needed & others_cant
        add_z |= m
        add_s |= m
        # falling output: all inputs initially 1
        add_i |= falling & z
        add_s |= falling & o
        # rising output: all inputs final 1 (covered by oo above);
        # if every other input is stable, this one carries the rise
        others_stable = stable_pre[i] & stable_suf[i + 1]
        add_i |= rising & others_stable
        additions.append((add_z, add_o, add_s, add_i))
    return additions


def _swap_value_planes(p: Planes) -> Planes:
    return (p[1], p[0], p[2], p[3])


def backward(
    gate_type: GateType, output: Planes, inputs: Sequence[Planes], mask: int
) -> List[Planes]:
    """Bits each input must additionally take, given the output planes."""
    if gate_type is GateType.BUF:
        return [output]
    if gate_type is GateType.NOT:
        return [_swap_value_planes(output)]
    if gate_type is GateType.AND:
        return _and_backward(output, inputs, mask)
    if gate_type is GateType.NAND:
        return _and_backward(_swap_value_planes(output), inputs, mask)
    if gate_type is GateType.OR:
        swapped = [_swap_value_planes(p) for p in inputs]
        adds = _and_backward(_swap_value_planes(output), swapped, mask)
        return [_swap_value_planes(a) for a in adds]
    if gate_type is GateType.NOR:
        swapped = [_swap_value_planes(p) for p in inputs]
        adds = _and_backward(output, swapped, mask)
        return [_swap_value_planes(a) for a in adds]
    if gate_type in (GateType.XOR, GateType.XNOR):
        out = output if gate_type is GateType.XOR else _swap_value_planes(output)
        return _xor_backward(out, inputs, mask)
    raise ValueError(f"cannot imply through gate type {gate_type}")


def _xor_backward(out: Planes, inputs: Sequence[Planes], mask: int) -> List[Planes]:
    """Unique backward implications through an XOR gate.

    * value planes: all-but-one known fixes the last input's value,
    * output stable -> every input stable (the only way the forward
      calculus produces a stable XOR output),
    * output instable with all other inputs stable -> this input is
      instable.
    """
    oz, oo, os, oi = out
    n = len(inputs)
    known_pre = [mask] * (n + 1)
    par_pre = [0] * (n + 1)
    stable_pre = [mask] * (n + 1)
    for i, p in enumerate(inputs):
        z, o, s, _ = p
        known_pre[i + 1] = known_pre[i] & (z | o)
        par_pre[i + 1] = par_pre[i] ^ o
        stable_pre[i + 1] = stable_pre[i] & s
    known_suf = [mask] * (n + 1)
    par_suf = [0] * (n + 1)
    stable_suf = [mask] * (n + 1)
    for i in range(n - 1, -1, -1):
        z, o, s, _ = inputs[i]
        known_suf[i] = known_suf[i + 1] & (z | o)
        par_suf[i] = par_suf[i + 1] ^ o
        stable_suf[i] = stable_suf[i + 1] & s

    out_known = oz | oo
    additions: List[Planes] = []
    for i in range(n):
        others_known = known_pre[i] & known_suf[i + 1]
        parity = par_pre[i] ^ par_suf[i + 1]
        active = others_known & out_known
        implied_one = ((oo & ~parity) | (oz & parity)) & active
        implied_zero = ((oo & parity) | (oz & ~parity)) & active
        others_stable = stable_pre[i] & stable_suf[i + 1]
        add_s = os
        add_i = oi & others_stable
        additions.append((implied_zero, implied_one, add_s, add_i))
    return additions
