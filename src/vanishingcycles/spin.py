"""Mod-r winding data carried by curves on the doubled surface.

A structure of modulus r assigns every oriented simple closed curve a value
in Z/rZ subject to twist-linearity; it exists exactly when r divides 2g-2.
The structure cannot be evaluated on bare homology classes (for r > 2 the
value is not a homology invariant), so curves are carried around as
``MarkedCurve`` records: a homology vector plus the value the construction
rules force on it.  New marked curves arise only from network curves, from
twisting, from smoothing integer combinations, and from joining two disjoint
curves along an arc; each rule has its own value formula.

The distinguished structure of a curve network assigns zero to every network
curve.  For even moduli its mod-2 shadow is a classical quadratic form; the
form and its Arf invariant are computed here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence, Tuple

from .intlinalg import solve_mod2
from .lattice import Polygon, genus
from .network import ACurve, BCurve, CurveId, Network
from .surface import (
    RibbonSurface,
    complement_regions,
    curve_class,
    homology_basis,
)


class SpinError(ValueError):
    pass


class InconsistentConstraints(SpinError):
    """The zero-on-network constraints contradict each other."""


class ModulusMismatch(SpinError):
    pass


class OddModulus(SpinError):
    """Mod-2 reductions only exist for even moduli."""


def _pairing(u: Sequence[int], v: Sequence[int]) -> int:
    # standard interleaved symplectic pairing <x_i, y_i> = +1
    total = 0
    for k in range(0, len(u) - 1, 2):
        total += u[k] * v[k + 1] - u[k + 1] * v[k]
    return total


@dataclass(frozen=True)
class SpinStructure:
    """Modulus plus the defining values on a fixed symplectic basis of curves.

    ``values[i]`` is the value of the structure on the i-th basis curve in
    the interleaved order x1, y1, ..., xg, yg used by ``homology_basis``;
    those basis classes are integer combinations of the network curves,
    which generate homology.
    """

    r: int
    values: Tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise SpinError("modulus must be a positive integer")
        if len(self.values) % 2:
            raise SpinError("basis values must come in symplectic pairs")
        g = len(self.values) // 2
        if (2 * g - 2) % self.r:
            raise SpinError(
                f"no structure of modulus {self.r} in genus {g}")
        object.__setattr__(
            self, "values", tuple(v % self.r for v in self.values))

    @property
    def genus(self) -> int:
        return len(self.values) // 2


@dataclass(frozen=True)
class MarkedCurve:
    """A homology vector together with the value forced on the curve."""

    h: Tuple[int, ...]
    phi: int
    r: int
    provenance: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.r < 1:
            raise SpinError("modulus must be a positive integer")
        if len(self.h) % 2:
            raise SpinError("homology vectors have even length")
        object.__setattr__(self, "h", tuple(int(x) for x in self.h))
        object.__setattr__(self, "phi", self.phi % self.r)

    def reverse(self) -> "MarkedCurve":
        return MarkedCurve(tuple(-x for x in self.h), -self.phi, self.r,
                           self.provenance + ("reverse",))


@dataclass(frozen=True)
class QuadraticFormZ2:
    """Mod-2 quadratic form relative to the standard symplectic pairing.

    Determined by its values on the basis; extended to arbitrary classes by
    q(x+y) = q(x) + q(y) + <x,y>.
    """

    values: Tuple[int, ...]

    def __post_init__(self):
        if len(self.values) % 2:
            raise SpinError("basis values must come in symplectic pairs")
        object.__setattr__(self, "values", tuple(v % 2 for v in self.values))

    def evaluate(self, h: Sequence[int]) -> int:
        if len(h) != len(self.values):
            raise SpinError("class has the wrong length")
        v = [x % 2 for x in h]
        total = sum(a * q for a, q in zip(v, self.values))
        for k in range(0, len(v) - 1, 2):
            total += v[k] * v[k + 1]
        return total % 2

    def arf(self) -> int:
        total = 0
        for k in range(0, len(self.values) - 1, 2):
            total += self.values[k] * self.values[k + 1]
        return total % 2


def marked_basis_curve(spin: SpinStructure, i: int) -> MarkedCurve:
    """The i-th basis curve of the structure's defining basis."""
    n = 2 * spin.genus
    if not 0 <= i < n:
        raise SpinError(f"basis index {i} out of range")
    h = tuple(1 if j == i else 0 for j in range(n))
    return MarkedCurve(h, spin.values[i], spin.r, (f"basis[{i}]",))


def marked_network_curve(S: RibbonSurface, spin: SpinStructure,
                         c: CurveId) -> MarkedCurve:
    """A network curve under the structure that vanishes on the network."""
    h = curve_class(S, c)
    if len(h) != 2 * spin.genus:
        raise ModulusMismatch("structure does not live on this surface")
    return MarkedCurve(h, 0, spin.r, (f"network:{c}",))


def canonical_spin(P: Polygon, N: Network, S: RibbonSurface) -> SpinStructure:
    """The unique structure of modulus r(N) that vanishes on every network
    curve.

    Consistency is checked two ways: the modulus must divide 2g-2, and every
    complement region cut out by the circles alone or by the segment curves
    alone must have Euler characteristic divisible by r (the coherence sum
    of zeros).  The curve classes generate homology (``homology_basis``
    raises otherwise), which pins the structure down.  For even r the mod-2
    shadow is solved from the requirement that the associated quadratic form
    take the value 1 on every network class.
    """
    if genus(P) != genus(N.polygon):
        raise InconsistentConstraints("network does not belong to the polygon")
    r = N.r
    if not S.fills():
        raise InconsistentConstraints("network does not fill the surface")
    g = S.genus()
    if (2 * g - 2) % r:
        raise InconsistentConstraints(
            f"modulus {r} does not divide 2g-2 = {2 * g - 2}")

    curves = list(N.curve_list())
    homology_basis(S)  # raises unless the curve classes generate H_1
    n = 2 * g

    for family in (ACurve, BCurve):
        cut = [c for c in curves if isinstance(c, family)]
        for region in complement_regions(S, cut):
            if region.chi % r:
                raise InconsistentConstraints(
                    f"region with Euler number {region.chi} violates "
                    f"coherence mod {r}")

    if r % 2:
        values = (0,) * n
    else:
        # q(h) = sum h_i q_i + sum h_{2k} h_{2k+1} must equal 1 on every
        # network class; solve for the basis bits q_i
        classes = [curve_class(S, c) for c in curves]
        rows = [[x % 2 for x in h] for h in classes]
        rhs = []
        for h in rows:
            corr = sum(h[2 * k] * h[2 * k + 1] for k in range(g))
            rhs.append((1 + corr) % 2)
        q_bits = solve_mod2(rows, rhs, n)
        if q_bits is None:
            raise InconsistentConstraints(
                "network classes admit no mod-2 form")
        form = QuadraticFormZ2(tuple(q_bits))
        for h in classes:
            if form.evaluate(h) != 1:
                raise InconsistentConstraints(
                    "mod-2 form fails on a network class")
        values = tuple((b + 1) % 2 for b in q_bits)
    return SpinStructure(r, values)


def twist(d: MarkedCurve, c: MarkedCurve) -> MarkedCurve:
    """Dehn twist of d about c: h gains <h,c>c, the value gains <h,c>phi(c)."""
    if d.r != c.r or len(d.h) != len(c.h):
        raise ModulusMismatch("curves live under different structures")
    k = _pairing(d.h, c.h)
    h = tuple(x + k * y for x, y in zip(d.h, c.h))
    return MarkedCurve(h, d.phi + k * c.phi, d.r,
                       d.provenance + (f"twist<{k}>",))


def twist_power(d: MarkedCurve, c: MarkedCurve, k: int) -> MarkedCurve:
    """k-fold twist; <h,c> is constant along the way since <c,c> = 0."""
    if d.r != c.r or len(d.h) != len(c.h):
        raise ModulusMismatch("curves live under different structures")
    m = _pairing(d.h, c.h)
    h = tuple(x + k * m * y for x, y in zip(d.h, c.h))
    return MarkedCurve(h, d.phi + k * m * c.phi, d.r,
                       d.provenance + (f"twist^{k}",))


def smooth_sum(m: int, alpha: MarkedCurve, n: int,
               beta: MarkedCurve) -> MarkedCurve:
    """The smoothed combination m*alpha + n*beta.

    Geometric side conditions are the caller's responsibility; the record is
    tagged "single component" in the provenance when the homological data is
    consistent with that reading (unit pairing, coprime coefficients).
    """
    if alpha.r != beta.r or len(alpha.h) != len(beta.h):
        raise ModulusMismatch("curves live under different structures")
    h = tuple(m * x + n * y for x, y in zip(alpha.h, beta.h))
    tags = [f"smooth({m},{n})"]
    if gcd(m, n) == 1 and abs(_pairing(alpha.h, beta.h)) == 1:
        tags.append("single component")
    return MarkedCurve(h, m * alpha.phi + n * beta.phi, alpha.r,
                       alpha.provenance + tuple(tags))


def curve_arc_sum(alpha: MarkedCurve, beta: MarkedCurve) -> MarkedCurve:
    """Join two disjoint curves along an arc: values add and gain one."""
    if alpha.r != beta.r or len(alpha.h) != len(beta.h):
        raise ModulusMismatch("curves live under different structures")
    h = tuple(x + y for x, y in zip(alpha.h, beta.h))
    tags = ["arc-sum"]
    if not any(h):
        tags.append("separating")
    return MarkedCurve(h, alpha.phi + beta.phi + 1, alpha.r,
                       alpha.provenance + tuple(tags))


def is_admissible(c: MarkedCurve) -> bool:
    """Zero value and primitive homology class, as for every nonseparating
    simple closed curve."""
    return c.phi % c.r == 0 and gcd(*c.h) == 1


def coherence_check(boundary: Iterable[MarkedCurve], chi_sub: int) -> bool:
    """Boundary values of a subsurface must sum to its Euler number mod r.

    Curves are expected oriented with the subsurface to the left.
    """
    curves = list(boundary)
    if not curves:
        raise SpinError("a subsurface has at least one boundary curve")
    r = curves[0].r
    if any(c.r != r for c in curves):
        raise ModulusMismatch("curves live under different structures")
    return (sum(c.phi for c in curves) - chi_sub) % r == 0


def q2(spin: SpinStructure) -> QuadraticFormZ2:
    """The classical mod-2 form: value + 1 on each basis curve."""
    if spin.r % 2:
        raise OddModulus("mod-2 shadow requires an even modulus")
    return QuadraticFormZ2(tuple((v + 1) % 2 for v in spin.values))


def arf(spin: SpinStructure) -> int:
    """Arf invariant of the mod-2 shadow."""
    form = q2(spin)
    return form.arf()


def model_structure(g: int, r: int, parity: int) -> SpinStructure:
    """Zero on the basis except the last curve, adjusted to the given Arf.

    The all-zero assignment has Arf g mod 2; setting the value on y_g to 1
    kills the last summand, giving g-1 mod 2.
    """
    if r % 2:
        raise OddModulus("model parities require an even modulus")
    if parity not in (0, 1):
        raise SpinError("parity is a bit")
    values = [0] * (2 * g)
    if parity != g % 2:
        values[2 * g - 1] = 1
    return SpinStructure(r, tuple(values))


def fundamental_multitwist_check(triple: Sequence[MarkedCurve],
                                 exponents: Sequence[int],
                                 tests: Iterable[MarkedCurve]) -> bool:
    """Whether the multitwist with these exponents preserves every test value.

    The triple is expected to bound a pair of pants (pairwise disjoint,
    coherence sum -1); that reading is caller-asserted.
    """
    if len(triple) != 3 or len(exponents) != 3:
        raise SpinError("a multitwist runs over three curves")
    r = triple[0].r
    if any(c.r != r for c in triple):
        raise ModulusMismatch("curves live under different structures")
    for t in tests:
        if t.r != r:
            raise ModulusMismatch("curves live under different structures")
        out = t
        for c, k in zip(triple, exponents):
            out = twist_power(out, c, k)
        if out.phi != t.phi:
            return False
    return True
