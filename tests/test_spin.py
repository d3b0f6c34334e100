import dataclasses
import random
from itertools import product

import pytest
from oracles import coherence_check

from vanishingcycles.lattice import IDENTITY_MAP, Polygon, Segment
from vanishingcycles.network import ACurve, BCurve, Network, build_network
from vanishingcycles.spin import (
    InconsistentConstraints,
    MarkedCurve,
    ModulusMismatch,
    OddModulus,
    QuadraticFormZ2,
    SpinError,
    SpinStructure,
    arf,
    canonical_spin,
    is_admissible,
    marked_network_curve,
    q2,
    twist,
)
from vanishingcycles.surface import inflate

TRIANGLE6 = Polygon(((0, 0), (6, 0), (0, 6)))
TRIANGLE5 = Polygon(((0, 0), (5, 0), (0, 5)))
TRIANGLE4 = Polygon(((0, 0), (4, 0), (0, 4)))
SQUARE4 = Polygon(((0, 0), (4, 0), (4, 4), (0, 4)))


def canonical(P):
    net = build_network(P)
    S = inflate(net)
    return net, S, canonical_spin(S)


def mc(h, phi, r):
    return MarkedCurve(tuple(h), phi, r)


def pairing(u, v):
    return sum(u[2 * k] * v[2 * k + 1] - u[2 * k + 1] * v[2 * k]
               for k in range(len(u) // 2))


# --- structure and marked-curve records ---------------------------------------

def test_modulus_must_divide_euler_number():
    with pytest.raises(SpinError):
        SpinStructure(4, (0,) * 4)  # g=2, 2g-2=2
    with pytest.raises(SpinError):
        SpinStructure(3, (0,) * 4)
    assert SpinStructure(2, (0,) * 4).genus == 2
    assert SpinStructure(18, (0,) * 20).genus == 10
    assert SpinStructure(5, (0,) * 2).genus == 1  # 2g-2 = 0


def test_values_are_reduced():
    s = SpinStructure(4, (5, -1, 0, 6, 2, 2))
    assert s.values == (1, 3, 0, 2, 2, 2)


# --- twist-linearity ------------------------------------------------------------

def test_twist_about_zero_value_curve_preserves_value():
    d = mc((1, 0, 0, 0), 2, 6)
    c = mc((0, 1, 0, 0), 0, 6)
    assert twist(d, c).phi == d.phi


def test_twist_formula():
    # <d,c> = 1, value(c) = 2, value(d) = 1, r = 6
    d = mc((1, 0), 1, 6)
    c = mc((0, 1), 2, 6)
    out = twist(d, c)
    assert pairing(d.h, c.h) == 1
    assert out.phi == 3
    assert out.h == (1, 1)


def test_twist_about_self_is_identity():
    c = mc((1, 2, 3, 4), 5, 7)
    out = twist(c, c)
    assert out.h == c.h and out.phi == c.phi


def test_twist_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        twist(mc((1, 0), 0, 3), mc((0, 1), 0, 6))
    with pytest.raises(ModulusMismatch):
        twist(mc((1, 0), 0, 3), mc((0, 1, 0, 0), 0, 3))


# --- admissibility ----------------------------------------------------------------

def test_network_curves_are_admissible():
    net, S, spin = canonical(TRIANGLE6)
    for c in net.curve_list():
        assert is_admissible(marked_network_curve(S, spin, c))


def test_even_class_never_admissible():
    assert not is_admissible(mc((2, 0, 4, 6), 0, 3))
    assert not is_admissible(mc((0, 0, 0, 0), 0, 1))


def test_admissible_classes_are_primitive():
    # 3*x1 has an odd entry but is no simple closed curve's class
    assert not is_admissible(mc((3, 0, 0, 0), 0, 3))
    assert not is_admissible(mc((3, 0, -6, 9), 0, 1))
    assert is_admissible(mc((3, 2, 0, 0), 0, 3))
    assert is_admissible(mc((0, 0, 0, -1), 0, 1))


def test_nonzero_value_not_admissible_but_power_twist_acts():
    r = 3
    c = mc((1, 0), 1, r)
    assert not is_admissible(c)
    # the cube of the twist still preserves every value
    for h, phi in (((0, 1), 2), ((1, 1), 0), ((2, 1), 1)):
        d = mc(h, phi, r)
        assert twist(twist(twist(d, c), c), c).phi == d.phi
        assert twist(d, c).phi != d.phi or pairing(d.h, c.h) % 3 == 0


# --- homological coherence ----------------------------------------------------------

def test_pants_coherence():
    r = 9
    a = 4
    pants = [mc((1, 0), a, r), mc((0, 0), -a, r), mc((0, 0), -1, r)]
    assert coherence_check(pants, -1)
    assert not coherence_check([mc((1, 0), 0, r), mc((0, 0), 0, r),
                                mc((0, 0), 0, r)], -1)


def test_one_boundary_subsurface_coherence():
    r = 6
    for h in range(4):
        c = mc((1, 0), 1 - 2 * h, r)
        assert coherence_check([c], 1 - 2 * h)


def test_coherence_rejects_empty_and_mixed():
    with pytest.raises(SpinError):
        coherence_check([], 0)
    with pytest.raises(ModulusMismatch):
        coherence_check([mc((1, 0), 0, 3), mc((1, 0), 0, 6)], -1)


def test_region_coherence_of_network_structures():
    # every complement region bounded by one curve family has Euler number
    # divisible by r, matching the zero boundary values
    from vanishingcycles.surface import complement_regions
    for P in (TRIANGLE6, TRIANGLE5, SQUARE4):
        net, S, spin = canonical(P)
        for family in (ACurve, BCurve):
            cut = [c for c in net.curve_list() if isinstance(c, family)]
            for region in complement_regions(S, cut):
                boundary = [marked_network_curve(S, spin, c)
                            for c in region.boundary_curves]
                assert coherence_check(boundary, region.chi)


# --- canonical structures ------------------------------------------------------------

def test_triangle6_structure_is_zero():
    _, _, spin = canonical(TRIANGLE6)
    assert spin.r == 3
    assert spin.values == (0,) * 20


def test_trivial_modulus_structure():
    net, S, spin = canonical(TRIANGLE4)
    assert spin.r == 1
    assert spin.values == (0,) * 6
    for c in net.curve_list():
        assert is_admissible(marked_network_curve(S, spin, c))


def test_square4_structure_and_arf():
    _, _, spin = canonical(SQUARE4)
    assert spin.r == 2
    assert arf(spin) == 0  # even theta characteristic


def test_triangle5_structure_and_arf():
    _, _, spin = canonical(TRIANGLE5)
    assert spin.r == 2
    assert arf(spin) == 1  # odd theta characteristic


def test_canonical_form_is_one_on_all_network_classes():
    side9 = Polygon(((0, 0), (9, 0), (0, 9)))    # r = 6, g = 28
    for P in (TRIANGLE5, SQUARE4, side9):
        net, S, spin = canonical(P)
        form = q2(spin)
        for c in net.curve_list():
            assert form.evaluate(marked_network_curve(S, spin, c).h) == 1


def test_canonical_rejects_bad_modulus():
    net = build_network(TRIANGLE6)
    with pytest.raises(InconsistentConstraints):  # 4 does not divide 18
        canonical_spin(inflate(dataclasses.replace(net, r=4)))


def test_canonical_rejects_incoherent_modulus():
    # 9 divides 18 but the wedge regions have Euler number -3
    net = build_network(TRIANGLE6)
    with pytest.raises(InconsistentConstraints):
        canonical_spin(inflate(dataclasses.replace(net, r=9)))


def test_canonical_rejects_non_filling_network():
    net = Network(polygon=TRIANGLE6, kappa=(1, 1),
                  clauses={ACurve((1, 1)): 0, ACurve((2, 2)): 0},
                  embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)
    S = inflate(net)
    with pytest.raises(InconsistentConstraints):
        canonical_spin(S)


# --- mod-2 shadow ---------------------------------------------------------------------

def test_q2_of_zero_structure_is_one_on_basis():
    spin = SpinStructure(2, (0,) * 12)
    form = q2(spin)
    n = 12
    for i in range(n):
        e = [1 if j == i else 0 for j in range(n)]
        assert form.evaluate(e) == 1


def test_q2_pair_arithmetic():
    form = QuadraticFormZ2((1, 1))
    # q(x+y) = q(x) + q(y) + <x,y> = 1 + 1 + 1
    assert form.evaluate((1, 1)) == 1


def test_q2_rejects_odd_modulus():
    with pytest.raises(OddModulus):
        q2(SpinStructure(3, (0,) * 20))
    with pytest.raises(OddModulus):
        arf(SpinStructure(3, (0,) * 20))


def test_q2_satisfies_the_form_law_exhaustively():
    rng = random.Random(11)
    for g in (1, 2, 3):
        n = 2 * g
        forms = [QuadraticFormZ2(tuple(rng.randint(0, 1) for _ in range(n)))
                 for _ in range(4)]
        forms.append(QuadraticFormZ2((0,) * n))
        forms.append(QuadraticFormZ2((1,) * n))
        vecs = list(product((0, 1), repeat=n))
        for form in forms:
            for x in vecs:
                qx = form.evaluate(x)
                for y in vecs:
                    s = tuple(a ^ b for a, b in zip(x, y))
                    assert form.evaluate(s) == (
                        qx + form.evaluate(y) + pairing(x, y)) % 2


# --- Arf ---------------------------------------------------------------------------------

def test_arf_genus_one_zero_values():
    assert arf(SpinStructure(2, (0, 0))) == 1


def test_arf_invariant_under_symplectic_base_change():
    rng = random.Random(23)
    for _ in range(40):
        g = rng.randint(1, 5)
        r = 2
        spin = SpinStructure(r, tuple(rng.randint(0, 1) for _ in range(2 * g)))
        form = q2(spin)
        value = arf(spin)
        basis = [[1 if j == i else 0 for j in range(2 * g)]
                 for i in range(2 * g)]
        for _ in range(rng.randint(1, 12)):
            v = [rng.randint(0, 1) for _ in range(2 * g)]
            if not any(v):
                continue
            basis = [[(x + pairing(b, v) * w) % 2 for x, w in zip(b, v)]
                     for b in basis]
        # transvections preserve the pairing, so this is a symplectic basis
        for i in range(g):
            for j in range(g):
                want = 1 if i == j else 0
                assert pairing(basis[2 * i], basis[2 * j + 1]) % 2 == want
        changed = sum(form.evaluate(basis[2 * i]) * form.evaluate(basis[2 * i + 1])
                      for i in range(g)) % 2
        assert changed == value


# --- network orbit properties --------------------------------------------------------

def test_twist_words_preserve_parity_link_and_admissibility():
    net, S, spin = canonical(SQUARE4)
    form = q2(spin)
    curves = [marked_network_curve(S, spin, c) for c in net.curve_list()]
    rng = random.Random(31)
    checks = 0
    for start in curves:
        cur = start
        for _ in range(400):
            cur = twist(cur, curves[rng.randrange(len(curves))])
            assert cur.phi == 0
            assert is_admissible(cur)
            assert cur.phi % 2 == (form.evaluate(cur.h) + 1) % 2
            checks += 1
    assert checks >= 10_000


def test_twists_about_admissible_curves_fix_values_odd_modulus():
    net, S, spin = canonical(TRIANGLE6)
    curves = [marked_network_curve(S, spin, c) for c in net.curve_list()]
    rng = random.Random(37)
    for _ in range(200):
        d = curves[rng.randrange(len(curves))]
        c = curves[rng.randrange(len(curves))]
        assert twist(d, c).phi == d.phi == 0


# --- plumbing ------------------------------------------------------------------------

def test_marked_network_curve_requires_matching_surface():
    net, S, _ = canonical(TRIANGLE6)
    other = SpinStructure(2, (0, 0))
    with pytest.raises(ModulusMismatch):
        marked_network_curve(S, other, net.curve_list()[0])


def test_provenance_traces_accumulate():
    a = mc((1, 0), 0, 5)
    b = mc((0, 1), 1, 5)
    out = twist(twist(a, b), b)
    assert out.provenance == ("twist<1>", "twist<1>")
