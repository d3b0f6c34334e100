import random

import pytest

from vanishingcycles.lattice import Polygon
from vanishingcycles.network import build_network, dn_configuration
from vanishingcycles.spin import (
    MarkedCurve,
    QuadraticFormZ2,
    canonical_spin,
    coherence_check,
    is_admissible,
    marked_network_curve,
)
from vanishingcycles.surface import inflate
from vanishingcycles.symp import (
    BadPairing,
    ConditionsViolated,
    NonPrimitive,
    NotAChain,
    NotDnPattern,
    NotSymplectic,
    SpMatrix,
    SympError,
    TooLarge,
    anisotropic_closure_order,
    apply_word,
    nested_twist_power_check,
    quadratic_form_orbits,
    sp_mod2_bfs_order,
    sp_mod2_order,
    sp_q_stabilizer_bruteforce,
    square_transvection_identity,
    transvection,
    verify_braid,
    verify_chain,
    verify_dn,
    word_matrix,
)

TRIANGLE6 = Polygon(((0, 0), (6, 0), (0, 6)))


def basis(n, i):
    return tuple(int(j == i) for j in range(n))


def xv(n, i):
    """x_i of the interleaved basis, 1-indexed."""
    return basis(n, 2 * (i - 1))


def yv(n, i):
    return basis(n, 2 * (i - 1) + 1)


def add(*vs):
    return tuple(sum(c) for c in zip(*vs))


def neg(v):
    return tuple(-x for x in v)


def pairing(u, v):
    return sum(u[2 * k] * v[2 * k + 1] - u[2 * k + 1] * v[2 * k]
               for k in range(len(u) // 2))


def mc(h, phi=0, r=2):
    return MarkedCurve(tuple(h), phi, r)


def basis_tests(dim, r):
    return [mc(basis(dim, i), 0, r) for i in range(dim)]


def standard_chain(n):
    """v1 = x1, v_{2i} = y_i, v_{2i+1} = x_i + x_{i+1}."""
    g = n // 2 + 1
    dim = 2 * g
    vs = [xv(dim, 1)]
    for m in range(2, n + 1):
        i = m // 2
        vs.append(yv(dim, i) if m % 2 == 0 else add(xv(dim, i), xv(dim, i + 1)))
    return vs, dim


def chain_boundary_classes(n, dim):
    if n % 2:
        d = xv(dim, (n + 1) // 2)
        return [d, neg(d)]
    return [tuple(0 for _ in range(dim))]


def dn_model(n):
    """Fork curves a, a' plus a chain of n-2, with the boundary classes of
    the spanned subsurface: (z, -z) for odd n, (z, d1, -z-d1) for even n."""
    gp = (n - 1) // 2 if n % 2 else (n - 2) // 2
    extra = 1 if n % 2 else 2
    dim = 2 * (gp + extra)
    a = yv(dim, 1)
    ap = add(yv(dim, 1), xv(dim, gp + extra))
    cs = []
    for m in range(1, n - 1):
        i = (m + 1) // 2
        cs.append(xv(dim, i) if m % 2 else add(yv(dim, i), neg(yv(dim, i + 1))))
    z = add(ap, neg(a))
    if n % 2:
        bnd = [z, neg(z)]
    else:
        d1 = yv(dim, gp + 1)
        bnd = [z, d1, add(neg(z), neg(d1))]
    return [a, ap] + cs, bnd, dim


# --- matrices ------------------------------------------------------------------

def test_identity_and_shape_validation():
    assert SpMatrix.identity(4).genus == 2
    with pytest.raises(NotSymplectic):
        SpMatrix(((1, 0), (0, 1), (0, 0)))
    with pytest.raises(NotSymplectic):
        SpMatrix(((1,),))
    with pytest.raises(NotSymplectic):
        SpMatrix(((1, 1), (1, 1)))  # degenerate columns
    with pytest.raises(NotSymplectic):
        SpMatrix(((2, 0), (0, 1)))  # scales the form


def test_transvection_matches_twist_rule():
    rng = random.Random(11)
    for _ in range(40):
        dim = 2 * rng.randint(1, 4)
        v = [0] * dim
        while not any(x == 1 or x == -1 for x in v):
            v = [rng.randint(-2, 2) for _ in range(dim)]
        # force primitivity by planting a unit entry
        M = transvection(v)
        x = [rng.randint(-3, 3) for _ in range(dim)]
        expected = tuple(a + pairing(x, v) * b for a, b in zip(x, v))
        assert M.apply(x) == expected


def test_transvection_rejects_imprimitive():
    with pytest.raises(NonPrimitive):
        transvection((0, 0, 0, 0))
    with pytest.raises(NonPrimitive):
        transvection((2, 0, 0, 4))


def test_inverse_and_powers_are_exact():
    M = transvection((1, 0, 0, 0)) @ transvection((0, 1, 0, -1)) \
        @ transvection((1, 1, 1, 0))
    ident = SpMatrix.identity(4)
    assert M @ M.inverse() == ident
    assert M.inverse() @ M == ident
    assert (M ** -4) @ (M ** 4) == ident
    assert M ** 0 == ident
    assert M.mod(5) == tuple(tuple(x % 5 for x in row) for row in M.rows)
    with pytest.raises(SympError):
        M.mod(0)
    with pytest.raises(SympError):
        M @ SpMatrix.identity(6)
    with pytest.raises(SympError):
        M.apply((1, 2, 3))


def test_apply_word_matches_word_matrix():
    rng = random.Random(23)
    dim = 6
    letters = [mc(xv(dim, i + 1)) for i in range(3)] + \
              [mc(yv(dim, i + 1)) for i in range(3)] + \
              [mc(add(xv(dim, 1), yv(dim, 2)))]
    for _ in range(50):
        word = [letters[rng.randrange(len(letters))]
                for _ in range(rng.randint(1, 6))]
        target = mc([rng.randint(-2, 2) for _ in range(dim)])
        image = apply_word(word, target)
        assert image.h == word_matrix(word).apply(target.h)


# --- braid relation ------------------------------------------------------------

def test_braid_holds_for_dual_pair():
    a = mc(xv(4, 1), 1, 3)
    b = mc(yv(4, 1), 2, 3)
    assert verify_braid(a, b)
    assert verify_braid(b, a)


def test_braid_needs_pairing_one():
    with pytest.raises(BadPairing):
        verify_braid(mc(xv(4, 1)), mc(xv(4, 2)))
    with pytest.raises(SympError):
        verify_braid(mc(xv(4, 1)), mc(xv(6, 1), 0, 2))
    with pytest.raises(SympError):
        verify_braid(mc(xv(4, 1), 0, 2), mc(yv(4, 1), 0, 3))


def test_braid_on_network_pair():
    net = build_network(TRIANGLE6)
    S = inflate(TRIANGLE6, net)
    spin = canonical_spin(TRIANGLE6, net, S)
    dn = dn_configuration(net)
    u = marked_network_curve(S, spin, dn.chain[0])
    v = marked_network_curve(S, spin, dn.chain[1])
    assert verify_braid(u, v)


# --- chain relations -----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_chain_relation_standard_models(n):
    vs, dim = standard_chain(n)
    chain = [mc(v) for v in vs]
    boundary = [mc(b) for b in chain_boundary_classes(n, dim)]
    assert verify_chain(chain, boundary, tests=basis_tests(dim, 2))
    # default test set (the curves themselves) agrees
    assert verify_chain(chain, boundary)


def test_chain_relation_conjugation_invariant():
    rng = random.Random(37)
    vs, dim = standard_chain(5)
    letters = [mc(xv(dim, i + 1)) for i in range(dim // 2)] + \
              [mc(yv(dim, i + 1)) for i in range(dim // 2)]
    for _ in range(5):
        word = [letters[rng.randrange(len(letters))] for _ in range(6)]
        chain = [apply_word(word, mc(v)) for v in vs]
        boundary = [apply_word(word, mc(b))
                    for b in chain_boundary_classes(5, dim)]
        assert verify_chain(chain, boundary, tests=basis_tests(dim, 2))


def test_chain_values_constrain_the_boundary():
    # a value assignment matching the relation, and one that does not
    vs, dim = standard_chain(3)
    chain = [mc(v, p, 3) for v, p in zip(vs, (0, 0, 1))]
    good = [mc(xv(dim, 2), 0, 3), mc(neg(xv(dim, 2)), 1, 3)]
    assert verify_chain(chain, good, tests=basis_tests(dim, 3))
    zero_chain = [mc(v, 0, 2) for v in vs]
    bad = [mc(xv(dim, 2), 0, 2), mc(neg(xv(dim, 2)), 1, 2)]
    assert not verify_chain(zero_chain, bad, tests=basis_tests(dim, 2))


def test_chain_wrong_boundary_class_fails_matrices():
    vs, dim = standard_chain(3)
    chain = [mc(v) for v in vs]
    wrong = [mc(xv(dim, 1)), mc(neg(xv(dim, 1)))]
    assert not verify_chain(chain, wrong, tests=basis_tests(dim, 2))


def test_chain_pattern_violations():
    vs, dim = standard_chain(4)
    chain = [mc(v) for v in vs]
    boundary = [mc(b) for b in chain_boundary_classes(4, dim)]
    with pytest.raises(NotAChain):
        verify_chain([], boundary)
    with pytest.raises(NotAChain):
        verify_chain([chain[0], chain[0]], boundary)     # pairing 0, want 1
    with pytest.raises(NotAChain):
        verify_chain(chain, [])                          # wrong count
    with pytest.raises(NotAChain, match="^boundary classes must sum to zero$"):
        verify_chain(chain, [mc(xv(dim, 1))])            # nonzero sum
    with pytest.raises(NotAChain, match="^boundary curves live under"
                                        " different structures$"):
        verify_chain(chain, [mc((0,) * dim, 0, 3)])
    with pytest.raises(NotAChain):
        verify_chain([chain[0], mc(yv(dim, 1), 0, 3)], boundary)


# --- forked chains -------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_dn_relation_models(n):
    cfg, bnd, dim = dn_model(n)
    config = [mc(v) for v in cfg]
    boundary = [mc(b) for b in bnd]
    assert verify_dn(config, boundary, tests=basis_tests(dim, 2))
    assert verify_dn(config, boundary)


def test_dn_values_constrain_the_boundary():
    cfg, bnd, dim = dn_model(3)
    config = [mc(v, p, 2) for v, p in zip(cfg, (0, 1, 0))]
    good = [mc(bnd[0], 1, 2), mc(bnd[1], 1, 2)]
    assert verify_dn(config, good, tests=basis_tests(dim, 2))
    zero_config = [mc(v, 0, 2) for v in cfg]
    bad = [mc(bnd[0], 1, 2), mc(bnd[1], 0, 2)]
    assert not verify_dn(zero_config, bad, tests=basis_tests(dim, 2))


def test_dn_pattern_violations():
    cfg, bnd, dim = dn_model(5)
    config = [mc(v) for v in cfg]
    boundary = [mc(b) for b in bnd]
    with pytest.raises(NotDnPattern):
        verify_dn(config[:2], boundary)                  # too short
    with pytest.raises(NotDnPattern):
        verify_dn([config[0], config[2], config[1]] + config[3:], boundary)
    with pytest.raises(NotDnPattern):
        verify_dn(config, boundary[:1])                  # wrong count
    with pytest.raises(NotDnPattern, match="^boundary classes must sum to"
                                           " zero$"):
        verify_dn(config, [mc(bnd[0]), mc(bnd[0])])      # nonzero sum
    with pytest.raises(NotDnPattern, match="^boundary curves are disjoint"
                                           " from the configuration$"):
        verify_dn(config, [mc(cfg[2]), mc(neg(cfg[2]))])  # meets the chain
    with pytest.raises(NotDnPattern, match="^boundary curves live under"
                                           " different structures$"):
        verify_dn(config, [mc(bnd[0], 0, 3), mc(neg(bnd[0]), 0, 3)])
    # the two relations share one boundary check but keep their error class
    assert not issubclass(NotDnPattern, NotAChain)
    assert not issubclass(NotAChain, NotDnPattern)


# --- certified powers of the nested boundary twists ------------------------------

def test_nested_twist_powers_model():
    cfg, bnd, dim = dn_model(9)   # three-handle truncation tower
    r = 3
    config = [mc(v, 0, r) for v in cfg]
    delta0 = mc(bnd[0], 0, r)
    delta1 = mc(yv(dim, 4), 0, r)
    assert nested_twist_power_check(config, delta0, delta1, m=3)
    assert nested_twist_power_check(config, delta0, delta1, m=6)
    with pytest.raises(ConditionsViolated):
        nested_twist_power_check(config, delta0, delta1, m=2)


def test_nested_twist_powers_smaller_towers():
    cfg, bnd, dim = dn_model(7)   # two handles: even powers certified
    config = [mc(v) for v in cfg]
    delta0 = mc(bnd[0])
    delta1 = mc(yv(dim, 3))
    assert nested_twist_power_check(config, delta0, delta1, m=2)
    with pytest.raises(ConditionsViolated):
        nested_twist_power_check(config, delta0, delta1, m=1)
    cfg, bnd, dim = dn_model(5)   # one handle: every power certified
    config = [mc(v) for v in cfg]
    assert nested_twist_power_check(config, mc(bnd[0]), mc(yv(dim, 2)), m=1)


def test_nested_twist_powers_needs_odd_tower():
    cfg, bnd, dim = dn_model(6)
    config = [mc(v) for v in cfg]
    with pytest.raises(NotDnPattern):
        nested_twist_power_check(config, mc(bnd[0]), mc(bnd[1]), m=2)
    cfg, bnd, dim = dn_model(3)
    with pytest.raises(NotDnPattern):
        nested_twist_power_check([mc(v) for v in cfg], mc(bnd[0]),
                                 mc(bnd[1]), m=1)


# --- the square of a twist as a chain word ---------------------------------------

def test_square_transvection_identity_holds():
    v1, v2, v3 = xv(6, 1), add(yv(6, 1), neg(yv(6, 2))), xv(6, 2)
    w = add(v1, v3)
    q = QuadraticFormZ2((1, 1, 1, 0, 0, 0))
    assert square_transvection_identity(w, v1, v2, v3)
    assert square_transvection_identity(w, v1, v2, v3, q=q)
    assert square_transvection_identity(w, v1, v2, v3, modulus=7)


def test_square_transvection_condition_checks():
    v1, v2, v3 = xv(6, 1), add(yv(6, 1), neg(yv(6, 2))), xv(6, 2)
    w = add(v1, v3)
    with pytest.raises(ConditionsViolated):
        square_transvection_identity(xv(6, 3), v1, v2, v3)   # w != v1+v3
    with pytest.raises(ConditionsViolated):
        square_transvection_identity(w, v3, v2, v1)          # reordered chain
    with pytest.raises(ConditionsViolated):
        square_transvection_identity(add(v1, v1), v1, yv(6, 1), v1)
    with pytest.raises(ConditionsViolated):
        # isotropic vectors: their twists move the form
        square_transvection_identity(w, v1, v2, v3,
                                     q=QuadraticFormZ2((0,) * 6))


# --- mod-2 brute force ------------------------------------------------------------

def test_group_orders():
    assert sp_mod2_order(1) == 6
    assert sp_mod2_order(2) == 720
    assert sp_mod2_order(3) == 1451520
    assert sp_mod2_bfs_order(1) == 6
    assert sp_mod2_bfs_order(2) == 720
    with pytest.raises(TooLarge):
        sp_mod2_bfs_order(3)


def test_form_orbit_census():
    assert quadratic_form_orbits(1) == {0: 3, 1: 1}
    assert quadratic_form_orbits(2) == {0: 10, 1: 6}
    assert quadratic_form_orbits(3) == {0: 36, 1: 28}
    assert quadratic_form_orbits(4) == {0: 136, 1: 120}
    for g in (1, 2, 3, 4):
        census = quadratic_form_orbits(g)
        assert census[0] == 2 ** (g - 1) * (2 ** g + 1)
        assert census[1] == 2 ** (g - 1) * (2 ** g - 1)
        assert census[0] + census[1] == 2 ** (2 * g)


def test_stabilizers_genus_one_and_two():
    assert sp_q_stabilizer_bruteforce(1, QuadraticFormZ2((1, 1))) == (6, True)
    assert sp_q_stabilizer_bruteforce(1, QuadraticFormZ2((1, 0))) == (2, True)
    # Arf-1 form at g=2: anisotropic twists generate the full stabilizer
    assert sp_q_stabilizer_bruteforce(
        2, QuadraticFormZ2((1, 1, 1, 0))) == (120, True)


def test_stabilizer_exception_at_genus_two_even():
    # The Arf-0 stabilizer at g=2 is the classical exception: the
    # anisotropic twists generate only an index-2 subgroup.
    q = QuadraticFormZ2((1, 1, 1, 1))
    assert q.arf() == 0
    assert sp_q_stabilizer_bruteforce(2, q) == (72, False)
    assert anisotropic_closure_order(2, q) == 36


def test_stabilizers_genus_three_both_parities():
    odd = QuadraticFormZ2((1, 1, 1, 1, 1, 1))
    even = QuadraticFormZ2((1, 1, 1, 1, 1, 0))
    assert odd.arf() == 1 and even.arf() == 0
    assert sp_q_stabilizer_bruteforce(3, odd) == (51840, True)
    assert sp_q_stabilizer_bruteforce(3, even) == (40320, True)
    # orbit-stabilizer cross-check against the census
    assert 51840 * quadratic_form_orbits(3)[1] == sp_mod2_order(3)
    assert 40320 * quadratic_form_orbits(3)[0] == sp_mod2_order(3)


def test_bruteforce_input_validation():
    with pytest.raises(TooLarge):
        sp_q_stabilizer_bruteforce(4, QuadraticFormZ2((1,) * 8))
    with pytest.raises(SympError):
        sp_q_stabilizer_bruteforce(2, QuadraticFormZ2((1, 1)))
    with pytest.raises(SympError):
        quadratic_form_orbits(0)


# --- the forked chain of the standard network -------------------------------------

@pytest.fixture(scope="module")
def side6():
    net = build_network(TRIANGLE6)
    S = inflate(TRIANGLE6, net)
    spin = canonical_spin(TRIANGLE6, net, S)
    return net, S, spin


def test_network_dn_relation(side6):
    net, S, spin = side6
    dn = dn_configuration(net)
    config = [marked_network_curve(S, spin, c)
              for c in (dn.a, dn.a_prime, *dn.chain)]
    assert all(is_admissible(c) for c in config)
    a, ap, c1 = config[0].h, config[1].h, config[2].h
    assert pairing(a, c1) == -pairing(ap, c1)
    z = add(a, ap)
    assert all(pairing(z, c.h) == 0 for c in config)
    r = spin.r
    dim = len(z)
    delta0 = MarkedCurve(z, 2, r)
    delta2 = MarkedCurve(neg(z), 2, r)
    assert verify_dn(config, (delta0, delta2), tests=basis_tests(dim, r))
    # the boundary values fit the side subsurfaces: the fork side is a
    # one-handle piece, the whole neighborhood a four-handle piece
    assert coherence_check([delta0], -1)
    assert coherence_check([delta0, delta2], -8)


def test_network_nested_twist_powers(side6):
    net, S, spin = side6
    dn = dn_configuration(net)
    config = [marked_network_curve(S, spin, c)
              for c in (dn.a, dn.a_prime, *dn.chain)]
    z = add(config[0].h, config[1].h)
    delta0 = MarkedCurve(z, 2, spin.r)
    delta1 = marked_network_curve(S, spin, dn.delta1).reverse()
    assert nested_twist_power_check(config, delta0, delta1, m=3)
    with pytest.raises(ConditionsViolated):
        nested_twist_power_check(config, delta0, delta1, m=1)
