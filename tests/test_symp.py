import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    anisotropic_closure_bits,
    basis_replay_oracle,
    braid_oracle,
    chain_oracle,
    coherence_check,
    dn_oracle,
    form_orbit_oracle,
    stabilizer_filter_oracle,
    transvection_perm_oracle,
    value_table,
)
from sympy.combinatorics import Permutation, PermutationGroup

from vanishingcycles.lattice import Polygon
from vanishingcycles.network import build_network, dn_configuration
from vanishingcycles.spin import (
    MarkedCurve,
    QuadraticFormZ2,
    canonical_spin,
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
    _anisotropic_vectors,
    _form_orbit,
    _generated_order,
    _pairings,
    _same_action,
    _transvection_perm,
    anisotropic_closure_order,
    apply_word,
    model_chain,
    model_dn,
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
    assert len(SpMatrix.identity(4).rows) // 2 == 2
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
    for k in range(-6, 7):          # binary powering: the repeated product
        want = ident
        for _ in range(abs(k)):
            want = want @ (M if k > 0 else M.inverse())
        assert M ** k == want, k
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
    S = inflate(net)
    spin = canonical_spin(S)
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
        assert verify_chain(chain, boundary)


def test_chain_values_constrain_the_boundary():
    # a value assignment matching the relation, and one that does not
    vs, dim = standard_chain(3)
    chain = [mc(v, p, 3) for v, p in zip(vs, (0, 0, 1))]
    good = [mc(xv(dim, 2), 0, 3), mc(neg(xv(dim, 2)), 1, 3)]
    assert verify_chain(chain, good)
    zero_chain = [mc(v, 0, 2) for v in vs]
    bad = [mc(xv(dim, 2), 0, 2), mc(neg(xv(dim, 2)), 1, 2)]
    assert not verify_chain(zero_chain, bad)


def test_chain_wrong_boundary_class_fails_matrices():
    vs, dim = standard_chain(3)
    chain = [mc(v) for v in vs]
    wrong = [mc(xv(dim, 1)), mc(neg(xv(dim, 1)))]
    assert not verify_chain(chain, wrong)


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
    assert verify_dn(config, boundary)


def test_dn_values_constrain_the_boundary():
    cfg, bnd, dim = dn_model(3)
    config = [mc(v, p, 2) for v, p in zip(cfg, (0, 1, 0))]
    good = [mc(bnd[0], 1, 2), mc(bnd[1], 1, 2)]
    assert verify_dn(config, good)
    zero_config = [mc(v, 0, 2) for v in cfg]
    bad = [mc(bnd[0], 1, 2), mc(bnd[1], 0, 2)]
    assert not verify_dn(zero_config, bad)


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
    with pytest.raises(NotDnPattern, match="^boundary curves must be"
                                           " disjoint from the configuration$"):
        verify_dn(config, [mc(cfg[2]), mc(neg(cfg[2]))])  # meets the chain
    with pytest.raises(NotDnPattern, match="^boundary curves live under"
                                           " different structures$"):
        verify_dn(config, [mc(bnd[0], 0, 3), mc(neg(bnd[0]), 0, 3)])
    # the two relations share one boundary check but keep their error class
    assert not issubclass(NotDnPattern, NotAChain)
    assert not issubclass(NotAChain, NotDnPattern)


# --- relations decided on every marked curve -----------------------------------

def with_values(curves, values):
    return [MarkedCurve(c.h, p, c.r) for c, p in zip(curves, values)]


@pytest.mark.parametrize("n", [3, 5])
def test_relations_see_every_marked_curve(n):
    # The curves and the boundary do not span homology when n is odd: with
    # boundary values (0, 1) the relation agrees on all of them, yet it
    # moves the value of a class paired with the boundary.
    for (curves, boundary), verify, oracle in (
            (model_chain(n, 3), verify_chain, chain_oracle),
            (model_dn(n, 2), verify_dn, dn_oracle)):
        off = with_values(boundary, (0, 1))
        tests = basis_tests(len(curves[0].h), curves[0].r)
        assert oracle(curves, off, list(curves) + off)
        assert not oracle(curves, off, tests)
        assert not verify(curves, off)


def seeded_images(groups, rng, r):
    """The curves under a seeded symplectic map, each with a random value
    in Z/r, or every value zero on half of the draws."""
    dim = len(groups[0][0].h)
    letters = [mc(basis(dim, i)) for i in range(dim)] + \
              [mc(add(xv(dim, i), xv(dim, i + 1))) for i in range(1, dim // 2)]
    move = word_matrix([rng.choice(letters) for _ in range(2 * dim)])
    zero = rng.random() < 0.5
    return [[MarkedCurve(move.apply(c.h), 0 if zero else rng.randrange(r), r)
             for c in group] for group in groups]


def test_relations_match_the_matrix_oracle():
    rng = random.Random(53)
    seen = set()
    for r in (2, 3, 4, 6):
        for n in range(2, 9):
            for _ in range(3):
                chain, boundary = seeded_images(model_chain(n, r), rng, r)
                tests = basis_tests(len(chain[0].h), r)
                got = verify_chain(chain, boundary)
                assert got == chain_oracle(chain, boundary, tests), (n, r)
                seen.add(got)
                for a, b in zip(chain, chain[1:]):
                    assert verify_braid(a, b) == braid_oracle(a, b)
        for n in range(3, 10):
            for _ in range(3):
                config, boundary = seeded_images(model_dn(n, r), rng, r)
                tests = basis_tests(len(config[0].h), r)
                got = verify_dn(config, boundary)
                assert got == dn_oracle(config, boundary, tests), (n, r)
                seen.add(got)
    assert seen == {True, False}


# --- the pairing-vector replay against the basis replay -------------------------

def same_action(lhs, repeat, rhs):
    """:func:`_same_action` on words of marked curves, each distinct curve
    indexed once, so that a letter of both words has one index."""
    curves = list(dict.fromkeys((*lhs, *rhs)))
    index = {c: i for i, c in enumerate(curves)}
    return _same_action(curves, _pairings(curves), [index[c] for c in lhs],
                        repeat, [index[c] for c in rhs])


@st.composite
def word_pairs(draw):
    """A word, a power and a second word over a pool of sparse curves that
    holds a class and its negative, the zero class and one class under two
    values.  The second word is either random, sharing a letter with the
    first, or the power written out and then edited: a letter reversed or a
    zero-class letter put in (neither moves any curve), a value changed or
    a letter dropped."""
    dim, r = 2 * draw(st.integers(1, 5)), draw(st.integers(1, 6))
    value = st.integers(0, r - 1)

    def sparse():
        h = [0] * dim
        for k in draw(st.lists(st.integers(0, dim - 1), min_size=1,
                               max_size=3)):
            h[k] = draw(st.integers(-2, 2))
        return mc(h, draw(value), r)

    first = sparse()
    pool = [first, mc(neg(first.h), -first.phi, r),
            mc(neg(first.h), draw(value), r),
            mc((0,) * dim, draw(value), r), mc(first.h, first.phi + 1, r)]
    pool += [sparse() for _ in range(draw(st.integers(0, 4)))]
    letter = st.sampled_from(pool)
    lhs = draw(st.lists(letter, min_size=1, max_size=5))
    repeat = draw(st.integers(1, 6))
    if draw(st.booleans()):
        rhs = draw(st.lists(letter, max_size=8))
        rhs.insert(draw(st.integers(0, len(rhs))), draw(st.sampled_from(lhs)))
        return lhs, repeat, rhs
    rhs = lhs * repeat
    for edit in draw(st.lists(st.sampled_from(
            ("reverse", "zero", "value", "drop")), max_size=2)):
        at = draw(st.integers(0, len(rhs) - 1)) if rhs else 0
        if edit == "zero":
            rhs.insert(at, mc((0,) * dim, draw(value), r))
        elif rhs and edit == "reverse":
            rhs[at] = mc(neg(rhs[at].h), -rhs[at].phi, r)
        elif rhs and edit == "value":
            rhs[at] = mc(rhs[at].h, rhs[at].phi + 1, r)
        elif rhs:
            del rhs[at]
    return lhs, repeat, rhs


def test_same_action_matches_the_basis_replay():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(word_pairs())
    def check(case):
        lhs, repeat, rhs = case
        got = same_action(lhs, repeat, rhs)
        assert got == basis_replay_oracle(lhs, repeat, rhs)
        seen.add(got)

    check()
    assert seen == {True, False}


def moved(groups, rng, r):
    """The curves under a seeded product of twists about basis classes and
    the classes x_i + x_{i+1}, values kept."""
    dim = len(groups[0][0].h)
    letters = [mc(basis(dim, i), 0, r) for i in range(dim)] + \
              [mc(add(xv(dim, i), xv(dim, i + 1)), 0, r)
               for i in range(1, dim // 2)]
    word = [rng.choice(letters) for _ in range(2 * dim)]
    return [[apply_word(word, c) for c in group] for group in groups]


def test_relations_match_the_basis_replay_at_benchmark_sizes():
    rng = random.Random(97)
    seen = set()
    cases = [(verify_dn, model_dn, n) for n in range(3, 22)] + \
            [(verify_chain, model_chain, n) for n in range(2, 11)]
    for r in (2, 3, 4, 6):
        for verify, model, n in cases:
            curves, boundary = moved(model(n, r), rng, r)
            k = rng.randrange(len(boundary))
            shifted = list(boundary)
            shifted[k] = mc(boundary[k].h, boundary[k].phi + 1, r)
            for bnd in (boundary, shifted):
                got = verify(curves, bnd)
                if verify is verify_chain:
                    exponent = n + 1 if n % 2 else 2 * n + 2
                    want = basis_replay_oracle(curves, exponent, bnd)
                elif n % 2:
                    want = basis_replay_oracle(
                        curves, 2 * n - 2, [bnd[0]] * (n - 2) + [bnd[1]])
                else:
                    want = basis_replay_oracle(
                        curves, n - 1, [bnd[0]] * ((n - 2) // 2) + bnd[1:])
                assert got == want, (verify.__name__, n, r, bnd is shifted)
                seen.add((bnd is shifted, got))
    assert seen == {(False, True), (True, True), (True, False)}


# --- the square of a twist as a chain word ---------------------------------------

def test_square_transvection_identity_holds():
    v1, v2, v3 = xv(6, 1), add(yv(6, 1), neg(yv(6, 2))), xv(6, 2)
    w = add(v1, v3)
    q = QuadraticFormZ2((1, 1, 1, 0, 0, 0))
    assert square_transvection_identity(w, v1, v2, v3)
    assert square_transvection_identity(w, v1, v2, v3, q=q)


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


# --- mod-2 groups -----------------------------------------------------------------

def test_group_orders():
    assert sp_mod2_order(1) == 6
    assert sp_mod2_order(2) == 720
    assert sp_mod2_order(3) == 1451520
    assert sp_mod2_bfs_order(1) == 6
    assert sp_mod2_bfs_order(2) == 720
    assert sp_mod2_bfs_order(3) == sp_mod2_order(3) == 1451520
    assert sp_mod2_bfs_order(4) == sp_mod2_order(4) == 47377612800
    with pytest.raises(TooLarge):
        sp_mod2_bfs_order(5)


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


def _values(mask, n):
    return tuple((mask >> i) & 1 for i in range(n))


def test_form_orbit_matches_the_tuple_oracle():
    # every form at g <= 3 and eight seeded forms at g = 4: the orbit of the
    # mask, read back as value tuples, is the orbit the tuple search finds
    rng = random.Random(29)
    cases = [(g, f) for g in (1, 2, 3) for f in range(1 << (2 * g))]
    cases += [(4, rng.randrange(1 << 8)) for _ in range(8)]
    for g, f in cases:
        n = 2 * g
        got = {_values(h, n) for h in _form_orbit(f, n)}
        assert got == form_orbit_oracle(_values(f, n)), (g, f)


def test_anisotropic_vectors_match_the_value_table():
    for g in (1, 2, 3):
        for f in range(1 << (2 * g)):
            q = QuadraticFormZ2(_values(f, 2 * g))
            tab = value_table(q.values)
            assert _anisotropic_vectors(g, q) == [
                v for v in range(1, 1 << (2 * g)) if tab[v]], q.values


def test_transvection_perm_matches_the_oracle():
    for n in range(1, 9):
        for v in range(1 << n):
            assert _transvection_perm(v, n) == \
                transvection_perm_oracle(v, n), (n, v)


def test_stabilizers_genus_one_and_two():
    assert sp_q_stabilizer_bruteforce(1, QuadraticFormZ2((1, 1))) == (6, True)
    assert sp_q_stabilizer_bruteforce(1, QuadraticFormZ2((1, 0))) == (2, True)
    # Arf-1 form at g=2: anisotropic twists generate the full stabilizer
    assert sp_q_stabilizer_bruteforce(
        2, QuadraticFormZ2((1, 1, 1, 0))) == (120, True)


@pytest.mark.parametrize("g", [1, 2])
def test_stabilizers_match_the_filter_oracle(g):
    for bits in range(1 << (2 * g)):
        q = QuadraticFormZ2(tuple((bits >> i) & 1 for i in range(2 * g)))
        assert sp_q_stabilizer_bruteforce(g, q) == \
            stabilizer_filter_oracle(g, q), q.values


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


def test_stabilizers_genus_four_both_parities():
    census = quadratic_form_orbits(4)
    even = QuadraticFormZ2((1,) * 8)
    odd = QuadraticFormZ2((1, 1, 1, 1, 1, 1, 1, 0))
    assert even.arf() == 0 and odd.arf() == 1
    assert sp_q_stabilizer_bruteforce(4, even) == (348364800, True)
    assert sp_q_stabilizer_bruteforce(4, odd) == (394813440, True)
    assert 348364800 * census[0] == sp_mod2_order(4)
    assert 394813440 * census[1] == sp_mod2_order(4)


def _form_of_arf(g, arf, rng):
    while True:
        q = QuadraticFormZ2(tuple(rng.randint(0, 1) for _ in range(2 * g)))
        if q.arf() == arf:
            return q


def test_generated_order_matches_the_enumeration():
    rng = random.Random(11)
    forms = [QuadraticFormZ2(tuple((bits >> i) & 1 for i in range(2 * g)))
             for g in (1, 2) for bits in range(1 << (2 * g))]
    forms += [_form_of_arf(3, arf, rng) for arf in (0, 1)]
    for q in forms:
        g = len(q.values) // 2
        assert anisotropic_closure_order(g, q) == \
            len(anisotropic_closure_bits(g, q)), q.values


@pytest.mark.parametrize("g", [1, 2, 3])
def test_generated_order_of_all_transvections(g):
    n = 2 * g
    gens = [_transvection_perm(v, n) for v in range(1, 1 << n)]
    order = _generated_order(gens, 1 << n)
    assert order == sp_mod2_order(g)
    assert order == PermutationGroup([Permutation(p) for p in gens]).order()


@st.composite
def permutation_sets(draw):
    degree = draw(st.integers(1, 10))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=4))
    return degree, [tuple(p) for p in gens]


@settings(max_examples=150, deadline=None)
@given(permutation_sets())
def test_generated_order_matches_sympy(case):
    degree, gens = case
    want = PermutationGroup([Permutation(p) for p in gens]).order()
    assert _generated_order(gens, degree) == want


def test_bruteforce_input_validation():
    with pytest.raises(TooLarge):
        sp_q_stabilizer_bruteforce(5, QuadraticFormZ2((1,) * 10))
    with pytest.raises(SympError):
        sp_q_stabilizer_bruteforce(2, QuadraticFormZ2((1, 1)))
    with pytest.raises(SympError):
        quadratic_form_orbits(0)


# --- the forked chain of the standard network -------------------------------------

@pytest.fixture(scope="module")
def side6():
    net = build_network(TRIANGLE6)
    S = inflate(net)
    spin = canonical_spin(S)
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
    delta0 = MarkedCurve(z, 2, r)
    delta2 = MarkedCurve(neg(z), 2, r)
    assert verify_dn(config, (delta0, delta2))
    # the boundary values fit the side subsurfaces: the fork side is a
    # one-handle piece, the whole neighborhood a four-handle piece
    assert coherence_check([delta0], -1)
    assert coherence_check([delta0, delta2], -8)
