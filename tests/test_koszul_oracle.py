"""The Koszul signs of cdga's monomial routines against their oracle.

`cdga._d_monomial` counts the odd factors of a monomial once and reads
each Leibniz term's sign off that count and a bisect per odd factor of
the term; `cdga._mul_mono`, under `_poly_mul`, `_contract`, `parse_poly`
and the presentation constructor, merges two sorted monomials the same
way.  The routes they replaced sorted every concatenation by insertion,
one sign per swap of two odd factors.  `_sort_indices`, `_d_monomial`,
`_poly_mul` and `_contract` of that route are kept here, unchanged, as
the oracle.  Values and the order of the terms must agree exactly on
every basis monomial of the nilmanifold presets and filiform(14), on the
even-generator presentations of the duality oracle, and on seeded
random mixed-parity presentations with even powers and repeated odd
factors.
"""

import random
from fractions import Fraction

import pytest

from zzcalc import cdga
from zzcalc.cdga import CdgaPresentation, parse_poly, preset

from test_duality_oracle import CASES as DUALITY_CASES


# ---------------------------------------------------------------------------
# The replaced route.


def _sort_indices(indices, degrees):
    """Canonical order with Koszul sign; (0, ()) when an odd repeats."""
    sign = 1
    lst = list(indices)
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            if degrees[lst[j - 1]] % 2 and degrees[lst[j]] % 2:
                sign = -sign
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b and degrees[a] % 2:
            return 0, ()
    return sign, tuple(lst)


def _poly_mul(p1, p2, degrees):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            sign, m = _sort_indices(m1 + m2, degrees)
            if sign:
                out[m] = out.get(m, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def _d_monomial(mono, dpolys, degrees):
    """Leibniz expansion of d on one monomial."""
    out = {}
    parity = 0
    for t, g in enumerate(mono):
        dg = dpolys[g]
        if dg:
            lead = -1 if parity % 2 else 1
            head = mono[:t]
            tail = mono[t + 1:]
            for m, c in dg.items():
                sign, mm = _sort_indices(head + m + tail, degrees)
                if sign:
                    out[mm] = out.get(mm, 0) + lead * sign * c
        parity += degrees[g]
    return {m: c for m, c in out.items() if c}


def _contract(m1, phi, degrees):
    """Terms (m2, sign * phi(T)) for each T in supp phi that m1 divides.

    m2 = T / m1 and m1 * m2 = sign * T.
    """
    out = []
    for top, v in phi.items():
        rest = list(top)
        try:
            for g in m1:
                rest.remove(g)
        except ValueError:
            continue
        m2 = tuple(rest)
        out.append((m2, _sort_indices(m1 + m2, degrees)[0] * v))
    return out


# ---------------------------------------------------------------------------
# Comparisons, each on the items in order.


def same_d(mono, dpolys, degrees):
    got = cdga._d_monomial(mono, dpolys, degrees)
    assert list(got.items()) == list(_d_monomial(mono, dpolys, degrees).items())


def same_mul(p1, p2, degrees):
    got = cdga._poly_mul(p1, p2, degrees)
    assert list(got.items()) == list(_poly_mul(p1, p2, degrees).items())


def same_contract(m1, phi, degrees):
    assert cdga._contract(m1, phi, degrees) == _contract(m1, phi, degrees)


def graded_poly(monos):
    """The monomials with distinct coefficients, so no sign hides."""
    return {m: 2 * i + 1 for i, m in enumerate(monos)}


def check_presentation(P, top):
    """d on the engine's int rows, products with each generator, and
    contractions against every degree-top monomial, on every basis
    monomial of degree <= top."""
    eng = cdga._Engine(P)
    degrees = P.degrees
    gens = [{(g,): 1} for g in range(len(degrees))]
    phi = graded_poly(eng.basis(top))
    for k in range(top + 1):
        basis = eng.basis(k)
        for m in basis:
            same_d(m, eng._dints, degrees)
            same_contract(m, phi, degrees)
        p1 = graded_poly(basis)
        for p2 in gens:
            same_mul(p1, p2, degrees)


NILMANIFOLDS = ("filiform(4)", "filiform(6)", "filiform(8)", "filiform(10)",
                "filiform(12)", "filiform(14)", "iwasawa", "nil_m1",
                "ex_k2_M", "ex_k2_M_variant")
EVEN = ("CP2", "S2xS2", "sheared S2xS2", "degenerate pairing")


@pytest.mark.parametrize("name", NILMANIFOLDS)
def test_nilmanifold_bases(name):
    P = preset(name)
    check_presentation(P, P.formal_dimension)


@pytest.mark.parametrize("name", EVEN)
def test_even_generator_bases(name):
    P = DUALITY_CASES[name]()
    check_presentation(P, 10)
    eng = cdga._Engine(P)
    low = [m for k in range(5) for m in eng.basis(k)]
    for m1 in low:
        same_mul({m1: 1}, graded_poly(low), P.degrees)


# ---------------------------------------------------------------------------
# Seeded random mixed-parity presentations.


def random_mono(rng, degrees, size):
    """A canonical monomial: odd generators at most once, even ones to a
    power up to 3."""
    power = {}
    for _ in range(size):
        g = rng.randrange(len(degrees))
        power[g] = 1 if degrees[g] % 2 else rng.randint(1, 3)
    return tuple(sorted(g for g, p in power.items() for _ in range(p)))


def random_poly(rng, degrees, terms, size):
    poly = {}
    for _ in range(terms):
        m = random_mono(rng, degrees, rng.randint(0, size))
        poly[m] = rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))
    return poly


def random_degrees(rng):
    return tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 7)))


def random_case(seed):
    """(rng, degrees, d on each generator or None, 60 monomials)."""
    rng = random.Random(seed)
    degrees = random_degrees(rng)
    dpolys = [random_poly(rng, degrees, rng.randint(1, 4), 3)
              if rng.random() < 0.8 else None for _ in degrees]
    monos = [random_mono(rng, degrees, rng.randint(0, 6)) for _ in range(60)]
    return rng, degrees, dpolys, monos


@pytest.mark.parametrize("seed", range(40))
def test_random_mixed_parity(seed):
    rng, degrees, dpolys, monos = random_case(seed)
    for m in monos:
        same_d(m, dpolys, degrees)
        same_mul({m: 1}, random_poly(rng, degrees, 4, 4), degrees)
    same_mul(graded_poly(monos), graded_poly(monos[::-1]), degrees)
    phi = graded_poly(monos[:12])
    for top in phi:
        divisors = {top[i:j] for i in range(len(top) + 1)
                    for j in range(i, len(top) + 1)}
        for m1 in divisors | set(monos[12:24]):
            same_contract(m1, phi, degrees)


def test_random_cases_cover_every_sign_path():
    """The seeded d terms are killed by a repeated odd factor, flip signs,
    and raise even generators to powers."""
    killed = flipped = powers = 0
    for seed in range(40):
        _, degrees, dpolys, monos = random_case(seed)
        for mono in monos:
            for t, g in enumerate(mono):
                for m in dpolys[g] or ():
                    sign, mm = _sort_indices(mono[:t] + m + mono[t + 1:], degrees)
                    killed += sign == 0
                    flipped += sign == -1
                    powers += any(a == b for a, b in zip(mm, mm[1:]))
    assert killed and flipped and powers


def oracle_poly(terms, degrees):
    """The canonical polynomial of (coefficient, index sequence) terms."""
    out = {}
    for coef, indices in terms:
        sign, mono = _sort_indices(indices, degrees)
        if sign:
            out[mono] = out.get(mono, 0) + sign * coef
    return {m: c for m, c in out.items() if c}


def render(rng, names):
    """Random polynomial text, factors in any order, with the terms it
    stands for as (coefficient, index list) pairs."""
    text, terms = "", []
    for _ in range(rng.randint(1, 5)):
        num, den = rng.randint(1, 5), rng.choice((1, 1, 2, 3))
        coef = Fraction(num, den) * rng.choice((1, -1))
        factors, indices = [], []
        for _ in range(rng.randint(1, 5)):
            g = rng.randrange(len(names))
            power = rng.choice((1, 1, 1, 2, 3, 0))
            factors.append(names[g] if power == 1 else f"{names[g]}^{power}")
            indices += [g] * power
        head = ("-" if coef < 0 else "+" if text else "")
        lit = "" if abs(coef) == 1 else f"{num}/{den}*" if den > 1 else f"{num}*"
        text += head + lit + "*".join(factors)
        terms.append((coef, indices))
    return text, terms


@pytest.mark.parametrize("seed", range(40))
def test_parse_poly_random(seed):
    rng = random.Random(seed)
    degrees = random_degrees(rng)
    names = [f"g{i}" for i in range(len(degrees))]
    index = {n: i for i, n in enumerate(names)}
    for _ in range(30):
        text, terms = render(rng, names)
        want = oracle_poly(terms, degrees)
        assert list(parse_poly(text, index, degrees).items()) == \
            list(want.items()), text


@pytest.mark.parametrize("seed", range(20))
def test_presentation_from_unsorted_monomials(seed):
    """d given as a dict of index tuples in any order: each is sorted with
    its Koszul sign, and the permutations of one monomial add up."""
    rng = random.Random(seed)
    degrees = random_degrees(rng)
    names = [f"g{i}" for i in range(len(degrees))]
    indices = [rng.randrange(len(degrees)) for _ in range(rng.randint(2, 5))]
    perms = {}
    for c in range(1, 5):
        rng.shuffle(indices)
        perms[tuple(indices)] = perms.get(tuple(indices), 0) + c
    want = oracle_poly([(c, perm) for perm, c in perms.items()], degrees)
    z = ("z", sum(degrees[i] for i in indices) - 1)
    P = CdgaPresentation(list(zip(names, degrees)) + [z], {"z": perms})
    assert P.differential.get("z", {}) == want
