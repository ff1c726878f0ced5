"""The in-place fraction-free step of linalg against the step it replaced.

`linalg._Echelon.reduce` and the back-substitution `_reduce` clear a
column of an int row with `_step`, which updates the remainder (copied
once, at its first step) and the caller's witness in place.  The step it
replaced built a new row and a new witness at every step (`_combine`,
under the int body of `_sub`); those two, and the `_Echelon`, `_kernel`,
`_echelon` and `_reduce` that called them, are kept here unchanged, on
int rows, as the oracle.  Both make the same row operations in the same
order, so every pivot, witness, relation and canonical echelon row must
be equal, and so must the key order of every dict: on fixed-seed random
int matrices, dense and sparse, with small and large entries, with
pivots handed to the constructor without witnesses (as cdga's quotient
echelon is seeded) and with skipped rows.
"""

import random
from math import gcd

import pytest

from zzcalc import linalg
from zzcalc.linalg import _Echelon, _echelon, _kernel, _reduce


# ---------------------------------------------------------------------------
# The replaced step and its callers, on int rows.


def _combine(a, r, b, s):
    """a*r - b*s for real rows."""
    new = {k: a * v for k, v in r.items()} if a != 1 else dict(r)
    for k, v in s.items():
        x = new.get(k, 0) - b * v
        if x:
            new[k] = x
        else:
            del new[k]
    return new


def _sub(r, prow, c, w=None, pw=None):
    """r with column c cleared by the echelon row prow: the fraction-free
    step a*r - b*prow, a/b = prow[c]/r[c] in lowest terms, with the gcd
    of the result pulled out.  Given a witness w, the step also takes w
    to a*w - b*pw (pw is prow's witness, None for zero), the pull-out
    covers both, and both are returned."""
    a, b = prow[c], r[c]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    new = _combine(a, r, b, prow)
    if w is None:
        g = gcd(*new.values())
        return {k: v // g for k, v in new.items()} if g > 1 else new
    w = _combine(a, w, b, pw or {})
    g = gcd(*new.values(), *w.values())
    if g > 1:
        return {k: v // g for k, v in new.items()}, {k: v // g for k, v in w.items()}
    return new, w


class OldEchelon:
    __slots__ = ("pivots", "wits")

    def __init__(self, pivots=()):
        self.pivots = dict(pivots)
        self.wits = {}

    def reduce(self, row, wit=None):
        """The remainder of row; wit is updated in place."""
        z, w = row, wit
        while z:
            c = min(z)
            p = self.pivots.get(c)
            if p is None:
                break
            if w is None:
                z = _sub(z, p, c)
            else:
                z, w = _sub(z, p, c, w, self.wits.get(c))
        if w is not wit:
            wit.clear()
            wit.update(w)
        return z

    def insert(self, row, wit=None):
        z = self.reduce(row, wit)
        if not z:
            return None
        lead = min(z)
        g = gcd(*z.values(), *(wit or {}).values())
        if z[lead] < 0:
            g = -g
        if g != 1:
            z = {c: v // g for c, v in z.items()}
            wit = wit and {c: v // g for c, v in wit.items()}
        self.pivots[lead] = z
        if wit is not None:
            self.wits[lead] = wit
        return lead


def old_kernel(rows, ech):
    out = []
    for i, row in enumerate(rows):
        if row is None:
            continue
        wit = {i: 1}
        if ech.insert(row, wit) is None:
            out.append(wit)
    return out


def old_reduce(rows, r):
    for row in rows:
        c = next(iter(row))
        if c in r:
            r = _sub(r, row, c)
    return r


def old_echelon(rows):
    ech = OldEchelon()
    piv = ech.pivots
    for r in rows:
        if z := ech.reduce(r):
            piv[min(z)] = z
    done = []
    for lead in sorted(piv, reverse=True):
        r = old_reduce(done, piv[lead])
        done.append(linalg._canon(r))
    return done[::-1]


# ---------------------------------------------------------------------------
# Comparisons: values and key order.


def items(rows):
    return [list(r.items()) for r in rows]


def state(ech):
    return ([(c, list(p.items())) for c, p in ech.pivots.items()],
            [(c, list(w.items())) for c, w in ech.wits.items()])


def random_rows(rng, nrows, ncols, density, big):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in rng.sample(range(ncols), ncols):  # keys in a scrambled order
            if rng.random() < density:
                v = rng.randint(-big, big)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


@pytest.mark.parametrize("big", [3, 10 ** 12], ids=["small", "large"])
def test_kernel_and_echelon_match_old_step(big):
    for seed in range(300):
        check_against_old_step(random.Random(seed), big)


def check_against_old_step(rng, big):
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    density = rng.choice((0.3, 0.6, 1.0))
    rows = random_rows(rng, nrows, ncols, density, big)
    # some rows are repeated combinations, so that relations and steps
    # with no witnessed pivot both occur
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(rows), rng.choice(rows)
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append({k: v for k in {**a, **b}
                     if (v := s * a.get(k, 0) + t * b.get(k, 0))})
    snapshot = items(rows)

    assert items(_echelon(rows)) == items(old_echelon(rows))

    # an echelon seeded with unwitnessed pivots, then witnessed inserts
    seed_rows = _echelon(random_rows(rng, rng.randint(0, 3), ncols, density, big))
    pivots = {next(iter(r)): r for r in seed_rows}
    new, old = _Echelon(pivots), OldEchelon(pivots)
    kept = [None if rng.random() < 0.15 else r for r in rows]
    assert items(_kernel(kept, new)) == items(old_kernel(kept, old))
    assert state(new) == state(old)

    # reduce leaves the row as given and updates the witness in place
    for row in rows:
        wit, owit = {-1: 1}, {-1: 1}
        assert list(new.reduce(row, wit).items()) == list(old.reduce(dict(row), owit).items())
        assert list(wit.items()) == list(owit.items())
        assert list(_reduce(seed_rows, row).items()) == list(old_reduce(seed_rows, row).items())
    assert items(rows) == snapshot


def test_free_lead_row_comes_back_as_given():
    ech = _Echelon({0: {0: 1, 2: 1}})
    row = {1: 2, 2: 3}
    wit = {5: 1}
    assert ech.reduce(row, wit) is row
    assert wit == {5: 1}
    stepped = {0: 2, 1: 1}
    z = ech.reduce(stepped, wit)
    assert z is not stepped and stepped == {0: 2, 1: 1}
    assert list(z.items()) == [(1, 1), (2, -2)]
