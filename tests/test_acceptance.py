"""Ten end-to-end acceptance checks, one test and one verdict line each.

Each test prints "criterion N: PASS" (or FAIL) so a `pytest -s` run
reads as a checklist; stated runtime budgets are asserted inside the
test.  Random sweeps use fixed seeds, so verdicts and budgets are
reproducible.

The reference rows for single indecomposable pieces (criteria 1 and 2)
are frozen from hand calculations: for a zigzag spanning total degrees
k and k+1, the arrow pattern forces the dimensions of the
quotient-by-Im-d^c and Ker-d^c complexes, their cohomologies, the
connecting rank, and the Bott-Chern and obstruction groups.  Criterion
8 restricts product factors to censuses containing a unit dot and
orientation-closed odd zigzags; without both, a tensor factor can
absorb or cancel zigzags (a squares-only factor kills everything, and
oppositely oriented odd zigzags of lengths 2m+1 and 2l+1 multiply to a
single odd piece of length 2|m-l|+1), so the product equivalence and
defect additivity only mirror complexes with such symmetric censuses.
"""

import contextlib
import random
import time

from zzcalc.bicomplex import (
    MultiplicityTable,
    _shape_entries,
    direct_sum,
    dot_shape,
    dual,
    realize_shape,
    scramble,
    shape_degree_span,
    square_shape,
    zigzag_shape,
)
from zzcalc.cdga import obstruction, preset
from zzcalc.conditions import (
    check_ddc,
    check_ddc3,
    les,
    numeric_report,
    purity_diagram,
)
from zzcalc.decomposition import multiplicities, realize
from zzcalc.functors import TotalComplex, cohomology, purity_defect, star_condition
from zzcalc.models import (
    blowup_model,
    product_model,
    projective_bundle_model,
    surface_model,
    vaisman_expected_bc,
    vaisman_model,
)

SEED = 20260815
LENGTHS = (2, 2, 3, 3, 3, 4, 5, 6, 7, 8, 9)


@contextlib.contextmanager
def criterion(n, label):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL [{label}] ({time.monotonic() - t0:.2f}s)")
        raise
    print(f"criterion {n}: PASS [{label}] ({time.monotonic() - t0:.2f}s)")


def random_shape(rng, span):
    kind = rng.randrange(6)
    a = (rng.randint(0, span), rng.randint(0, span))
    if kind == 0:
        return dot_shape(*a)
    if kind == 1:
        return square_shape(*a)
    return zigzag_shape(a, rng.choice(LENGTHS), rng.choice(("horizontal", "vertical")))


def random_table(rng, max_pieces, span):
    """At most max_pieces indecomposables, biased toward small sums."""
    mults = {}
    for _ in range(min(rng.randint(1, max_pieces), rng.randint(1, max_pieces))):
        s = random_shape(rng, span)
        mults[s] = mults.get(s, 0) + 1
    return MultiplicityTable(mults)


def table_is_ddc3(table):
    return all(s.kind != "zigzag" or s.length == 3 for s, _ in table)


def nonzero(d):
    return {k: v for k, v in d.items() if v}


# ---------------------------------------------------------------------------
# Criteria 1 and 2: reference rows for single indecomposable pieces.
#
# Row layout below: per-degree dims of A/Im d^c and Ker d^c, their
# cohomologies, and the connecting rank, all keyed relative to the
# degree span (lo, hi) of the shape.


def quotient_and_kernel_data(shape):
    A = realize_shape(shape)
    tc = TotalComplex(A)
    quo = nonzero({k: tc.dim(k) - tc.im_dc(k).dim for k in tc.degrees()})
    ker = nonzero({k: tc.ker_dc(k).dim for k in tc.degrees()})
    hquo = cohomology(tc, "coim_dc").dims
    hker = cohomology(tc, "ker_dc").dims
    deltas = nonzero({k: r.rank_delta for k, r in les(tc).rows.items()})
    return tc, quo, ker, hquo, hker, deltas


def test_criterion_01_les_reference_rows():
    with criterion(1, "quotient/kernel complexes of single pieces"):
        t0 = time.monotonic()
        rows = [
            (dot_shape(1, 1), {0: 1}, {0: 1}, {0: 1}, {0: 1}, {}),
            (square_shape(0, 0), {0: 1, 1: 1}, {1: 1, 2: 1}, {}, {}, {}),
            (zigzag_shape((0, 0), 3, "vertical"), {0: 1, 1: 1}, {1: 2}, {}, {1: 2}, {}),
            (zigzag_shape((0, 1), 3, "horizontal"), {0: 2}, {0: 1, 1: 1}, {0: 2}, {}, {}),
        ]
        for m in (1, 2, 3, 4):
            rows.append(
                (
                    zigzag_shape((0, 0), 2 * m + 1, "vertical"),
                    {0: m, 1: 1},
                    {1: m + 1},
                    nonzero({0: m - 1}),
                    {1: m + 1},
                    nonzero({0: m - 1}),
                )
            )
            rows.append(
                (
                    zigzag_shape((0, 1), 2 * m + 1, "horizontal"),
                    {0: m + 1},
                    {0: 1, 1: m},
                    {0: m + 1},
                    nonzero({1: m - 1}),
                    nonzero({0: m - 1}),
                )
            )
            for first in ("horizontal", "vertical"):
                rows.append(
                    (
                        zigzag_shape((0, 0), 2 * m, first),
                        {0: m},
                        {1: m},
                        {0: m},
                        {1: m},
                        {0: m},
                    )
                )
        for shape, quo_e, ker_e, hquo_e, hker_e, delta_e in rows:
            lo = shape_degree_span(shape)[0]
            _, quo, ker, hquo, hker, deltas = quotient_and_kernel_data(shape)
            shifted = lambda d: {lo + k: v for k, v in d.items()}
            assert quo == shifted(quo_e), shape
            assert ker == shifted(ker_e), shape
            assert hquo == shifted(hquo_e), shape
            assert hker == shifted(hker_e), shape
            assert deltas == shifted(delta_e), shape
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_bott_chern_comparison_rows():
    with criterion(2, "Bott-Chern vs kernel cohomology of single pieces"):
        rows = [(dot_shape(1, 1), {}, {0: 1}, "iso"), (square_shape(0, 0), {}, {}, "iso")]
        for m in (1, 2, 3, 4):
            rows.append((zigzag_shape((0, 0), 2 * m + 1, "vertical"), {}, {1: m + 1}, "iso"))
            rows.append((zigzag_shape((0, 1), 2 * m + 1, "horizontal"), {1: 1}, {1: m}, "surjective"))
            rows.append((zigzag_shape((0, 0), 2 * m, "horizontal"), {}, {1: m}, "iso"))
            rows.append((zigzag_shape((0, 0), 2 * m, "vertical"), {}, {1: m}, "iso"))
        for shape, upper_e, bc_e, status in rows:
            lo = shape_degree_span(shape)[0]
            tc = TotalComplex(realize_shape(shape))
            upper = cohomology(tc, "purity_upper").dims
            hker = cohomology(tc, "ker_dc").dims
            bc = {}
            for (p, q), v in cohomology(tc, "bott_chern").dims.items():
                bc[p + q] = bc.get(p + q, 0) + v
            assert upper == {lo + k: v for k, v in upper_e.items()}, shape
            assert bc == {lo + k: v for k, v in bc_e.items()}, shape
            # phi is onto with kernel the upper group, so its rank is
            # dim H(Ker d^c) and it is injective exactly when that
            # group vanishes.
            for k in tc.degrees():
                assert bc.get(k, 0) == upper.get(k, 0) + hker.get(k, 0), shape
            assert (status == "iso") == (not upper), shape


# ---------------------------------------------------------------------------
# Criteria 3 and 4 run over one shared sweep.

_SWEEP = []


def equivalence_sweep():
    if not _SWEEP:
        rng = random.Random(SEED)
        while len(_SWEEP) < 200:
            table = random_table(rng, max_pieces=12, span=7)
            A = realize(table)
            # rational elimination cost grows fast with the block dims,
            # so keep the sweep's tail bounded; twelve-piece sums and
            # length-9 zigzags still occur below the cap
            if sum(A.spaces.values()) > 45:
                continue
            _SWEEP.append((table, TotalComplex(scramble(A, rng.randrange(2**32)))))
    return _SWEEP


def test_criterion_03_six_characterizations_agree():
    with criterion(3, "six-way equivalence on 200 scrambled sums"):
        t0 = time.monotonic()
        for table, tc in equivalence_sweep():
            report = check_ddc3(tc)
            assert report.agree
            assert report.holds == table_is_ddc3(table), table.entries
        assert time.monotonic() - t0 < 30.0


def test_criterion_04_dimension_chain_and_equality_cases():
    with criterion(4, "dimension chain with structural equality cases"):
        for table, tc in equivalence_sweep():
            nr = numeric_report(tc)
            left = nr.h_bc + nr.h_a
            mid = nr.h_ker_dc + nr.h_coim_dc
            right = nr.h_dolbeault + nr.h_conj_dolbeault
            assert left >= mid >= right >= 2 * nr.sum_betti
            zig = [s.length for s, _ in table if s.kind == "zigzag"]
            structural = (
                not any(length % 2 for length in zig),
                not any(length > 3 for length in zig),
                not any(length % 2 == 0 for length in zig),
            )
            assert nr.equalities == structural, table.entries


def test_criterion_05_decomposition_round_trip():
    with criterion(5, "500 realize/scramble/decompose round trips"):
        t0 = time.monotonic()
        rng = random.Random(SEED + 5)
        for _ in range(500):
            table = random_table(rng, max_pieces=8, span=7)
            A = scramble(realize(table), rng.randrange(2**32))
            assert multiplicities(A) == table, table.entries
        assert time.monotonic() - t0 < 60.0


def test_criterion_06_vaisman_suite():
    with criterion(6, "Vaisman models: conditions and closed forms"):
        rng = random.Random(SEED + 6)
        cases = [(n, {(0, 0): 1}) for n in (1, 2, 3, 4)]
        while len(cases) < 4 + 25:
            n = rng.randint(1, 4)
            P = {(0, 0): rng.randint(1, 2)}
            for _ in range(rng.randint(0, 2)):
                p = rng.randint(0, n)
                q = rng.randint(0, n - p)
                if (p, q) == (0, 0):
                    continue
                d = 1 if n >= 3 else rng.randint(1, 2)
                P[(p, q)] = P[(q, p)] = d
            cases.append((n, P))
        for n, P in cases:
            tc = TotalComplex(vaisman_model(n, P))
            assert check_ddc3(tc).holds, (n, P)
            assert star_condition(tc), (n, P)
            per_degree, _ = purity_defect(tc)
            assert per_degree.get(n + 1, 0) == 0, (n, P)
            bc_e, ae_e = vaisman_expected_bc(n, P)
            bc = cohomology(tc, "bott_chern").dims
            ae = cohomology(tc, "aeppli").dims
            for p in range(n + 2):
                for q in range(n + 2 - p):
                    assert bc.get((p, q), 0) == bc_e.dims.get((p, q), 0), (n, P, p, q)
                    assert ae.get((p, q), 0) == ae_e.dims.get((p, q), 0), (n, P, p, q)


def test_criterion_07_duality_swaps_kernel_and_quotient():
    with criterion(7, "duality on 100 random complexes"):
        rng = random.Random(SEED + 7)
        n = 5
        for _ in range(100):
            table = random_table(rng, max_pieces=6, span=5)
            A = scramble(realize(table), rng.randrange(2**32))
            D = dual(A, n)
            reflect = lambda d: {2 * n - k: v for k, v in d.items()}
            hker = cohomology(A, "ker_dc").dims
            hquo_dual = cohomology(D, "coim_dc").dims
            assert hker == reflect(hquo_dual), table.entries
            pa, pd = purity_diagram(A), purity_diagram(D)
            assert pa.upper == reflect(pd.lower), table.entries
            assert pa.lower == reflect(pd.upper), table.entries


# ---------------------------------------------------------------------------
# Criterion 8: the four construction equivalences, then defect
# additivity for products of single odd zigzags.


def drop_long_zigzags(table, fallback_anchor):
    kept = {s: m for s, m in table if s.kind != "zigzag" or s.length == 3}
    return MultiplicityTable(kept or {dot_shape(*fallback_anchor): 1})


def product_factor(rng):
    """Census with a unit dot and orientation-closed odd zigzags."""
    mults = {dot_shape(0, 0): 1}

    def add(s):
        mults[s] = mults.get(s, 0) + 1

    for _ in range(rng.randint(0, 2)):
        kind = rng.randrange(4)
        a = (rng.randint(0, 1), rng.randint(0, 1))
        if kind == 0:
            add(dot_shape(*a))
        elif kind == 1:
            add(square_shape(*a))
        elif kind == 2:
            add(zigzag_shape(a, 2, rng.choice(("horizontal", "vertical"))))
        else:
            length = rng.choice((3, 3, 5))
            add(zigzag_shape(a, length, "horizontal"))
            add(zigzag_shape(a, length, "vertical"))
    return MultiplicityTable(mults)


def test_criterion_08_construction_equivalences():
    with criterion(8, "blow-up/bundle/summand/product equivalences"):
        rng = random.Random(SEED + 8)
        for _ in range(50):
            tm = random_table(rng, max_pieces=4, span=3)
            tz = random_table(rng, max_pieces=3, span=3)
            if rng.random() < 0.5:
                tm = drop_long_zigzags(tm, (0, 0))
                tz = drop_long_zigzags(tz, (1, 1))
            M = scramble(realize(tm), rng.randrange(2**32))
            Z = scramble(realize(tz), rng.randrange(2**32))
            X = blowup_model(M, Z, rng.randint(2, 4))
            assert check_ddc3(X).holds == (table_is_ddc3(tm) and table_is_ddc3(tz))

        for _ in range(50):
            tb = random_table(rng, max_pieces=4, span=3)
            base = scramble(realize(tb), rng.randrange(2**32))
            X = projective_bundle_model(base, rng.randint(1, 3))
            assert check_ddc3(X).holds == table_is_ddc3(tb)

        held = 0
        for _ in range(50):
            tn = random_table(rng, max_pieces=3, span=3)
            tr = random_table(rng, max_pieces=3, span=3)
            if rng.random() < 0.5:
                tn = drop_long_zigzags(tn, (0, 0))
                tr = drop_long_zigzags(tr, (1, 1))
            N = scramble(realize(tn), rng.randrange(2**32))
            M = scramble(direct_sum(N, realize(tr)), rng.randrange(2**32))
            if check_ddc3(M).holds:
                held += 1
                assert check_ddc3(N).holds
            else:
                assert not (table_is_ddc3(tn) and table_is_ddc3(tr))
        assert held >= 10

        held = done = 0
        while done < 50:
            ta, tb = product_factor(rng), product_factor(rng)
            da = sum(realize(ta).spaces.values())
            db = sum(realize(tb).spaces.values())
            if da * db > 80:
                continue
            done += 1
            A = scramble(realize(ta), rng.randrange(2**32))
            B = scramble(realize(tb), rng.randrange(2**32))
            holds = check_ddc3(product_model(A, B)).holds
            held += holds
            expected = (check_ddc3(A).holds and check_ddc(B)) or (
                check_ddc(A) and check_ddc3(B).holds
            )
            assert holds == expected, (ta.entries, tb.entries)
        assert held >= 10


def census_defect(A):
    """Purity defect read from a brute-force decomposition."""
    odd = [
        (s.length - 1) // 2
        for s, _ in multiplicities(A)
        if s.kind != "square" and s.length % 2
    ]
    return max(odd, default=0), len(odd)


def test_criterion_08b_product_defect_additivity():
    with criterion(8, "tensor purity-defect additivity (brute-forced)"):
        rng = random.Random(SEED + 88)
        for m1, m2 in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)):
            for first in ("horizontal", "vertical"):
                Z1 = realize_shape(zigzag_shape((0, 1), 2 * m1 + 1, first))
                Z2 = realize_shape(zigzag_shape((1, 0), 2 * m2 + 1, first))
                P = scramble(product_model(Z1, Z2), rng.randrange(2**32))
                bf, pieces = census_defect(P)
                assert purity_defect(P)[1] == m1 + m2 == bf
                assert pieces == 1
            # oppositely oriented factors cancel down to |m1 - m2|
            Z1 = realize_shape(zigzag_shape((0, 1), 2 * m1 + 1, "horizontal"))
            Z2 = realize_shape(zigzag_shape((1, 0), 2 * m2 + 1, "vertical"))
            P = scramble(product_model(Z1, Z2), rng.randrange(2**32))
            bf, _ = census_defect(P)
            assert purity_defect(P)[1] == abs(m1 - m2) == bf
        # duality-closed factors, the census a manifold could have
        for m1, m2 in ((1, 1), (1, 2), (2, 2)):
            def closed(m, a):
                return realize(
                    MultiplicityTable(
                        {
                            dot_shape(*a): 1,
                            zigzag_shape(a, 2 * m + 1, "horizontal"): 1,
                            zigzag_shape(a, 2 * m + 1, "vertical"): 1,
                        }
                    )
                )
            P = product_model(closed(m1, (0, 1)), closed(m2, (1, 0)))
            assert purity_defect(P)[1] == m1 + m2
        # an even factor contributes no odd pieces at all
        E = realize_shape(zigzag_shape((0, 0), 4, "horizontal"))
        O = realize_shape(zigzag_shape((0, 1), 5, "horizontal"))
        P = product_model(E, O)
        bf, pieces = census_defect(P)
        assert purity_defect(P)[1] == 0 == bf and pieces == 0


def test_criterion_09_nilmanifold_verdicts():
    with criterion(9, "obstruction verdicts for the nilmanifold presets"):
        t0 = time.monotonic()
        for n2 in (4, 6, 8, 10):
            rep = obstruction(preset(f"filiform({n2})"), 1)
            assert rep.verdict == "blocked"
            assert n2 in rep.blocked_at
            row = rep.rows[n2]
            assert row.r_jk - row.d_jk == 1
        assert obstruction(preset("iwasawa"), 1).verdict == "hypothesis_failed"
        for name in ("ex_k2_M", "ex_k2_M_variant"):
            rep = obstruction(preset(name), 2)
            assert rep.verdict == "blocked"
            assert 4 in rep.blocked_at
            assert rep.rows[4].r_jk == 2 and rep.rows[4].d_jk == 0
            assert rep.rows[4].slack == 2
        assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# Criterion 10: defect bound for window complexes whose zigzags avoid
# the extreme corners (the positions only dots and squares may occupy),
# and the surface builder.


def window_shape(rng, n):
    """A piece inside [0,n]^2; zigzags odd and clear of both corners."""
    corners = {(n, 0), (0, n)}
    for _ in range(30):
        kind = rng.randrange(4)
        if kind == 0:
            return dot_shape(rng.randint(0, n), rng.randint(0, n))
        if kind == 1 and n >= 1:
            s = square_shape(rng.randint(0, n - 1), rng.randint(0, n - 1))
            return s
        if n >= 2:
            length = rng.choice(range(3, 2 * n + 2, 2))
            a = (rng.randint(0, n), rng.randint(0, n))
            s = zigzag_shape(a, length, rng.choice(("horizontal", "vertical")))
            entries = set(_shape_entries(s))
            inside = all(0 <= p <= n and 0 <= q <= n for p, q in entries)
            if inside and not (entries & corners):
                return s
    return dot_shape(0, 0)


def test_criterion_10_defect_bound_and_surfaces():
    with criterion(10, "defect stays below n; surfaces stay ddc+3"):
        rng = random.Random(SEED + 10)
        for _ in range(100):
            n = rng.randint(1, 4)
            mults = {}
            for _ in range(rng.randint(1, 6)):
                s = window_shape(rng, n)
                mults[s] = mults.get(s, 0) + 1
            A = scramble(realize(MultiplicityTable(mults)), rng.randrange(2**32))
            assert purity_defect(A)[1] < n, (n, mults)
        for _ in range(50):
            h10 = rng.randint(0, 3)
            h20 = rng.randint(0, 2)
            b1 = 2 * h10 + rng.randint(0, 1)
            b2 = rng.randint(2 * h20, 2 * h20 + 4)
            S = surface_model(b1, h10, h20, b2)
            tc = TotalComplex(S)
            assert purity_defect(tc)[1] <= 1, (b1, h10, h20, b2)
            assert check_ddc3(tc).holds, (b1, h10, h20, b2)
