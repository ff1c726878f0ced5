"""The three workloads: their inputs, the call that runs one item, and the
checks of its output against an answer known without running it.

Functions that touch zzcalc take its modules as `zz` (see
`run.import_zzcalc`), because the set-up timer imports the package afresh
several times in one process and the traced run rebinds names in it.

Each workload's census recipe is fixed by RECIPE_SEED; the run's seed picks
the random change of basis of every complex (`bicomplex.scramble`) and the
item order. So each seed hands the library different matrices with the
same mix of shapes and sizes, which keeps run-to-run spread down to what
the machine adds.
"""

import hashlib
import json
import random
import statistics
from dataclasses import dataclass

RECIPE_SEED = 20260815
SWEEP_LENGTHS = (2, 2, 3, 3, 3, 4, 5, 6, 7, 8, 9)

NILMANIFOLD_PRESETS = (
    "filiform(4)", "filiform(6)", "filiform(8)", "filiform(10)",
    "filiform(12)", "iwasawa", "nil_m1", "ex_k2_M", "ex_k2_M_variant",
)

# Size recipes; "tiny" is for the smoke test only. At full size every item
# runs about five times in a 30-second run, so that its median latency holds
# steady on a shared two-core host whose speed shifts by a quarter within
# seconds.
SIZES = {
    "full": {"sweep_items": 50, "deep_dim": 50, "wide_dim": 70,
             "presets": NILMANIFOLD_PRESETS},
    "tiny": {"sweep_items": 3, "deep_dim": 12, "wide_dim": 12,
             "presets": ("filiform(4)", "iwasawa", "ex_k2_M")},
}


@dataclass
class Item:
    """One unit of work.

    `key` names the item stably across seeds. For a complex, `table` is
    the census it was realized from and `text` its scrambled canonical
    JSON; for a cdga, `preset` and `j` say what to obstruct.
    """

    key: str
    table: object = None
    text: str = ""
    numeric: bool = False
    preset: str = ""
    j: int = 0


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Inputs


def _sweep_tables(zz, n):
    """The first n sums of criterion 3's generator with total dim <= 45."""
    bc = zz.bicomplex
    rng = random.Random(RECIPE_SEED)

    def shape():
        kind = rng.randrange(6)
        a = (rng.randint(0, 7), rng.randint(0, 7))
        if kind == 0:
            return bc.dot_shape(*a)
        if kind == 1:
            return bc.square_shape(*a)
        return bc.zigzag_shape(
            a, rng.choice(SWEEP_LENGTHS), rng.choice(("horizontal", "vertical")))

    tables = []
    while len(tables) < n:
        mults = {}
        for _ in range(min(rng.randint(1, 12), rng.randint(1, 12))):
            s = shape()
            mults[s] = mults.get(s, 0) + 1
        table = bc.MultiplicityTable(mults)
        if sum(table.local_dims().values()) <= 45:
            tables.append(table)
    return tables


def _fill(rng, target, draw):
    """Add pieces from draw() until their dimensions reach target."""
    mults = {}
    total = 0
    while total < target:
        s, dim = draw()
        mults[s] = mults.get(s, 0) + 1
        total += dim
    return mults


def _large_tables(zz, deep_dim, wide_dim):
    """A deep sum of zigzags of length 4-9 and a wide one of dots,
    squares and length-3 zigzags, both anchored in a small window."""
    bc = zz.bicomplex
    rng = random.Random(RECIPE_SEED)
    side = lambda: rng.choice(("horizontal", "vertical"))

    def deep():
        length = rng.randint(4, 9)
        a = (rng.randint(0, 3), rng.randint(0, 3))
        return bc.zigzag_shape(a, length, side()), length

    def wide():
        kind = rng.randrange(3)
        a = (rng.randint(0, 2), rng.randint(0, 2))
        if kind == 0:
            return bc.dot_shape(*a), 1
        if kind == 1:
            return bc.square_shape(*a), 4
        return bc.zigzag_shape(a, 3, side()), 3

    return {
        "deep": bc.MultiplicityTable(_fill(rng, deep_dim, deep)),
        "wide": bc.MultiplicityTable(_fill(rng, wide_dim, wide)),
    }


def make_items(zz, workload, seed, size="full"):
    """Generate one pass of a workload from its seed (the timed set-up)."""
    spec = SIZES[size]
    rng = random.Random(seed)
    if workload == "nilmanifold":
        items = [Item(f"{name}/j={j}", preset=name, j=j)
                 for name in spec["presets"] for j in (1, 2)]
        rng.shuffle(items)
        return items
    if workload == "sweep":
        named = [(f"sweep/{i}", t)
                 for i, t in enumerate(_sweep_tables(zz, spec["sweep_items"]))]
    elif workload == "large":
        named = _large_tables(zz, spec["deep_dim"], spec["wide_dim"]).items()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    bc = zz.bicomplex
    items = []
    for key, table in named:
        A = bc.scramble(zz.decomposition.realize(table), rng.randrange(2**32))
        items.append(Item(key, table=table, text=bc.dumps(A),
                          numeric=workload == "sweep"))
    rng.shuffle(items)
    return items


def item_input(zz, item):
    """What the library is handed for one run of an item: the JSON text of
    a complex, or a freshly built presentation so the cdga engine cache
    starts cold."""
    return zz.cdga.preset(item.preset) if item.preset else item.text


# ---------------------------------------------------------------------------
# One item


def run_item(zz, item, given):
    """Analyse one input and return the canonical JSON text of the result."""
    if item.preset:
        rep = zz.cdga.obstruction(given, item.j)
        out = zz.cli._obstruction_json(rep)
    else:
        tc = zz.functors.TotalComplex(zz.bicomplex.loads(given))
        out = {"ddc3": zz.conditions.check_ddc3(tc).to_json()}
        if item.numeric:
            out["numeric"] = zz.conditions.numeric_report(tc).to_json()
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Checks


def _zigzag_lengths(table):
    return [s.length for s, m in table if s.kind == "zigzag" for _ in range(m)]


def _check_complex(item, out):
    zig = _zigzag_lengths(item.table)
    ddc3 = out["ddc3"]
    if not ddc3["agree"]:
        yield "characterizations disagree"
    if ddc3["holds"] != all(n == 3 for n in zig):
        yield f"ddc+3 holds={ddc3['holds']}, census says otherwise"
    if item.numeric:
        nr = out["numeric"]
        # criterion 4's structural equality cases and the chain itself
        structural = [
            not any(n % 2 for n in zig),
            not any(n > 3 for n in zig),
            not any(n % 2 == 0 for n in zig),
        ]
        if nr["equalities"] != structural:
            yield f"equalities {nr['equalities']} != structural {structural}"
        left = nr["h_bc"] + nr["h_a"]
        mid = nr["h_ker_dc"] + nr["h_coim_dc"]
        right = nr["h_dolbeault"] + nr["h_conj_dolbeault"]
        if not left >= mid >= right >= 2 * nr["sum_betti"]:
            yield "dimension chain violated"


def _check_cdga(item, out):
    name, j = item.preset, item.j
    rows = out["rows"]
    if name.startswith("filiform") and j == 1:
        n2 = int(name[len("filiform("):-1])
        row = rows.get(str(n2), {})
        if out["verdict"] != "blocked" or n2 not in out["blocked_at"]:
            yield f"verdict {out['verdict']} at {out['blocked_at']}, want blocked at {n2}"
        if row.get("r", 0) - row.get("d", 0) != 1:
            yield f"r - d at k={n2} is not 1"
    if name == "iwasawa" and j == 1 and out["verdict"] != "hypothesis_failed":
        yield f"verdict {out['verdict']}, want hypothesis_failed"
    if name.startswith("ex_k2_M") and j == 2:
        row = rows.get("4", {})
        if out["verdict"] != "blocked" or 4 not in out["blocked_at"]:
            yield f"verdict {out['verdict']} at {out['blocked_at']}, want blocked at 4"
        if (row.get("r"), row.get("d"), row.get("slack")) != (2, 0, 2):
            yield f"row 4 is {row}, want r=2 d=0 slack=2"


def check_item(item, text, want_digest):
    """Problems with one output; an empty list means it is correct."""
    if isinstance(text, BaseException):
        return [f"raised {type(text).__name__}: {text}"]
    out = json.loads(text)
    check = _check_cdga if item.preset else _check_complex
    problems = list(check(item, out))
    if want_digest is not None and digest(text) != want_digest:
        problems.append(f"digest {digest(text)} != recorded {want_digest}")
    return problems


# ---------------------------------------------------------------------------
# Input properties


def properties(zz, items):
    """Counts a later change can use to name the share of inputs it helps."""
    if items[0].preset:
        return {f"exterior_monomials[{it.preset}]": 2 ** len(zz.cdga.preset(it.preset).names)
                for it in sorted(items, key=lambda it: it.key)}
    dims = [sum(it.table.local_dims().values()) for it in items]
    lengths = [_zigzag_lengths(it.table) for it in items]
    q = statistics.quantiles(dims, n=4, method="inclusive") if len(dims) > 1 else dims * 3
    return {
        "items": len(items),
        "items_with_even_zigzag": sum(any(n % 2 == 0 for n in z) for z in lengths),
        "longest_zigzag": max((max(z, default=0) for z in lengths), default=0),
        "total_dim_q1": q[0],
        "total_dim_q2": q[1],
        "total_dim_q3": q[2],
        "largest_block_dim": max(max(it.table.local_dims().values()) for it in items),
    }

