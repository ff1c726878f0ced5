"""Command-line frontend.

Every verb is a thin adapter: load JSON, call one library function,
render the result.  No mathematics lives in this module.

Exit codes: 0 computed (and, for `check`, the condition holds);
1 the checked condition fails; 2 input error; 3 internal invariant
violation.  `--json` switches from aligned text to canonical JSON
(sorted keys, compact separators).  A missing file argument reads
stdin, so pipelines like `zz build vaisman ... | zz check --ddc3`
work.  `ZZ_SEED` fixes the default scramble seed; `--jobs N` fans a
multi-file check or validate sweep over processes.
"""

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

from .bicomplex import dual, dumps, from_json, scramble
from .cdga import (
    cdga_cohomology,
    cdga_from_json,
    cdga_to_json,
    compatibility,
    d_jk,
    j_minimal_model,
    obstruction,
    preset,
    r_jk,
)
from .conditions import (
    check_ddc,
    check_ddc3,
    j_controlled,
    les,
    numeric_report,
    purity_diagram,
)
from .decomposition import multiplicities
from .errors import InputError, InternalError, InvalidInput, NotStabilized
from .functors import (
    FUNCTORS,
    cohomology,
    hodge_filtration,
    purity_defect,
    spectral_page,
    star_condition,
)
from .models import (
    blowup_model,
    product_model,
    projective_bundle_model,
    surface_model,
    vaisman_model,
)


# ---------------------------------------------------------------------------
# Input and output plumbing.


def _read_text(path):
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}")


def _parse_json(text, source):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"{source}: parse error at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        )


def _load_bicomplex(path):
    return from_json(_parse_json(_read_text(path), path or "stdin"))


_CLI_FILIFORM = re.compile(r"filiform(\d+)\Z")


def _load_cdga(args):
    if getattr(args, "preset", None):
        name = args.preset
        m = _CLI_FILIFORM.match(name)
        if m:
            name = f"filiform({m.group(1)})"
        return preset(name)
    return cdga_from_json(
        _parse_json(_read_text(args.file), args.file or "stdin"))


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _write_complex(A, out):
    text = dumps(A)
    if out in (None, "-"):
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Text renderers.


def _grid(dims, row_label, col_label):
    """Aligned grid of a {(col, row): value} table, rows descending."""
    if not dims:
        return ["(empty)"]
    cols = sorted({c for c, _ in dims})
    rows = sorted({r for _, r in dims})
    cols = list(range(cols[0], cols[-1] + 1))
    rows = list(range(rows[0], rows[-1] + 1))
    cells = {key: str(v) for key, v in dims.items()}
    heads = [f"{col_label}={c}" for c in cols]
    width = max(len(h) for h in heads)
    width = max(width, max(len(v) for v in cells.values()))
    left = max(len(f"{row_label}={r}") for r in rows)
    lines = []
    for r in reversed(rows):
        row = [cells.get((c, r), ".").rjust(width) for c in cols]
        lines.append(f"{row_label}={r}".ljust(left) + " | " + "  ".join(row))
    lines.append("-" * left + "-+-" + "-" * (len(cols) * (width + 2) - 2))
    lines.append(" " * left + " | " + "  ".join(h.rjust(width) for h in heads))
    return lines


def _render_cohomology(table):
    keys = list(table.dims)
    lines = [f"functor: {table.functor}"]
    if not keys:
        lines.append("(zero)")
    elif isinstance(keys[0], tuple):
        lines.extend(_grid(table.dims, "q", "p"))
    else:
        for k in sorted(table.dims):
            lines.append(f"H^{k}: {table.dims[k]}")
    return lines


def _shape_text(s):
    if s.kind == "dot":
        return f"dot at {s.anchor}"
    if s.kind == "square":
        return f"square at {s.anchor}"
    return (
        f"zigzag length {s.length} at {s.anchor}, "
        f"{s.first_arrow} first, {s.orientation}going"
    )


def _render_mult_table(table):
    from .bicomplex import shape_degree_span

    bands = {}
    for shape, mult in table:
        bands.setdefault(shape_degree_span(shape), []).append((shape, mult))
    if not bands:
        return ["(empty table)"]
    lines = []
    for lo, hi in sorted(bands):
        label = f"degree {lo}" if lo == hi else f"degrees {lo}..{hi}"
        lines.append(f"{label}:")
        for shape, mult in bands[(lo, hi)]:
            lines.append(f"  {mult} x {_shape_text(shape)}")
    return lines


def _render_filtration(tab):
    lines = ["refined Betti numbers b_k^{p,q}:"]
    if not tab.refined:
        lines.append("  (zero)")
    for (p, q, k), v in sorted(tab.refined.items(), key=lambda t: (t[0][2],) + t[0][:2]):
        if v:
            lines.append(f"  k={k}  (p,q)=({p},{q})  dim {v}")
    lines.append("total filtration graded pieces:")
    ks = sorted({k for _, k in tab.Ftot})
    for k in ks:
        graded = {}
        rs = sorted(r for r, kk in tab.Ftot if kk == k)
        for r in rs:
            g = tab.Ftot[(r, k)] - tab.Ftot.get((r + 1, k), 0)
            if g:
                graded[r] = g
        if graded:
            body = "  ".join(f"gr^{r}:{v}" for r, v in sorted(graded.items()))
            lines.append(f"  k={k}  {body}")
    return lines


def _render_page(page):
    lines = [f"{page.which} page r={page.r}"]
    lines.extend(_grid(page.dims, "q", "p"))
    if page.d_ranks:
        lines.append("d_r ranks:")
        for (p, q), v in sorted(page.d_ranks.items()):
            lines.append(f"  from ({p},{q}): {v}")
    return lines


def _render_les(report):
    head = ("k", "h_ker", "betti", "h_dc", "h_coim", "delta", "incl", "proj")
    rows = [head]
    for k in report.degrees():
        r = report.rows[k]
        rows.append(tuple(map(str, (
            k, r.h_ker_dc, r.betti, r.h_dc, r.h_coim_dc,
            r.rank_delta, r.rank_incl, r.rank_proj,
        ))))
    widths = [max(len(row[i]) for row in rows) for i in range(len(head))]
    lines = ["  ".join(val.rjust(w) for val, w in zip(row, widths))
             for row in rows]
    lines.append(f"exact: {str(report.exact).lower()}")
    return lines


def _render_ddc3(report):
    names = (
        ("c1", "connecting maps vanish"),
        ("c2", "only dots, squares, length-3 zigzags"),
        ("c3", "Im d ^ Im dc <= d(Ker dc)"),
        ("c4", "dimension count is 2 sum b_k"),
        ("c5", "cohomology square bicartesian"),
        ("c6", "E1 degeneration and pdef <= 1"),
    )
    lines = []
    for attr, text in names:
        mark = "yes" if getattr(report, attr) else "no"
        lines.append(f"{attr} {text}: {mark}")
    lines.append(f"pdef: {report.pdef}")
    lines.append("ddc+3: " + ("holds" if report.holds else "fails"))
    return lines


def _render_numerics(rep):
    lines = [
        f"h_BC + h_A          = {rep.h_bc + rep.h_a}",
        f"h_ker + h_coim      = {rep.h_ker_dc + rep.h_coim_dc}",
        f"h_dol + h_conj_dol  = {rep.h_dolbeault + rep.h_conj_dolbeault}",
        f"2 sum b_k           = {2 * rep.sum_betti}",
        "slacks: " + "  ".join(map(str, rep.slacks)),
        "equalities: " + "  ".join(
            str(e).lower() for e in rep.equalities),
    ]
    return lines


def _render_purity(rep):
    lines = []
    for name, table in (("upper", rep.upper), ("lower", rep.lower)):
        if table:
            body = "  ".join(f"k={k}:{v}" for k, v in sorted(table.items()))
        else:
            body = "(zero)"
        lines.append(f"{name} obstruction: {body}")
    lines.append("pure: " + ("yes" if rep.pure else "no"))
    return lines


def _render_pdef(per_degree, total):
    lines = [f"degree {k}: {v}" for k, v in sorted(per_degree.items())]
    lines.append(f"total: {total}")
    return lines


def _obstruction_json(rep):
    return {
        "j": rep.j,
        "cup_hypothesis": rep.cup_hypothesis,
        "rows": {
            str(k): {"r": row.r_jk, "d": row.d_jk, "slack": row.slack}
            for k, row in rep.rows.items()
        },
        "verdict": rep.verdict,
        "blocked_at": list(rep.blocked_at),
    }


def _render_obstruction(rep):
    lines = [
        f"j = {rep.j}",
        "cup hypothesis: " + ("holds" if rep.cup_hypothesis else "fails"),
        "   k   r_j^k   d_j^k   slack",
    ]
    for k in sorted(rep.rows):
        row = rep.rows[k]
        lines.append(
            f"{k:4d}   {row.r_jk:5d}   {row.d_jk:5d}   {row.slack:5d}")
    if rep.verdict == "blocked":
        lines.append(f"verdict: blocked at k={max(rep.blocked_at)}")
    elif rep.verdict == "hypothesis_failed":
        lines.append("verdict: hypothesis failed")
    else:
        lines.append("verdict: inconclusive")
    return lines


def _render_compat(rep):
    lines = [
        f"j = {rep.j}",
        "cup hypothesis: " + ("holds" if rep.cup_hypothesis else "fails"),
        "   k   r_j^k   d_j^k   slack   ell_k",
    ]
    for k in sorted(rep.rows):
        row = rep.rows[k]
        lines.append(
            f"{k:4d}   {row.r_jk:5d}   {row.d_jk:5d}   "
            f"{row.slack:5d}   {row.ell:5d}")
    if rep.verdict == "excluded":
        at = ", ".join(f"k={k}" for k in rep.excluded_at)
        lines.append(f"verdict: excluded at {at}")
    elif rep.verdict == "hypothesis_failed":
        lines.append("verdict: hypothesis failed")
    else:
        lines.append("verdict: not excluded")
    return lines


# ---------------------------------------------------------------------------
# Sweep workers (module level so ProcessPoolExecutor can pickle them).


def _validate_worker(path):
    try:
        A = _load_bicomplex(path)
        dims = A.spaces
        total = sum(dims.values())
        degs = sorted(p + q for p, q in dims)
        span = f"{degs[0]}..{degs[-1]}" if degs else "empty"
        return 0, f"ok: {len(dims)} spaces, dim {total}, degrees {span}"
    except InputError as exc:
        return 2, f"error: {exc}"
    except InternalError as exc:
        return 3, f"internal error: {exc}"


def _check_worker(item):
    path, cond, j = item
    try:
        A = _load_bicomplex(path)
        if cond == "ddc3":
            holds = check_ddc3(A).holds
        elif cond == "ddc":
            holds = check_ddc(A)
        elif cond == "star":
            holds = star_condition(A)
        else:
            holds = j_controlled(A, j)
        return (0 if holds else 1), ("holds" if holds else "fails")
    except InputError as exc:
        return 2, f"error: {exc}"
    except InternalError as exc:
        return 3, f"internal error: {exc}"


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sweep(items, worker, jobs):
    # Under fork every worker starts at once, so never ask for more
    # than there are CPUs or items.
    jobs = min(jobs, _usable_cpus(), len(items))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, items))
    return [worker(item) for item in items]


# ---------------------------------------------------------------------------
# Verb handlers.


def _cmd_validate(args):
    files = args.files or [None]
    if None in files and len(files) > 1:
        raise InvalidInput("stdin may appear only as the single input")
    results = _sweep(files, _validate_worker, args.jobs)
    code = 0
    out = []
    for path, (c, msg) in zip(files, results):
        code = max(code, c)
        label = path or "stdin"
        out.append({"file": label, "ok": c == 0, "detail": msg})
        if not args.json:
            print(f"{label}: {msg}" if len(files) > 1 else msg)
    if args.json:
        _emit_json(out if len(files) > 1 else out[0])
    return code


def _cmd_decompose(args):
    table = multiplicities(_load_bicomplex(args.file))
    if args.json:
        _emit_json(table.to_json())
    else:
        for line in _render_mult_table(table):
            print(line)
    return 0


def _cmd_cohomology(args):
    table = cohomology(_load_bicomplex(args.file), args.functor)
    if args.json:
        _emit_json(table.to_json())
    else:
        for line in _render_cohomology(table):
            print(line)
    return 0


def _cmd_filtration(args):
    tab = hodge_filtration(_load_bicomplex(args.file))
    if args.json:
        _emit_json(tab.to_json())
    else:
        for line in _render_filtration(tab):
            print(line)
    return 0


def _cmd_pages(args):
    page = spectral_page(_load_bicomplex(args.file), args.which, args.r)
    if args.json:
        _emit_json(page.to_json())
    else:
        for line in _render_page(page):
            print(line)
    return 0


def _cmd_pdef(args):
    per_degree, total = purity_defect(_load_bicomplex(args.file))
    if args.json:
        _emit_json({
            "per_degree": {str(k): v for k, v in per_degree.items()},
            "total": total,
        })
    else:
        for line in _render_pdef(per_degree, total):
            print(line)
    return 0


def _cmd_les(args):
    report = les(_load_bicomplex(args.file))
    if args.json:
        _emit_json(report.to_json())
    else:
        for line in _render_les(report):
            print(line)
    return 0


def _cmd_check(args):
    if args.ddc3:
        cond, j = "ddc3", None
    elif args.ddc:
        cond, j = "ddc", None
    elif args.star:
        cond, j = "star", None
    else:
        cond, j = "j", args.j
    files = args.files or [None]
    if None in files and len(files) > 1:
        raise InvalidInput("stdin may appear only as the single input")

    if len(files) == 1 and cond == "ddc3" and args.jobs == 1:
        report = check_ddc3(_load_bicomplex(files[0]))
        if args.json:
            _emit_json(report.to_json())
        else:
            for line in _render_ddc3(report):
                print(line)
        return 0 if report.holds else 1

    results = _sweep([(f, cond, j) for f in files], _check_worker, args.jobs)
    code = 0
    out = []
    for path, (c, msg) in zip(files, results):
        code = max(code, c)
        label = path or "stdin"
        out.append({"file": label, "verdict": msg})
        if not args.json:
            print(f"{label}: {msg}" if len(files) > 1 else msg)
    if args.json:
        _emit_json(out if len(files) > 1 else out[0])
    return code


def _cmd_numerics(args):
    rep = numeric_report(_load_bicomplex(args.file))
    if args.json:
        _emit_json(rep.to_json())
    else:
        for line in _render_numerics(rep):
            print(line)
    return 0


def _cmd_purity(args):
    rep = purity_diagram(_load_bicomplex(args.file))
    if args.json:
        _emit_json(rep.to_json())
    else:
        for line in _render_purity(rep):
            print(line)
    return 0


def _parse_prim(text):
    prim = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            pq, _, dim = chunk.partition(":")
            p, _, q = pq.partition(",")
            prim[(int(p), int(q))] = int(dim)
        except ValueError:
            raise InvalidInput(
                f"bad primitive spec {chunk!r}; expected 'p,q:dim'")
    return prim


def _cmd_build(args):
    if args.kind == "vaisman":
        A = vaisman_model(args.n, _parse_prim(args.prim))
    else:
        A = surface_model(args.b1, args.h10, args.h20, args.b2)
    _write_complex(A, args.out)
    return 0


def _cmd_combine(args):
    if args.kind == "blowup":
        A = blowup_model(
            _load_bicomplex(args.inputs[0]),
            _load_bicomplex(args.inputs[1]),
            args.codim,
        )
    elif args.kind == "bundle":
        A = projective_bundle_model(_load_bicomplex(args.inputs[0]), args.rank)
    else:
        A = product_model(
            _load_bicomplex(args.inputs[0]), _load_bicomplex(args.inputs[1]))
    _write_complex(A, args.out)
    return 0


def _cmd_dual(args):
    _write_complex(dual(_load_bicomplex(args.file), args.n), args.out)
    return 0


def _cmd_scramble(args):
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("ZZ_SEED", "0"))
    _write_complex(scramble(_load_bicomplex(args.file), seed), args.out)
    return 0


def _cmd_cdga_cohomology(args):
    P = _load_cdga(args)
    H = cdga_cohomology(P, args.max_deg)
    if args.json:
        _emit_json({"dims": {str(k): v for k, v in H.dims.items()}})
    else:
        for k in sorted(H.dims):
            reps = ", ".join(H.representatives(k))
            print(f"H^{k} (dim {H.dims[k]}): {reps}")
    return 0


def _cmd_cdga_rank(args):
    P = _load_cdga(args)
    r = r_jk(P, args.j, args.k)
    d = d_jk(P, args.j, args.k)
    if args.json:
        _emit_json({"j": args.j, "k": args.k, "r": r, "d": d,
                    "slack": r - d})
    else:
        print(f"r_{args.j}^{args.k} = {r}")
        print(f"d_{args.j}^{args.k} = {d}")
        print(f"slack = {r - d}")
    return 0


def _cmd_cdga_model(args):
    P = _load_cdga(args)
    model, psi, stabilized = j_minimal_model(
        P, args.j, degree_cap=args.degree_cap, stage_cap=args.stage_cap)
    if args.json:
        _emit_json({
            "model": cdga_to_json(model),
            "map": psi,
            "stabilized": stabilized,
        })
    else:
        d_text = model.differential_text()
        for name, deg in model.generators:
            print(f"{name}  degree {deg}  d -> {d_text.get(name, '0')}  "
                  f"image {psi[name]}")
        if not model.generators:
            print("(trivial model)")
        print(f"stabilized: {str(stabilized).lower()}")
    return 0


def _cmd_cdga_obstruct(args):
    rep = obstruction(_load_cdga(args), args.j)
    if args.json:
        _emit_json(_obstruction_json(rep))
    else:
        for line in _render_obstruction(rep):
            print(line)
    return 0


def _cmd_cdga_compat(args):
    P = _load_cdga(args)
    A = _load_bicomplex(args.complex)
    rep = compatibility(P, args.j, A)
    if args.json:
        _emit_json({
            "j": rep.j,
            "cup_hypothesis": rep.cup_hypothesis,
            "rows": {
                str(k): {"r": row.r_jk, "d": row.d_jk,
                         "slack": row.slack, "ell": row.ell}
                for k, row in rep.rows.items()
            },
            "verdict": rep.verdict,
            "excluded_at": list(rep.excluded_at),
        })
    else:
        for line in _render_compat(rep):
            print(line)
    return 0


# ---------------------------------------------------------------------------
# Parser.


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="zz",
        description="Exact calculator for bounded double complexes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--json", action="store_true",
                     help="emit canonical JSON instead of aligned text")

    one = argparse.ArgumentParser(add_help=False)
    one.add_argument("file", nargs="?",
                     help="bicomplex JSON file (default: stdin)")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--out", help="write the result here "
                     "instead of stdout")

    p = sub.add_parser("validate", parents=[fmt],
                       help="load, check the bicomplex identities, report")
    p.add_argument("files", nargs="*", help="files (default: stdin)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("decompose", parents=[fmt, one],
                       help="multiplicity table of indecomposables")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("cohomology", parents=[fmt, one],
                       help="dimension table of one functor")
    p.add_argument("--functor", required=True, choices=sorted(FUNCTORS))
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("filtration", parents=[fmt, one],
                       help="Hodge filtrations and refined Betti numbers")
    p.set_defaults(handler=_cmd_filtration)

    p = sub.add_parser("pages", parents=[fmt, one],
                       help="one page of a spectral sequence")
    p.add_argument("--which", choices=("column", "row"), default="column")
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(handler=_cmd_pages)

    p = sub.add_parser("pdef", parents=[fmt, one],
                       help="purity defect per degree and total")
    p.set_defaults(handler=_cmd_pdef)

    p = sub.add_parser("les", parents=[fmt, one],
                       help="the long exact sequence dimensions and ranks")
    p.set_defaults(handler=_cmd_les)

    p = sub.add_parser("check", parents=[fmt],
                       help="decide a condition; exit 0 holds, 1 fails")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--ddc", action="store_true",
                       help="sum of dots and squares only")
    which.add_argument("--ddc3", action="store_true",
                       help="the ddc+3 condition, all characterizations")
    which.add_argument("--star", action="store_true",
                       help="two adjacent filtration weights per degree")
    which.add_argument("--j", type=int, help="j-controlled")
    p.add_argument("files", nargs="*", help="files (default: stdin)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("numerics", parents=[fmt, one],
                       help="the cohomology dimension chain and slacks")
    p.set_defaults(handler=_cmd_numerics)

    p = sub.add_parser("purity", parents=[fmt, one],
                       help="purity obstruction groups and verdict")
    p.set_defaults(handler=_cmd_purity)

    p = sub.add_parser("build", help="synthesize a model complex")
    bsub = p.add_subparsers(dest="kind", required=True)
    b = bsub.add_parser("vaisman", parents=[out])
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--prim", default="0,0:1",
                   help="primitive dims as 'p,q:dim;p,q:dim' "
                   "(default '0,0:1')")
    b.set_defaults(handler=_cmd_build)
    b = bsub.add_parser("surface", parents=[out])
    b.add_argument("--b1", type=int, required=True)
    b.add_argument("--h10", type=int, required=True)
    b.add_argument("--h20", type=int, required=True)
    b.add_argument("--b2", type=int, required=True)
    b.set_defaults(handler=_cmd_build)

    p = sub.add_parser("combine", help="combine complexes geometrically")
    csub = p.add_subparsers(dest="kind", required=True)
    c = csub.add_parser("blowup", parents=[out])
    c.add_argument("inputs", nargs=2, metavar=("AMBIENT", "CENTER"))
    c.add_argument("--codim", type=int, required=True)
    c.set_defaults(handler=_cmd_combine)
    c = csub.add_parser("bundle", parents=[out])
    c.add_argument("inputs", nargs=1, metavar="BASE")
    c.add_argument("--rank", type=int, required=True)
    c.set_defaults(handler=_cmd_combine)
    c = csub.add_parser("product", parents=[out])
    c.add_argument("inputs", nargs=2, metavar=("A", "B"))
    c.set_defaults(handler=_cmd_combine)

    p = sub.add_parser("dual", parents=[one, out],
                       help="the n-dual complex")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("scramble", parents=[one, out],
                       help="random basis change (seed from ZZ_SEED)")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_scramble)

    p = sub.add_parser("cdga", help="cdga presentations and obstructions")
    gsub = p.add_subparsers(dest="op", required=True)

    src = argparse.ArgumentParser(add_help=False)
    src.add_argument("file", nargs="?",
                     help="presentation JSON file (default: stdin)")
    src.add_argument("--preset",
                     help="named example; filiform6 means filiform(6)")

    g = gsub.add_parser("cohomology", parents=[fmt, src])
    g.add_argument("--max-deg", type=int, required=True)
    g.set_defaults(handler=_cmd_cdga_cohomology)

    g = gsub.add_parser("rank", parents=[fmt, src])
    g.add_argument("--j", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.set_defaults(handler=_cmd_cdga_rank)

    g = gsub.add_parser("model", parents=[fmt, src])
    g.add_argument("--j", type=int, required=True)
    g.add_argument("--degree-cap", type=int, default=None)
    g.add_argument("--stage-cap", type=int, default=32)
    g.set_defaults(handler=_cmd_cdga_model)

    g = gsub.add_parser("obstruct", parents=[fmt, src])
    g.add_argument("--j", type=int, required=True)
    g.set_defaults(handler=_cmd_cdga_obstruct)

    g = gsub.add_parser("compat", parents=[fmt, src])
    g.add_argument("--j", type=int, required=True)
    g.add_argument("--complex", required=True,
                   help="candidate bicomplex JSON file")
    g.set_defaults(handler=_cmd_cdga_compat)

    return parser


def run(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NotStabilized as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
