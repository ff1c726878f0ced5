"""Command-line frontend.

Every verb is a thin adapter: load JSON, call one library function,
render the result.  No mathematics lives in this module.  A report verb
names only its library call, its text renderer and its JSON encoder;
one handler, `_report`, runs them all.

Exit codes: 0 computed (and, for `check`, the condition holds);
1 the checked condition fails; 2 input error; 3 internal invariant
violation.  `--json` switches from aligned text to canonical JSON
(sorted keys, compact separators).  A missing file argument reads
stdin, so pipelines like `zz build vaisman ... | zz check --ddc3`
work.  `ZZ_SEED` fixes the default scramble seed; `--jobs N` fans a
multi-file check or validate sweep over processes, and never changes
what is printed.
"""

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from operator import methodcaller

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


_to_json = methodcaller("to_json")


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


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
    for k in sorted({k for _, k in tab.Ftot}):
        graded = tab.graded_total(k)
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


def _render_pdef(result):
    per_degree, total = result
    lines = [f"degree {k}: {v}" for k, v in sorted(per_degree.items())]
    lines.append(f"total: {total}")
    return lines


def _pdef_json(result):
    per_degree, total = result
    return {"per_degree": {str(k): v for k, v in per_degree.items()},
            "total": total}


def _render_cdga_cohomology(H):
    return [f"H^{k} (dim {H.dims[k]}): {', '.join(H.representatives(k))}"
            for k in sorted(H.dims)]


def _render_rank(obj):
    j, k = obj["j"], obj["k"]
    return [f"r_{j}^{k} = {obj['r']}", f"d_{j}^{k} = {obj['d']}",
            f"slack = {obj['slack']}"]


def _render_model(result):
    model, psi, stabilized = result
    d_text = model.differential_text()
    lines = [f"{name}  degree {deg}  d -> {d_text.get(name, '0')}  "
             f"image {psi[name]}" for name, deg in model.generators]
    if not model.generators:
        lines.append("(trivial model)")
    lines.append(f"stabilized: {str(stabilized).lower()}")
    return lines


def _model_json(result):
    model, psi, stabilized = result
    return {"model": cdga_to_json(model), "map": psi,
            "stabilized": stabilized}


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


def _compat_json(rep):
    return {
        "j": rep.j,
        "cup_hypothesis": rep.cup_hypothesis,
        "rows": {
            str(k): {"r": row.r_jk, "d": row.d_jk,
                     "slack": row.slack, "ell": row.ell}
            for k, row in rep.rows.items()
        },
        "verdict": rep.verdict,
        "excluded_at": list(rep.excluded_at),
    }


# ---------------------------------------------------------------------------
# Handlers: one for every report verb, one for every verb that writes a
# complex, and one per-file sweep shared by validate and check.

# The errors a verb reports instead of crashing: an internal invariant
# violation exits 3, everything else 2.
_REFUSALS = (InputError, InternalError, NotStabilized)


def _refusal(exc):
    """The exit code and message for an error in _REFUSALS."""
    if isinstance(exc, InternalError):
        return 3, f"internal error: {exc}"
    return 2, f"error: {exc}"


def _report(compute, render, encode, args, code=lambda result: 0):
    """Compute a result from args, then print its text or its JSON."""
    result = compute(args)
    if args.json:
        _emit_json(encode(result))
    else:
        for line in render(result):
            print(line)
    return code(result)


def _write(compute, args):
    """Compute a complex from args, then write its canonical JSON."""
    text = dumps(compute(args))
    if args.out in (None, "-"):
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


# Sweep workers (module level so ProcessPoolExecutor can pickle them).


def _validate_worker(path):
    dims = _load_bicomplex(path).spaces
    total = sum(dims.values())
    degs = sorted(p + q for p, q in dims)
    span = f"{degs[0]}..{degs[-1]}" if degs else "empty"
    return 0, f"ok: {len(dims)} spaces, dim {total}, degrees {span}"


def _check_worker(item):
    path, cond, j = item
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


def _guarded(worker, item):
    try:
        return worker(item)
    except _REFUSALS as exc:
        return _refusal(exc)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sweep(items, worker, jobs):
    # Under fork every worker starts at once, so never ask for more
    # than there are CPUs or items.
    jobs = min(jobs, _usable_cpus(), len(items))
    worker = partial(_guarded, worker)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, items))
    return [worker(item) for item in items]


def _files(args):
    files = args.files or [None]
    if None in files and len(files) > 1:
        raise InvalidInput("stdin may appear only as the single input")
    return files


def _per_file(args, files, items, worker, entry):
    """Sweep worker over one item per file; print a line or object each.

    entry(code, message) gives a file's JSON fields besides its label.
    """
    code = 0
    out = []
    for path, (c, msg) in zip(files, _sweep(items, worker, args.jobs)):
        code = max(code, c)
        label = path or "stdin"
        out.append({"file": label, **entry(c, msg)})
        if not args.json:
            print(f"{label}: {msg}" if len(files) > 1 else msg)
    if args.json:
        _emit_json(out if len(files) > 1 else out[0])
    return code


def _cmd_validate(args):
    files = _files(args)
    return _per_file(args, files, files, _validate_worker,
                     lambda c, msg: {"ok": c == 0, "detail": msg})


def _cmd_check(args):
    files = _files(args)
    if args.ddc3 and len(files) == 1:
        return _report(lambda _: check_ddc3(_load_bicomplex(files[0])),
                       _render_ddc3, _to_json, args,
                       lambda report: 0 if report.holds else 1)
    cond = ("ddc3" if args.ddc3 else "ddc" if args.ddc
            else "star" if args.star else "j")
    return _per_file(args, files, [(f, cond, args.j) for f in files],
                     _check_worker, lambda c, msg: {"verdict": msg})


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


def _scrambled(args):
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("ZZ_SEED", "0"))
    return scramble(_load_bicomplex(args.file), seed)


def _cdga_rank(args):
    P = _load_cdga(args)
    r = r_jk(P, args.j, args.k)
    d = d_jk(P, args.j, args.k)
    return {"j": args.j, "k": args.k, "r": r, "d": d, "slack": r - d}


# ---------------------------------------------------------------------------
# Parser.


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="zz",
        description="Exact calculator for bounded double complexes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    # Verbs bind their library calls here, at parse time, so a name
    # patched on this module is the one that runs.
    def report(p, compute, render, encode=_to_json):
        p.set_defaults(handler=partial(_report, compute, render, encode))

    def writes(p, compute):
        p.set_defaults(handler=partial(_write, compute))

    def on_file(fn, *names):
        return lambda args: fn(_load_bicomplex(args.file),
                               *(getattr(args, n) for n in names))

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
    report(p, on_file(multiplicities), _render_mult_table)

    p = sub.add_parser("cohomology", parents=[fmt, one],
                       help="dimension table of one functor")
    p.add_argument("--functor", required=True, choices=sorted(FUNCTORS))
    report(p, on_file(cohomology, "functor"), _render_cohomology)

    p = sub.add_parser("filtration", parents=[fmt, one],
                       help="Hodge filtrations and refined Betti numbers")
    report(p, on_file(hodge_filtration), _render_filtration)

    p = sub.add_parser("pages", parents=[fmt, one],
                       help="one page of a spectral sequence")
    p.add_argument("--which", choices=("column", "row"), default="column")
    p.add_argument("--r", type=int, default=1)
    report(p, on_file(spectral_page, "which", "r"), _render_page)

    p = sub.add_parser("pdef", parents=[fmt, one],
                       help="purity defect per degree and total")
    report(p, on_file(purity_defect), _render_pdef, _pdef_json)

    p = sub.add_parser("les", parents=[fmt, one],
                       help="the long exact sequence dimensions and ranks")
    report(p, on_file(les), _render_les)

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
    report(p, on_file(numeric_report), _render_numerics)

    p = sub.add_parser("purity", parents=[fmt, one],
                       help="purity obstruction groups and verdict")
    report(p, on_file(purity_diagram), _render_purity)

    p = sub.add_parser("build", help="synthesize a model complex")
    bsub = p.add_subparsers(dest="kind", required=True)
    b = bsub.add_parser("vaisman", parents=[out])
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--prim", default="0,0:1",
                   help="primitive dims as 'p,q:dim;p,q:dim' "
                   "(default '0,0:1')")
    writes(b, lambda a: vaisman_model(a.n, _parse_prim(a.prim)))
    b = bsub.add_parser("surface", parents=[out])
    b.add_argument("--b1", type=int, required=True)
    b.add_argument("--h10", type=int, required=True)
    b.add_argument("--h20", type=int, required=True)
    b.add_argument("--b2", type=int, required=True)
    writes(b, lambda a: surface_model(a.b1, a.h10, a.h20, a.b2))

    p = sub.add_parser("combine", help="combine complexes geometrically")
    csub = p.add_subparsers(dest="kind", required=True)
    c = csub.add_parser("blowup", parents=[out])
    c.add_argument("inputs", nargs=2, metavar=("AMBIENT", "CENTER"))
    c.add_argument("--codim", type=int, required=True)
    writes(c, lambda a: blowup_model(_load_bicomplex(a.inputs[0]),
                                     _load_bicomplex(a.inputs[1]), a.codim))
    c = csub.add_parser("bundle", parents=[out])
    c.add_argument("inputs", nargs=1, metavar="BASE")
    c.add_argument("--rank", type=int, required=True)
    writes(c, lambda a: projective_bundle_model(
        _load_bicomplex(a.inputs[0]), a.rank))
    c = csub.add_parser("product", parents=[out])
    c.add_argument("inputs", nargs=2, metavar=("A", "B"))
    writes(c, lambda a: product_model(_load_bicomplex(a.inputs[0]),
                                      _load_bicomplex(a.inputs[1])))

    p = sub.add_parser("dual", parents=[one, out],
                       help="the n-dual complex")
    p.add_argument("--n", type=int, required=True)
    writes(p, on_file(dual, "n"))

    p = sub.add_parser("scramble", parents=[one, out],
                       help="random basis change (seed from ZZ_SEED)")
    p.add_argument("--seed", type=int)
    writes(p, _scrambled)

    p = sub.add_parser("cdga", help="cdga presentations and obstructions")
    gsub = p.add_subparsers(dest="op", required=True)

    src = argparse.ArgumentParser(add_help=False)
    src.add_argument("file", nargs="?",
                     help="presentation JSON file (default: stdin)")
    src.add_argument("--preset",
                     help="named example; filiform6 means filiform(6)")

    g = gsub.add_parser("cohomology", parents=[fmt, src])
    g.add_argument("--max-deg", type=int, required=True)
    report(g, lambda a: cdga_cohomology(_load_cdga(a), a.max_deg),
           _render_cdga_cohomology,
           lambda H: {"dims": {str(k): v for k, v in H.dims.items()}})

    g = gsub.add_parser("rank", parents=[fmt, src])
    g.add_argument("--j", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    report(g, _cdga_rank, _render_rank, lambda obj: obj)

    g = gsub.add_parser("model", parents=[fmt, src])
    g.add_argument("--j", type=int, required=True)
    g.add_argument("--degree-cap", type=int, default=None)
    g.add_argument("--stage-cap", type=int, default=32)
    report(g, lambda a: j_minimal_model(
        _load_cdga(a), a.j, degree_cap=a.degree_cap, stage_cap=a.stage_cap),
        _render_model, _model_json)

    g = gsub.add_parser("obstruct", parents=[fmt, src])
    g.add_argument("--j", type=int, required=True)
    report(g, lambda a: obstruction(_load_cdga(a), a.j),
           _render_obstruction, _obstruction_json)

    g = gsub.add_parser("compat", parents=[fmt, src])
    g.add_argument("--j", type=int, required=True)
    g.add_argument("--complex", required=True,
                   help="candidate bicomplex JSON file")
    report(g, lambda a: compatibility(
        _load_cdga(a), a.j, _load_bicomplex(a.complex)),
        _render_compat, _compat_json)

    return parser


def run(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _REFUSALS as exc:
        code, message = _refusal(exc)
        print(message, file=sys.stderr)
        return code


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
