"""Per-layer spans for the traced run, recorded from outside zzcalc.

A span is recorded where one zzcalc module calls a public function of
another (or where the benchmark calls into the package): the name that the
calling module imported is rebound to a wrapper while the traced pass
runs, and restored afterwards. Nothing under src/ knows about it, and an
untraced run never imports this module.
"""

import time

# (module whose name is rebound, that name, span name "<layer>.<call>").
# "linalg.Matrix" rebinds the class attribute, so every product is seen.
SITES = (
    ("functors", "preimage", "linalg.preimage"),
    ("functors", "kernel_basis", "linalg.kernel_basis"),
    ("functors", "image_basis", "linalg.image_basis"),
    ("functors", "subspace_intersect", "linalg.subspace_intersect"),
    ("conditions", "subspace_intersect", "linalg.subspace_intersect"),
    ("functors", "subspace_sum", "linalg.subspace_sum"),
    ("conditions", "subspace_sum", "linalg.subspace_sum"),
    ("functors", "apply_matrix", "linalg.apply_matrix"),
    ("decomposition", "rank", "linalg.rank"),
    ("linalg.Matrix", "__mul__", "linalg.matmul"),
    ("bicomplex", "loads", "bicomplex.loads"),
    ("functors", "total_d", "bicomplex.total_d"),
    ("functors", "_dc_matrix", "bicomplex.dc"),
    ("functors", "transpose_bicomplex", "bicomplex.transpose_bicomplex"),
    ("decomposition", "spectral_page", "functors.spectral_page"),
    ("conditions", "spectral_page", "functors.spectral_page"),
    ("functors", "hodge_filtration", "functors.hodge_filtration"),
    ("functors", "cohomology", "functors.cohomology"),
    ("conditions", "cohomology", "functors.cohomology"),
    ("decomposition", "betti", "functors.betti"),
    ("decomposition", "refined_betti", "functors.refined_betti"),
    ("conditions", "refined_betti", "functors.refined_betti"),
    ("conditions", "purity_defect", "functors.purity_defect"),
    ("conditions", "multiplicities", "decomposition.multiplicities"),
    ("conditions", "check_ddc3", "conditions.check_ddc3"),
    ("conditions", "numeric_report", "conditions.numeric_report"),
    ("cdga", "obstruction", "cdga.obstruction"),
    ("cdga", "d_jk", "cdga.d_jk"),
    ("cdga", "r_jk", "cdga.r_jk"),
)

LAYERS = ("linalg", "functors", "decomposition", "bicomplex", "conditions", "cdga")

# The per-call rows reported for each layer; every span still counts
# toward its layer's self time.
REPORTED_CALLS = {
    "linalg": ("preimage", "kernel_basis", "image_basis", "subspace_intersect",
               "subspace_sum", "apply_matrix", "rank", "matmul"),
    "functors": ("spectral_page", "hodge_filtration", "cohomology"),
    "decomposition": ("multiplicities",),
    "bicomplex": ("loads", "total_d", "dc", "transpose_bicomplex"),
    "conditions": ("check_ddc3", "numeric_report"),
    "cdga": ("obstruction", "d_jk", "r_jk"),
}

# Span fields.
NAME, START, END, PARENT, ITEM, INFO = range(6)
STATS = "trace.stats"


def _entries(x, linalg):
    if isinstance(x, linalg.Matrix):
        return x.rows * x.cols
    if isinstance(x, linalg.Subspace):
        return x.dim * x.ambient_dim
    return 0


def _bits(f):
    return max(f.numerator.bit_length(), f.denominator.bit_length())


def _max_bits(result, linalg):
    if not isinstance(result, linalg.Subspace):
        return 0
    return max((max(_bits(x.re), _bits(x.im)) for v in result.basis for x in v),
               default=0)


class Tracer:
    """Holds the spans of one traced run in memory.

    Each span is [name, start_ns, end_ns, parent index or -1, item id,
    info]; info is the page r of a spectral page, or (entries in, max
    bits out) of a linalg call. The time a linalg span spends on its own
    statistics is recorded as a "trace.stats" sibling span, so it is not
    charged to the caller's layer.
    """

    def __init__(self, zz):
        self.zz = zz
        self.spans = []
        self.stack = []
        self.item = -1
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        linalg = self.zz.linalg
        is_linalg = name.startswith("linalg.")
        is_page = name == "functors.spectral_page"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if is_linalg:
                span[INFO] = (sum(_entries(a, linalg) for a in args),
                              _max_bits(result, linalg))
                spans.append([STATS, span[END], clock(), parent, self.item, None])
            elif is_page:
                span[INFO] = args[2] if len(args) > 2 else kwargs["r"]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for where, attr, name in SITES:
            owner = self.zz
            for part in where.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, wall_ns, items):
    """Per-layer metrics of one traced pass, and whether the spans account
    for its wall time: each span lies inside its parent, no self time is
    negative, and the layers' self times plus the benchmark's own time
    (wall time outside every top-level span) sum to the wall time."""
    child_ns = [0] * len(spans)
    top_ns = 0
    nested = True
    for s in spans:
        dur = s[END] - s[START]
        if s[PARENT] < 0:
            top_ns += dur
        else:
            parent = spans[s[PARENT]]
            child_ns[s[PARENT]] += dur
            nested &= parent[START] <= s[START] and s[END] <= parent[END]

    self_ns = {}
    calls = {}
    incl_ns = {}
    entries = max_bits = max_page = linalg_under_functors = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        layer = _layer(name)
        dur = s[END] - s[START]
        nested &= dur >= child_ns[i]
        self_ns[layer] = self_ns.get(layer, 0) + dur - child_ns[i]
        if name == STATS:
            continue
        calls[name] = calls.get(name, 0) + 1
        incl_ns[name] = incl_ns.get(name, 0) + dur
        if layer == "linalg":
            entries += s[INFO][0]
            max_bits = max(max_bits, s[INFO][1])
            p = s[PARENT]
            while p >= 0 and _layer(spans[p][NAME]) == "linalg":
                p = spans[p][PARENT]
            if p >= 0 and _layer(spans[p][NAME]) == "functors":
                linalg_under_functors += 1
        elif name == "functors.spectral_page":
            max_page = max(max_page, s[INFO])

    bench_ns = wall_ns - top_ns
    accounted = nested and bench_ns >= 0 and sum(self_ns.values()) + bench_ns == wall_ns

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s", self_ns.get(layer, 0) / 1e9, "s")
        for call in REPORTED_CALLS[layer]:
            name = f"{layer}.{call}"
            put(f"{name}.calls", calls.get(name, 0), "count")
            put(f"{name}.s", incl_ns.get(name, 0) / 1e9, "s")
    put("linalg.calls", sum(v for k, v in calls.items() if _layer(k) == "linalg"), "count")
    put("linalg.entries_in", entries, "count")
    put("linalg.max_bits", max_bits, "bits")
    put("functors.max_page", max_page, "count")
    put("functors.linalg_calls", linalg_under_functors, "count")
    put("decomposition.multiplicities.calls_per_item",
        calls.get("decomposition.multiplicities", 0) / items, "calls/item")
    put("trace.self_s", self_ns.get("trace", 0) / 1e9, "s")
    put("trace.spans", len(spans), "count")
    put("bench.self_s", bench_ns / 1e9, "s")
    return m, accounted
