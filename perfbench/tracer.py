"""Layer tracing from outside the library.

The tracer replaces the public functions and methods of each cofinj module
with timing wrappers, in every module namespace that holds a reference to
them, and restores the originals on ``uninstall``.  Nothing inside ``src/``
knows about it.

Each wrapped call is a span (name, start, end, parent span, op id).  Spans are
kept in preallocated in-memory columns, up to ``max_spans``, and written out by
``dump``.  Self time (a span's duration minus the time its child spans cover)
and call counts are aggregated per group as the spans close, so the per-layer
numbers stay exact after the span buffer is full.  A call counts once when
its group is entered from a different group, so recursion (``format_value``)
and delegation (``solve_left`` to ``solve_right``) are not counted twice.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns

_GUARD = 1 << 59  # the compiled kernel's bound; larger values fall back
_C_MAX_SEGMENTS = 60  # the compiled kernel's length cap; longer lists fall back


def _kernel_hook(t, args, kwargs, result):
    a, b = args
    t.count("_kernel.segments_in", len(a) + len(b))
    if len(a) > _C_MAX_SEGMENTS or len(b) > _C_MAX_SEGMENTS:
        t.count("_kernel.long_calls")
    if any(
        isinstance(v, int) and (v >= _GUARD or v <= -_GUARD)
        for segs in (a, b)
        for s in segs
        for v in s
    ):
        t.count("_kernel.wide_int_calls")


def _gaps_hook(t, args, kwargs, result):
    t.count("core.gaps.points", len(result))


def _window_of(e):
    if hasattr(e, "segments"):
        segs = e.segments
        if len(segs) == 1:
            return 0, segs[0].offset, 1, segs[0].offset
        return segs[0].hi, segs[0].offset, segs[-1].lo, segs[-1].offset
    return e.left_end, e.left_offset, e.right_start, e.right_offset


def _compose_almost_hook(t, args, kwargs, result):
    """Window length compose_almost walks, read off its operands."""
    ad, adl, au, aur = _window_of(args[0])
    bd, _, bu, _ = _window_of(args[1])
    t.count("almost.compose.window_points", max(au, bu - aur) - min(ad, bd - adl) - 1)


def _solve_hook(t, args, kwargs, result):
    t.count("green.solve.solutions", len(result))


def _tokens_hook(t, args, kwargs, result):
    t.count("exprlang.tokens", len(result))


def _audit_hook(t, args, kwargs, result):
    """Audits draw ``samples`` members (default 20) per call; a pass is a True verdict."""
    samples = kwargs.get("samples", args[-1] if isinstance(args[-1], int) else 20)
    t.count("topology.audit.samples", samples)
    t.count("topology.audit.passed", 1 if result else 0)


# (module, dotted attribute, group, hook run after outermost calls of the group)
LAYERS = [
    ("_kernel", "compose_segments", "_kernel", _kernel_hook),
    ("core", "MonotoneElement.__init__", "core.construct", None),
    ("core", "MonotoneElement.__mul__", "core.ops", None),
    ("core", "MonotoneElement.inverse", "core.ops", None),
    ("core", "MonotoneElement.dom_gaps", "core.gaps", _gaps_hook),
    ("core", "MonotoneElement.ran_gaps", "core.gaps", _gaps_hook),
    ("core", "MonotoneElement.to_text", "core.text", None),
    ("core", "normalize", "core.normalize", None),
    ("core", "parse_element", "core.parse", None),
    ("core", "collapse_element", "core.build", None),
    ("core", "element_from_gaps", "core.build", None),
    ("core", "IdempotentGaps.__init__", "core.idem", None),
    ("core", "IdempotentGaps.meet", "core.idem", None),
    ("core", "IdempotentGaps.covers", "core.idem", None),
    ("core", "IdempotentGaps.leq", "core.idem", None),
    ("core", "IdempotentGaps.to_element", "core.idem", None),
    ("almost", "compose_almost", "almost.compose", _compose_almost_hook),
    ("almost", "inverse_almost", "almost.ops", None),
    ("almost", "monotonizers", "almost.ops", None),
    ("almost", "unit_decompose", "almost.ops", None),
    ("almost", "unit_recompose", "almost.ops", None),
    ("almost", "AlmostMonotoneElement.dom_gaps", "almost.gaps", None),
    ("almost", "AlmostMonotoneElement.ran_gaps", "almost.gaps", None),
    ("almost", "make_almost", "almost.make", None),
    ("almost", "from_monotone", "almost.convert", None),
    ("almost", "to_monotone", "almost.convert", None),
    ("almost", "as_almost", "almost.convert", None),
    ("almost", "canonicalize", "almost.convert", None),
    ("almost", "minimal_exceptions", "almost.min_exc", None),
    ("almost", "parse_almost", "almost.parse", None),
    ("green", "solve_right", "green.solve", _solve_hook),
    ("green", "solve_left", "green.solve", _solve_hook),
    ("green", "r_equiv", "green.relations", None),
    ("green", "l_equiv", "green.relations", None),
    ("green", "h_equiv", "green.relations", None),
    ("green", "factorize_simple", "green.factorize", None),
    ("green", "connect_idempotents", "green.connect", None),
    ("congruence", "mgc_signature", "congruence", None),
    ("congruence", "mgc_equiv", "congruence", None),
    ("congruence", "witness_idempotent", "congruence", None),
    ("congruence", "signature_preimage", "congruence", None),
    ("congruence", "unit_to_shift", "congruence", None),
    ("bicyclic", "eval_word", "bicyclic.eval", None),
    ("bicyclic", "gen", "bicyclic.gen", None),
    ("bicyclic", "normal_form", "bicyclic.normal_form", None),
    ("topology", "product_cover", "topology.product_cover", None),
    ("topology", "inverse_cover", "topology.inverse_cover", None),
    ("topology", "separate", "topology.separate", None),
    ("topology", "sample_member", "topology.sample", None),
    ("topology", "member", "topology.member", None),
    ("topology", "audit_product_cover", "topology.audit", _audit_hook),
    ("topology", "audit_inverse_cover", "topology.audit", _audit_hook),
    ("topology", "audit_separate", "topology.audit", _audit_hook),
    ("exprlang", "tokenize", "exprlang.tokenize", _tokens_hook),
    ("exprlang", "parse", "exprlang.parse", None),
    ("exprlang", "Evaluator.run", "exprlang.eval", None),
    ("exprlang", "Evaluator.eval", "exprlang.eval", None),
    ("exprlang", "format_value", "exprlang.format", None),
    ("cli", "main", "cli.main", None),
    ("cli", "render_value", "cli.render", None),
]

OP_GROUP = "bench.op"


class Tracer:
    """Spans and per-group aggregates for one process; single-threaded."""

    def __init__(self, max_spans: int):
        self.groups = [OP_GROUP]
        self.gid = {OP_GROUP: 0}
        self.calls = [0]
        self.self_ns = [0]
        self.incl_ns = [0]  # outermost spans of the group only
        self.counts: dict[str, int] = {}
        self.stack: list[list] = []  # [child_ns, span_id, group_id]
        self.op_id = -1
        self.started = 0
        self.max_spans = max_spans
        self.cols = {k: array("q", bytes(8 * max_spans)) for k in ("group", "start", "end", "parent", "op")}
        self._patches: list[tuple] = []
        self._op = self.wrap(lambda fn, *args: fn(*args), OP_GROUP)

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _group(self, name):
        if name not in self.gid:
            self.gid[name] = len(self.groups)
            self.groups.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.incl_ns.append(0)
        return self.gid[name]

    def wrap(self, fn, group: str, hook=None):
        gid = self._group(group)
        stack, calls, self_ns, incl_ns, cols = self.stack, self.calls, self.self_ns, self.incl_ns, self.cols
        cap = self.max_spans
        clock = perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.started
            tracer.started = sid + 1
            parent = stack[-1] if stack else None
            frame = [0, sid, gid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[gid] += dur - frame[0]
                outer = parent is None or parent[2] != gid
                if outer:
                    calls[gid] += 1
                    incl_ns[gid] += dur
                if parent is not None:
                    parent[0] += dur
                if sid < cap:
                    cols["group"][sid] = gid
                    cols["start"][sid] = t0
                    cols["end"][sid] = t1
                    cols["parent"][sid] = parent[1] if parent is not None else -1
                    cols["op"][sid] = tracer.op_id
            if hook is not None and outer:
                h0 = clock()
                hook(tracer, args, kwargs, result)
                if parent is not None:
                    parent[0] += clock() - h0  # hook time is tracing overhead, not the parent's
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, fn, args):
        self.op_id = op_id
        return self._op(fn, *args)

    def install(self, modules: dict):
        """Wrap every LAYERS entry; modules maps short names to the imported cofinj modules."""
        targets = list(modules.values())
        for mod_name, attr, group, hook in LAYERS:
            owner = modules[mod_name]
            path = attr.split(".")
            for p in path[:-1]:
                owner = getattr(owner, p)
            original = owner.__dict__[path[-1]]
            wrapped = self.wrap(original, group, hook)
            self._patches.append((owner, path[-1], original))
            setattr(owner, path[-1], wrapped)
            if len(path) == 1:  # also rebind names imported with 'from module import name'
                for m in targets:
                    for k, v in list(vars(m).items()):
                        if v is original and m is not owner:
                            self._patches.append((m, k, original))
                            setattr(m, k, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def table(self) -> dict:
        return {
            g: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9, "incl_s": self.incl_ns[i] / 1e9}
            for i, g in enumerate(self.groups)
        }

    def dump(self, path, meta: dict):
        n = min(self.started, self.max_spans)
        spans = [
            [self.groups[self.cols["group"][i]], self.cols["start"][i], self.cols["end"][i],
             self.cols["parent"][i], self.cols["op"][i]]
            for i in range(n)
        ]
        doc = dict(meta)
        doc["layers"] = self.table()
        doc["counts"] = self.counts
        doc["spans_recorded"] = n
        doc["spans_dropped"] = self.started - n
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent_span", "op_id"]
        doc["spans"] = spans
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def cofinj_modules() -> dict:
    from cofinj import _kernel, almost, bicyclic, cli, congruence, core, exprlang, green, topology

    return {
        "_kernel": _kernel, "core": core, "almost": almost, "green": green,
        "congruence": congruence, "bicyclic": bicyclic, "topology": topology,
        "exprlang": exprlang, "cli": cli,
    }
