"""Traced replay of sheafkit commands.

``replay(argv, tracer)`` performs the public calls that the matching
``sheafkit.cli.cmd_*`` function makes, in the same order, with a span
around each call into a layer, and formats the same report.  The spans
are recorded from outside the program, so the program itself is not
instrumented.  Sizes are taken from the results after the operation span
has closed, so measuring them costs no traced time.

A span's self time is its duration minus the durations of its children.
``sheaf.validate`` is a probe: it rebuilds the parsed sheaf with the check
on, so the validation that ``parse_sheaf`` runs inside ``cli.parse`` can be
timed on its own.  The probe is not part of the command.
"""

from __future__ import annotations

import time
from collections import defaultdict

from sheafkit import cli
from sheafkit.k0 import ConsFunction, chi, realize
from sheafkit.linalg import homology
from sheafkit.sheaf import (
    SheafComplex, base_change_locus, cell_decompose, pushforward, rgamma,
)
from sheafkit.space import krull_dim
from sheafkit.sper import PolyMap, cell_markers, cell_poset, from_formula, push_cons, real_roots

SPANS = ("cli.op", "cli.parse", "space.strict_chains", "sheaf.validate",
         "sheaf.rgamma", "sheaf.pushforward", "sheaf.base_change_locus",
         "sheaf.cell_decompose", "linalg.homology", "k0.chi", "k0.realize",
         "sper.real_roots", "sper.from_formula", "sper.cell_poset", "sper.push_cons")
PROBES = ("sheaf.validate",)

# size counters: name -> (how values combine, unit); "sum" counters are
# totals over the operations, "max" counters the largest value seen
COUNTERS = {
    "cli.input_bytes": ("sum", "bytes"),
    "space.chains": ("sum", "count"),
    "sheaf.rgamma.rank": ("sum", "count"),
    "linalg.homology.rank_in": ("sum", "count"),
    "linalg.homology.nnz": ("sum", "count"),
    "linalg.homology.max_bits": ("max", "bits"),
    "sper.push_cons.cells_out": ("sum", "count"),
    "intpoly.root_poly_degree_max": ("max", "degree"),
    "intpoly.root_poly_bits_max": ("max", "bits"),
}


class Tracer:
    """Spans (name, start, end, parent index, operation id) kept in memory,
    plus size counters."""

    def __init__(self):
        self.spans = []
        self.sums = defaultdict(int)
        self.maxes = defaultdict(int)
        self.op = None
        self._stack = []
        self._deferred = []

    def span(self, name):
        return _Span(self, name)

    def add(self, name, value):
        self.sums[name] += value

    def peak(self, name, value):
        self.maxes[name] = max(self.maxes[name], value)

    def defer(self, fn):
        """Run ``fn`` once the current operation has finished."""
        self._deferred.append(fn)

    def finish_op(self):
        for fn in self._deferred:
            fn()
        self._deferred.clear()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, None, tracer.op]

    def __enter__(self):
        tr = self.tracer
        self.record[3] = tr._stack[-1] if tr._stack else None
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.record)
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans, scale=lambda t: 1.0) -> dict:
    """Span name -> (total self time, number of calls).  Each span's self
    time is multiplied by ``scale`` of its start time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name][0] += (end - start - child_time[i]) * scale(start)
        out[name][1] += 1
    return out


# ---------------------------------------------------------------------------
# size probes, run after the operation


def _coeff_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _root_sizes(tr, roots):
    for r in roots:
        tr.peak("intpoly.root_poly_degree_max", len(r.poly) - 1)
        tr.peak("intpoly.root_poly_bits_max", max(_coeff_bits(c) for c in r.poly))


def _homology_sizes(tr, cx, h):
    tr.add("linalg.homology.rank_in", sum(cx.ranks.values()))
    tr.add("linalg.homology.rank_out",
           sum(mod.free_rank + len(mod.invariant_factors) for mod in h.values()))
    nnz = bits = 0
    for d in cx.diffs.values():
        for row in d.entries:
            for x in row:
                if x:
                    nnz += 1
                    bits = max(bits, _coeff_bits(x))
    tr.add("linalg.homology.nnz", nnz)
    tr.peak("linalg.homology.max_bits", bits)


# ---------------------------------------------------------------------------
# replays, one per command; each mirrors cli.cmd_<command>


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse(tr, fn, *args):
    with tr.span("cli.parse"):
        return fn(*args)


def _space(args, tr):
    return _parse(tr, cli.parse_space, _read(args.space))


def _space_sheaf(args, tr):
    name, m = _space(args, tr)
    k = _parse(tr, cli.parse_sheaf, _read(args.sheaf), name, m)
    with tr.span("sheaf.validate"):
        SheafComplex(k.space, k.ring, k.stalks, k.gens)
    return name, m, k


def _cohomology(args, tr):
    _, m, k = _space_sheaf(args, tr)
    with tr.span("space.strict_chains"):
        chains = m.strict_chains()
    with tr.span("sheaf.rgamma"):
        cx = rgamma(k)
    with tr.span("linalg.homology"):
        h = homology(cx)

    def sizes():
        tr.add("space.chains", len(chains))
        tr.add("sheaf.rgamma.rank", sum(cx.ranks.values()))
        _homology_sizes(tr, cx, h)
    tr.defer(sizes)
    return "\n".join(f"H^{n}: {mod}" for n, mod in sorted(h.items())), 0


def _pushforward(args, tr):
    _, m, k = _space_sheaf(args, tr)
    _, tgt_name, f = _parse(tr, cli.parse_map, _read(args.map), m)
    with tr.span("sheaf.pushforward"):
        out = pushforward(f, k)
    return cli.sheaf_to_text(out, tgt_name).rstrip("\n"), 0


def _chi(args, tr):
    _, _, k = _space_sheaf(args, tr)
    with tr.span("k0.chi"):
        phi = chi(k)
    return str(phi), 0


def _realize(args, tr):
    _, m = _space(args, tr)
    phi = _parse(tr, cli.parse_phi, args.phi, m)
    with tr.span("k0.realize"):
        k = realize(phi)
    with tr.span("k0.chi"):
        back = chi(k)
    if back != phi:
        return "internal invariant failure: chi(realize(phi)) != phi", 2
    return str(back), 0


def _decompose(args, tr):
    _, m, k = _space_sheaf(args, tr)
    with tr.span("sheaf.cell_decompose"):
        pieces, _ = cell_decompose(k)
    with tr.span("k0.chi"):
        total = chi(k)
    acc = ConsFunction.zero(m)
    lines = []
    for pt, c in pieces:
        piece_chi = sum((-1) ** (n % 2) * r for n, r in c.ranks.items())
        lines.append(f"piece {pt}: chi={piece_chi}")
        acc = acc + ConsFunction(m, {q: (piece_chi if q == pt else 0) for q in m.points})
    ok = acc == total
    lines.append(f"chi check: {'ok' if ok else 'FAILED'}")
    return "\n".join(lines), 0 if ok else 2


def _basechange(args, tr):
    _, m, k = _space_sheaf(args, tr)
    _, _, f = _parse(tr, cli.parse_map, _read(args.map), m)
    with tr.span("sheaf.base_change_locus"):
        locus, flags = base_change_locus(f, k)
    lines = [f"point {q}: {'iso' if q in locus else 'not iso'}" for q in f.target.points]
    lines.append("locus: " + " ".join(str(q) for q in sorted(locus, key=str)))
    lines.append(f"locus open: {'yes' if flags['open'] else 'no'}")
    lines.append(f"locus closed: {'yes' if flags['closed'] else 'no'}")
    return "\n".join(lines), 0


def _sper_roots(args, tr):
    p = _parse(tr, cli.parse_poly, args.poly)
    with tr.span("sper.real_roots"):
        roots = real_roots(p)
    tr.defer(lambda: _root_sizes(tr, roots))
    return "\n".join([f"roots: {len(roots)}"] + [str(r) for r in roots]), 0


def _sper_set(args, tr):
    phi = _parse(tr, cli.parse_formula, args.formula)
    with tr.span("sper.from_formula"):
        s = from_formula(phi)
    tr.defer(lambda: _root_sizes(tr, s.roots))
    markers = cell_markers(s.roots)
    lines = [f"cells: {len(s.mask)}"]
    lines.extend(f"{mk} {'in' if b else 'out'}" for mk, b in zip(markers, s.mask))
    return "\n".join(lines), 0


def _sper_cells(args, tr):
    phi = _parse(tr, cli.parse_formula, args.formula)
    with tr.span("sper.from_formula"):
        s = from_formula(phi)
    with tr.span("sper.cell_poset"):
        cp = cell_poset(s)
    tr.defer(lambda: _root_sizes(tr, cp.roots))
    dim = krull_dim(cp.space)
    lines = [cli.space_to_text("cells", cp.space).rstrip("\n")]
    for i in range(len(cp.cells)):
        lines.append(f"{cp.point_at(i)} = {cp.marker(i)}")
    lines.append(f"dim: {dim}")
    return "\n".join(lines), 0


def _sper_push(args, tr):
    p = PolyMap(_parse(tr, cli.parse_poly, args.poly))
    if args.formula:
        phi_f = _parse(tr, cli.parse_formula, args.formula)
        with tr.span("sper.from_formula"):
            s = from_formula(phi_f)
        with tr.span("sper.cell_poset"):
            cp = cell_poset(s)
    else:
        with tr.span("sper.cell_poset"):
            cp = cell_poset([])
    if args.phi:
        phi = _parse(tr, cli.parse_phi, args.phi, cp.space)
    else:
        phi = ConsFunction(cp.space, {q: 1 for q in cp.space.points})
    with tr.span("sper.push_cons"):
        out, out_cells = push_cons(p, phi, cp)

    def sizes():
        tr.add("sper.push_cons.cells_out", len(out_cells.cells))
        _root_sizes(tr, out_cells.roots)
    tr.defer(sizes)
    return "\n".join(f"{out_cells.marker(i)} = {out(out_cells.point_at(i))}"
                     for i in range(len(out_cells.cells))), 0


_REPLAYS = {
    "cohomology": _cohomology, "pushforward": _pushforward, "chi": _chi,
    "realize": _realize, "decompose": _decompose, "basechange": _basechange,
    "sper-roots": _sper_roots, "sper-set": _sper_set, "sper-cells": _sper_cells,
    "sper-push": _sper_push,
}


def replay(argv, tr: Tracer, op_id=None):
    """Replay one text-report command line; returns (report, exit code)."""
    tr.op = op_id
    with tr.span("cli.op"):
        args = cli.build_arg_parser().parse_args(argv)
        result = _REPLAYS[args.command](args, tr)
    tr.finish_op()
    return result
