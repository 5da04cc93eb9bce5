"""Traced run of one realhurwitz CLI invocation, split by module.

Run as a script from the root of a checkout:

    python3 perfbench/tracer.py '<json: {"argv": [...], "spans_path": ...}>'

It imports the package from ``src/``, replaces the names that each calling
module binds for another module's public functions with timing wrappers,
calls ``realhurwitz.cli.main`` with stdout captured, and then restores the
original bindings. Every wrapped call records one span (name, start, end,
parent) in flat in-memory arrays; the spans are written out once at the end.
A layer's self time is the summed duration of its spans minus the duration of
their direct child spans. Size counters come from the wrapped calls' returned
values, so they repeat exactly between runs of the same code.

Nothing under ``src/`` is modified. Bindings that a later version of the
package no longer has are skipped, and their counters stay zero.

The last line of stdout is one JSON object with the output digest, the
per-layer times and counters, and ``extra_s``: the time spent after the CLI
returned on measurements that are not part of the traced call (the cached
re-assembly and the spectral residuals).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
from array import array
from contextlib import redirect_stdout
from fractions import Fraction

LAYERS = ("model", "operators", "evolution", "poly", "cli", "oracle",
          "spectral", "nonsep")

# (module that holds the binding, bound name, layer). A call through the
# binding is a call into the layer. Names a module binds for its own
# functions are listed where a counter or a sub-time needs them; recursion
# through them yields nested spans of the same layer. Per-monomial helpers
# (merge_partitions, partition, classify, the key methods) are not wrapped:
# they run millions of times and count toward their caller.
BINDINGS = (
    ("cli", "main", "cli"),
    ("cli", "enumerate_bidegrees", "model"),
    ("cli", "euler_characteristic", "model"),
    ("cli", "format_type", "model"),
    ("cli", "block_matrix", "operators"),
    # cli reaches these through the module object, so they are patched there
    ("evolution", "table_rows", "evolution"),
    ("evolution", "connected_series", "evolution"),
    ("evolution", "disconnected_series", "evolution"),
    ("evolution", "evolve_block", "evolution"),
    ("evolution", "hurwitz_value", "evolution"),
    ("evolution", "verify_genus0_pde", "evolution"),
    ("evolution", "genus0_single_part_values", "evolution"),
    ("evolution", "genus0_unit_values", "evolution"),
    ("evolution", "apply", "operators"),
    ("evolution", "series_log", "poly"),
    ("evolution", "enumerate_bidegrees", "model"),
    ("evolution", "bidegree", "model"),
    ("evolution", "canonical_key", "model"),
    ("evolution", "euler_characteristic", "model"),
    ("evolution", "rtype", "model"),
    ("operators", "enumerate_types", "model"),
    ("poly", "series_mul", "poly"),
    ("oracle", "mult_c2_matrix", "oracle"),
    ("oracle", "hurwitz_by_paths", "oracle"),
    ("oracle", "states", "oracle"),
    ("oracle", "enumerate_types", "model"),
    ("spectral", "common_eigenbasis", "spectral"),
    ("spectral", "orthogonality_check", "spectral"),
    ("spectral", "mean_eigenvalue_check", "spectral"),
    ("spectral", "compare_reference_eigenbasis", "spectral"),
    ("spectral", "block_matrix", "operators"),
    ("spectral", "apply", "operators"),
    ("nonsep", "tilde_table_rows", "nonsep"),
    ("nonsep", "tilde_connected_value", "nonsep"),
    ("nonsep", "tilde_evolve", "nonsep"),
    ("nonsep", "tilde_hurwitz", "nonsep"),
    ("nonsep", "tilde_compare_operator", "nonsep"),
    ("nonsep", "tilde_operator_matrix", "nonsep"),
    ("nonsep", "tilde_states", "nonsep"),
    ("nonsep", "tilde_enumerate_types", "nonsep"),
    ("nonsep", "series_log", "poly"),
)

# sub-times: (metric, span name, span names whose time is taken out of it)
SUB_TIMES = (
    ("oracle.mult_c2.s", "oracle:mult_c2_matrix", ()),
    ("oracle.paths.s", "oracle:hurwitz_by_paths", ()),
    ("nonsep.operator.s", "nonsep:tilde_operator_matrix", ()),
    ("nonsep.evolve.s", "nonsep:tilde_evolve", ("nonsep:tilde_operator_matrix",)),
)

COUNTERS = ("model.types", "model.blocks", "operators.calls", "operators.nnz",
            "evolution.terms", "evolution.blocks", "poly.calls", "poly.terms",
            "poly.coeff_bits_max", "cli.rows", "cli.bytes", "oracle.states_max",
            "oracle.transitions", "spectral.dim", "spectral.float_blocks",
            "nonsep.states", "nonsep.types")


class Tracer:
    """Span recorder: one span per wrapped call, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []
        self.returns: list[tuple[str, tuple, object]] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock = time.perf_counter_ns
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack, returns = self.stack, self.returns

        def traced(*args, **kwargs):
            sid = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            returns.append((name, args, result))
            return result

        return traced

    def self_times(self) -> list[int]:
        """Per-span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[sid] - self.start[sid]
        return own

    def sub_time(self, name: str, excluded: tuple[str, ...]) -> int:
        """Time in outermost spans called `name`, minus the time of the
        outermost spans called one of `excluded` nested inside them."""
        ids = {n: i for i, n in enumerate(self.names)}
        target = ids.get(name)
        skip = {ids[n] for n in excluded if n in ids}
        total = 0
        for sid, nid in enumerate(self.span_name):
            if nid != target and nid not in skip:
                continue
            # nearest enclosing span that is `name` or excluded
            p = self.parent[sid]
            while p >= 0 and self.span_name[p] != target and self.span_name[p] not in skip:
                p = self.parent[p]
            dur = self.end[sid] - self.start[sid]
            if nid == target and (p < 0 or self.span_name[p] in skip):
                total += dur
            elif nid in skip and p >= 0 and self.span_name[p] == target:
                total -= dur
        return total

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": list(self.span_name),
                       "start_ns": list(self.start), "end_ns": list(self.end),
                       "parent": list(self.parent)}, fh)


def _install(tracer: Tracer, modules: dict) -> list[tuple[object, str, object]]:
    saved = []
    for mod_name, attr, layer in BINDINGS:
        mod = modules[mod_name]
        fn = getattr(mod, attr, None)
        if fn is None:
            continue
        saved.append((mod, attr, fn))
        setattr(mod, attr, tracer.wrap(f"{layer}:{attr}", fn))
    return saved


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _poly_terms(series) -> tuple[int, int]:
    terms = bits = 0
    for v in series.coeffs:
        for _, c in v:
            terms += 1
            bits = max(bits, _bits(Fraction(c)))
    return terms, bits


def _nonzeros(entries) -> int:
    return sum(1 for row in entries for x in row if x)


def _residual(rep, block_matrix, kinds) -> float:
    """max over returned pairs of max(|W+ v - l+ v|, |W- v - l- v|), sup norm."""
    worst = 0.0
    mats = [block_matrix(k, rep.bidegree).entries for k in kinds]
    for pair, vec in zip(rep.pairs, rep.vectors):
        for mat, lam in zip(mats, pair):
            for row, c in zip(mat, vec):
                r = sum(float(x) * float(v) for x, v in zip(row, vec) if x) - float(lam) * float(c)
                worst = max(worst, abs(r))
    return worst


def _counters(tracer: Tracer, modules: dict, out_bytes: bytes) -> tuple[dict, float]:
    """Size counters from the recorded return values, and the share of the
    evolved blocks' types that the table could list."""
    model = modules["model"]
    c = dict.fromkeys(COUNTERS, 0)
    c["cli.bytes"] = len(out_bytes)
    c["cli.rows"] = out_bytes.count(b"\n")
    evolved: dict = {}      # block -> longest returned tuple of vectors
    table_cap = None
    oracle_states: dict = {}
    tilde_states: dict = {}
    tilde_types: dict = {}
    for name, args, result in tracer.returns:
        if name == "model:enumerate_types":
            c["model.types"] += len(result)
        elif name == "model:enumerate_bidegrees":
            c["model.blocks"] += len(result)
        elif name == "operators:apply":
            c["operators.calls"] += 1
            c["operators.nnz"] += len(result)
        elif name == "operators:block_matrix":
            c["operators.calls"] += 1
            c["operators.nnz"] += _nonzeros(result.entries)
        elif name == "evolution:evolve_block":
            b = tuple(args[0])
            if len(result) > len(evolved.get(b, ())):
                evolved[b] = result
        elif name == "evolution:table_rows":
            table_cap = args[0]
        elif name in ("poly:series_log", "poly:series_mul"):
            c["poly.calls"] += 1
            if name == "poly:series_log":
                terms, bits = _poly_terms(result)
                c["poly.terms"] += terms
                c["poly.coeff_bits_max"] = max(c["poly.coeff_bits_max"], bits)
        elif name == "oracle:states":
            oracle_states[tuple(args)] = len(result)
        elif name == "spectral:common_eigenbasis":
            c["spectral.dim"] += len(result.basis)
            c["spectral.float_blocks"] += 0 if result.exact else 1
        elif name == "nonsep:tilde_states":
            tilde_states[args[0]] = len(result)
        elif name == "nonsep:tilde_enumerate_types":
            tilde_types[args[0]] = len(result)
    c["evolution.blocks"] = len(evolved)
    c["evolution.terms"] = sum(len(v) for vecs in evolved.values() for v in vecs)
    c["oracle.states_max"] = max(oracle_states.values(), default=0)
    c["oracle.transitions"] = sum(s * s for s in oracle_states.values())
    c["nonsep.states"] = sum(tilde_states.values())
    c["nonsep.types"] = sum(tilde_types.values())
    # types of the evolved blocks, and of those a table can list
    dims = {b: len(model.enumerate_types(model.Bidegree(*b))) for b in evolved}
    listed = sum(d for b, d in dims.items() if table_cap is None or max(b) <= table_cap)
    ratio = listed / sum(dims.values()) if dims else 0.0
    return c, ratio


def run(argv: list[str], spans_path: str | None) -> dict:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from realhurwitz import cli, evolution, model, nonsep, operators, oracle, poly, spectral

    modules = {"cli": cli, "evolution": evolution, "model": model, "nonsep": nonsep,
               "operators": operators, "oracle": oracle, "poly": poly,
               "spectral": spectral}
    tracer = Tracer()
    saved = _install(tracer, modules)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
    post_start = time.perf_counter()
    out = buf.getvalue().encode()
    own = tracer.self_times()
    layer_s = dict.fromkeys(LAYERS, 0)
    for sid, t in enumerate(own):
        layer_s[tracer.names[tracer.span_name[sid]].split(":")[0]] += t
    root = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    metrics = {f"{layer}.s": ns / 1e9 for layer, ns in layer_s.items()}
    for metric, name, excluded in SUB_TIMES:
        metrics[metric] = tracer.sub_time(name, excluded) / 1e9
    metrics["trace.total_s"] = root / 1e9
    counts, listed_ratio = _counters(tracer, modules, out)
    metrics["evolution.listed_ratio"] = listed_ratio

    # series merge alone: the same call again, with every block cached
    assemble = 0.0
    for name, args, _ in tracer.returns:
        if name == "evolution:disconnected_series":
            t0 = time.perf_counter()
            evolution.disconnected_series(*args)
            assemble = time.perf_counter() - t0
            break
    metrics["evolution.assemble.s"] = assemble

    kinds = (operators.OperatorKind.WPLUS, operators.OperatorKind.WMINUS)
    reports = [r for n, _, r in tracer.returns if n == "spectral:common_eigenbasis"]
    metrics["spectral.residual_max"] = max(
        (_residual(r, operators.block_matrix, kinds) for r in reports), default=0.0)
    # the program's own field, which holds the tolerance, not a measurement
    metrics["spectral.residual_field_not_measured"] = max(
        (float(r.max_residual) for r in reports), default=0.0)
    extra_s = time.perf_counter() - post_start
    if spans_path:
        tracer.write(spans_path)
    return {"exit_code": code, "sha256": hashlib.sha256(out).hexdigest(),
            "bytes": len(out), "spans": len(tracer.start), "metrics": metrics,
            "counts": counts, "extra_s": extra_s}


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run(spec["argv"], spec.get("spans_path"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
