"""Per-layer tracing from outside the package.

Each public function of a layer module is replaced, as a module attribute,
by a wrapper that records one span per call: name, parent, start, end and
the size of a returned automaton.  Every intra-package call resolves
``au.``, ``nu.``, ``arith.``, ``seqs.`` or ``logic.`` (or a bare global of
the same module) at call time, so the wrappers see all of them.  Integer
scalars get no span (see COUNTED): every call is counted and only the
outermost one is timed, so that layer self times still add up.  Spans stay
in memory until the round ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("numeration", "automata", "arith", "logic", "seqs", "synth", "linrep", "cli")

# Integer scalars, called up to millions of times per round: counted only,
# because a span per call would cost more than the call.
COUNTED = {
    "numeration": ("fib", "lucas", "encode", "decode", "is_canonical", "floor_phi",
                   "floor_phi2", "floor_phi_half", "floor_phi2_half"),
    "seqs": ("a105774", "a_xy", "nested_b", "lucas_variant", "count_c", "position_value",
             "w", "s_value", "t_value", "s_closed", "t_closed", "x_comp", "d_comp"),
    "linrep": ("carlitz_C",),
}

# methods that stand for a layer operation, under the metric name used
METHODS = (
    ("logic", "Compiler", "compile", "logic.compile"),
    ("seqs", "SequenceOracle", "table", "seqs.oracle_table"),
    ("synth", "ObservationTable", "hypothesis", "synth.hypothesis"),
    ("cli", "Store", "load", "cli.store_load"),
)
COUNTED_METHODS = (("seqs", "SequenceOracle", "value", "seqs.oracle_value"),)

# work done by one call, summed into a per-layer count
SIZES = {
    "automata.run_batch": lambda args, out: args[1].size,
    "arith.accepts_number_pairs": lambda args, out: len(args[1]),
    "synth.synthesize_certified": lambda args, out: out.verdict,
}

# certificate factories return the closure that runs the certificate
CERT_FACTORIES = ("function_certificate", "query_certificate", "recurrence_certificate")


class Tracer:
    def __init__(self, fd):
        self.fd = fd
        self.spans = []  # [name, parent, start, end, states_out, extra, counted_s]
        self.stack = []
        self.counts = {}  # name -> [calls]
        self.busy = [0]  # inside a counted call
        self.scalar_self_s = defaultdict(float)  # outermost counted calls
        self.limit_errors = []  # each DeterminizationLimit raised, once

    # -- installation -------------------------------------------------------

    def install(self):
        fd = self.fd
        for layer in LAYERS:
            mod = getattr(fd, layer)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                if not getattr(fn, "__module__", "").startswith(fd.__name__):
                    continue  # re-exported from elsewhere, e.g. math.isqrt
                name = f"{layer}.{attr}"
                if attr in COUNTED.get(layer, ()):
                    setattr(mod, attr, self._counter(name, fn))
                elif layer == "synth" and attr in CERT_FACTORIES:
                    setattr(mod, attr, self._cert_factory(name, fn))
                else:
                    setattr(mod, attr, self._span(name, fn))
        for layer, cls, meth, name in METHODS:
            klass = getattr(getattr(fd, layer), cls)
            setattr(klass, meth, self._span(name, getattr(klass, meth)))
        for layer, cls, meth, name in COUNTED_METHODS:
            klass = getattr(getattr(fd, layer), cls)
            setattr(klass, meth, self._counter(name, getattr(klass, meth)))

    def _counter(self, name, fn):
        """Count every call; time only the outermost counted call.

        An outermost call adds its time to the enclosing span's
        counted-child time, so that span's self time excludes it; spans
        opened inside it become roots and are subtracted from its self time.
        """
        cell = self.counts[name] = [0]
        spans, stack, busy = self.spans, self.stack, self.busy
        outer_self = self.scalar_self_s
        clock = time.perf_counter

        def counted(*args, **kwargs):
            cell[0] += 1
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = 1
            parent = stack[-1] if stack else -1
            stack.append(-1)
            first = len(spans)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                busy[0] = 0
                inner = 0.0
                if len(spans) > first:
                    inner = sum(r[3] - r[2] for r in spans[first:] if r[1] == -1)
                outer_self[name] += dt - inner
                if parent >= 0:
                    spans[parent][6] += dt

        return counted

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        limit_type = self.fd.automata.DeterminizationLimit
        automaton_type = self.fd.automata.Automaton
        size = SIZES.get(name)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0, None, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except limit_type as exc:
                if not any(e is exc for e in self.limit_errors):
                    self.limit_errors.append(exc)
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if isinstance(out, automaton_type):
                rec[4] = out.n_states
            if size is not None:
                rec[5] = size(args, out)
            return out

        return spanned

    def _cert_factory(self, name, factory):
        span = self._span

        def make(*args, **kwargs):
            return span("synth.certify", factory(*args, **kwargs))

        return span(name, make)

    def item(self, name):
        """Open the span of one benchmark item; close it with end_item."""
        rec = [f"item:{name}", self.stack[-1] if self.stack else -1,
               time.perf_counter(), 0.0, 0, None, 0.0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def end_item(self, rec):
        rec[3] = time.perf_counter()
        self.stack.pop()

    # -- aggregation --------------------------------------------------------

    def summary(self):
        """Per-layer metrics (name -> (value, unit)) and per-query rows."""
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        max_below = [0] * n
        for i in range(n - 1, -1, -1):
            name, parent, t0, t1, states = spans[i][:5]
            max_below[i] = max(max_below[i], states)
            if parent >= 0:
                child_time[parent] += t1 - t0
                if max_below[i] > max_below[parent]:
                    max_below[parent] = max_below[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_t = defaultdict(float)
        states_max = defaultdict(int)
        extra_sum = defaultdict(int)
        layer_self = defaultdict(float)
        queries = []
        certified = rounds = 0
        bench_self = 0.0
        for i, (name, parent, t0, t1, states, extra, counted_s) in enumerate(spans):
            dur = t1 - t0
            own = dur - child_time[i] - counted_s
            if name.startswith("item:"):
                bench_self += own
                continue
            calls[name] += 1
            total[name] += dur
            self_t[name] += own
            layer_self[name.split(".")[0]] += own
            states_max[name] = max(states_max[name], states)
            if isinstance(extra, int):
                extra_sum[name] += extra
            if name == "synth.synthesize_certified" and extra == "CERTIFIED":
                certified += 1
            if name == "synth.guess_synchronized" and self._under(i, "synth.synthesize_certified"):
                rounds += 1
            if name == "logic.compile":
                queries.append({"item": self._item_of(i), "s": dur,
                                "max_states": max_below[i]})
        parse_s = sum(t1 - t0 for i, (name, parent, t0, t1, *_) in enumerate(spans)
                      if name in ("logic.parse_formula", "logic.parse_script")
                      and not self._under(i, "logic.parse_formula", "logic.parse_script"))
        certify_s = sum(t1 - t0 for i, (name, parent, t0, t1, *_) in enumerate(spans)
                        if name == "synth.certify" and not self._under(i, "synth.certify"))
        compile_max = max((q["max_states"] for q in queries), default=0)

        m = {}

        def put(key, value, unit):
            m[key] = (value, unit)

        for op in ("project", "zero_normalize", "minimize", "product"):
            key = f"automata.{op}"
            put(f"{key}.calls", calls[key], "count")
            put(f"{key}.s", total[key], "s")
            put(f"{key}.self_s", self_t[key], "s")
        put("automata.project.states_out_max", states_max["automata.project"], "states")
        put("automata.product.states_out_max", states_max["automata.product"], "states")
        put("automata.run_batch.calls", calls["automata.run_batch"], "count")
        put("automata.run_batch.s", total["automata.run_batch"], "s")
        put("automata.run_batch.symbols", extra_sum["automata.run_batch"], "count")
        put("automata.digit_matrix.s", total["automata.digit_matrix"], "s")
        put("automata.pack_tracks.s", total["automata.pack_tracks"], "s")
        put("automata.determinization_limit.count", len(self.limit_errors), "count")
        put("arith.accepts_number_pairs.s", total["arith.accepts_number_pairs"], "s")
        put("arith.accepts_number_pairs.tuples", extra_sum["arith.accepts_number_pairs"], "count")
        put("arith.add.calls", calls["arith.add"], "count")
        put("arith.add.s", total["arith.add"], "s")
        put("arith.const_mul.s", total["arith.const_mul"], "s")
        put("arith.const_div.s", total["arith.const_div"], "s")
        put("arith.build_catalog.s", total["arith.build_catalog"], "s")
        put("arith.mod_dfao.s", total["arith.mod_dfao"], "s")
        put("logic.compile.calls", calls["logic.compile"], "count")
        put("logic.compile.s", total["logic.compile"], "s")
        put("logic.compile.self_s", self_t["logic.compile"], "s")
        put("logic.compile.max_states", compile_max, "states")
        put("logic.parse.s", parse_s, "s")
        put("synth.synthesize_certified.calls", calls["synth.synthesize_certified"], "count")
        put("synth.synthesize_certified.s", total["synth.synthesize_certified"], "s")
        put("synth.guess_synchronized.calls", calls["synth.guess_synchronized"], "count")
        put("synth.guess_synchronized.s", total["synth.guess_synchronized"], "s")
        put("synth.hypothesis.calls", calls["synth.hypothesis"], "count")
        put("synth.certify.s", certify_s, "s")
        put("synth.learning_rounds", rounds, "count")
        put("synth.certified_jobs", certified, "count")
        put("synth.rounds_per_certified", rounds / certified if certified else 0.0, "ratio")
        put("seqs.a105774.calls", self.calls("seqs.a105774"), "count")
        put("numeration.fib.calls", self.calls("numeration.fib"), "count")
        put("numeration.floor_phi.calls", self.calls("numeration.floor_phi"), "count")
        put("seqs.oracle_table.calls", calls["seqs.oracle_table"], "count")
        put("seqs.oracle_table.s", total["seqs.oracle_table"], "s")
        put("seqs.oracle_value.calls", self.calls("seqs.oracle_value"), "count")
        put("linrep.evaluate.calls", calls["linrep.evaluate"], "count")
        put("linrep.evaluate.s", total["linrep.evaluate"], "s")
        put("linrep.zero_witness.s", total["linrep.zero_witness"], "s")
        put("linrep.counting_linrep.s", total["linrep.counting_linrep"], "s")
        put("cli.store_load.calls", calls["cli.store_load"], "count")
        put("cli.store_load.s", total["cli.store_load"], "s")
        for name, own in self.scalar_self_s.items():
            layer_self[name.split(".")[0]] += own
        for layer in LAYERS:
            put(f"layer.{layer}.self_s", layer_self[layer], "s")
        # the benchmark's own code inside items, outside every layer call
        put("layer.bench.self_s", bench_self, "s")
        put("trace.spans", n, "count")
        return m, queries

    def calls(self, name):
        return self.counts.get(name, [0])[0]

    def _under(self, i, *names):
        p = self.spans[i][1]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][1]
        return False

    def _item_of(self, i):
        p = self.spans[i][1]
        while p >= 0:
            if self.spans[p][0].startswith("item:"):
                return self.spans[p][0][5:]
            p = self.spans[p][1]
        return None

    def dump(self, path):
        """Write every span as one JSON line: name, parent, start, end, states."""
        with open(path, "w") as fh:
            for sid, (name, parent, t0, t1, states, *_) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": t0, "end": t1, "states_out": states}) + "\n")
