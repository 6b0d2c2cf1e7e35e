"""Spans around the pfschur layers, recorded from the benchmark's side.

The package modules import each other's functions by name, so a wrapper has
to sit at every caller's copy: ``measures.skew_schur``, ``kernels.pfaffian``,
``kernels.iterated_action_Z`` and so on. The ``quadrature`` module that
``kernels``, ``macdonald`` and ``verify`` reach as a module attribute is
swapped for a proxy whose drivers also wrap the integrand they are handed;
each integrand call is a child span of the layer that owns the callback, so
``quadrature`` self time covers only node generation and summation.
`Tracer.install` patches the modules and `Tracer.uninstall` restores them; no
source file changes.

A span is (id, name, start, end, parent id, operation id). Spans stay in
memory until the run ends. The hottest leaf functions (``contains``,
``point_configuration``, ``even_conjugate_subpartitions``, ``schur``,
``skew_schur``, ``tau``), called up to millions of times per run, are
counted and timed like any span but not kept one by one. A layer's self time
is the time its spans cover minus the time their child spans cover.
"""

import importlib
import json
import types
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("partitions", "symfunc", "quadrature", "pfaffian", "macdonald",
          "measures", "kernels", "verify", "cli")


class Tracer:
    def __init__(self):
        self.spans = []            # (id, name, start, end, parent id, op id)
        self.calls = Counter()     # span name -> calls
        self.counts = Counter()    # work counters recorded at the boundaries
        self.errors = Counter()    # (layer first raising, exception type) -> n
        self.self_s = Counter()    # layer -> seconds
        self.op = None
        self.in_assembly = 0
        self._stack = [[0, 0.0]]   # open spans: [id, time covered by children]
        self._next_id = 1
        self._patches = []
        self.t0 = perf_counter()

    def wrap(self, name, fn, record=True, note=None):
        """fn inside a span called `name`; its layer is the name's prefix.
        note(args, result) updates counters after a successful call."""
        layer = name.split(".", 1)[0]
        stack, spans, calls, self_s = (self._stack, self.spans, self.calls,
                                       self.self_s)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not hasattr(exc, "_pfbench_layer"):
                    exc._pfbench_layer = layer
                    self.errors[(layer, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[1]
                parent[1] += dur
                calls[name] += 1
                if record:
                    spans.append((sid, name, start, end, parent[0], self.op))
            if note is not None:
                note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, modules, attr, wrapper):
        for mod in modules:
            self._patches.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def _integrand(self, owner, f):
        spanned = self.wrap(f"{owner}.integrand", f)
        counts = self.counts

        def integrand(*zs):
            out = spanned(*zs)
            counts["quadrature.integrand_calls"] += 1
            counts["quadrature.integrand_points"] += int(np.size(out))
            return out
        return integrand

    def _quad_proxy(self, quad, owner):
        proxy = types.ModuleType(quad.__name__)
        proxy.__dict__.update(vars(quad))
        for fname in ("integrate", "integrate2", "integrate_n"):
            spanned = self.wrap(f"quadrature.{fname}", getattr(quad, fname))

            def driver(f, *args, _spanned=spanned, **kwargs):
                if self.in_assembly:
                    self.counts["kernels.integrals_in_assembly"] += 1
                return _spanned(self._integrand(owner, f), *args, **kwargs)
            setattr(proxy, fname, driver)
        return proxy

    def install(self):
        """Wrap the public functions of every layer at their callers' copies."""
        (cli, kernels, macdonald, measures, pfaffian, quad, symfunc,
         verify) = (importlib.import_module(f"pfschur.{name}") for name in (
             "cli", "kernels", "macdonald", "measures", "pfaffian",
             "quadrature", "symfunc", "verify"))
        counts = self.counts

        def enumerated(args, result):
            counts["partitions.partitions_enumerated"] += len(result)

        def pfaffian_dim(args, result):
            A = args[0]
            dim = A.dim if isinstance(A, pfaffian.SkewMatrix) else len(A)
            counts["pfaffian.max_dim"] = max(counts["pfaffian.max_dim"], dim)

        def rows_failed(args, result):
            counts["verify.rows_failed"] += sum(not r["pass"] for r in result)

        def nonzero_exit(args, result):
            counts["cli.nonzero_exits"] += int(result != 0)

        plan = [
            ((measures, verify), "enumerate_up_to_weight", "partitions", True, enumerated),
            ((measures,), "contains", "partitions", False, None),
            ((measures,), "point_configuration", "partitions", False, None),
            ((symfunc,), "even_conjugate_subpartitions", "partitions", False, None),
            ((symfunc, measures), "skew_schur", "symfunc", False, None),
            ((symfunc, measures, macdonald), "schur", "symfunc", False, None),
            ((symfunc, measures), "tau", "symfunc", False, None),
            ((pfaffian, kernels, verify), "pfaffian", "pfaffian", True, pfaffian_dim),
            ((macdonald, kernels), "iterated_action_Z", "macdonald", True, None),
            ((macdonald,), "apply_direct", "macdonald", True, None),
            ((macdonald,), "apply_via_contour", "macdonald", True, None),
        ]
        plan += [((measures,), f, "measures", True, None) for f in (
            "correlation_oracle", "truncation_diagnostic",
            "partition_function_truncated", "partition_function_closed",
            "observable_expectation_oracle")]
        plan += [((kernels,), f, "kernels", True, None) for f in (
            "correlation_via_kernel", "correlation_via_q_extraction",
            "radius_sweep")]
        plan += [((verify,), f, "verify", True, rows_failed) for f in (
            "battery_symfunc", "battery_quadrature", "battery_eigenrelation",
            "battery_contour_action", "battery_iterated_actions",
            "battery_partition_function", "battery_pfaffian")]
        plan += [((verify,), "compare_methods", "verify", True, None),
                 ((cli,), "main", "cli", True, nonzero_exit)]
        for modules, attr, layer, record, note in plan:
            original = getattr(modules[0], attr)
            self._patch(modules, attr, self.wrap(f"{layer}.{attr}", original,
                                                 record, note))

        assemble = self.wrap("kernels.assemble_kernel", kernels.assemble_kernel)

        def assemble_kernel(*args, **kwargs):
            self.in_assembly += 1
            try:
                return assemble(*args, **kwargs)
            finally:
                self.in_assembly -= 1
        self._patch((kernels,), "assemble_kernel", assemble_kernel)

        self._patch((kernels,), "quad", self._quad_proxy(quad, "kernels"))
        self._patch((macdonald,), "quad", self._quad_proxy(quad, "macdonald"))
        self._patch((verify,), "quadrature", self._quad_proxy(quad, "verify"))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path):
        """Spans as JSON lines, times in seconds since the tracer started."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op"]) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps([sid, name, start - self.t0, end - self.t0,
                                     parent, op]) + "\n")
