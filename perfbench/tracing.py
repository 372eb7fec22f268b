"""Span tracing of elliptic_bailey from outside the package.

The package binds its helpers with ``from .module import name`` at import
time, so each function is wrapped in every namespace that looks it up: gamma
in ``special_functions`` and ``contour``; theta in ``special_functions``,
``bailey_algebra``, ``contour`` and ``harness``.  Each call through a wrapper
records a span (name, start, end, parent span, draw) in memory and updates
the counters of its layer.  A span's self time is its duration minus the time
its child spans cover.  ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter

import numpy as np

from elliptic_bailey import bailey_algebra, cli, contour, errors, harness, report, special_functions

MODULES = {
    "special_functions": special_functions,
    "bailey_algebra": bailey_algebra,
    "contour": contour,
    "harness": harness,
    "report": report,
    "cli": cli,
}

# (binding, span name, hook kind).  A binding is "module.attr",
# "module.Class.attr" or "harness._RUNNERS[identity]".
BINDINGS = (
    [("special_functions._gamma_vec", "special_functions.gamma", "gamma"),
     ("contour._gamma_vec", "special_functions.gamma", "gamma_ring")]
    + [(f"{m}.theta", "special_functions.theta", "theta")
       for m in ("special_functions", "bailey_algebra", "contour", "harness")]
    + [(f"{m}.elliptic_pochhammer", "special_functions.pochhammer", None)
       for m in ("special_functions", "bailey_algebra", "contour")]
    + [("special_functions.theta_pochhammer_sequence", "special_functions.pochhammer", None),
       ("bailey_algebra.theta_pochhammer_sequence", "special_functions.pochhammer", None),
       ("bailey_algebra._guarded_pochhammer", "special_functions.pochhammer", None),
       ("bailey_algebra.build_M", "bailey_algebra.build_M", "build_M"),
       ("bailey_algebra.build_D", "bailey_algebra.build_D", None),
       ("bailey_algebra.conditioning_amplification", "bailey_algebra.conditioning", None),
       ("bailey_algebra.verify_matrix_bailey", "bailey_algebra.verify", None),
       ("bailey_algebra.verify_coxeter", "bailey_algebra.verify", None),
       ("bailey_algebra.DiscreteParams.__post_init__", "bailey_algebra.params", None),
       ("contour._drive", "contour.drive", "drive"),
       ("contour._offcenter_residue", "contour.residue_circle", None),
       ("contour._kernel_at", "contour.kernel", "kernel_points"),
       ("contour._m_single", "contour.kernel", "kernel_single"),
       ("contour._m_apply_grid", "contour.kernel", "kernel_grid")]
    + [(f"contour.{f}", "contour.check", None)
       for f in ("elliptic_beta_integral", "star_triangle_residual", "contour_deformation_check",
                 "residue_matrix_reduction_check", "deformation_conditioning")]
    + [(f"harness._RUNNERS[{ident}]", "harness.draw", "draw") for ident in harness.IDENTITIES]
    + [("harness._sample_until", "harness.sample", "sample"),
       ("cli.run_campaign", "harness.run_campaign", None),
       ("report.VerificationReport.to_json", "report.to_json", "to_json"),
       ("cli.main", "cli.main", None)]
)

# exceptions counted once each, at the innermost span they leave
_RAISED = (
    ("special_functions.gamma", errors.PoleProximityError, "special_functions.pole_guard.raised"),
    ("bailey_algebra.", errors.DegenerateParameterError, "bailey_algebra.degenerate.raised"),
    ("contour.drive", errors.QuadratureConvergenceError, "contour.drive.nonconverged"),
    ("harness.draw", Exception, "harness.draw.errors"),
)

_COMPLEX_BYTES = 16
_gamma_orders = special_functions.gamma_truncation_orders


def resolve(binding: str):
    """(container, key, is_mapping) for a binding name."""
    if binding.endswith("]"):
        head, key = binding[:-1].split("[")
        return getattr(harness, head.split(".")[1]), key, True
    parts = binding.split(".")
    owner = MODULES[parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], False


def lookup(binding: str):
    owner, key, mapping = resolve(binding)
    return owner[key] if mapping else getattr(owner, key)


class Tracer:
    """Wraps every binding in BINDINGS until ``restore`` is called."""

    def __init__(self):
        self.spans: list = []      # [name, start_ns, end_ns, parent id, draw]
        self.counts = Counter()
        self.hits = Counter()      # binding -> calls through it
        self.max_grid_bytes = 0
        self._stack: list = []
        self._draw = -1
        self._draws = 0
        self._m_keys: set = set()
        self._counted: set = set()  # (counter, id(exception))
        self._raised_objs: list = []  # keeps those exceptions alive, so ids stay unique
        self._patched: list = []
        self._chunk = getattr(special_functions, "_GAMMA_CHUNK", None)
        for binding, span, kind in BINDINGS:
            owner, key, mapping = resolve(binding)
            original = owner[key] if mapping else getattr(owner, key)
            wrapper = self._wrapper(binding, span, kind, original)
            if mapping:
                owner[key] = wrapper
            else:
                setattr(owner, key, wrapper)
            self._patched.append((binding, original))

    def restore(self) -> list:
        """Put every original back; return the bindings that did not restore."""
        for binding, original in reversed(self._patched):
            owner, key, mapping = resolve(binding)
            if mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)
        return [b for b, original in self._patched if lookup(b) is not original]

    # ------------------------------------------------------------------ wrap

    def _wrapper(self, binding, span, kind, original):
        tracer = self
        spans, stack, hits = self.spans, self._stack, self.hits
        before = getattr(self, f"_before_{kind}", None)
        after = getattr(self, f"_after_{kind}", None)

        def traced(*args, **kwargs):
            hits[binding] += 1
            outer_draw = tracer._draw
            if before is not None:
                args = before(args)
            draw = tracer._draw
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                spans[sid] = (span, start, time.perf_counter_ns(), parent, draw)
                stack.pop()
                tracer._draw = outer_draw
                tracer._raised(span, exc)
                raise
            spans[sid] = (span, start, time.perf_counter_ns(), parent, draw)
            stack.pop()
            tracer._draw = outer_draw
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _raised(self, span, exc):
        for prefix, kind, counter in _RAISED:
            if span.startswith(prefix) and isinstance(exc, kind):
                if (counter, id(exc)) not in self._counted:
                    self._counted.add((counter, id(exc)))
                    self._raised_objs.append(exc)
                    self.counts[counter] += 1

    # ----------------------------------------------------------------- hooks

    def _before_draw(self, args):
        self._draw = self._draws
        self._draws += 1
        return args

    def _before_theta(self, args):
        self.counts["special_functions.theta.points"] += int(np.size(args[0]))
        return args

    def _after_gamma(self, args, result):
        z, nome = args[0], args[1]
        jp, jq = _gamma_orders(z, nome)
        lattice = (jp + 1) * (jq + 1)
        self.counts["special_functions.gamma.points"] += z.size
        self.counts["special_functions.gamma.lattice_terms"] += z.size * lattice
        block = z.size if self._chunk is None else min(z.size, max(1, self._chunk // lattice))
        self.max_grid_bytes = max(self.max_grid_bytes, block * lattice * _COMPLEX_BYTES)

    def _after_gamma_ring(self, args, result):
        self._after_gamma(args, result)
        self.counts["contour.ring.calls"] += 1
        self.counts["contour.ring.points"] += args[0].size

    def _before_build_M(self, args):
        n, a, k, nome = args[:4]
        self._m_keys.add((self._draw, n, complex(a), complex(k), nome.p, nome.q))
        return args

    def _before_kernel_points(self, args):
        self.counts["contour.kernel.points"] += int(np.size(args[2]))
        return args

    def _before_kernel_single(self, args):
        self.counts["contour.kernel.points"] += int(args[2])
        return args

    def _before_kernel_grid(self, args):
        self.counts["contour.kernel.points"] += int(args[1]) ** 2
        return args

    def _before_drive(self, args):
        eval_at = args[0]
        counts = self.counts

        def counted(n):
            counts["contour.drive.nodes_evaluated"] += n
            return eval_at(n)

        return (counted,) + tuple(args[1:])

    def _after_drive(self, args, result):
        self.counts["contour.drive.nodes_final"] += result[1].n_nodes

    def _before_sample(self, args):
        build = args[2]
        counts = self.counts

        def counted(rng):
            counts["harness.sample.attempts"] += 1
            return build(rng)

        return tuple(args[:2]) + (counted,) + tuple(args[3:])

    def _after_sample(self, args, result):
        self.counts["harness.sample.accepted"] += 1

    def _after_to_json(self, args, result):
        self.counts["report.to_json.bytes"] += len(result)

    # ------------------------------------------------------------- summaries

    def span_totals(self):
        """{span name: [calls, total ns, self ns]} and the root (cli.main) ns."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _draw in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}
        root_ns = 0
        for i, (name, start, end, parent, _draw) in enumerate(self.spans):
            row = totals.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            if parent < 0:
                root_ns += end - start
        return totals, root_ns

    def metrics(self) -> dict:
        """Per-layer values by metric name, and the base each ratio divides by."""
        totals, _root_ns = self.span_totals()
        c = self.counts

        def calls(name):
            return totals.get(name, [0, 0, 0])[0]

        def secs(name, col):
            return totals.get(name, [0, 0, 0])[col] / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        gamma_self_ns = totals.get("special_functions.gamma", [0, 0, 0])[2]
        draw_s, sample_s = secs("harness.draw", 1), secs("harness.sample", 1)
        values = {
            "special_functions.gamma.calls": calls("special_functions.gamma"),
            "special_functions.gamma.points": c["special_functions.gamma.points"],
            "special_functions.gamma.lattice_terms": c["special_functions.gamma.lattice_terms"],
            "special_functions.gamma.grid_bytes": self.max_grid_bytes,
            "special_functions.gamma.self_s": gamma_self_ns / 1e9,
            "special_functions.gamma.ns_per_term":
                ratio(gamma_self_ns, c["special_functions.gamma.lattice_terms"]),
            "special_functions.theta.calls": calls("special_functions.theta"),
            "special_functions.theta.points": c["special_functions.theta.points"],
            "special_functions.theta.self_s": secs("special_functions.theta", 2),
            "special_functions.pochhammer.calls": calls("special_functions.pochhammer"),
            "special_functions.pochhammer.self_s": secs("special_functions.pochhammer", 2),
            "special_functions.pole_guard.raised": c["special_functions.pole_guard.raised"],
            "bailey_algebra.build_M.calls": calls("bailey_algebra.build_M"),
            "bailey_algebra.build_M.distinct_ratio":
                ratio(len(self._m_keys), calls("bailey_algebra.build_M")),
            "bailey_algebra.build_M.self_s": secs("bailey_algebra.build_M", 2),
            "bailey_algebra.build_D.calls": calls("bailey_algebra.build_D"),
            "bailey_algebra.build_D.self_s": secs("bailey_algebra.build_D", 2),
            "bailey_algebra.conditioning.s": secs("bailey_algebra.conditioning", 1),
            "bailey_algebra.verify.s": secs("bailey_algebra.verify", 1),
            "bailey_algebra.degenerate.raised": c["bailey_algebra.degenerate.raised"],
            "contour.drive.calls": calls("contour.drive"),
            "contour.drive.nodes_final": c["contour.drive.nodes_final"],
            "contour.drive.nodes_evaluated": c["contour.drive.nodes_evaluated"],
            "contour.drive.final_share":
                ratio(c["contour.drive.nodes_final"], c["contour.drive.nodes_evaluated"]),
            "contour.drive.self_s": secs("contour.drive", 2),
            "contour.drive.nonconverged": c["contour.drive.nonconverged"],
            "contour.ring.calls": c["contour.ring.calls"],
            "contour.ring.points": c["contour.ring.points"],
            "contour.kernel.points": c["contour.kernel.points"],
            "contour.residue_circle.calls": calls("contour.residue_circle"),
            "contour.residue_circle.s": secs("contour.residue_circle", 1),
            "harness.sample.s": sample_s,
            "harness.sample.attempts": c["harness.sample.attempts"],
            "harness.sample.accept_ratio":
                ratio(c["harness.sample.accepted"], c["harness.sample.attempts"]),
            "harness.verify.s": draw_s - sample_s,
            "harness.draw.errors": c["harness.draw.errors"],
            "report.to_json.calls": calls("report.to_json"),
            "report.to_json.s": secs("report.to_json", 1),
            "report.to_json.bytes": c["report.to_json.bytes"],
            "cli.overhead_s": secs("cli.main", 1) - secs("harness.run_campaign", 1),
        }
        bases = {
            "special_functions.gamma.ns_per_term": "special_functions.gamma.lattice_terms",
            "bailey_algebra.build_M.distinct_ratio": "bailey_algebra.build_M.calls",
            "contour.drive.final_share": "contour.drive.nodes_evaluated",
            "harness.sample.accept_ratio": "harness.sample.attempts",
        }
        return values, bases

    def self_shares(self) -> dict:
        """Share of the traced wall time spent in each span name's own code,
        and in each module's; the shares of either kind sum to one."""
        totals, root_ns = self.span_totals()
        by_span = {name: row[2] / root_ns for name, row in totals.items()} if root_ns else {}
        by_module: dict = {}
        for name, share in by_span.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + share
        return by_span, by_module

    def write_spans(self, path):
        """Spans as JSON lines: [name, start_ns, end_ns, parent id, draw]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
