"""The three timed operations, plain and traced, and their output checks.

Plain operations call the package exactly as its CLI does.  Traced ones make
the same calls step by step, each inside a span, and add a few calls that
only the trace needs (``spectral.validate``, the truncated series and
``eternal_bound``); those spans are marked ``extra`` so the tracing overhead
can leave them out.

An operation returns ``(output, problems)``: ``problems`` lists every check
its output failed, and an empty list means the output is correct.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

from adiabloch import bench, bloch, effective, liouville, spectral

NEWTON_TOL = 1e-12
ORDERS = (0, 1, 2, None)
# verify_similarity residuals (spectral norm) relative to max(1, gamma ||B|| + ||C||)
SIMILARITY_TOL = 1e-11


class Tracer:
    """Spans kept in memory: name, start, end, CPU time, parent, operation id."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, op: int, extra: bool = False, **attrs):
        record = {
            "name": name,
            "op": op,
            "parent": self._open[-1] if self._open else None,
            "extra": extra,
            **attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        cpu0 = time.process_time()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu_s"] = time.process_time() - cpu0
            self._open.pop()

    def self_times(self) -> list:
        """Each span's duration minus what its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def _similarity_problems(pipe, sim) -> list:
    gamma = pipe.model.gamma
    scale = max(
        1.0,
        gamma * np.linalg.norm(pipe.strong.matrix, 2) + np.linalg.norm(pipe.weak.matrix, 2),
    )
    worst = max(sim.values())
    if not math.isfinite(worst) or worst > SIMILARITY_TOL * scale:
        key = max(sim, key=sim.get)
        return [f"verify_similarity {key} = {worst:.3e} > {SIMILARITY_TOL:g} * {scale:.3g}"]
    return []


def _effective_problems(case, pipe, form, sim) -> list:
    problems = _similarity_problems(pipe, sim)
    if not np.all(np.isfinite(form.rates)):
        problems.append("K has non-finite GKLS rates")
    if case.expect is not None:
        problems += case.expect(pipe, form)
    return problems


def effective_plain(case):
    """``adiabloch effective``: compute_effective, gkls_decompose, verify_similarity."""
    pipe = bench.compute_effective(case.model, tol=NEWTON_TOL)
    form = liouville.gkls_decompose(pipe.generators.schrieffer_wolff, tol=1e-8)
    sim = effective.verify_similarity(
        pipe.generators,
        pipe.decomposition,
        pipe.strong.matrix,
        pipe.weak.matrix,
        case.model.gamma,
        list(pipe.solutions),
    )
    return pipe, _effective_problems(case, pipe, form, sim)


def effective_traced(case, tracer: Tracer, op: int):
    """The same calls in ``compute_effective``'s order, one span per layer."""
    model = case.model
    with tracer.span("liouville.build_superop", op):
        strong = liouville.build_superop(model, "strong")
        weak = liouville.build_superop(model, "weak")
    with tracer.span("spectral.decompose", op):
        dec = bench.robust_decompose(strong.matrix)
    with tracer.span("bloch.solve_blocks", op):
        sols = bloch.solve_blocks(dec, weak.matrix, model.gamma, tol=NEWTON_TOL)
    with tracer.span("effective.build", op):
        gen = effective.build_effective(dec, weak.matrix, model.gamma, sols)
    pipe = bench.PipelineResult(
        model=model,
        strong=strong,
        weak=weak,
        decomposition=dec,
        solutions=tuple(sols),
        generators=gen,
        cluster_tol=dec.cluster_tol,
    )
    with tracer.span("spectral.validate", op, extra=True):
        spectral.validate(dec, strong.matrix)
    with tracer.span("liouville.gkls_decompose", op):
        form = liouville.gkls_decompose(gen.schrieffer_wolff, tol=1e-8)
    with tracer.span("effective.verify_similarity", op):
        sim = effective.verify_similarity(
            gen, dec, strong.matrix, weak.matrix, model.gamma, list(sols)
        )
    return pipe, _effective_problems(case, pipe, form, sim)


def _curve_problems(curves) -> list:
    bad = [
        "inf" if order is None else str(order)
        for order, curve in curves.items()
        if not np.all(np.isfinite(curve.distances))
    ]
    return [f"non-finite distances on curves of order {', '.join(bad)}"] if bad else []


def curves_plain(pipe, times):
    curves = bench.distance_curves(pipe, list(ORDERS), times)
    return curves, _curve_problems(curves)


def curves_traced(pipe, times, tracer: Tracer, op: int):
    with tracer.span("bloch.series", op, extra=True):
        for k in (0, 1, 2):
            pipe.k_eff(k)
    with tracer.span("bench.distance_curves", op, time_points=len(times), targets=len(ORDERS)):
        curves = bench.distance_curves(pipe, list(ORDERS), times)
    return curves, _curve_problems(curves)


def _bound_problems(report) -> list:
    problems = []
    if not (np.all(np.isfinite(report["distances_k"])) and np.all(np.isfinite(report["distances_d"]))):
        problems.append("non-finite distances in bound_check")
    if report["applicable"] and not report["sup_distance_k"] <= report["tight_bound_k"]:
        problems.append(
            f"sup distance {report['sup_distance_k']:.3e} exceeds the tight K bound "
            f"{report['tight_bound_k']:.3e}"
        )
    return problems


def bound_plain(case, times):
    report = bench.bound_check(case.model, times=times)
    return report, _bound_problems(report)


def bound_traced(case, pipe, times, tracer: Tracer, op: int):
    if pipe is not None:
        with tracer.span("effective.eternal_bound", op, extra=True):
            effective.eternal_bound(pipe.decomposition, pipe.weak.matrix, pipe.model.gamma)
    with tracer.span("bench.bound_check", op):
        report = bench.bound_check(case.model, times=times)
    return report, _bound_problems(report)


def effective_counts(pipe) -> dict:
    """Count metrics of one ``effective`` output."""
    dec = pipe.decomposition
    default_tol = 1e-8 * max(np.linalg.norm(pipe.strong.matrix, 2), 1.0)
    # robust_decompose escalates the cluster tolerance by factors of 100
    escalations = max(0, round(math.log10(dec.cluster_tol / default_tol) / 2.0))
    per_block = [sum(sol.iterations.values()) for sol in pipe.solutions]
    return {
        "spectral.blocks": len(dec.blocks),
        "spectral.n": dec.dim,
        "spectral.max_rank": max(blk.rank for blk in dec.blocks),
        "spectral.max_index": max(blk.index for blk in dec.blocks),
        "spectral.escalations": escalations,
        "bloch.newton_iterations": sum(per_block),
        "bloch.max_block_iterations": max(per_block),
        "bloch.uncertified_blocks": sum(not sol.certified for sol in pipe.solutions),
    }
