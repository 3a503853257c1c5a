"""Per-case timings of the traced run, next to the reference numbers that
ROADMAP.md records for the same cases (measured 2026-10-17, Python 3.11.7).

Each case reads the inclusive duration of one span over the jobs of one
case: the largest duration within a job, then the median over jobs. They
include tracing overhead, so compare them with ``trace.overhead_ratio`` in
mind. A case is flagged when it is more than 2x outside the reference range.
"""

from __future__ import annotations

import statistics

# workload -> [(label, span, job cases, per-job multiplier, (lo, hi) seconds)]
CASES = {
    "lattice-survey": [
        ("16A1 form build", "lattices.EvenLattice.discriminant_group", {"16A1"}, 1,
         (0.244, 0.244)),
        ("12A2 form build", "lattices.EvenLattice.discriminant_group", {"12A2"}, 1,
         (0.510, 0.510)),
        ("8A1 glue search", "quadmod.FiniteQuadraticModule.maximal_isotropic_subgroups",
         {"8A1"}, 1, (0.80, 0.80)),
        ("3D4 glue search", "quadmod.FiniteQuadraticModule.maximal_isotropic_subgroups",
         {"3D4"}, 1, (0.052, 0.052)),
        ("3D4 overlattices end to end", "cli.main", {"3D4"}, 1, (0.69, 0.69)),
        ("[[510510]] anisotropy scan", "quadmod.FiniteQuadraticModule.is_anisotropic",
         {"[[510510]]"}, 1, (0.52, 0.52)),
    ],
    "wide-verify": [
        ("A30 classify", "ogroup.ExtendedForm.classify_witness", {"A30:member"}, 1,
         (0.140, 0.210)),
        ("A30 orthogonal_inverse", "ogroup.ExtendedForm.orthogonal_inverse",
         {"A30:member"}, 1, (0.269, 0.269)),
        ("A30 complete_isotropic", "ogroup.ExtendedForm.complete_isotropic",
         {"A30:member"}, 1, (0.147, 0.678)),
    ],
    "coset-reduction": [
        # the AC07 acceptance workload: 102 right plus double reductions over
        # A2 and D4 with s in (1, 2, 3); estimated as 102 x the median job
        ("AC07-style reductions (x102)",
         ("cosets.reduce_right_coset", "cosets.reduce_double_coset"),
         {f"{b}:s={s}" for b in ("A2", "D4") for s in (1, 2, 3)}, 102, (1.3, 1.6)),
        ("E8 complete_isotropic", "ogroup.ExtendedForm.complete_isotropic",
         {f"E8:s={s}" for s in (1, 2, 3, 5)}, 1, (0.005, 0.024)),
    ],
}


def measure(workload, tracer, cases):
    """Rows {case, seconds, jobs, reference_s, off_by_2x} for one workload."""
    rows = []
    for label, spans, wanted, scale, (lo, hi) in CASES[workload]:
        spans = (spans,) if isinstance(spans, str) else spans
        per_job = {}
        for name, t0, t1, _, job, _ in tracer.spans:
            if name in spans and job >= 0 and cases[job] in wanted:
                key = (job, name)
                per_job[key] = max(per_job.get(key, 0), t1 - t0)
        totals = {}
        for (job, _), ns in per_job.items():
            totals[job] = totals.get(job, 0) + ns
        if not totals:
            continue
        seconds = scale * statistics.median(totals.values()) / 1e9
        rows.append({"case": label, "seconds": seconds, "jobs": len(totals),
                     "reference_s": [lo, hi],
                     "off_by_2x": seconds > 2 * hi or seconds < lo / 2})
    return rows
