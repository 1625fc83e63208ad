"""Which public functions of ``structent`` the traced run wraps, and the
per-layer metrics it reports.

A metric ``<layer>.<function>_s`` is the time spent in calls of that
function during the traced rounds, nested calls of the same function
counted once.  A layer a workload never calls reads 0 there.
"""

from __future__ import annotations

# (module, attribute, span name); properties and methods as "Class.attr"
WRAPPED = (
    ("io", "parse_fasta", "io.parse_fasta"),
    ("io", "parse_stockholm", "io.parse_stockholm"),
    ("io", "parse_newick", "io.parse_newick"),
    ("io", "Alignment.column", "io.columns"),
    ("conservation", "conservation_score", "conservation.score"),
    ("ultrametric", "band", "ultrametric.band"),
    ("ultrametric", "hu_arcwise", "ultrametric.hu_arcwise"),
    ("ultrametric", "hu_bandwise", "ultrametric.hu_bandwise"),
    ("ultrametric", "hu_recursive", "ultrametric.hu_recursive"),
    ("ultrametric", "hu_nodewise", "ultrametric.hu_nodewise"),
    ("ultrametric", "DistanceMatrix.is_ultrametric", "ultrametric.is_ultrametric"),
    ("ultrametric", "tree_from_distance", "ultrametric.tree_from_distance"),
    ("ultrametric", "tree_to_distance", "ultrametric.tree_to_distance"),
    ("ultrametric", "to_partition_structure", "ultrametric.to_partition_structure"),
    ("concordance", "state_distance_matrix", "concordance.state_distance_matrix"),
    ("notions", "h_s_joint", "notions.h_s_joint"),
    ("notions", "h_s_conditional", "notions.h_s_conditional"),
    ("notions", "i_s", "notions.i_s"),
    ("notions", "h_s_via_q", "notions.h_s_via_q"),
    ("alphabet", "PartitionStructure.is_separating", "alphabet.is_separating"),
    ("coding", "optimize_with_trace", "coding.optimize"),
    ("coding", "mu_u", "coding.mu_u"),
    ("coding", "esscl", "coding.esscl"),
    ("linear", "i_r", "linear.i_r"),
    ("linear", "h_r_joint", "linear.h_r_joint"),
    ("linear", "h_r_conditional", "linear.h_r_conditional"),
    ("sequences", "typical_set", "sequences.typical_set"),
    ("sequences", "equivalence_class_stats", "sequences.equivalence_class_stats"),
)

CLI_SUITE_CALLS = (
    "hu", "distance_matrix", "distance_structure", "hs", "notions_joint",
    "notions_kl", "code", "itr_points", "itr_sample", "sequences_typical",
    "sequences_classes",
)

# (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    # bound_trials
    ("sampling.instance_s", "s"),
    ("coding.optimize_s", "s"),
    ("coding.mu_u_s", "s"),
    ("ultrametric.tree_to_distance_s", "s"),
    ("ultrametric.hu_arcwise_s", "s"),
    ("bound_trials.trial_p50_ms", "ms"),
    ("bound_trials.trial_p95_ms", "ms"),
    ("bound_trials.leaves", "count"),
    ("coding.optimize_rewrites", "count"),
    # conserve_msa
    ("io.parse_fasta_s", "s"),
    ("io.parse_stockholm_s", "s"),
    ("io.columns_s", "s"),
    ("conservation.score_s", "s"),
    ("cli.conserve_emit_s", "s"),
    ("conservation.columns", "count"),
    ("conservation.flagged", "count"),
    # cli_suite
    *((f"cli.{c}_s", "s") for c in CLI_SUITE_CALLS),
    ("io.parse_newick_s", "s"),
    ("ultrametric.band_s", "s"),
    ("ultrametric.hu_bandwise_s", "s"),
    ("ultrametric.hu_recursive_s", "s"),
    ("ultrametric.hu_nodewise_s", "s"),
    ("ultrametric.is_ultrametric_s", "s"),
    ("ultrametric.tree_from_distance_s", "s"),
    ("ultrametric.to_partition_structure_s", "s"),
    ("concordance.state_distance_matrix_s", "s"),
    ("notions.h_s_joint_s", "s"),
    ("notions.h_s_conditional_s", "s"),
    ("notions.i_s_s", "s"),
    ("notions.h_s_via_q_s", "s"),
    ("alphabet.is_separating_s", "s"),
    ("coding.esscl_s", "s"),
    ("linear.i_r_s", "s"),
    ("linear.h_r_joint_s", "s"),
    ("linear.h_r_conditional_s", "s"),
    ("sequences.typical_set_s", "s"),
    ("sequences.equivalence_class_stats_s", "s"),
    ("ultrametric.band_nodes", "count"),
    ("sequences.enumerated", "count"),
    # every workload
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)


def _count_band_nodes(tracer, result, args) -> None:
    tracer.count("ultrametric.band_nodes", sum(1 for _ in result.nodes()))


def _count_typical(tracer, result, args) -> None:
    tracer.count("sequences.enumerated", result.space_size)


def _count_classes(tracer, result, args) -> None:
    N, _, S = args[:3]
    tracer.count("sequences.enumerated", sum(len(s) for s in S.partitions) ** N)


def _count_columns(tracer, result, args) -> None:
    tracer.count("conservation.columns", len(result.columns))
    tracer.count("conservation.flagged", len(result.flagged_columns))


AFTER = {
    "ultrametric.band": _count_band_nodes,
    "sequences.typical_set": _count_typical,
    "sequences.equivalence_class_stats": _count_classes,
    "conservation.score": _count_columns,
}


def install(tracer) -> None:
    """Wrap every function of :data:`WRAPPED` with spans of ``tracer``."""
    import importlib

    for module, attr, span in WRAPPED:
        mod = importlib.import_module(f"structent.{module}")
        if "." in attr:
            cls, name = attr.split(".")
            tracer.wrap_method(getattr(mod, cls), name, span)
        else:
            tracer.wrap_function(getattr(mod, attr), span, AFTER.get(span))


def metrics(tracer, totals: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric the spans and counts give; the workload adds
    its own, and anything still missing reads 0."""
    out = {f"{name}_s": t for name, t in totals.items()}
    out.update(tracer.counts)
    out["trace.spans"] = len(tracer.spans)
    return out
