"""Metric definitions: the end-to-end metrics of an untraced run and the
per-layer metrics derived from a traced run's span summary.

``PER_LAYER`` is the single list of per-layer metrics; ``BENCHMARK.json``
lists the same names, and ``check_gate.py`` verifies that they agree.
"""

from __future__ import annotations

END_TO_END = (
    ("ref_wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ref_evals_per_s", "1/s", "higher"),
)

# Timed functions reported by name, per layer (names as in spans.py).
TIMED = {
    "scalars": (
        "Scalar.mul", "Poly.mul", "Poly.add", "PolyGauss.mul", "PolyGauss.add",
        "PolyGauss.derive", "PolyGauss.eval", "howe_shift", "gauss_moment",
    ),
    "superforms": ("wedge", "add", "exp_even", "berezin", "contract", "eq"),
    "liealg": (
        "bracket", "LieElement.matrix", "curvature_at_e", "schwartz_action",
        "coadjoint_action",
    ),
    "km": ("km_form_at_e", "km_closed_form", "exterior_derivative", "lie_derivative", "hermite"),
    "mq": (
        "mq_phi_at_e", "fiber_umq", "fiber_d", "fiber_ddt",
        "fiber_scale_pullback_symbolic", "fiber_integrate",
    ),
    "checks": (),
    "theta": (
        "diagonalize_gram", "enumerate_vectors", "gram_value", "tail_estimate",
        "theta_partial_sum",
    ),
}

CHECK_IDS = (
    "theorem", "km_closed_form", "curvature", "berezin_combinatorial", "hermite_lemma",
    "closedness", "k_invariance", "fiber_integral", "fiber_restriction", "annihilation",
    "transgression", "howe_hermite", "delta_limit", "example11", "splitting",
)

FORM_TAGS = ("p4q4", "p2q6")


def _per_layer() -> list[tuple[str, str, str, bool]]:
    """(name, unit, better, exact): exact metrics are counts, or ratios of
    counts, that must repeat exactly between two traced runs."""
    out = []
    for layer, fns in TIMED.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count", "lower", True))
            out.append((f"{layer}.{fn}.self_s", "s", "lower", False))
        if layer == "superforms":
            out.append(("superforms.merge_sorted.calls", "count", "lower", True))
        if layer == "liealg":
            out.append(("liealg.curvature_at_e.builds_per_sig", "1", "lower", True))
        if layer == "km":
            out.append(("km.km_form_at_e.builds_per_sig", "1", "lower", True))
        if layer == "checks":
            out.extend((f"checks.{cid}.s", "s", "lower", False) for cid in CHECK_IDS)
        if layer == "theta":
            out.extend([
                ("theta.vectors", "count", "higher", True),
                ("theta.box_points", "count", "lower", True),
                ("theta.enum_hit_ratio", "1", "higher", True),
                ("theta.km_builds_per_sum", "1", "lower", True),
                ("theta.gram_value_per_vector", "1", "lower", True),
            ])
        out.append((f"{layer}.self_s", "s", "lower", False))
    for tag in FORM_TAGS:
        out.extend([
            (f"forms.km_terms.{tag}", "count", "lower", True),
            (f"forms.km_monomials.{tag}", "count", "lower", True),
            (f"forms.mq_monomials.{tag}", "count", "lower", True),
            (f"forms.max_coeff_bits.{tag}", "bits", "lower", True),
        ])
    out.append(("trace.overhead_ratio", "1", "lower", False))
    out.append(("trace.attributed_ratio", "1", "higher", False))
    return out


PER_LAYER = _per_layer()
EXACT = [name for name, _, _, exact in PER_LAYER if exact]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metric values from one traced repetition's summary."""
    spans, counters = trace["spans"], trace["counters"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return spans.get(name, empty)

    out = {}
    for layer, fns in TIMED.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = span(f"{layer}.{fn}")["calls"]
            out[f"{layer}.{fn}.self_s"] = span(f"{layer}.{fn}")["self_s"]
        out[f"{layer}.self_s"] = sum(
            s["self_s"] for name, s in spans.items() if name.startswith(f"{layer}.")
        )
    out["superforms.merge_sorted.calls"] = counters.get("superforms.merge_sorted.calls", 0)
    for name in ("liealg.curvature_at_e", "km.km_form_at_e"):
        out[f"{name}.builds_per_sig"] = _ratio(span(name)["calls"], trace["distinct"][name])
    for cid in CHECK_IDS:
        out[f"checks.{cid}.s"] = span(f"checks.check_{cid}")["total_s"]
    vectors = counters.get("theta.vectors", 0)
    box = counters.get("theta.box_points", 0)
    sums = span("theta.theta_partial_sum")["calls"]
    out["theta.vectors"] = vectors
    out["theta.box_points"] = box
    out["theta.enum_hit_ratio"] = _ratio(vectors, box)
    out["theta.km_builds_per_sum"] = _ratio(span("km.km_form_at_e")["calls"], sums)
    out["theta.gram_value_per_vector"] = _ratio(span("theta.gram_value")["calls"], vectors)
    for tag in FORM_TAGS:
        for kind in ("km_terms", "km_monomials", "mq_monomials", "max_coeff_bits"):
            name = f"forms.{kind}.{tag}"
            out[name] = trace["sizes"].get(name, 0)
    attributed = sum(s["self_s"] for name, s in spans.items() if name.split(".")[0] in TIMED)
    out["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall)
    out["trace.attributed_ratio"] = _ratio(attributed, traced_wall)
    return out
