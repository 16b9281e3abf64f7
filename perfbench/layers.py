"""Which fibcat functions form each layer, and the per-layer metrics.

Each target is `module:attribute`; the tracer wraps it in every fibcat
module that binds it.  A layer whose functions a later version renames is
reported as missing instead of failing the run.
"""

from __future__ import annotations

LAYERS = {
    "seriesdsl.parse": ["fibcat.seriesdsl:parse_registry"],
    "expr.numeric": ["fibcat.expr:NumericEvaluator.eval"],
    "expr.exact": [
        "fibcat.expr:eval_exact_rational",
        "fibcat.expr:eval_exact_qsqrt5",
        "fibcat.expr:eval_one_radical",
    ],
    "exactnum.seq": [
        "fibcat.exactnum:catalan",
        "fibcat.exactnum:binomial",
        "fibcat.exactnum:fibonacci",
        "fibcat.exactnum:lucas",
    ],
    "exactnum.qsqrt5": ["fibcat.exactnum:qr_pow"],
    "arbreal.quadrature": ["fibcat.arbreal.quadrature:tanh_sinh", "fibcat.arbreal.quadrature:clausen2"],
    "arbreal.quadrature.nodes": ["fibcat.arbreal.quadrature:_make_nodes"],
    "arbreal.core": [
        f"fibcat.arbreal.core:{name}"
        for name in ("sqrt", "ln", "sin", "cos", "arcsin", "arctan", "pow_int", "pow_rational")
    ],
    "arbreal.constants": ["fibcat.arbreal.core:const_pi"]
    + [
        f"fibcat.arbreal.constants:{name}"
        for name in (
            "sqrt5_decimal", "alpha_decimal", "beta_decimal", "omega_decimal",
            "ln_alpha", "const_catalan_g", "const_zeta3",
        )
    ],
}

SUM_SERIES = "fibcat.engine:sum_series"
VERIFY_SPAN = "engine.verify"


def install(tracer) -> None:
    """Install every layer's wrappers; call after `import fibcat`."""
    for layer, targets in LAYERS.items():
        for target in targets:
            if layer == "arbreal.quadrature" and target.endswith(":tanh_sinh"):
                tracer.install("fibcat", target, layer, prepare=_count_integrand(tracer))
            elif layer == "arbreal.constants":
                tracer.install("fibcat", target, layer, prepare=_count_computes(tracer))
            else:
                tracer.install("fibcat", target, layer)
    tracer.install("fibcat", SUM_SERIES, _summation_layer, on_result=_count_terms(tracer))


def _summation_layer(args, kwargs) -> str:
    tail = args[2] if len(args) > 2 else kwargs["tail"]
    return "engine.geometric" if type(tail).__name__ == "GeometricTail" else "engine.richardson"


def _count_terms(tracer):
    def on_result(args, kwargs, result):
        tracer.counts[_summation_layer(args, kwargs) + ".terms"] += result.terms_used

    return on_result


def _count_integrand(tracer):
    """Count tanh_sinh entries and integrand evaluations.

    tanh_sinh calls itself once with swapped bounds when a > b; the integrand
    it passes on is already counted and is not wrapped again.
    """

    def prepare(args, kwargs):
        f = args[0]
        if getattr(f, "perfbench_counted", False):
            return args, kwargs
        tracer.counts["quadrature.tanh_sinh_calls"] += 1

        def counted(x):
            tracer.counts["quadrature.integrand_evals"] += 1
            return f(x)

        counted.perfbench_counted = True
        return (counted,) + tuple(args[1:]), kwargs

    return prepare


def _count_computes(tracer):
    """A constant is computed on the first call per (constant, digits)."""
    seen = set()

    def prepare(args, kwargs):
        key = args[0] if args else kwargs.get("digits")
        if key not in seen:
            seen.add(key)
            tracer.counts["constants.computes"] += 1
        return args, kwargs

    return prepare


def metrics(tracer, report_s: float) -> dict:
    """Per-layer metrics of one traced pass, by name (trace.overhead_s aside)."""
    L = tracer.layers
    C = tracer.counts

    def calls(layer):
        return L[layer].calls if layer in L else 0

    def self_s(layer):
        return L[layer].self_s if layer in L else 0.0

    numeric_calls = calls("expr.numeric")
    tanh_calls = C.get("quadrature.tanh_sinh_calls", 0)
    out = {
        "seriesdsl.parse_s": L["seriesdsl.parse"].total_s if "seriesdsl.parse" in L else 0.0,
        "expr.numeric.calls": numeric_calls,
        "expr.numeric.self_s": self_s("expr.numeric"),
        "expr.numeric.us_per_call": 1e6 * self_s("expr.numeric") / numeric_calls if numeric_calls else 0.0,
        "expr.exact.calls": calls("expr.exact"),
        "expr.exact.self_s": self_s("expr.exact"),
        "exactnum.seq.calls": calls("exactnum.seq"),
        "exactnum.seq.self_s": self_s("exactnum.seq"),
        "exactnum.qsqrt5.self_s": self_s("exactnum.qsqrt5"),
    }
    for kind in ("geometric", "richardson"):
        layer = f"engine.{kind}"
        out[f"{layer}.rows"] = calls(layer)
        out[f"{layer}.terms"] = C.get(f"{layer}.terms", 0)
        out[f"{layer}.self_s"] = self_s(layer)
    out.update(
        {
            "engine.other_s": self_s(VERIFY_SPAN),
            "arbreal.quadrature.calls": calls("arbreal.quadrature"),
            "arbreal.quadrature.integrand_evals": C.get("quadrature.integrand_evals", 0),
            "arbreal.quadrature.evals_per_tanh_sinh": (
                C.get("quadrature.integrand_evals", 0) / tanh_calls if tanh_calls else 0.0
            ),
            "arbreal.quadrature.self_s": self_s("arbreal.quadrature"),
            "arbreal.quadrature.node_builds": calls("arbreal.quadrature.nodes"),
            "arbreal.quadrature.node_build_s": self_s("arbreal.quadrature.nodes"),
            "arbreal.core.calls": calls("arbreal.core"),
            "arbreal.core.self_s": self_s("arbreal.core"),
            "arbreal.constants.calls": calls("arbreal.constants"),
            "arbreal.constants.computes": C.get("constants.computes", 0),
            "arbreal.constants.self_s": self_s("arbreal.constants"),
            "cli.report_s": report_s,
        }
    )
    return out
