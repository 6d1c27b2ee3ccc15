"""The benchmark's definition; ``all.py`` writes it out as BENCHMARK.json."""

RUN_SECONDS = 14

WORKLOADS = {
    "point_eval": "scattered zeta_contour, log_hyper_gamma and balanced_P calls with a fresh omega each: Hankel quadrature with nothing shared",
    "w_sweep": "one omega, a dense w grid and the full derivative hierarchy at each w: many integrals share omega, w, lambda and precision",
    "asym_harness": "asymptotic rows, Richardson fits and remainder reductions: jets, Bernoulli expansions and ray integrals",
    "direct_sum": "zeta_direct for r = 1..3 at Re(s) = r + 1.5: the lattice Euler-Maclaurin path, no Hankel code",
}

# name: (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.20),
    "latency_p50_s": ("s", "lower", 0.20),
    "latency_tail_s": ("s", "lower", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# wrapped function -> traced statistics
SPAN_STATS = {
    "hankel.hankel_integrate": ("calls", "self_s", "errors"),
    "hankel.ray_only_integrate": ("calls", "self_s", "errors"),
    "hankel.auto_spec": ("calls", "self_s"),
    "evaluators.default_hspec": ("calls", "self_s"),
    "evaluators.zeta_contour": ("calls", "self_s", "errors"),
    "evaluators.log_hyper_gamma": ("calls", "self_s", "errors"),
    "evaluators.balanced_P": ("calls", "self_s", "errors"),
    "evaluators.zeta_direct": ("calls", "self_s", "errors"),
    "asymptotics.lhs_value": ("calls", "self_s", "errors"),
    "asymptotics.rhs_expansion": ("calls", "self_s", "errors"),
    "asymptotics.fit_one_over_w": ("calls", "self_s", "errors"),
    "asymptotics.remainder_reduction_check": ("calls", "self_s", "errors"),
    "asymptotics.remainder_tail": ("calls", "self_s", "errors"),
    "multibernoulli.bernoulli_a": ("calls", "self_s"),
    "multibernoulli.bernoulli_expansion": ("calls", "self_s"),
    "multibernoulli.f_omega_series": ("calls", "self_s"),
    "qpoly.q_poly": ("calls", "self_s"),
    "qpoly.s_poly": ("calls", "self_s"),
    "series.exponential_jet": ("calls", "self_s"),
    "series.LaurentSeries.__mul__": ("calls", "self_s"),
    "series.LaurentSeries.__truediv__": ("calls", "self_s"),
    "series.LaurentSeries.exp": ("calls", "self_s"),
    "constants.gamma_scalar": ("calls", "self_s"),
    "constants.euler_gamma": ("calls", "self_s"),
    "constants.zeta_int": ("calls", "self_s"),
    "combinatorics.coeff_c": ("calls",),
}

# metric name -> cached function, read through cache_info() deltas
CACHES = {
    "hankel.legendre_nodes": "hankel._legendre_nodes",
    "qpoly.q_poly": "qpoly.q_poly",
    "qpoly.s_poly": "qpoly.s_poly",
    "qpoly.quotient_jet": "qpoly._quotient_jet",
    "constants.euler_gamma_bits": "constants._euler_gamma_bits",
    "constants.bernoulli_number": "constants.bernoulli_number",
}

_STAT = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "errors": ("count", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "lookups": ("count", "lower"),
}

PER_LAYER = (
    [(f"{fn}.{stat}",) + _STAT[stat] for fn, stats in SPAN_STATS.items() for stat in stats]
    + [(f"{name}.{stat}",) + _STAT[stat] for name in CACHES for stat in ("hit_ratio", "lookups")]
    + [
        ("hankel.integrals_per_request", "count", "lower"),
        ("requests.fail_ratio", "ratio", "lower"),
        ("requests.known_defects", "count", "lower"),
    ]
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "hzbench/run.py"],
        "paths": ["hzbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
