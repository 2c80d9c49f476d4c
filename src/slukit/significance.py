"""Almost-stochastic-order dominance testing with bootstrap confidence.

The core statistic is the violation ratio epsilon: with F and G the
empirical score distributions of samples a and b, it is

    integral of max(G^-1(t) - F^-1(t), 0)^2 dt
    -------------------------------------------
    integral of (F^-1(t) - G^-1(t))^2 dt

over t in (0, 1]. Epsilon 0 means a's quantiles never fall below b's
(perfect dominance of a over b), 1 means the reverse, and 0.5 is the
no-evidence midpoint, also returned when the denominator vanishes
(identical samples). A bootstrap lower confidence bound epsilon_min
below the threshold (0.5 by default) declares the dominance of a over b
significant.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .errors import ParseError, StructuralError

DOMINANCE_THRESHOLD = 0.5

SCORE_COLUMNS = ("system", "language", "metric", "seed", "value")


@dataclass(frozen=True)
class ScoreSample:
    """Scores for one (system, metric) cell, one value per random seed."""

    system: str
    metric: str
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) < 2:
            raise StructuralError(
                f"sample for system {self.system!r} needs >= 2 values, "
                f"got {len(self.values)}"
            )
        if not all(math.isfinite(v) for v in self.values):
            raise StructuralError(f"sample for system {self.system!r} has non-finite values")


def _quantile_masses(av, bv) -> tuple[float, float]:
    """Violation mass and total mass between two sorted samples.

    Both empirical quantile functions are step functions with jumps at
    i/n and j/m; between consecutive merged breakpoints they are
    constant, so integrating the squared difference segment by segment
    is exact. Breakpoints are kept as Fractions to dodge float-boundary
    ambiguity when picking the step values.
    """
    n, m = len(av), len(bv)
    breaks = sorted(
        {Fraction(i, n) for i in range(1, n + 1)}
        | {Fraction(j, m) for j in range(1, m + 1)}
    )
    prev = Fraction(0)
    numerator = 0.0
    denominator = 0.0
    for point in breaks:
        mid = (prev + point) / 2
        fq = av[math.ceil(mid * n) - 1]
        gq = bv[math.ceil(mid * m) - 1]
        width = float(point - prev)
        diff = gq - fq
        mass = width * diff * diff
        denominator += mass
        if diff > 0:
            numerator += mass
        prev = point
    return numerator, denominator


def _epsilon(a_values, b_values) -> float:
    numerator, denominator = _quantile_masses(sorted(a_values), sorted(b_values))
    if denominator == 0.0:
        return 0.5
    return numerator / denominator


def epsilon_w2(a: ScoreSample, b: ScoreSample) -> float:
    """Violation ratio of "a stochastically dominates b"; see module docstring."""
    return _epsilon(a.values, b.values)


@dataclass(frozen=True)
class AsoResult:
    epsilon_hat: float
    sigma_boot: float
    epsilon_min: float
    alpha_used: float
    dominant: bool


def inverse_normal_cdf(p: float) -> float:
    """Quantile of the standard normal distribution (statistics.NormalDist)."""
    if not 0.0 < p < 1.0:
        raise StructuralError("inverse normal CDF needs p in (0, 1)")
    return NormalDist().inv_cdf(p)


def aso(
    a: ScoreSample,
    b: ScoreSample,
    alpha: float = 0.05,
    n_boot: int = 1000,
    seed: int = 0,
    threshold: float = DOMINANCE_THRESHOLD,
) -> AsoResult:
    """Test whether sample a almost stochastically dominates sample b.

    Both samples are bootstrapped at their original sizes; sigma is the
    raw (population) standard deviation of the bootstrap epsilons, and

        epsilon_min = epsilon_hat - sigma * InverseNormal(1 - alpha).

    Dominance of a over b is declared when epsilon_min < threshold. The
    result is deterministic for a given seed. Samples with identical
    empirical distributions carry no evidence either way: they return
    the degenerate epsilon 0.5 with sigma 0 and skip the bootstrap, so
    resampling noise cannot manufacture a dominance claim.
    """
    if not 0.0 < alpha < 1.0:
        raise StructuralError("alpha must be in (0, 1)")
    if n_boot < 1:
        raise StructuralError("n_boot must be >= 1")
    numerator, total_mass = _quantile_masses(sorted(a.values), sorted(b.values))
    if total_mass == 0.0:
        return AsoResult(0.5, 0.0, 0.5, alpha, 0.5 < threshold)
    eps_hat = numerator / total_mass
    rng = np.random.default_rng(seed)
    av = np.asarray(a.values)
    bv = np.asarray(b.values)
    boots = np.empty(n_boot)
    for i in range(n_boot):
        ra = av[rng.integers(0, av.size, av.size)]
        rb = bv[rng.integers(0, bv.size, bv.size)]
        boots[i] = _epsilon(ra.tolist(), rb.tolist())
    sigma = float(np.std(boots))
    eps_min = eps_hat - sigma * inverse_normal_cdf(1 - alpha)
    return AsoResult(eps_hat, sigma, eps_min, alpha, eps_min < threshold)


@dataclass(frozen=True)
class ComparisonTable:
    """compare_table output: per-cell results plus per-system dominance counts."""

    baseline: str
    languages: tuple[str, ...]
    alpha: float
    alpha_adjusted: float
    results: dict[tuple[str, str], AsoResult]
    dominant_counts: dict[str, int]


def compare_table(
    scores: dict[tuple[str, str], ScoreSample],
    baseline: str,
    alpha: float = 0.05,
    n_boot: int = 1000,
    seed: int = 0,
    threshold: float = DOMINANCE_THRESHOLD,
) -> ComparisonTable:
    """Compare every system against the baseline, per language.

    ``scores`` maps (system, language) to a sample. The significance
    level is Bonferroni-adjusted to alpha / number of languages, the
    baseline must have a sample for every language, and each present
    (system, language) cell yields one AsoResult testing dominance of
    the system over the baseline. Deterministic for a given seed.
    """
    languages = tuple(sorted({lang for _, lang in scores}))
    if not languages:
        raise StructuralError("no scores to compare")
    for lang in languages:
        if (baseline, lang) not in scores:
            raise StructuralError(f"baseline {baseline!r} has no sample for language {lang!r}")
    systems = sorted({sys for sys, _ in scores if sys != baseline})
    adjusted = alpha / len(languages)
    seeder = random.Random(seed)
    results: dict[tuple[str, str], AsoResult] = {}
    counts = dict.fromkeys(systems, 0)
    for system in systems:
        for lang in languages:
            key = (system, lang)
            if key not in scores:
                continue
            outcome = aso(
                scores[key],
                scores[(baseline, lang)],
                alpha=adjusted,
                n_boot=n_boot,
                seed=seeder.randrange(2 ** 32),
                threshold=threshold,
            )
            results[key] = outcome
            if outcome.dominant:
                counts[system] += 1
    return ComparisonTable(baseline, languages, alpha, adjusted, results, counts)


def parse_scores_csv(text: str) -> dict[tuple[str, str, str], ScoreSample]:
    """Read a system,language,metric,seed,value CSV into per-cell samples.

    Rows group by (system, language, metric); values keep file order,
    one per seed row. The seed column identifies runs and is not
    otherwise interpreted.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not set(SCORE_COLUMNS).issubset(reader.fieldnames):
        raise ParseError(
            "score CSV needs columns " + ",".join(SCORE_COLUMNS), line=1
        )
    grouped: dict[tuple[str, str, str], list[float]] = {}
    for lineno, row in enumerate(reader, start=2):
        try:
            value = float(row["value"])
        except (TypeError, ValueError):
            raise ParseError(f"bad value {row.get('value')!r}", line=lineno) from None
        key = (row["system"], row["language"], row["metric"])
        grouped.setdefault(key, []).append(value)
    out = {}
    for (system, language, metric), values in grouped.items():
        try:
            out[(system, language, metric)] = ScoreSample(system, metric, tuple(values))
        except StructuralError as err:
            raise StructuralError(f"language {language!r}, metric {metric!r}: {err}") from None
    return out


def format_comparison(table: ComparisonTable) -> str:
    """Aligned text rendering of a ComparisonTable."""
    lines = [
        f"baseline\t{table.baseline}",
        f"languages\t{len(table.languages)}",
        f"alpha\t{table.alpha:.6f}",
        f"alpha_adjusted\t{table.alpha_adjusted:.6f}",
        "",
    ]
    header = ("system", "language", "eps_hat", "sigma", "eps_min", "dominant")
    rows = [header]
    for (system, lang), res in sorted(table.results.items()):
        rows.append(
            (
                system,
                lang,
                f"{res.epsilon_hat:.4f}",
                f"{res.sigma_boot:.4f}",
                f"{res.epsilon_min:.4f}",
                "yes" if res.dominant else "no",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    lines.append("")
    for system in sorted(table.dominant_counts):
        lines.append(
            f"dominant_languages\t{system}\t{table.dominant_counts[system]}/{len(table.languages)}"
        )
    return "\n".join(lines) + "\n"


def comparison_to_json(table: ComparisonTable) -> dict:
    return {
        "baseline": table.baseline,
        "languages": list(table.languages),
        "alpha": table.alpha,
        "alpha_adjusted": table.alpha_adjusted,
        "results": [
            {
                "system": system,
                "language": lang,
                "epsilon_hat": res.epsilon_hat,
                "sigma_boot": res.sigma_boot,
                "epsilon_min": res.epsilon_min,
                "alpha_used": res.alpha_used,
                "dominant": res.dominant,
            }
            for (system, lang), res in sorted(table.results.items())
        ],
        "dominant_counts": {
            system: table.dominant_counts[system] for system in sorted(table.dominant_counts)
        },
    }
