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
below DOMINANCE_THRESHOLD (0.5) declares the dominance of a over b
significant. Scores are put on a unit scale by one power of two before
any mass is taken, so epsilon keeps every bit of ordinary scores and is
defined for scores near the limits of float64. Two rules settle a cell
without resampling: identical empirical distributions give 0.5 with
sigma 0 (degenerate), and strictly separated supports (every value of
one sample above every value of the other) give epsilon 0 or 1 in every
replicate, so sigma is 0 and epsilon_min is epsilon_hat (separated).

The bootstrap is exact and cheap per replicate. Its stream rule: for a
seed, replicate k draws n indices into a, then m into b, exactly as one
``Generator.integers`` call per sample would. ``aso`` draws each pass of
replicates with one call that consumes the stream the same way: with
per-element bounds in general, and with one scalar bound, numpy's faster
path, when n == m. A pass holds at most BOOT_DRAWS indices, or one
replicate when n + m is larger, so it stays small whatever n, m and
n_boot are. One integer sort of the drawn ranks orders both parts of
every replicate in a pass, and each pass integrates every replicate over
one breakpoint plan, built once per size pair and cached read-only
(``_plan``), with one reduction that adds the masses in breakpoint order.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .corpus import csv_rows
from .errors import ParseError, StructuralError

DOMINANCE_THRESHOLD = 0.5

SCORE_COLUMNS = ("system", "language", "metric", "seed", "value")

# Bootstrap indices drawn per matrix pass: a pass scores BOOT_DRAWS // (n + m)
# replicates (at least one), so its arrays stay small whatever n, m and n_boot are.
BOOT_DRAWS = 8192


@dataclass(frozen=True)
class ScoreSample:
    """Scores for one cell, one value per random seed; the cell's key names it."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) < 2:
            raise StructuralError(f"sample needs >= 2 values, got {len(self.values)}")
        if not all(math.isfinite(v) for v in self.values):
            raise StructuralError("sample has non-finite values")


@functools.lru_cache(maxsize=256)
def _plan(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The breakpoint plan of sizes n and m: segment widths, a's and b's step per segment.

    Both empirical quantile functions are step functions with jumps at
    i/n and j/m. In units of 1/(n*m) the merged breakpoints are the ends
    i*m and j*n, and on the segment ending at e the steps are
    a[ceil(e/m) - 1] and b[ceil(e/n) - 1]. The plan depends only on the
    sizes, so it is built once per size pair; its arrays are read-only,
    since every caller shares them.
    """
    ends = np.union1d(np.arange(1, n + 1) * m, np.arange(1, m + 1) * n)
    plan = np.diff(ends, prepend=0) / (n * m), -(-ends // m) - 1, -(-ends // n) - 1
    for array in plan:
        array.flags.writeable = False
    return plan


def _masses(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Violation mass and total mass of each row pair of row-sorted a [r, n], b [r, m].

    Integrating the squared quantile difference segment by segment over
    ``_plan`` is exact. The masses are summed in breakpoint order, so every
    row gets the bits of a sequential walk: np.add.reduce over axis 0 of a
    C-contiguous array adds its rows one at a time, and numpy's pairwise
    summation, which would change the order, applies only when the reduced
    axis is the contiguous one. Stacking the two masses gives every row at
    least two cells, so that never happens, even when r is 1.
    """
    width, a_step, b_step = _plan(a.shape[1], b.shape[1])
    diff = b.T[b_step] - a.T[a_step]  # [segments, r]
    mass = width[:, None] * diff * diff
    violation, total = np.add.reduce(np.stack([np.where(diff > 0, mass, 0.0), mass], 1), axis=0)
    return violation, total


def _normal_quantile(alpha: float, languages: int = 1) -> float:
    """InverseNormal(1 - alpha / languages): the z of the (Bonferroni-adjusted) bound.

    Below about 5.6e-17, 1 - alpha rounds to 1.0, where the quantile is
    infinite, so such an adjusted alpha is refused; the error names alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise StructuralError("alpha must be in (0, 1)")
    adjusted = alpha / languages
    if 1.0 - adjusted == 1.0:
        per = f" ({adjusted!r} per language)" if languages > 1 else ""
        raise StructuralError(f"alpha {alpha!r}{per} is too small: 1 - alpha rounds to 1")
    return NormalDist().inv_cdf(1 - adjusted)


def _replicate_buffer(n_boot: int) -> np.ndarray:
    """An uninitialised array for n_boot replicates; n_boot < 1 or too large to hold is refused."""
    if n_boot < 1:
        raise StructuralError("n_boot must be >= 1")
    try:
        return np.empty(n_boot)
    except (ValueError, MemoryError):
        raise StructuralError(f"n_boot {n_boot} is too large to hold") from None


def _separated(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether every bootstrap replicate of unit-scaled a against b has the ratio epsilon_hat.

    With min(a) > max(b) (or the reverse) every segment difference of
    every replicate has the same sign and a magnitude of at least the gap,
    since rounding is monotone. Its mass, rounded as ``_masses`` rounds it,
    is then at least (w_min * gap) * gap for the narrowest plan width
    w_min, so when that is positive no mass underflows to 0; no total can
    overflow, since every magnitude is below 1. The ratio is then exactly
    0.0 (a above) or 1.0 (violation and total are the same sum).
    """
    lo_a, hi_a, lo_b, hi_b = min(a), max(a), min(b), max(b)
    gap = max(lo_a - hi_b, lo_b - hi_a)
    if gap <= 0.0:
        return False
    width = float(_plan(len(a), len(b))[0].min())
    return width * gap * gap > 0.0


@dataclass(frozen=True)
class AsoResult:
    epsilon_hat: float
    sigma_boot: float
    epsilon_min: float
    alpha_used: float
    dominant: bool


def aso(
    a: ScoreSample,
    b: ScoreSample,
    alpha: float = 0.05,
    n_boot: int = 1000,
    seed: int = 0,
) -> AsoResult:
    """Test whether sample a almost stochastically dominates sample b.

    Both samples are first multiplied by one power of two, 2**-k with k
    the binary exponent of the largest magnitude in either, so every value
    lies in (-1, 1): epsilon does not depend on scale, a power of two
    scales exactly, and no mass can overflow however large the scores are,
    or underflow merely because they are all small. Both samples are
    bootstrapped at their original sizes; sigma is the raw (population)
    standard deviation of the bootstrap epsilons, and

        epsilon_min = epsilon_hat - sigma * InverseNormal(1 - alpha).

    Dominance of a over b is declared when epsilon_min < DOMINANCE_THRESHOLD
    (0.5). The result is deterministic for a given seed: replicate k draws
    n indices into a, then m into b. Replicates are scored in passes of
    max(1, BOOT_DRAWS // (n + m)), each drawn by one ``integers`` call that
    fills a [rows, n + m] array in C order with the scalar-bound routine,
    so it consumes the stream exactly as one call per sample would. When
    n == m every element has the bound n, and the call passes that one
    scalar bound; otherwise each element gets its own. A replicate's
    sorted resample is read from the sorted samples at its sorted drawn
    ranks, which gives the same values as sorting the drawn values (equal
    values differ at most in the sign of a zero, which no mass can see).
    Samples with identical empirical distributions carry no evidence
    either way: they return the degenerate epsilon 0.5 with sigma 0 and
    skip the bootstrap, so resampling noise cannot manufacture a dominance
    claim. Samples whose supports are strictly separated (min(a) > max(b)
    or min(b) > max(a)) also skip it: every resampled quantile difference
    keeps its sign, so every replicate's ratio is epsilon_hat itself (0.0
    or 1.0), sigma is 0 and epsilon_min is epsilon_hat. That holds only
    while no segment mass can underflow to 0 (``_separated``); otherwise,
    and for touching supports (0.0 against -0.0 included), the bootstrap
    runs. An alpha whose 1 - alpha rounds to
    1.0 (below about 5.6e-17) and an n_boot below 1 or too large to hold
    are refused before either rule is tried.
    """
    z = _normal_quantile(alpha)
    boots = _replicate_buffer(n_boot)
    _, exponent = math.frexp(max(map(abs, a.values + b.values)))
    av, bv = np.ldexp(a.values, -exponent), np.ldexp(b.values, -exponent)
    violation, total = _masses(np.sort(av)[None], np.sort(bv)[None])
    if total[0] == 0.0:
        return AsoResult(0.5, 0.0, 0.5, alpha, 0.5 < DOMINANCE_THRESHOLD)
    eps_hat = float(violation[0] / total[0])
    if _separated(av, bv):
        return AsoResult(eps_hat, 0.0, eps_hat, alpha, eps_hat < DOMINANCE_THRESHOLD)
    rng = np.random.default_rng(seed)
    n, m = av.size, bv.size
    # row k: replicate k's a-indices, then its b-indices; one scalar bound when n == m
    high = n if n == m else np.repeat([n, m], [n, m])
    offset = np.repeat([0, n], [n, m])
    # A sorted resample is the sorted sample read at its sorted drawn ranks, so one
    # integer sort per pass orders both parts of a replicate (b's ranks above a's).
    order = np.concatenate([np.argsort(av, kind="stable"), np.argsort(bv, kind="stable") + n])
    ranks = np.argsort(order)  # the inverse permutation: index -> position in ordered
    ordered = np.concatenate([av, bv])[order]
    per_pass = max(1, BOOT_DRAWS // (n + m))
    for start in range(0, n_boot, per_pass):
        rows = min(per_pass, n_boot - start)
        draws = rng.integers(0, high, size=(rows, n + m))
        resample = ordered[np.sort(ranks[draws + offset])]
        violation, total = _masses(resample[:, :n], resample[:, n:])
        boots[start:start + rows] = np.divide(
            violation, total, out=np.full(rows, 0.5), where=total != 0.0
        )
    sigma = float(np.std(boots))
    eps_min = eps_hat - sigma * z
    return AsoResult(eps_hat, sigma, eps_min, alpha, eps_min < DOMINANCE_THRESHOLD)


@dataclass(frozen=True)
class ComparisonTable:
    """compare_table output: per-cell results plus per-system dominance counts."""

    baseline: str
    languages: tuple[str, ...]
    alpha: float
    alpha_adjusted: float
    results: dict[tuple[str, str], AsoResult]
    dominant_counts: dict[str, int]


def baseline_languages(scores: dict, baseline: str) -> tuple[str, ...]:
    """The sorted languages of ``scores``; the baseline must have a sample for each."""
    languages = tuple(sorted({lang for _, lang in scores}))
    if not languages:
        raise StructuralError("no scores to compare")
    for lang in languages:
        if (baseline, lang) not in scores:
            raise StructuralError(f"baseline {baseline!r} has no sample for language {lang!r}")
    return languages


def compare_table(
    scores: dict[tuple[str, str], ScoreSample],
    baseline: str,
    alpha: float = 0.05,
    n_boot: int = 1000,
    seed: int = 0,
) -> ComparisonTable:
    """Compare every system against the baseline, per language.

    ``scores`` maps (system, language) to a sample. The significance
    level is Bonferroni-adjusted to alpha / number of languages, the
    baseline must have a sample for every language, and each present
    (system, language) cell yields one AsoResult testing dominance of
    the system over the baseline. Deterministic for a given seed. An
    alpha or n_boot that ``aso`` would refuse is refused before any cell.
    """
    languages = baseline_languages(scores, baseline)
    systems = sorted({sys for sys, _ in scores if sys != baseline})
    _normal_quantile(alpha, len(languages))  # refuses a bad alpha before any bootstrap
    _replicate_buffer(n_boot)  # and a bad n_boot, whatever the cells hold
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
            )
            results[key] = outcome
            if outcome.dominant:
                counts[system] += 1
    return ComparisonTable(baseline, languages, alpha, adjusted, results, counts)


def parse_scores_csv(text: str) -> dict[tuple[str, str, str], ScoreSample]:
    """Read a system,language,metric,seed,value CSV into per-cell samples.

    Rows group by (system, language, metric); values keep file order,
    one per seed row. The seed column identifies runs and is not
    otherwise interpreted. Rows are read by ``corpus.csv_rows``, so each
    has exactly as many cells as the header, and errors name the line.
    """
    header, rows = csv_rows(text)
    if not set(SCORE_COLUMNS).issubset(header):
        raise ParseError(
            "score CSV needs columns " + ",".join(SCORE_COLUMNS), line=1
        )
    grouped: dict[tuple[str, str, str], list[float]] = {}
    for line, row in rows:
        try:
            value = float(row["value"])
        except ValueError:
            raise ParseError(f"bad value {row['value']!r}", line=line) from None
        key = (row["system"], row["language"], row["metric"])
        grouped.setdefault(key, []).append(value)
    out = {}
    for key, values in grouped.items():
        try:
            out[key] = ScoreSample(values)
        except StructuralError as err:
            cell = ", ".join(f"{col} {v!r}" for col, v in zip(SCORE_COLUMNS, key))
            raise StructuralError(f"{cell}: {err}") from None
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
    """JSON-ready mirror of a ComparisonTable: its field names are the JSON keys,
    and each (system, language) result is one row of AsoResult fields."""
    # vars() is a shallow copy of a plain dataclass's fields; asdict() deep-copies
    # every value and made this call about 20 times slower on a 24-result table.
    rows = [
        {"system": system, "language": lang, **vars(res)}
        for (system, lang), res in sorted(table.results.items())
    ]
    payload = {**vars(table), "languages": list(table.languages), "results": rows}
    payload["dominant_counts"] = dict(table.dominant_counts)  # not the table's own dict
    return payload
