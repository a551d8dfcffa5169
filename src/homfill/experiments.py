"""Area-radius pair measurement, the hyperbolic-group AR pair tables, the
polynomial-degree report for the composite bound, and instance-level
presentation-independence checks.

Everything here is finite-range: tables are computed on sampled ranges
inside fixed balls and the relation checks are labeled surrogates, not
asymptotic proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .backends import GroupBackend, equal_in_group
from .cayley import CayleyBall, TwoChain, build_ball
from .errors import DomainError
from .filling import (
    BruteSearch,
    PreceqResult,
    check_preceq,
    enumerate_identity_cycles,
    harea_fill,
    running_max,
)
from .presentation import HomPresentation
from .surface import assemble_surface, diagram_radius
from .words import Word, format_word


@dataclass(slots=True)
class CycleSample:
    word: str
    cycle_length: int
    area: int
    radius: int


@dataclass
class ARPairReport:
    f_table: list[int]
    g_table: list[int]
    witnesses_f: list[str | None]
    witnesses_g: list[str | None]
    samples: list[CycleSample]
    filling_policy: str
    ball_radius: int
    n_max: int
    gaps: list[str] = field(default_factory=list)


POLICIES = ("min_area_then_measure_radius", "min_radius_among_min_area")

# search nodes of each min_radius_among_min_area radius search
RADIUS_SEARCH_BUDGET = 200_000


def _radius_of_chain(ball, chain) -> int:
    if not chain:
        return 0
    radius = diagram_radius(assemble_surface(ball, chain))
    if radius is None:
        raise DomainError("minimal filling produced a closed component; radius undefined")
    return radius


def _min_radius_filling(ball, cycle, base_area: int) -> tuple[int | None, bool]:
    """Smallest diagram radius among fillings at the minimal area, by
    exhausting chains of that exact area within ``RADIUS_SEARCH_BUDGET``
    search nodes, and whether the search finished; an unfinished one gives
    its best so far, or None."""
    best = None
    try:
        for chain in BruteSearch(ball, cycle, RADIUS_SEARCH_BUDGET).chains(base_area):
            r = _radius_of_chain(ball, TwoChain(chain))
            if best is None or r < best:
                best = r
                if best == 0:
                    break
    except TimeoutError:
        return best, False
    return best, True


def measure_ar_pair(
    backend: GroupBackend,
    hom_pres: HomPresentation,
    n_max: int,
    ball_radius: int,
    policy: str = "min_area_then_measure_radius",
    ball: CayleyBall | None = None,
) -> ARPairReport:
    """Per-length maxima of (area, radius) where each sampled cycle gets one
    filling chosen by the policy and contributes both its measurements."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if policy not in POLICIES:
        raise DomainError(f"unknown policy {policy!r}")
    if ball is None:
        ball = build_ball(backend, hom_pres, ball_radius)
    f = [0] * (n_max + 1)
    g = [0] * (n_max + 1)
    wf: list[str | None] = [None] * (n_max + 1)
    wg: list[str | None] = [None] * (n_max + 1)
    samples: list[CycleSample] = []
    gaps: list[str] = []
    for _key, cycle, word in enumerate_identity_cycles(ball, n_max):
        n = cycle.length()
        text = format_word(word, ball.generators)
        result = harea_fill(ball, cycle)
        if result.status != "optimal":
            gaps.append(f"{result.status} on '{text}'")
            continue
        area = result.area
        radius = _radius_of_chain(ball, result.chain)
        if policy == "min_radius_among_min_area":
            better, finished = _min_radius_filling(ball, cycle, area)
            if better is not None:
                radius = min(radius, better)
            if better is None or not finished:
                gaps.append(f"radius search budget exhausted on '{text}'")
        samples.append(CycleSample(text, n, area, radius))
        if area > f[n]:
            f[n] = area
            wf[n] = text
        if radius > g[n]:
            g[n] = radius
            wg[n] = text
    running_max(f, wf)
    running_max(g, wg)
    return ARPairReport(
        f_table=f,
        g_table=g,
        witnesses_f=wf,
        witnesses_g=wg,
        samples=samples,
        filling_policy=policy,
        ball_radius=ball.radius,
        n_max=n_max,
        gaps=gaps,
    )


# ---------------------------------------------------------------------------
# hyperbolic AR pair and the polynomial-degree report


def _ceil_log2(n: int) -> int:
    """Exact on powers of two, conservative ceiling elsewhere."""
    if n < 1:
        raise DomainError("log2 argument must be >= 1")
    return (n - 1).bit_length()


@dataclass
class HyperbolicARPair:
    B: Fraction
    C: Fraction
    n_max: int
    f_table: list[int]  # ceil(B * n * (ceil_log2(n) + 1))
    g_table: list[int]  # ceil(C * (ceil_log2(n) + 1))
    f_dominates_n: bool  # the theorem hypothesis f(n) >= n on the range


def hyperbolic_ar_pair(B, C, n_max: int) -> HyperbolicARPair:
    """Tabulated area/radius pair of a linear-isoperimetric group: area
    B*n*(log2(n)+1) and radius C*(log2(n)+1), stored as ceilings so the
    tables stay conservative upper bounds."""
    B = Fraction(B)
    C = Fraction(C)
    if B <= 0 or C <= 0:
        raise DomainError("constants must be positive")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    f = [0] * (n_max + 1)
    g = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        log_term = _ceil_log2(n) + 1
        f[n] = math.ceil(B * n * log_term)
        g[n] = math.ceil(C * log_term)
    return HyperbolicARPair(B, C, n_max, f, g, all(f[n] >= n for n in range(1, n_max + 1)))


@dataclass
class DegreeReport:
    composite: list[int]  # (M^2)^{g(n)} * f(n)
    degree: int
    kappa: str  # fitted constant, as an exact fraction string
    n_max: int
    M: int
    note: str = "finite-range fit; exponent read off the sampled range only"


def polynomial_degree_report(M: int, hyp: HyperbolicARPair) -> DegreeReport:
    """Tabulate the composite bound (M^2)^{g(n)} f(n) and fit the smallest
    integer degree d with composite(n) <= kappa * n^d * (log2(n)+1) whose
    normalized ratio does not grow from the front half of the range to the
    back half (factor 1.5 tolerance); the log factor is absorbed, matching
    how the bound is read as polynomial.
    """
    if M < 1:
        raise DomainError("M must be >= 1")
    n_max = hyp.n_max
    composite = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        composite[n] = (M * M) ** hyp.g_table[n] * hyp.f_table[n]
    mid = max(1, n_max // 2)
    degree = None
    kappa = None
    for d in range(0, 64):
        ratios = [Fraction(composite[n], n**d * (_ceil_log2(n) + 1)) for n in range(1, n_max + 1)]
        front = max(ratios[:mid], default=Fraction(0))
        back = max(ratios[mid - 1 :], default=Fraction(0))
        if front > 0 and back <= front * Fraction(3, 2):
            degree = d
            kappa = max(ratios)
            break
    if degree is None:
        raise DomainError("no polynomial degree below 64 fits the sampled range")
    return DegreeReport(composite, degree, str(kappa), n_max, M)


# ---------------------------------------------------------------------------
# presentation independence on instances


@dataclass
class EquivalenceReport:
    f_forward: PreceqResult
    f_backward: PreceqResult
    g_forward: PreceqResult
    g_backward: PreceqResult
    report_a: ARPairReport
    report_b: ARPairReport
    equivalent: bool


def _spot_check_dictionary(
    pres_a: HomPresentation,
    pres_b: HomPresentation,
    backend_a: GroupBackend,
    backend_b: GroupBackend,
    dict_ab: dict[int, Word],
    dict_ba: dict[int, Word],
) -> None:
    def translate(word: Word, table: dict[int, Word]) -> Word:
        out: list[int] = []
        for x in word:
            img = table.get(abs(x) - 1)
            if img is None:
                raise DomainError(f"dictionary missing generator index {abs(x)}")
            out.extend(img if x > 0 else tuple(-y for y in reversed(img)))
        return tuple(out)

    for r in pres_a.base.relators:
        if not backend_b.is_identity(translate(r, dict_ab)):
            raise DomainError(
                f"dictionary spot-check failed: relator '{format_word(r, pres_a.generators)}' "
                "does not translate to a relation"
            )
    for r in pres_b.base.relators:
        if not backend_a.is_identity(translate(r, dict_ba)):
            raise DomainError(
                f"dictionary spot-check failed: relator '{format_word(r, pres_b.generators)}' "
                "does not translate back to a relation"
            )
    for j in range(pres_a.rank):
        round_trip = translate(translate((j + 1,), dict_ab), dict_ba)
        if not equal_in_group(backend_a, round_trip, (j + 1,)):
            raise DomainError(
                f"dictionary spot-check failed: generator '{pres_a.generators[j]}' "
                "does not round-trip"
            )


def compare_presentations(
    pres_a: HomPresentation,
    pres_b: HomPresentation,
    backend_a: GroupBackend,
    backend_b: GroupBackend,
    n_max: int,
    dict_ab: dict[int, Word],
    dict_ba: dict[int, Word],
    ball_radius: int,
) -> EquivalenceReport:
    """Measure both AR pairs with the default policy and run the
    finite-range equivalence checks with ``check_preceq`` (C up to
    ``PRECEQ_C_MAX``):
    both-direction affine domination for the area tables, the two-sided
    affine form for the radius tables."""
    _spot_check_dictionary(pres_a, pres_b, backend_a, backend_b, dict_ab, dict_ba)
    report_a = measure_ar_pair(backend_a, pres_a, n_max, ball_radius)
    report_b = measure_ar_pair(backend_b, pres_b, n_max, ball_radius)
    f_fwd = check_preceq(report_a.f_table, report_b.f_table, affine=True)
    f_bwd = check_preceq(report_b.f_table, report_a.f_table, affine=True)
    g_fwd = check_preceq(report_a.g_table, report_b.g_table, affine=False)
    g_bwd = check_preceq(report_b.g_table, report_a.g_table, affine=False)
    return EquivalenceReport(
        f_forward=f_fwd,
        f_backward=f_bwd,
        g_forward=g_fwd,
        g_backward=g_bwd,
        report_a=report_a,
        report_b=report_b,
        equivalent=all(r.holds for r in (f_fwd, f_bwd, g_fwd, g_bwd)),
    )
