import pytest
from dataclasses import asdict
from fractions import Fraction

from homfill import experiments
from homfill.backends import FreeAbelianBackend, FreeBackend
from homfill.cayley import build_ball
from homfill.errors import DomainError
from homfill.experiments import (
    compare_presentations,
    hyperbolic_ar_pair,
    measure_ar_pair,
    polynomial_degree_report,
)
from homfill.filling import enumerate_identity_cycles
from homfill.presentation import HomPresentation, Presentation
from homfill.words import format_word, parse_word

NI = {"a": 0, "b": 1}
NI3 = {"a": 0, "b": 1, "c": 2}


def z2_redundant():
    pres = HomPresentation.mark_all(
        Presentation(
            ("a", "b", "c"),
            (parse_word("a b a' b'", NI3), parse_word("c' a b", NI3)),
        )
    )
    return pres, FreeAbelianBackend(2, [(1, 0), (0, 1), (1, 1)])


def test_ar_pair_z2(z2_backend, z2_pres, z2_ball5):
    report = measure_ar_pair(z2_backend, z2_pres, 8, 5, ball=z2_ball5)
    assert report.f_table[4] == 1 and report.g_table[4] == 0
    assert report.f_table[8] == 4 and report.g_table[8] == 1
    assert all(
        report.f_table[n] <= report.f_table[n + 1] for n in range(8)
    )
    assert all(
        report.g_table[n] <= report.g_table[n + 1] for n in range(8)
    )
    # Def of an AR pair: each sample's single filling obeys both tables
    for s in report.samples:
        assert s.area <= report.f_table[s.cycle_length]
        assert s.radius <= report.g_table[s.cycle_length]
    assert not report.gaps
    # samples are slotted (a report keeps thousands), with the same fields
    sample = report.samples[0]
    assert not hasattr(sample, "__dict__")
    assert list(asdict(sample)) == ["word", "cycle_length", "area", "radius"]


def test_ar_pair_free_group(f2_backend, f2_pres, f2_ball3):
    report = measure_ar_pair(f2_backend, f2_pres, 6, 3, ball=f2_ball3)
    assert all(v == 0 for v in report.f_table)
    assert all(v == 0 for v in report.g_table)


def test_ar_pair_min_radius_policy(z2_backend, z2_pres, z2_ball5):
    default = measure_ar_pair(z2_backend, z2_pres, 8, 5, ball=z2_ball5)
    searched = measure_ar_pair(
        z2_backend, z2_pres, 8, 5, policy="min_radius_among_min_area", ball=z2_ball5
    )
    assert all(s <= d for s, d in zip(searched.g_table, default.g_table))
    assert searched.f_table == default.f_table


def test_min_radius_policy_reports_every_unfinished_search(monkeypatch):
    pres, backend = z2_redundant()
    ball = build_ball(backend, pres, 4)
    timed_out = {}  # cycle -> chains found before the budget ran out

    class Recording(experiments.BruteSearch):
        def chains(self, area):
            found = 0
            try:
                for chain in super().chains(area):
                    found += 1
                    yield chain
            except TimeoutError:
                timed_out[self.gamma] = found
                raise

    monkeypatch.setattr(experiments, "BruteSearch", Recording)
    with monkeypatch.context() as m:
        m.setattr(experiments, "RADIUS_SEARCH_BUDGET", 2000)
        report = measure_ar_pair(backend, pres, 6, 4, policy="min_radius_among_min_area", ball=ball)
    words = {cycle: format_word(word, pres.generators) for _, cycle, word in enumerate_identity_cycles(ball, 6)}
    assert sorted(report.gaps) == sorted(f"radius search budget exhausted on '{words[c]}'" for c in timed_out)
    assert any(timed_out.values())  # searches that found a chain first are reported too
    assert not measure_ar_pair(backend, pres, 6, 4, policy="min_radius_among_min_area", ball=ball).gaps


@pytest.mark.parametrize("n_max", [0, -1])
def test_ar_pair_rejects_empty_range(z2_backend, z2_pres, z2_ball5, n_max):
    with pytest.raises(DomainError, match="n_max"):
        measure_ar_pair(z2_backend, z2_pres, n_max, 5, ball=z2_ball5)


def test_hyperbolic_pair_values():
    hyp = hyperbolic_ar_pair(1, 1, 8)
    assert hyp.f_table[1] == 1 and hyp.g_table[1] == 1
    assert hyp.f_table[2] == 4 and hyp.g_table[2] == 2
    assert hyp.f_table[8] == 32 and hyp.g_table[8] == 4
    assert hyp.f_dominates_n
    half = hyperbolic_ar_pair(Fraction(1, 2), 2, 4)
    assert half.f_table[2] == 2  # ceil(1/2 * 2 * 2)
    quarter = hyperbolic_ar_pair(Fraction(1, 4), 2, 4)
    assert not quarter.f_dominates_n  # f(2) = 1 < 2
    with pytest.raises(DomainError):
        hyperbolic_ar_pair(0, 1, 4)


def test_hyperbolic_f_dominates_for_b_geq_1():
    for b in (1, 2, Fraction(3, 2)):
        assert hyperbolic_ar_pair(b, 1, 64).f_dominates_n


def test_degree_report_m1_composite_equals_f():
    hyp = hyperbolic_ar_pair(1, 1, 1024)
    report = polynomial_degree_report(1, hyp)
    assert report.composite[1:] == hyp.f_table[1:]
    assert report.degree <= 2
    assert report.composite[1] == 1  # M^(2C) * f(1) at the endpoint


def test_degree_report_m2_cubic():
    hyp = hyperbolic_ar_pair(1, 1, 1024)
    report = polynomial_degree_report(2, hyp)
    assert report.degree == 3


def test_degree_report_endpoint():
    hyp = hyperbolic_ar_pair(1, 1, 16)
    report = polynomial_degree_report(3, hyp)
    assert report.composite[1] == 9 * hyp.f_table[1]


def test_compare_presentations_z2(z2_pres, z2_backend):
    pres_b, backend_b = z2_redundant()
    result = compare_presentations(
        z2_pres,
        pres_b,
        z2_backend,
        backend_b,
        8,
        {0: (1,), 1: (2,)},
        {0: (1,), 1: (2,), 2: (1, 2)},
        5,
    )
    assert result.equivalent
    for check in (result.f_forward, result.f_backward, result.g_forward, result.g_backward):
        assert check.holds and check.constant <= 8


def test_compare_identical_presentations(z2_pres, z2_backend):
    result = compare_presentations(
        z2_pres,
        z2_pres,
        z2_backend,
        z2_backend,
        6,
        {0: (1,), 1: (2,)},
        {0: (1,), 1: (2,)},
        4,
    )
    assert result.equivalent
    assert result.f_forward.constant == 1
    assert result.f_backward.constant == 1


def test_compare_rejects_fake_dictionary(z2_pres, z2_backend):
    free = HomPresentation(Presentation(("a", "b"), ()), ())
    with pytest.raises(DomainError, match="spot-check"):
        compare_presentations(
            z2_pres,
            free,
            z2_backend,
            FreeBackend(2),
            4,
            {0: (1,), 1: (2,)},
            {0: (1,), 1: (2,)},
            3,
        )
