import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import covering, packing, positive
from pclp.certificates import CertificateSlack, Outcome, OutcomeTag, check_certificate


def test_primal_ok_on_unit_instance():
    inst = covering([[1.0]], eps=0.1)
    report = check_certificate(inst, Outcome.covering_primal([1.0]),
                               CertificateSlack.whack_static(0.1))
    assert report.ok


def test_dual_ok_within_pack_bound():
    inst = covering([[0.4]], eps=0.1)
    report = check_certificate(inst, Outcome.packing_dual([1.0]),
                               CertificateSlack.whack_static(0.1))
    assert report.ok


def test_primal_violation_reports_worst_row():
    inst = covering([[1.0]], eps=0.1)
    report = check_certificate(inst, Outcome.covering_primal([0.5]),
                               CertificateSlack.whack_static(0.1))
    assert not report.ok
    worst = report.worst()
    assert worst.kind == "RowBelowCover" and worst.index == 0


def test_dynamic_slack_allows_anchored_sum():
    inst = covering([[1.0]], eps=0.1)
    x = np.array([1.04])  # sum above 1 but below 1+eps
    assert not check_certificate(inst, Outcome.covering_primal(x),
                                 CertificateSlack.whack_static(0.1)).ok
    assert check_certificate(inst, Outcome.covering_primal(x),
                             CertificateSlack.whack_dynamic(0.1)).ok


def test_positive_solution_bounds():
    inst = positive([[1.0]], [[1.0]])
    slack = CertificateSlack.greedy_positive(inst.eps)
    assert check_certificate(inst, Outcome.positive_solution([1.5]), slack).ok
    assert not check_certificate(inst, Outcome.positive_solution([0.5]), slack).ok
    assert not check_certificate(inst, Outcome.positive_solution([2.5]), slack).ok


def test_null_and_infeasible_are_vacuous():
    inst = covering([[1.0]])
    slack = CertificateSlack.whack_static(0.1)
    assert check_certificate(inst, Outcome.null(), slack).ok
    assert check_certificate(inst, Outcome.infeasible(), slack).ok


def test_wrong_length_is_rejected():
    inst = covering([[1.0, 1.0]])
    report = check_certificate(inst, Outcome.covering_primal([1.0]),
                               CertificateSlack.whack_static(0.1))
    assert not report.ok and report.violations[0].kind == "BadLength"


def test_non_finite_coordinates_are_rejected():
    cover = covering([[1.0, 0.0], [0.0, 1.0]])
    pack = packing([[1.0, 0.0], [0.0, 1.0]])
    both = positive([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    cases = [(cover, Outcome.covering_primal, CertificateSlack.whack_static(0.1)),
             (cover, Outcome.packing_dual, CertificateSlack.whack_static(0.1)),
             (pack, Outcome.packing_primal, CertificateSlack.packing_template(0.1)),
             (pack, Outcome.covering_dual, CertificateSlack.packing_template(0.1)),
             (both, Outcome.positive_solution, CertificateSlack.greedy_positive(both.eps))]
    for inst, make, slack in cases:
        for vec in ([np.nan, np.nan], [0.5, np.inf], [-np.inf, 0.5], [0.5, np.nan]):
            report = check_certificate(inst, make(vec), slack)
            assert not report.ok, (make, vec)
            assert report.worst().kind == "NonFinite"
            assert report.worst().index == int(np.flatnonzero(~np.isfinite(vec))[0])


def test_packing_side_rejects_negative_coordinates():
    # each vector meets every sum and row bound; only its sign is wrong
    slack = CertificateSlack.packing_template(0.1)
    primal = check_certificate(packing([[1.0, 1.0]]), Outcome.packing_primal([1.2, -0.2]), slack)
    dual = check_certificate(packing([[1.0], [1.0]]), Outcome.covering_dual([1.2, -0.2]), slack)
    for report in (primal, dual):
        assert not report.ok
        assert [v.kind for v in report.violations] == ["NegativeCoordinate"]
        assert report.violations[0].index == 1


def test_missing_vector_is_a_violation():
    inst = covering([[1.0]])
    report = check_certificate(inst, Outcome(OutcomeTag.COVERING_PRIMAL, None),
                               CertificateSlack.whack_static(0.1))
    assert not report.ok and report.worst().kind == "MissingVector"


@given(st.sampled_from(["cover", "pack", "both"]), st.integers(1, 4), st.integers(1, 4),
       st.data())
@settings(max_examples=200, deadline=None)
def test_any_non_finite_coordinate_is_rejected(side, m, n, data):
    # a vector of the right length with finite coordinates and at least one
    # NaN or infinity, anywhere: every tag that carries a vector rejects it
    # at the first non-finite coordinate
    dense = np.ones((m, n)).tolist()
    if side == "cover":
        inst = covering(dense)
        cases = [(Outcome.covering_primal, n, CertificateSlack.whack_static(0.1)),
                 (Outcome.packing_dual, m, CertificateSlack.whack_static(0.1))]
    elif side == "pack":
        inst = packing(dense)
        cases = [(Outcome.packing_primal, n, CertificateSlack.packing_template(0.1)),
                 (Outcome.covering_dual, m, CertificateSlack.packing_template(0.1))]
    else:
        inst = positive(dense, dense)
        cases = [(Outcome.positive_solution, n, CertificateSlack.greedy_positive(inst.eps))]
    make, size, slack = data.draw(st.sampled_from(cases))
    vec = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      min_size=size, max_size=size)))
    bad = data.draw(st.sets(st.integers(0, size - 1), min_size=1))
    for k in bad:
        vec[k] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    report = check_certificate(inst, make(vec), slack)
    assert not report.ok
    assert report.worst().kind == "NonFinite"
    assert report.worst().index == min(bad)
