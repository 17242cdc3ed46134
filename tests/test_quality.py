import pytest

from olivenet.data import OilRecord, ParameterId, Quality
from olivenet.quality import (
    QualityVerdict,
    ThresholdSet,
    classify,
    default_thresholds,
)


@pytest.fixture(scope="module")
def thresholds():
    return default_thresholds()


class TestTable1Reproduction:
    def test_all_22_oils_exact(self, bundled_records, thresholds):
        mismatches = [
            (r.oil_id, classify(r, thresholds).grade.value, r.quality.value)
            for r in bundled_records
            if classify(r, thresholds).grade != r.quality
        ]
        assert mismatches == []

    def test_d81_is_evoo(self, thresholds):
        r = OilRecord("D81", 0.16, 4.9, 0.12, 1.63, 9.0, Quality.EVOO)
        v = classify(r, thresholds)
        assert v.grade is Quality.EVOO
        assert v.failing_parameters == ()

    def test_d51_acidity_alone_fails_voo(self, thresholds):
        r = OilRecord("D51", 2.16, None, None, None, None, Quality.LOO)
        v = classify(r, thresholds)
        assert v.grade is Quality.LOO
        assert any(p is ParameterId.ACIDITY and limit == 2.0
                   for p, _, limit in v.failing_parameters)

    def test_d03_voo_via_ethyl_esters(self, thresholds):
        r = OilRecord("D03", 0.35, 8.4, 0.123, 1.435, 26.0, Quality.VOO)
        v = classify(r, thresholds)
        assert v.grade is Quality.VOO
        # the only EVOO check D03 fails is the ethyl-esters limit (< 26)
        failed = {p for p, _, _ in v.failing_parameters}
        assert failed == {ParameterId.ETHYL_ESTERS}
        assert thresholds.evoo[ParameterId.ETHYL_ESTERS] < 26.0


class TestDecisionSequence:
    def test_monotone_improvement_never_lowers_grade(self, bundled_records, thresholds):
        order = {Quality.EVOO: 2, Quality.VOO: 1, Quality.LOO: 0}
        for r in bundled_records:
            base = order[classify(r, thresholds).grade]
            for p in ParameterId:
                v = r.value_of(p)
                if v is None or v == 0:
                    continue
                better = {q: r.value_of(q) for q in ParameterId}
                better[p] = v * 0.5
                improved = classify(better, thresholds)
                assert order[improved.grade] >= base, (r.oil_id, p)

    def test_verdict_independent_of_dict_order(self, thresholds):
        vals = {ParameterId.ACIDITY: 0.3, ParameterId.PEROXIDE: 9.0,
                ParameterId.K270: 0.12, ParameterId.K232: 1.5,
                ParameterId.ETHYL_ESTERS: 12.0}
        forward_order = classify(dict(vals), thresholds)
        backward = classify(dict(reversed(list(vals.items()))), thresholds)
        assert forward_order.grade == backward.grade
        assert forward_order.failing_parameters == backward.failing_parameters
        assert forward_order.unevaluated == backward.unevaluated

    def test_all_absent_is_an_error(self, thresholds):
        with pytest.raises(ValueError, match="no parameter values to grade"):
            classify({p: None for p in ParameterId}, thresholds)

    def test_acidity_required(self, thresholds):
        vals = {p: None for p in ParameterId}
        vals[ParameterId.PEROXIDE] = 5.0
        with pytest.raises(ValueError, match="acidity is required for grading"):
            classify(vals, thresholds)

    def test_unevaluated_parameters_recorded(self, thresholds):
        r = OilRecord("D49", 0.9, 9.9, None, None, None, Quality.LOO)
        v = classify(r, thresholds)
        assert set(v.unevaluated) == {ParameterId.K270, ParameterId.K232,
                                      ParameterId.ETHYL_ESTERS}


class TestMissingPolicy:
    def test_strict_blocks_uncertifiable_voo(self, thresholds):
        # chemically VOO-passing on present values, but K-params unmeasured
        r = OilRecord("D53", 0.7, 8.7, None, None, None, Quality.LOO)
        assert classify(r, thresholds).grade is Quality.LOO

    def test_cap_voo_policy_grants_voo(self, thresholds):
        relaxed = ThresholdSet(evoo=dict(thresholds.evoo), voo=dict(thresholds.voo),
                               missing_policy="cap_voo")
        r = OilRecord("D53", 0.7, 8.7, None, None, None, Quality.LOO)
        assert classify(r, relaxed).grade is Quality.VOO

    def test_cap_voo_never_grants_evoo_with_missing(self, thresholds):
        relaxed = ThresholdSet(evoo=dict(thresholds.evoo), voo=dict(thresholds.voo),
                               missing_policy="cap_voo")
        r = OilRecord("X", 0.2, 5.0, None, None, None, Quality.VOO)
        assert classify(r, relaxed).grade is Quality.VOO


class TestThresholdSet:
    def test_evoo_must_not_exceed_voo(self):
        with pytest.raises(ValueError):
            ThresholdSet(evoo={ParameterId.ACIDITY: 2.5},
                         voo={ParameterId.ACIDITY: 2.0})

    def test_limits_positive(self):
        with pytest.raises(ValueError):
            ThresholdSet(evoo={ParameterId.ACIDITY: -1.0}, voo={})

    def test_evoo_verdict_carries_no_failures(self):
        with pytest.raises(ValueError):
            QualityVerdict(Quality.EVOO,
                           ((ParameterId.ACIDITY, 1.0, 0.8),), ())
