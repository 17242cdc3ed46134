"""Grading oils EVOO / VOO / LOO from their chemical parameters.

The regulatory decision sequence checks acidity, peroxide value, K270,
K232 and ethyl esters, in that order, against per-grade upper limits.  An
oil that passes every extra-virgin limit is EVOO; failing that, passing
the virgin limits makes it VOO; anything else is lampante (LOO).  Panel
(organoleptic) criteria are out of scope here, so verdicts are chemical
only.  The shipped limits reproduce the bundled table's quality column
exactly; they live in an editable config file.

Run:  python demos/05_quality_grading.py
"""

from olivenet import ParameterId, classify, default_thresholds, load_bundled_labels

thresholds = default_thresholds()
print(f"shipped limits (upper bounds; missing values: {thresholds.missing_policy}):")
print(f"  {'parameter':<13} {'EVOO':>6} {'VOO':>6}")
for p in ParameterId:
    evoo, voo = thresholds.evoo.get(p), thresholds.voo.get(p)
    print(f"  {p.value:<13} {'-' if evoo is None else f'{evoo:g}':>6} "
          f"{'-' if voo is None else f'{voo:g}':>6}")

records = load_bundled_labels()
print(f"\n{'oil':>5} {'lab grade':>9} {'chemical verdict':>16}  notes")
agree = 0
for r in records:
    verdict = classify(r, thresholds)
    agree += verdict.grade == r.quality
    notes = []
    if verdict.failing_parameters:
        p, v, lim = verdict.failing_parameters[0]
        notes.append(f"fails {p.value}: {v:g} > {lim:g}")
    if verdict.unevaluated:
        notes.append("unmeasured: " + ",".join(p.value for p in verdict.unevaluated))
    print(f"{r.oil_id:>5} {r.quality.value:>9} {verdict.grade.value:>16}  "
          f"{'; '.join(notes)}")
print(f"\nagreement with the laboratory grades: {agree}/{len(records)}")

# The same classifier accepts predicted parameter sets, e.g. network output:
predicted = {ParameterId.ACIDITY: 0.31, ParameterId.PEROXIDE: 9.8,
             ParameterId.K270: 0.14, ParameterId.K232: 1.52,
             ParameterId.ETHYL_ESTERS: 21.0}
v = classify(predicted, thresholds)
print(f"\npredicted-parameter example -> {v.grade.value} "
      f"(ethyl esters above the extra-virgin limit)")

# Monotonicity: improving any single parameter can never lower the grade.
better = dict(predicted)
better[ParameterId.ETHYL_ESTERS] = 8.0
print(f"same oil with ethyl esters at 8 mg/kg -> "
      f"{classify(better, thresholds).grade.value}")
