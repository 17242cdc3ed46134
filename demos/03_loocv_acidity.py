"""Leave-one-oil-out cross-validation on the acidity task, desk scale.

With only 22 oils, a train/test split wastes data, so validation removes
one oil at a time (all 20 of its repetitions) and trains on the rest.  Two
snapshots are kept per fold (lowest validation loss, lowest training loss)
and the aggregate run whose train/validation errors agree best is selected;
that agreement check is the defense against the leave-one-out trap of
quietly memorizing the left-out label.

This demo shrinks everything (fewer oils, pixels and epochs) so it runs in
about a minute; the acceptance suite runs the full-size protocol.

Run:  python demos/03_loocv_acidity.py
"""

from olivenet import (
    HyperParams,
    ParameterId,
    default_generator_config,
    default_grid,
    filter_for_parameter,
    generate_dataset,
    load_bundled_labels,
    loocv_checkpoint_runs,
    select_checkpoint,
)

records = load_bundled_labels()[:8]
config = default_generator_config(seed=7)
dataset = generate_dataset(records, 395, repetitions=6, config=config,
                           grid=default_grid(256))
dataset = filter_for_parameter(dataset, ParameterId.ACIDITY)

hp = HyperParams(ksize1=24, ksize2=8, pool=4, epochs=120, batch=16,
                 dropout=0.25, dense1=12, dense2=6)
print(f"{dataset.n_oil} folds, {dataset.n_spectra - dataset.repetitions_per_oil} "
      f"training spectra per fold, {hp.epochs} epochs each...")

run_val, run_train = loocv_checkpoint_runs(
    dataset, ParameterId.ACIDITY, hp, seed=7)

for label, run in (("best-validation", run_val), ("best-training", run_train)):
    print(f"\ncheckpoint run: {label}")
    print(f"  <MAE_T> = {run.mean_mae_train:.4f}  sd {run.sd_mae_train:.4f}")
    print(f"  <MAE_V> = {run.mean_mae_val:.4f}  sd {run.sd_mae_val:.4f}")

chosen = select_checkpoint(run_val, run_train)
print(f"\nselected: {chosen.checkpoint} "
      f"(train/validation agreement ratio {chosen.comparability_ratio:.3f})")

print(f"average prediction error: {chosen.average_error_pct:.1f}% of the true value")

print(f"\n{'oil':>5} {'true':>6} {'mean pred':>10} {'fold MAE':>9}")
for f in chosen.per_fold:
    mean_pred = sum(f.predictions) / len(f.predictions)
    print(f"{f.held_out_oil:>5} {f.true_value:>6.2f} {mean_pred:>10.3f} "
          f"{f.mae_val:>9.4f}")

guard = chosen.leakage_ratio()
print(f"\nleakage guard <MAE_V>/<MAE_T> = {guard:.2f} "
      f"({'ok' if guard <= 3 else 'suspicious'}; threshold 3)")
