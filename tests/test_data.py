import numpy as np
import pytest

from olivenet import data as dmod
from olivenet.data import (
    Dataset,
    DegenerateSpectrumError,
    DimensionMismatchError,
    DuplicateOilError,
    EmptyDatasetError,
    LabelParseError,
    OilRecord,
    ParameterId,
    Quality,
    Spectrum,
    WavelengthGrid,
    filter_for_parameter,
    load_labels,
    normalize,
    normalize_dataset,
    subtract_dark,
)


class TestWavelengthGrid:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            WavelengthGrid(np.array([350.0, 350.0, 351.0]))
        with pytest.raises(ValueError):
            WavelengthGrid(np.array([350.0]))

    def test_equality_is_bitwise(self):
        a = WavelengthGrid(np.linspace(350, 850, 64))
        b = WavelengthGrid(np.linspace(350, 850, 64))
        c = WavelengthGrid(np.linspace(350, 850.1, 64))
        assert a == b
        assert a != c

    def test_values_are_immutable(self):
        g = dmod.default_grid(32)
        with pytest.raises(ValueError):
            g.values[0] = 0.0


class TestSpectrum:
    def test_length_must_match_grid(self):
        g = dmod.default_grid(16)
        with pytest.raises(DimensionMismatchError):
            Spectrum(g, np.zeros(15), 395, "D01", 1)

    def test_normalized_flag_is_checked(self):
        g = dmod.default_grid(16)
        with pytest.raises(ValueError):
            Spectrum(g, np.arange(16.0), 395, "D01", 1, normalized=True)

    def test_unsupported_excitation(self):
        g = dmod.default_grid(16)
        with pytest.raises(ValueError):
            Spectrum(g, np.zeros(16), 400, "D01", 1)


class TestSubtractDark:
    def test_elementwise(self):
        out = subtract_dark(np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, [4.0, 3.0, 2.0])

    def test_self_subtraction_is_zero(self, rng):
        x = rng.random(50)
        assert np.array_equal(subtract_dark(x, x), np.zeros(50))

    def test_zero_dark_is_identity(self, rng):
        x = rng.random(50)
        assert np.array_equal(subtract_dark(x, np.zeros(50)), x)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            subtract_dark(np.zeros(3), np.zeros(4))


def _spec(values, normalized=False):
    g = WavelengthGrid(np.arange(350.0, 350.0 + len(values)))
    return Spectrum(g, np.asarray(values, float), 395, "T01", 1, normalized=normalized)


class TestNormalize:
    def test_hand_computed_three_points(self):
        # mean 2, population std sqrt(2/3) -> (+-)1/sqrt(2/3) = 1.22474487...
        out = normalize(_spec([1.0, 2.0, 3.0]))
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out.intensities, expected, atol=1e-12)
        assert out.normalized

    def test_mean_and_population_std(self, rng):
        for _ in range(1000):
            out = normalize(_spec(rng.random(37) * rng.uniform(0.1, 1e4)))
            assert abs(out.intensities.mean()) < 1e-9
            assert abs(out.intensities.std() - 1.0) < 1e-9

    def test_idempotent_within_tolerance(self, rng):
        once = normalize(_spec(rng.random(64)))
        twice = normalize(_spec(once.intensities))  # re-entry via a fresh spectrum
        np.testing.assert_allclose(twice.intensities, once.intensities, atol=1e-9)

    def test_scale_and_shift_invariance(self, rng):
        x = rng.random(48)
        base = normalize(_spec(x)).intensities
        for a, b in [(3.7, 0.0), (0.01, 5.0), (250.0, -40.0)]:
            other = normalize(_spec(a * x + b)).intensities
            np.testing.assert_allclose(other, base, atol=1e-6)

    def test_constant_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            normalize(_spec([4.2, 4.2, 4.2]))

    def test_order_preserved_affine(self, rng):
        x = np.sort(rng.random(30))
        z = normalize(_spec(x)).intensities
        assert np.all(np.diff(z) >= 0)


class TestLoadLabels:
    def test_bundled_table_row_values(self, bundled_records):
        by_id = {r.oil_id: r for r in bundled_records}
        d03 = by_id["D03"]
        assert (d03.acidity, d03.peroxide, d03.k270, d03.k232, d03.ethyl_esters) == \
            (0.35, 8.4, 0.123, 1.435, 26.0)
        assert d03.quality is Quality.VOO
        d51 = by_id["D51"]
        assert d51.acidity == 2.16
        assert d51.peroxide is None and d51.k270 is None
        assert d51.k232 is None and d51.ethyl_esters is None
        assert d51.quality is Quality.LOO

    def test_bundled_table_size(self, bundled_records):
        assert len(bundled_records) == 22

    def test_arity_violation_carries_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("oil_id,acidity,peroxide,k270,k232,ethyl_esters,quality\n"
                     "D01,0.2,5.0\n")
        with pytest.raises(LabelParseError) as ei:
            load_labels(p)
        assert ei.value.line == 2

    def test_duplicate_oil_id(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("oil_id,acidity,peroxide,k270,k232,ethyl_esters,quality\n"
                     "D01,0.2,5.0,0.1,1.5,10,EVOO\n"
                     "D01,0.3,6.0,0.1,1.5,10,VOO\n")
        with pytest.raises(DuplicateOilError):
            load_labels(p)

    def test_bad_quality_and_negative_value(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("oil_id,acidity,peroxide,k270,k232,ethyl_esters,quality\n"
                     "D01,0.2,5.0,0.1,1.5,10,FANCY\n")
        with pytest.raises(LabelParseError):
            load_labels(p)
        p.write_text("oil_id,acidity,peroxide,k270,k232,ethyl_esters,quality\n"
                     "D01,-0.2,5.0,0.1,1.5,10,EVOO\n")
        with pytest.raises(LabelParseError):
            load_labels(p)

    def test_exp_error_column_roundtrip(self, tmp_path):
        p = tmp_path / "err.csv"
        recs = [OilRecord("A1", 0.3, 5.0, 0.1, 1.5, 10.0, Quality.EVOO, exp_error=0.05),
                OilRecord("A2", 0.4, None, None, None, None, Quality.LOO, exp_error=0.1)]
        dmod.save_labels(recs, p)
        back = load_labels(p)
        assert back[0].exp_error == 0.05
        assert back[1].peroxide is None


class TestFilterForParameter:
    def test_table_counts(self, bundled_records, small_dataset):
        # counts checked on records alone (dataset fixture holds a subset)
        for p, count in [(ParameterId.ACIDITY, 22), (ParameterId.PEROXIDE, 21),
                         (ParameterId.K270, 18), (ParameterId.K232, 18),
                         (ParameterId.ETHYL_ESTERS, 18)]:
            assert sum(1 for r in bundled_records if r.has(p)) == count

    def test_filtering_keeps_spectra_consistent(self, small_dataset):
        out = filter_for_parameter(small_dataset, ParameterId.ACIDITY)
        assert out.n_spectra == out.repetitions_per_oil * out.n_oil

    def test_idempotent(self, small_dataset):
        once = filter_for_parameter(small_dataset, ParameterId.PEROXIDE)
        twice = filter_for_parameter(once, ParameterId.PEROXIDE)
        assert [r.oil_id for r in once.records] == [r.oil_id for r in twice.records]
        assert once.n_spectra == twice.n_spectra

    def test_empty_result_raises(self, small_dataset):
        stripped = Dataset(
            grid=small_dataset.grid,
            spectra=small_dataset.spectra,
            records=tuple(
                OilRecord(r.oil_id, r.acidity, r.peroxide, r.k270, r.k232,
                          None, r.quality) for r in small_dataset.records),
            repetitions_per_oil=small_dataset.repetitions_per_oil,
        )
        with pytest.raises(EmptyDatasetError):
            filter_for_parameter(stripped, ParameterId.ETHYL_ESTERS)


class TestDatasetInvariants:
    def test_spectrum_for_unknown_oil_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            Dataset(
                grid=small_dataset.grid,
                spectra=small_dataset.spectra,
                records=small_dataset.records[:-1],
                repetitions_per_oil=small_dataset.repetitions_per_oil,
            )

    def test_repetition_count_enforced(self, small_dataset):
        with pytest.raises(ValueError):
            Dataset(
                grid=small_dataset.grid,
                spectra=small_dataset.spectra[:-1],
                records=small_dataset.records,
                repetitions_per_oil=small_dataset.repetitions_per_oil,
            )

    def test_n_equals_r_times_noil(self, small_dataset):
        assert small_dataset.n_spectra == (
            small_dataset.repetitions_per_oil * small_dataset.n_oil)


class TestSpectraIO:
    def test_roundtrip_full_precision(self, small_dataset, tmp_path):
        dmod.save_spectra(small_dataset, tmp_path / "s.csv")
        dmod.save_grid(small_dataset.grid, tmp_path / "g.txt")
        back = dmod.load_spectra(tmp_path / "s.csv", tmp_path / "g.txt",
                                 small_dataset.records)
        assert back.n_spectra == small_dataset.n_spectra
        for a, b in zip(back.spectra, small_dataset.spectra):
            assert np.array_equal(a.intensities, b.intensities)  # bitwise
            assert (a.oil_id, a.repetition, a.excitation_nm) == \
                (b.oil_id, b.repetition, b.excitation_nm)

    def test_empty_file_is_parse_error(self, small_dataset, tmp_path):
        (tmp_path / "s.csv").write_text("")
        dmod.save_grid(small_dataset.grid, tmp_path / "g.txt")
        with pytest.raises(LabelParseError, match="empty spectra file"):
            dmod.load_spectra(tmp_path / "s.csv", tmp_path / "g.txt", small_dataset.records)

    def test_dark_applied_on_load(self, small_dataset, tmp_path):
        dmod.save_spectra(small_dataset, tmp_path / "s.csv")
        dmod.save_grid(small_dataset.grid, tmp_path / "g.txt")
        dark = np.full(len(small_dataset.grid), 0.25)
        back = dmod.load_spectra(tmp_path / "s.csv", tmp_path / "g.txt",
                                 small_dataset.records, dark=dark)
        np.testing.assert_allclose(
            back.spectra[0].intensities,
            small_dataset.spectra[0].intensities - 0.25)

    def test_normalize_dataset_flags_all(self, small_dataset):
        out = normalize_dataset(small_dataset)
        assert all(s.normalized for s in out.spectra)
        assert out.n_spectra == small_dataset.n_spectra
