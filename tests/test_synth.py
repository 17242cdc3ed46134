from dataclasses import replace

import numpy as np
import pytest

from olivenet import data as dmod
from olivenet.data import OilRecord, ParameterId, Quality
from olivenet import synth
from olivenet.synth import (
    GeneratorConfig,
    ParameterCoupling,
    PeakSpec,
    apply_instrument_response,
    generate_dataset,
    generate_spectrum,
    peak_profile,
)


def record(oil_id="T01", acidity=0.5, **kw):
    base = dict(peroxide=None, k270=None, k232=None, ethyl_esters=None)
    base.update(kw)
    return OilRecord(oil_id, acidity, base["peroxide"], base["k270"],
                     base["k232"], base["ethyl_esters"], Quality.VOO)


def simple_config(seed=3, noise=0.0, couplings=(), resolution=1):
    peaks = (PeakSpec(678.0, 12.0, 1.0), PeakSpec(722.0, 20.0, 0.35))
    return GeneratorConfig(seed=seed, peaks=peaks, couplings=tuple(couplings),
                           noise_sigma=noise, resolution_px=resolution)


GRID = dmod.default_grid(512)


class TestGeneratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, peaks=())
        with pytest.raises(ValueError):
            simple_config(couplings=[ParameterCoupling(ParameterId.ACIDITY, 7)])
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, peaks=(PeakSpec(678, 12, 1),), noise_sigma=-0.1)

    def test_file_roundtrip(self, tmp_path):
        cfg = synth.default_generator_config(seed=42)
        synth.save_generator_config(cfg, tmp_path / "g.cfg")
        back = synth.load_generator_config(tmp_path / "g.cfg", seed=42)
        assert back == cfg

    def test_default_config_has_all_five_couplings(self):
        cfg = synth.default_generator_config()
        assert {c.parameter for c in cfg.couplings} == set(ParameterId)


class TestGenerateSpectrum:
    def test_deterministic_bitwise(self):
        cfg = simple_config(noise=0.01)
        a = generate_spectrum(record(), 395, 3, cfg, GRID)
        b = generate_spectrum(record(), 395, 3, cfg, GRID)
        assert np.array_equal(a.intensities, b.intensities)

    def test_repetitions_differ_only_by_noise(self):
        noisy = simple_config(noise=0.01)
        a = generate_spectrum(record(), 395, 1, noisy, GRID)
        b = generate_spectrum(record(), 395, 2, noisy, GRID)
        assert not np.array_equal(a.intensities, b.intensities)
        clean = simple_config(noise=0.0)
        a = generate_spectrum(record(), 395, 1, clean, GRID)
        b = generate_spectrum(record(), 395, 2, clean, GRID)
        assert np.array_equal(a.intensities, b.intensities)

    def test_zero_gains_make_oils_identical(self):
        cfg = simple_config(noise=0.0, couplings=[
            ParameterCoupling(ParameterId.ACIDITY, 0, 0.0, 0.0)])
        a = generate_spectrum(record("A", acidity=0.35), 395, 1, cfg, GRID)
        b = generate_spectrum(record("B", acidity=2.16), 395, 1, cfg, GRID)
        assert np.array_equal(a.intensities, b.intensities)

    def test_negative_gain_lowers_peak_height(self):
        cfg = simple_config(noise=0.0, couplings=[
            ParameterCoupling(ParameterId.ACIDITY, 0, amplitude_gain=-0.22)])
        low = generate_spectrum(record("A", acidity=0.35), 395, 1, cfg, GRID)
        high = generate_spectrum(record("B", acidity=2.16), 395, 1, cfg, GRID)
        i678 = np.argmin(np.abs(GRID.values - 678.0))
        assert high.intensities[i678] < low.intensities[i678]

    def test_monotone_coupling_sweep(self):
        # closed-form check at the peak center, response width 1, no noise
        gain = -0.2
        cfg = simple_config(noise=0.0, couplings=[
            ParameterCoupling(ParameterId.ACIDITY, 0, amplitude_gain=gain)])
        values = [0.2, 0.7, 1.2, 1.7, 2.2]
        heights = []
        for i, v in enumerate(values):
            s = generate_spectrum(record(f"S{i}", acidity=v), 395, 1, cfg, GRID)
            (a0, c0, w0) = peak_profile(record(f"S{i}", acidity=v), 395, cfg)[0]
            assert a0 == pytest.approx(1.0 + gain * v)
            heights.append(s.intensities[np.argmin(np.abs(GRID.values - c0))])
        assert all(h1 > h2 for h1, h2 in zip(heights, heights[1:]))  # gain < 0

    def test_excitation_gating_525(self):
        peaks = (PeakSpec(678.0, 12.0, 1.0),
                 PeakSpec(525.0, 30.0, 0.5, excitation_set=frozenset({365})))
        cfg = GeneratorConfig(seed=0, peaks=peaks, noise_sigma=0.0, resolution_px=1)
        i525 = np.argmin(np.abs(GRID.values - 525.0))
        with_it = generate_spectrum(record(), 365, 1, cfg, GRID)
        without = generate_spectrum(record(), 395, 1, cfg, GRID)
        assert with_it.intensities[i525] > 0.4
        assert without.intensities[i525] < 1e-6

    def test_unsupported_excitation(self):
        with pytest.raises(ValueError, match="no LED at 340 nm"):
            generate_spectrum(record(), 340, 1, simple_config(), GRID)

    def test_record_without_values_rejected(self):
        empty = OilRecord("E0", None, None, None, None, None, Quality.LOO)
        with pytest.raises(ValueError):
            generate_spectrum(empty, 395, 1, simple_config(), GRID)

    def test_nonnegative_intensities(self):
        cfg = simple_config(noise=0.8)  # absurd noise to force clipping
        s = generate_spectrum(record(), 395, 1, cfg, GRID)
        assert (s.intensities >= 0).all()


class TestInstrumentResponse:
    def test_preserves_total_intensity(self, rng):
        x = np.zeros(400)
        x[100:300] = rng.random(200)  # zero margins, no edge loss
        for width in (1, 7, 30):
            y = apply_instrument_response(x, width)
            assert abs(y.sum() - x.sum()) <= 1e-6 * x.sum()

    def test_preserved_on_default_config_spectra(self, bundled_records):
        cfg = synth.default_generator_config()
        prof = peak_profile(bundled_records[0], 395, cfg)
        lam = dmod.default_grid(1024).values
        raw = np.zeros_like(lam)
        for a, c, w in prof:
            raw += a * np.exp(-0.5 * ((lam - c) / w) ** 2)
        blurred = apply_instrument_response(raw, cfg.resolution_px)
        assert abs(blurred.sum() - raw.sum()) <= 1e-6 * raw.sum()

    def test_width_one_is_identity(self, rng):
        x = rng.random(64)
        assert np.array_equal(apply_instrument_response(x, 1), x)


class TestGenerateDataset:
    def test_table1_scale(self, bundled_records):
        cfg = synth.default_generator_config(seed=7)
        grid = dmod.default_grid(64)
        ds = generate_dataset(bundled_records, 395, 20, cfg, grid)
        assert ds.n_spectra == 440  # 22 oils x 20 repetitions
        assert ds.n_oil == 22

    def test_single_repetition(self, bundled_records):
        cfg = synth.default_generator_config(seed=7)
        ds = generate_dataset(bundled_records[:5], 395, 1, cfg, dmod.default_grid(32))
        assert ds.n_spectra == ds.n_oil == 5

    def test_empty_records(self):
        with pytest.raises(ValueError, match="no records to generate from"):
            generate_dataset([], 395, 20, simple_config(), GRID)

    def test_order_independent_substreams(self, bundled_records):
        cfg = synth.default_generator_config(seed=9)
        grid = dmod.default_grid(64)
        full = generate_dataset(bundled_records[:6], 395, 4, cfg, grid)
        subset = generate_dataset(bundled_records[3:6], 395, 4, cfg, grid)
        by_key = {(s.oil_id, s.repetition): s.intensities for s in full.spectra}
        for s in subset.spectra:
            assert np.array_equal(s.intensities, by_key[(s.oil_id, s.repetition)])

    @pytest.mark.parametrize("noise", [0.01, 0.0], ids=["noisy", "noise-free"])
    @pytest.mark.parametrize("excitation", [365, 395])
    def test_equals_generate_spectrum_bitwise(self, bundled_records, noise, excitation):
        cfg = replace(synth.default_generator_config(seed=4), noise_sigma=noise)
        grid = dmod.default_grid(128)
        ds = generate_dataset(bundled_records, excitation, 3, cfg, grid)
        assert ds.n_spectra == 3 * len(bundled_records)
        for s in ds.spectra:
            one = generate_spectrum(ds.record_for(s.oil_id), excitation, s.repetition, cfg, grid)
            assert np.array_equal(s.intensities, one.intensities)
            assert (s.excitation_nm, s.grid) == (one.excitation_nm, one.grid)

    def test_clean_signal_built_once_per_oil(self, bundled_records, monkeypatch):
        # the noise-free spectrum depends on the oil alone, not on the repetition
        calls = []

        def counted(signal, resolution_px, _real=apply_instrument_response):
            calls.append(1)
            return _real(signal, resolution_px)
        monkeypatch.setattr(synth, "apply_instrument_response", counted)
        cfg = synth.default_generator_config(seed=7)
        ds = generate_dataset(bundled_records, 395, 20, cfg, dmod.default_grid(64))
        assert (ds.n_oil, ds.n_spectra) == (22, 440)
        assert len(calls) == 22

    def test_bad_input_checked_per_oil(self, bundled_records):
        with pytest.raises(ValueError, match="no LED at 525 nm"):
            generate_dataset(bundled_records[:2], 525, 3, simple_config(), GRID)
        empty = record("T09", acidity=None)
        with pytest.raises(ValueError, match="'T09' has no parameter values"):
            generate_dataset([record(), empty], 395, 3, simple_config(), GRID)
