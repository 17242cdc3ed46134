import csv
from dataclasses import replace

import numpy as np
import pytest

from olivenet import data as dmod
from olivenet import synth
from olivenet.data import (
    Dataset,
    OilRecord,
    ParameterId,
    Quality,
    Spectrum,
    WavelengthGrid,
    filter_for_parameter,
    load_labels,
    normalize,
)


class TestWavelengthGrid:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            WavelengthGrid(np.array([350.0, 350.0, 351.0]))
        with pytest.raises(ValueError):
            WavelengthGrid(np.array([350.0]))

    @pytest.mark.parametrize("values", [[350.0, np.inf], [-np.inf, 350.0, 351.0]],
                             ids=["trailing-inf", "leading-minus-inf"])
    def test_non_finite_value_rejected(self, values):
        # np.diff gives inf > 0 here, so the ordering check alone passes them
        with pytest.raises(ValueError, match="^wavelength grid values must be finite$"):
            WavelengthGrid(np.array(values))

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
        with pytest.raises(ValueError, match="intensities length 15 != grid length 16"):
            Spectrum(g, np.zeros(15), 395, "D01", 1)

    def test_unsupported_excitation(self):
        g = dmod.default_grid(16)
        with pytest.raises(ValueError):
            Spectrum(g, np.zeros(16), 400, "D01", 1)


def _spec(values):
    g = WavelengthGrid(np.arange(350.0, 350.0 + len(values)))
    return Spectrum(g, np.asarray(values, float), 395, "T01", 1)


class TestNormalize:
    def test_hand_computed_three_points(self):
        # mean 2, population std sqrt(2/3) -> (+-)1/sqrt(2/3) = 1.22474487...
        out = normalize(_spec([1.0, 2.0, 3.0]))
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out.intensities, expected, atol=1e-12)

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
        with pytest.raises(ValueError, match="constant spectrum"):
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
        with pytest.raises(ValueError, match=r"^line 2: expected 7 fields, got 3$"):
            load_labels(p)

    def test_duplicate_oil_id(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("oil_id,acidity,peroxide,k270,k232,ethyl_esters,quality\n"
                     "D01,0.2,5.0,0.1,1.5,10,EVOO\n"
                     "D01,0.3,6.0,0.1,1.5,10,VOO\n")
        with pytest.raises(ValueError, match="duplicate oil_id 'D01' at line 3"):
            load_labels(p)

    def test_bad_quality_and_negative_value(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("oil_id,acidity,peroxide,k270,k232,ethyl_esters,quality\n"
                     "D01,0.2,5.0,0.1,1.5,10,FANCY\n")
        with pytest.raises(ValueError, match=r"^line 2: bad quality 'FANCY'"):
            load_labels(p)
        p.write_text("oil_id,acidity,peroxide,k270,k232,ethyl_esters,quality\n"
                     "D01,-0.2,5.0,0.1,1.5,10,EVOO\n")
        with pytest.raises(ValueError, match=r"^line 2: D01: acidity must be nonnegative"):
            load_labels(p)


class TestOilTable:
    HEADER = ("note", "oil_id", "acidity", "peroxide", "k270", "k232", "ethyl_esters")

    def test_written_table_reads_back(self, tmp_path):
        rows = [("a,b", "D01,lot 7", 0.1, "-", 1e-300, 2.5, 3.0),
                ("", 'D02 "b"', 0.2, "", 0.5, 1.0, 2.0),
                ("x", "D03\nx", 0.3, 4.0, 0.25, 0.5, 7.0)]
        text = dmod.write_csv_text(self.HEADER, rows)
        assert text.startswith("note,oil_id,acidity,") and "\r" not in text
        path = tmp_path / "t.csv"
        path.write_text(text)
        # lines are numbered by record, so D03's embedded newline does not count
        assert list(dmod.read_oil_table(path)) == [
            (2, "D01,lot 7", [0.1, None, 1e-300, 2.5, 3.0], list(map(str, rows[0]))),
            (3, 'D02 "b"', [0.2, None, 0.5, 1.0, 2.0], list(map(str, rows[1]))),
            (4, "D03\nx", [0.3, 4.0, 0.25, 0.5, 7.0], list(map(str, rows[2]))),
        ]

    @pytest.mark.parametrize("body, message", [
        ("", r"^line 1: empty file$"),
        ("oil_id,acidity,peroxide,k270,k232\n", r"^line 1: missing columns \['ethyl_esters'\]$"),
        ("oil_id,acidity,peroxide,k270,k232,ethyl_esters\nD01,abc,-,-,-,-\n",
         r"^line 2: acidity 'abc' is not a number$"),
        ("oil_id,acidity,peroxide,k270,k232,ethyl_esters\nD01,0.1,-,-,-,-inf\n",
         r"^line 2: ethyl_esters '-inf' is not finite$"),
        ('oil_id,acidity,peroxide,k270,k232,ethyl_esters\r\nD01,0.1,-,-,-,-\r\n'
         '"D02\rx",0.2,-,-,-,-\r\n', r"^line 3: oil_id 'D02\\rx' holds a carriage return$"),
    ], ids=["empty", "missing-column", "not-a-number", "not-finite", "carriage-return-id"])
    def test_bad_table_rejected(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            list(dmod.read_oil_table(path))


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
        with pytest.raises(ValueError, match="no oil has a value for ethyl_esters"):
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
        with pytest.raises(ValueError, match=r"^line 1: empty spectra file$"):
            dmod.load_spectra(tmp_path / "s.csv", tmp_path / "g.txt", small_dataset.records)

    @pytest.fixture
    def awkward_dataset(self, bundled_records):
        """Two oils whose ids ``csv`` must quote: a comma and quote, a line break."""
        recs = [replace(bundled_records[0], oil_id='A,"1"'),
                replace(bundled_records[1], oil_id="B\n2"), bundled_records[2]]
        return synth.generate_dataset(recs, 395, 2, synth.default_generator_config(seed=5),
                                      dmod.default_grid(48))

    def test_save_writes_csv_writer_bytes(self, awkward_dataset, tmp_path):
        # the layout csv.writer gives the rows, with each intensity as repr(float)
        oracle = tmp_path / "oracle.csv"
        with oracle.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["oil_id", "excitation_nm", "repetition"]
                       + [f"i_{i}" for i in range(len(awkward_dataset.grid))])
            for sp in awkward_dataset.spectra:
                w.writerow([sp.oil_id, sp.excitation_nm, sp.repetition]
                           + [repr(float(v)) for v in sp.intensities])
        dmod.save_spectra(awkward_dataset, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == oracle.read_bytes()
        assert b'"A,""1""",395,1,' in oracle.read_bytes()

    def test_quoted_ids_round_trip(self, awkward_dataset, tmp_path):
        dmod.save_spectra(awkward_dataset, tmp_path / "s.csv")
        dmod.save_grid(awkward_dataset.grid, tmp_path / "g.txt")
        back = dmod.load_spectra(tmp_path / "s.csv", tmp_path / "g.txt",
                                 awkward_dataset.records)
        assert back.records == awkward_dataset.records
        for a, b in zip(back.spectra, awkward_dataset.spectra, strict=True):
            assert (a.oil_id, a.repetition) == (b.oil_id, b.repetition)
            assert np.array_equal(a.intensities, b.intensities)

    def test_line_numbers_count_records(self, awkward_dataset, tmp_path):
        # the two "B\n2" records span two lines each; an error names the
        # record, as enumerating a csv.reader does: the 7th is the last
        dmod.save_spectra(awkward_dataset, tmp_path / "s.csv")
        dmod.save_grid(awkward_dataset.grid, tmp_path / "g.txt")
        raw = (tmp_path / "s.csv").read_bytes()
        (tmp_path / "s.csv").write_bytes(raw.rsplit(b",", 1)[0] + b",nan\r\n")
        last = awkward_dataset.spectra[-1].oil_id
        with pytest.raises(ValueError, match=rf"^line 7: non-finite intensity for oil '{last}'$"):
            dmod.load_spectra(tmp_path / "s.csv", tmp_path / "g.txt", awkward_dataset.records)

    @staticmethod
    def _edited(small_dataset, tmp_path, edit, eol="\r\n"):
        """``small_dataset`` saved, its lines changed by ``edit``, written with ``eol``."""
        dmod.save_spectra(small_dataset, tmp_path / "s.csv")
        dmod.save_grid(small_dataset.grid, tmp_path / "g.txt")
        lines = (tmp_path / "s.csv").read_text(encoding="utf-8").splitlines()
        (tmp_path / "s.csv").write_bytes((eol.join(edit(lines)) + eol).encode())
        return tmp_path / "s.csv", tmp_path / "g.txt"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_any_line_ending_reads_back(self, small_dataset, tmp_path, eol):
        paths = self._edited(small_dataset, tmp_path, lambda lines: lines, eol)
        back = dmod.load_spectra(*paths, small_dataset.records)
        for a, b in zip(back.spectra, small_dataset.spectra, strict=True):
            assert np.array_equal(a.intensities, b.intensities)

    @staticmethod
    def _cell(lines, line, column, value):
        cells = lines[line - 1].split(",")
        cells[column] = value
        return lines[:line - 1] + [",".join(cells)] + lines[line:]

    @pytest.mark.parametrize("edit, message", [
        (lambda ls: ls[:3] + [ls[3].rsplit(",", 1)[0]] + ls[4:],
         r"^line 4: expected 131 fields, got 130$"),
        (lambda ls: ls[:3] + [ls[3] + ",1.0"] + ls[4:], r"^line 4: expected 131 fields, got 132$"),
        (lambda ls: ls[:2] + [""] + ls[2:], r"^line 3: expected 131 fields, got 0$"),
        (lambda ls: TestSpectraIO._cell(ls, 5, 40, "1.0x"),
         r"^line 5: could not convert string to float: '1.0x'$"),
        (lambda ls: TestSpectraIO._cell(ls, 5, 40, ""),
         r"^line 5: could not convert string to float: ''$"),
        (lambda ls: TestSpectraIO._cell(ls, 6, 9, "nan"),
         r"^line 6: non-finite intensity for oil '\w+'$"),
        (lambda ls: TestSpectraIO._cell(ls, 2, 130, "-inf"),
         r"^line 2: non-finite intensity for oil '\w+'$"),
        (lambda ls: TestSpectraIO._cell(ls, 3, 1, "395.5"),
         r"^line 3: invalid literal for int\(\) with base 10: '395.5'$"),
        (lambda ls: TestSpectraIO._cell(ls, 3, 2, "0"), r"^line 3: repetition is 1-based$"),
        (lambda ls: TestSpectraIO._cell(ls, 1, 1, "excitation"), r"^line 1: bad spectra header$"),
        (lambda ls: ls[:1], r"^spectra file holds no rows$"),
        # line 2 copied over line 3: the oil keeps its count, with repetition 1 twice
        (lambda ls: ls[:2] + [ls[1]] + ls[3:], r"^line 3: oil '\w+' repetition 1 repeats line 2$"),
    ], ids=["short-row", "long-row", "blank-line", "bad-cell", "empty-cell", "nan-cell",
            "inf-last-cell", "bad-excitation", "bad-repetition", "bad-header", "no-rows",
            "repeated-repetition"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_bad_row_names_its_line(self, small_dataset, tmp_path, edit, message, eol):
        paths = self._edited(small_dataset, tmp_path, edit, eol)
        with pytest.raises(ValueError, match=message):
            dmod.load_spectra(*paths, small_dataset.records)
