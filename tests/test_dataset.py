import filecmp
import hashlib
import importlib.util
import logging
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from riskfuse.config import PipelineConfig, config_from_dict, load_config
from riskfuse.dataset import (
    CriteriaCatalog,
    FeatureMapping,
    ProjectRecord,
    bundled_path,
    feature_table,
    load_dataset,
)
from riskfuse.errors import DataError
from riskfuse.pipeline import prepare_samples
from riskfuse.topsis import CriterionKind


class TestLoadDataset:
    def test_bundled_arff_has_93_records(self, nasa_records):
        assert len(nasa_records) == 93

    def test_csv_and_arff_agree(self, nasa_records):
        csv_records = load_dataset(bundled_path("nasa93.csv"))
        assert len(csv_records) == 93
        for a, b in zip(nasa_records, csv_records):
            assert a.ratings == b.ratings
            assert a.size == pytest.approx(b.size)
            assert a.effort == pytest.approx(b.effort)

    def test_empty_data_section_warns(self, tmp_path, caplog):
        path = tmp_path / "empty.arff"
        path.write_text("@relation x\n@attribute rely {l,n,h}\n@data\n")
        with caplog.at_level(logging.WARNING):
            records = load_dataset(path)
        assert records == []
        assert any("empty" in message for message in caplog.messages)

    def test_unknown_ordinal_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rely,kloc,effort\nsuper_high,10,100\n")
        with pytest.raises(DataError, match="line 2.*super_high"):
            load_dataset(path)

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("rely,kloc,effort\nn,10\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("token", ["inf", "-inf", "Infinity"])
    def test_non_finite_number_rejected(self, tmp_path, token):
        path = tmp_path / "inf.csv"
        path.write_text(f"rely,kloc,effort\nn,{token},100\n")
        with pytest.raises(DataError, match="line 2.*kloc"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "suffix, content",
        [("csv", "rely,effort\nn,r\u00e9\n".encode("latin-1")),
         ("csv", b"rely,effort\n" + b"n" * 200_000 + b",1\n"),
         ("arff", b"@attribute rely\n@data\n" + b"n" * 200_000 + b"\n")],
        ids=["latin-1", "csv-field-limit", "arff-field-limit"],
    )
    def test_unreadable_text_rejected(self, tmp_path, suffix, content):
        path = tmp_path / f"data.{suffix}"
        path.write_bytes(content)
        with pytest.raises(DataError, match="not a UTF-8"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "suffix, text",
        [("csv", "rely,kloc,effort\nh,10,100\nl,20,300\n"),
         ("arff", "@attribute rely {l,n,h}\n@attribute kloc numeric\n"
                  "@attribute effort numeric\n@data\nh,10,100\nl,20,300\n")],
    )
    def test_byte_order_mark_ignored(self, tmp_path, suffix, text):
        plain, marked = tmp_path / f"plain.{suffix}", tmp_path / f"marked.{suffix}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        records = load_dataset(plain)
        assert load_dataset(marked) == records
        assert all("rely" in r.ratings and not r.extras for r in records)

    @pytest.mark.parametrize(
        "suffix, text, columns",
        [("csv", "rely,rely,kloc,effort\nvh,vl,10,100\n", "'rely' and 'rely'"),
         ("arff", "@attribute kloc real\n@attribute rely {l,h}\n@attribute size real\n"
                  "@attribute effort real\n@data\n10,h,12,100\n", "'kloc' and 'size'")],
    )
    def test_duplicate_field_columns_rejected(self, tmp_path, suffix, text, columns):
        path = tmp_path / f"dup.{suffix}"
        path.write_text(text)
        with pytest.raises(DataError, match=f"columns {columns} both give"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope.csv")

    def test_unknown_columns_preserved(self, nasa_records):
        assert "cat2" in nasa_records[0].extras

    def test_first_id_column_gives_identifier(self, nasa_records):
        first = nasa_records[0]
        assert first.identifier == "1"
        assert first.extras["projectname"] == "proj01"
        assert "recordnumber" not in first.extras

    def test_identifier_is_not_the_row_number(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("recordnumber,projectname,effort\n7,alpha,10\n,beta,20\n")
        first, second = load_dataset(path)
        assert (first.identifier, first.extras) == ("7", {"projectname": "alpha"})
        # An empty ID token falls back to the row number.
        assert (second.identifier, second.extras) == ("2", {"projectname": "beta"})

    def test_attribute_after_data_rejected(self, tmp_path):
        path = tmp_path / "late.arff"
        path.write_text("@attribute rely {l,h}\n@data\nh\n@attribute kloc real\nl,10\n")
        with pytest.raises(DataError, match="line 4: @attribute declaration after @data"):
            load_dataset(path)

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "data.xml"
        path.write_text("<x/>")
        with pytest.raises(DataError):
            load_dataset(path, format="xml")


def test_fixture_generator_reproduces_bundled_files(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "generate_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_fixtures", script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "OUT_DIR", tmp_path)
    generator.main()
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == sorted(path.name for path in bundled_path("nasa93.csv").parent.iterdir())
    for name in names:
        assert filecmp.cmp(tmp_path / name, bundled_path(name), shallow=False), name


class TestProjectRecord:
    def test_rating_levels_validated(self):
        with pytest.raises(DataError):
            ProjectRecord(identifier="x", ratings={"rely": "huge"})

    def test_positive_size_and_effort(self):
        with pytest.raises(DataError):
            ProjectRecord(identifier="x", ratings={}, size=-1.0)
        with pytest.raises(DataError):
            ProjectRecord(identifier="x", ratings={}, effort=0.0)


class TestCriteriaCatalog:
    def test_six_groups_and_unique_codes(self, catalog):
        assert catalog.group_names() == ("P", "Q", "R", "S", "T", "U")
        codes = catalog.codes
        assert len(codes) == len(set(codes)) == 23
        assert any("DATA" in note for note in catalog.notes)

    def test_duplicate_code_rejected(self):
        with pytest.raises(DataError):
            CriteriaCatalog(
                groups={"A": ("X",), "B": ("X",)},
                columns={"X": "x"},
            )

    def test_unknown_column_mapping_rejected(self):
        with pytest.raises(DataError):
            CriteriaCatalog(groups={"A": ("X",)}, columns={"Y": "y"})

    def test_resolvable_codes_subset(self, catalog):
        resolvable = catalog.resolvable_codes()
        assert "RELY" in resolvable and "SIZE" in resolvable
        assert "DOCU" not in resolvable and "RUSE" not in resolvable


def reference_row(record, catalog, mapping, codes):
    """One record's features, code by code in Python scalars: the
    reference the column-wise table must match bit for bit."""
    row = []
    for code in codes:
        if code == "SIZE":
            lo, hi = mapping.size_range
            value = record.size
            row.append(mapping.missing_value if value is None or hi <= lo
                       else float(np.clip((value - lo) / (hi - lo), 0.0, 1.0)))
        else:
            level = record.ratings.get(catalog.columns[code])
            row.append(mapping.missing_value if level is None else mapping.ordinal_values[level])
    return row


class TestFeatureMapping:
    def test_ordinal_spacing(self, catalog, mapping):
        record = ProjectRecord(
            identifier="r",
            ratings={"rely": "nominal", "sced": "very_low", "cplx": "extra_high"},
            effort=1.0,
        )
        table, _ = feature_table([record], catalog, mapping)
        codes = catalog.resolvable_codes()
        values = table[0, [codes.index(c) for c in ("RELY", "SCED", "CPLX")]]
        assert values == pytest.approx([0.4, 0.0, 1.0])

    def test_numeric_minmax_endpoints(self, nasa_records, catalog, mapping):
        table, _ = feature_table(nasa_records, catalog, mapping)
        sizes = table[:, catalog.resolvable_codes().index("SIZE")]
        largest = max(range(len(nasa_records)), key=lambda i: nasa_records[i].size)
        assert sizes[largest] == pytest.approx(1.0)
        assert sizes.min() == 0.0

    def test_missing_rating_falls_back(self, catalog, mapping):
        record = ProjectRecord(identifier="r", ratings={}, effort=1.0)
        table, _ = feature_table([record], catalog, mapping)
        assert np.all(table == mapping.missing_value)

    def test_all_features_within_unit_interval(self, nasa_records, catalog, mapping):
        table, _ = feature_table(nasa_records, catalog, mapping)
        assert table.shape == (93, len(catalog.resolvable_codes()))
        assert np.all(table >= 0.0) and np.all(table <= 1.0)

    def test_records_without_effort_dropped(self, catalog, mapping):
        bare = ProjectRecord(identifier="bare", ratings={})
        table, targets = feature_table([bare, replace(bare, effort=1.0)], catalog, mapping)
        assert table.shape[0] == targets.size == 1
        with pytest.raises(DataError, match="no records carry an effort"):
            feature_table([bare], catalog, mapping)

    def test_group_features_shape_and_constant_reuse_group(
        self, nasa_records, catalog, mapping
    ):
        _, vectors, _ = prepare_samples(nasa_records, catalog, mapping, "groups")
        assert vectors.shape == (93, 6)
        assert np.all(vectors >= 0.0) and np.all(vectors <= 1.0)
        # group U (reuse) has no COCOMO-81 column: constant fallback
        assert np.ptp(vectors[:, 5]) == 0.0

    def test_group_features_match_per_record_loop(self, nasa_records, catalog, mapping):
        """Each group feature is the mean of the group's resolvable codes,
        computed per record and per group, bit for bit."""
        _, features, _ = prepare_samples(nasa_records, catalog, mapping, "groups")
        rows = []
        for record in nasa_records:
            row = []
            for group in catalog.group_names():
                members = tuple(c for c in catalog.groups[group] if catalog.columns.get(c))
                values = np.array(reference_row(record, catalog, mapping, members))
                row.append(float(values.mean()) if members else mapping.missing_value)
            rows.append(row)
        assert features.tobytes() == np.array(rows).tobytes()

    def test_code_features_and_owned_columns(self, nasa_records, catalog, mapping):
        _, features, owned = prepare_samples(nasa_records, catalog, mapping, "codes")
        codes = catalog.resolvable_codes()
        table = np.array([reference_row(r, catalog, mapping, codes) for r in nasa_records])
        assert features.tobytes() == table.tobytes()
        assert [[codes[i] for i in np.flatnonzero(row)] for row in owned] == [
            [c for c in catalog.groups[g] if c in codes] for g in catalog.group_names()
        ]

    @pytest.mark.parametrize(
        "mode, digests",
        [
            ("groups", ("9a717b9ad091fbe03fcb77807b4e5952789cb546cbdef6f7b8d0e24388d361ba",
                        "239d780640eac260d13f45cd944c6edd74962d88c928094abc01d957dcdf5830",
                        "433bef3bd9ff67acdf089535518ee4c57ca2e62fc915ff361125d04c54ce3948")),
            ("codes", ("e1f4117bfd819761461ca00a01988bb1825125bb45a188d5ed0bca1e4712635a",
                       "239d780640eac260d13f45cd944c6edd74962d88c928094abc01d957dcdf5830",
                       "25777a279838a20957ce0a4d898d63af617e9b20e20fcf4565b97737796c7264")),
        ],
    )
    def test_prepare_samples_pinned(self, nasa_records, catalog, mapping, mode, digests):
        """The samples, feature table and owned mask of the bundled data,
        pinned bit for bit: every report depends on them."""
        samples, features, owned = prepare_samples(nasa_records, catalog, mapping, mode)
        inputs = np.array([inp for inp, _ in samples])
        targets = np.array([target for _, target in samples])
        assert all(type(target) is float for _, target in samples)
        assert inputs.tobytes() == features.tobytes()
        arrays = (features, targets, owned)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests

    def test_unfitted_size_range_rejected(self, nasa_records, catalog):
        with pytest.raises(DataError, match="size"):
            prepare_samples(nasa_records, catalog, FeatureMapping.fit([]), "codes")

    def test_normalized_effort_positive(self, nasa_records, catalog, mapping):
        _, targets = feature_table(nasa_records, catalog, mapping)
        assert np.all((targets > 0.0) & (targets <= 1.0))
        assert targets.max() == 1.0
        expected = [r.effort / mapping.max_effort for r in nasa_records]
        assert targets.tobytes() == np.array(expected).tobytes()


class TestConfig:
    def test_bundled_default_config_loads(self):
        assert load_config(bundled_path("default_config.json")) == PipelineConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError, match="typo_key"):
            config_from_dict({"typo_key": 1})
        # The fitness weight is a constant, no longer a configuration key.
        with pytest.raises(DataError, match="beta"):
            config_from_dict({"beta": 0.9})

    def test_custom_scale_parsed(self):
        config = config_from_dict(
            {
                "scale": {
                    "name": "tiny",
                    "labels": ["lo", "hi"],
                    "tfns": [[0, 0, 0.5], [0.5, 1, 1]],
                }
            }
        )
        assert config.scale.name == "tiny"
        assert "hi" in config.scale.labels

    def test_every_field_settable(self):
        payload = {
            "scale": {"name": "tiny", "labels": ["lo", "hi"], "tfns": [[0, 0, 0.5], [0.5, 1, 1]]},
            "cluster_radius": 0.4,
            "split_fraction": 0.6,
            "cv_folds": 4,
            "seed": 5,
            "population_size": 6,
            "max_iterations": 7,
            "flight_length": 1.5,
            "ap_min": 0.2,
            "ap_max": 0.7,
            "runs": 3,
            "coefficient_mode": "signed",
            "anfis_inputs": "codes",
            "ordinal_values": {"low": 0.1, "high": 0.9},
            "missing_value": 0.3,
            "criteria_kinds": ["cost"],
        }
        assert set(payload) == {f.name for f in fields(PipelineConfig)}
        config, default = config_from_dict(payload), PipelineConfig()
        for name, value in payload.items():
            assert getattr(config, name) != getattr(default, name), name
            if name not in ("scale", "criteria_kinds"):
                assert getattr(config, name) == value
        assert config.scale.name == "tiny"
        assert config.criteria_kinds == (CriterionKind.COST,)

    def test_criteria_kinds_parsed_and_checked(self):
        config = config_from_dict({"criteria_kinds": ["benefit", "cost"]})
        assert config.kinds_for(2) == (CriterionKind.BENEFIT, CriterionKind.COST)
        with pytest.raises(DataError):
            config.kinds_for(3)
        assert PipelineConfig().kinds_for(2) == (
            CriterionKind.BENEFIT,
            CriterionKind.BENEFIT,
        )

    def test_validation(self):
        with pytest.raises(DataError):
            PipelineConfig(split_fraction=1.0)
        with pytest.raises(DataError):
            PipelineConfig(cv_folds=1)
        with pytest.raises(DataError):
            PipelineConfig(coefficient_mode="other")

    @pytest.mark.parametrize(
        "payload",
        [
            {"runs": "3"},
            {"runs": 3.0},
            {"seed": True},
            {"ap_min": "a"},
            {"max_iterations": 5.0},
            {"flight_length": "x"},
            {"cluster_radius": float("nan")},
            {"ordinal_values": {"low": "a"}},
            {"ordinal_values": "x"},
            {"criteria_kinds": 5},
            {"ordinal_values": {"very_low": 0.0, "low": 0.2, "nominal": 0.4, "high": 0.6,
                                "very_high": 0.8, "extra_high": 1.0, "Nominal": 0.9}},
        ],
    )
    def test_wrong_value_types_rejected(self, payload):
        with pytest.raises(DataError, match=next(iter(payload))):
            config_from_dict(payload)

    @pytest.mark.parametrize(
        "payload",
        [{"population_size": 1}, {"flight_length": -1}, {"ap_min": 0.9}, {"max_iterations": 0}],
    )
    def test_search_constants_checked_at_load(self, payload):
        with pytest.raises(DataError, match=next(iter(payload))):
            config_from_dict(payload)

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"runs": 3}', encoding="utf-8-sig")
        assert load_config(path).runs == 3

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed"):
            PipelineConfig(seed=-1)

    def test_coefficient_bounds(self):
        assert PipelineConfig().coefficient_bounds() == (0.1, 10.0)
        assert PipelineConfig(coefficient_mode="signed").coefficient_bounds() == (-10.0, 10.0)
