import gzip
import io
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from swarmpnn import datasets
from swarmpnn.datasets import (
    BUNDLED_DIR,
    REGISTRY,
    DatasetValidationWarning,
    FetchError,
    SplitSpec,
    convert_to_canonical,
    fetch_raw,
    load_benchmark,
    load_csv,
    stratified_split,
    write_canonical_csv,
    zscore_standardize,
)
from swarmpnn.pnn import Dataset

ROOT = Path(__file__).resolve().parents[1]
# the combined digest of tools/canonical_digest.py: every conversion and load
# outcome of its generated corpus, 912 files
CORPUS_DIGEST = ("30a06edba3a1369f981aaf8fa4f22cb95304ee4f376b2e9443c116ab"
                 "07732b7e")


def no_download(url):
    pytest.fail(f"unexpected download of {url}")


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_happy_path_first_appearance_labels(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv",
                         "a,b,class\n1,2,zebra\n3,4,ape\n5,6,zebra\n")
        ds = load_csv(path)
        assert ds.n_samples == 3 and ds.n_features == 2
        assert ds.class_names == ("zebra", "ape")
        assert ds.labels.tolist() == [0, 1, 0]
        np.testing.assert_array_equal(ds.features[1], [3.0, 4.0])

    def test_missing_rows_dropped_with_indices(self, tmp_path):
        path = write_csv(tmp_path / "gaps.csv",
                         "a,class\n1,x\n?,x\n3,y\n,y\n5,y\n")
        with pytest.warns(DatasetValidationWarning, match=r"\[1, 3\]"):
            ds = load_csv(path)
        assert ds.n_samples == 3

    def test_non_numeric_feature_is_error(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "a,class\nfoo,x\n1,x\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path)

    def test_unknown_label_column(self, tmp_path):
        path = write_csv(tmp_path / "nolabel.csv", "a,b\n1,2\n")
        with pytest.raises(ValueError, match="class"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_ragged_row_is_error(self, tmp_path):
        path = write_csv(tmp_path / "ragged.csv", "a,b,class\n1,2,x\n1,x\n")
        with pytest.raises(ValueError, match="row 1"):
            load_csv(path)

    def test_round_trip_is_idempotent(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(0, 1, size=(12, 3))
        labels = ["a", "b", "c"] * 4
        p1 = tmp_path / "one.csv"
        write_canonical_csv(p1, feats, labels)
        ds1 = load_csv(str(p1))
        p2 = tmp_path / "two.csv"
        write_canonical_csv(p2, ds1.features,
                            [ds1.class_names[t] for t in ds1.labels])
        ds2 = load_csv(str(p2))
        np.testing.assert_array_equal(ds1.features, ds2.features)
        np.testing.assert_array_equal(ds1.labels, ds2.labels)

    def test_descriptor_mismatch_warns(self, tmp_path):
        path = write_csv(tmp_path / "iris.csv", "a,class\n1,x\n2,y\n")
        with pytest.warns(DatasetValidationWarning, match="rows 2 != expected 150"):
            load_csv(path, REGISTRY["iris"])


def balanced_dataset(counts, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(c, j) for j, c in enumerate(counts)])
    return Dataset(rng.normal(0, 1, size=(len(labels), 2)), labels)


class TestStratifiedSplit:
    def test_iris_proportions(self):
        ds = balanced_dataset([50, 50, 50])
        train, test = stratified_split(ds, SplitSpec(0.2, seed=1))
        assert test.n_samples == 30
        assert test.class_counts.tolist() == [10, 10, 10]
        assert train.class_counts.tolist() == [40, 40, 40]

    def test_largest_remainder_total_is_exact(self):
        ds = balanced_dataset([7, 9, 11, 6])  # 33 rows, 20% -> 7 test rows
        train, test = stratified_split(ds, SplitSpec(0.2, seed=2))
        assert test.n_samples == round(33 * 0.2)
        assert train.n_samples + test.n_samples == 33
        for j in range(4):
            assert abs(test.class_counts[j] - ds.class_counts[j] * 0.2) <= 1

    def test_disjoint_and_exhaustive(self):
        ds = balanced_dataset([13, 8])
        train, test = stratified_split(ds, SplitSpec(0.25, seed=3))
        seen = np.vstack([train.features, test.features])
        assert seen.shape[0] == ds.n_samples
        # rows are unique reals, so set comparison identifies the partition
        assert {tuple(r) for r in seen} == {tuple(r) for r in ds.features}

    def test_each_class_keeps_a_training_sample(self):
        ds = balanced_dataset([2, 2, 40])
        train, test = stratified_split(ds, SplitSpec(0.5, seed=4))
        assert np.all(train.class_counts >= 1)

    @pytest.mark.parametrize("counts, fraction, want", [
        ([2, 2], 0.9, [1, 1]),  # round(4 * 0.9) = 4 test rows wanted
        ([2, 10], 0.9, [1, 9]),  # 11 wanted
        ([3, 3, 10], 0.8, [2, 2, 9])])  # 13 wanted: the last class has room
    def test_per_class_cap_wins_over_the_total(self, counts, fraction, want):
        ds = balanced_dataset(counts)
        train, test = stratified_split(ds, SplitSpec(fraction, seed=0))
        assert test.class_counts.tolist() == want
        assert (train.class_counts + test.class_counts).tolist() == counts

    def test_determinism(self):
        ds = balanced_dataset([20, 30])
        a = stratified_split(ds, SplitSpec(0.2, seed=5))
        b = stratified_split(ds, SplitSpec(0.2, seed=5))
        np.testing.assert_array_equal(a[1].features, b[1].features)
        c = stratified_split(ds, SplitSpec(0.2, seed=6))
        assert not np.array_equal(a[1].features, c[1].features)

    def test_empty_test_split_rejected(self):
        ds = balanced_dataset([2, 2, 2])
        with pytest.raises(ValueError,
                           match="test_fraction 0.01 of 6 rows leaves an "
                                 "empty test split"):
            stratified_split(ds, SplitSpec(0.01, seed=0))

    def test_tiny_class_rejected(self):
        ds = Dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(ValueError, match=">= 2 samples"):
            stratified_split(ds, SplitSpec(0.2, seed=0))


class TestStandardize:
    def test_train_statistics_applied_to_both_splits(self):
        rng = np.random.default_rng(7)
        train = Dataset(rng.normal(5, 3, size=(40, 2)), [0, 1] * 20)
        test = Dataset(rng.normal(5, 3, size=(10, 2)), [0, 1] * 5)
        strain, stest = zscore_standardize(train, test)
        np.testing.assert_allclose(strain.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(strain.features.std(axis=0), 1.0, atol=1e-12)
        want = (test.features - train.features.mean(axis=0)) / \
            train.features.std(axis=0)
        np.testing.assert_allclose(stest.features, want)

    def test_constant_feature_centered_not_scaled(self):
        train = Dataset(np.column_stack([np.full(6, 4.0), np.arange(6.0)]),
                        [0, 1] * 3)
        strain, _ = zscore_standardize(train)
        np.testing.assert_allclose(strain.features[:, 0], 0.0)


class TestRegistry:
    def test_sixteen_benchmarks(self):
        assert len(REGISTRY) == 16
        iris = REGISTRY["iris"]
        assert (iris.expected_rows, iris.expected_features,
                iris.expected_classes) == (150, 4, 3)
        assert iris.expected_balance == (50, 50, 50)
        banknote = REGISTRY["banknote"]
        assert (banknote.expected_rows, banknote.expected_features,
                banknote.expected_classes) == (1372, 4, 2)
        assert banknote.expected_balance == (762, 610)
        assert REGISTRY["cancer"].expected_balance == (357, 212)
        assert REGISTRY["thyroid"].expected_balance == (150, 35, 30)
        assert REGISTRY["heart"].expected_classes == 5

    def test_descriptors_hashable(self):
        # the layout dict is left out of the hash, not out of equality
        assert len(set(REGISTRY.values())) == 16

    def test_urls(self):
        assert REGISTRY["iris"].url().endswith("53/iris.zip")
        assert "pmlb" in REGISTRY["pima"].url()
        with pytest.raises(FetchError):
            REGISTRY["ghost"].url()


IRIS_RAW = (b"5.1,3.5,1.4,0.2,Iris-setosa\n"
            b"4.9,3.0,1.4,0.2,Iris-setosa\n"
            b"6.2,2.9,4.3,1.3,Iris-versicolor\n"
            b"5.9,3.0,5.1,1.8,Iris-virginica\n")


def uci_zip(member, payload):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr(member, payload)
    return buf.getvalue()


class TestConverters:
    def convert(self, name, raw, tmp_path):
        out = tmp_path / f"{name}.csv"
        convert_to_canonical(REGISTRY[name], raw, out)
        return load_csv(str(out))

    def test_label_last(self, tmp_path):
        ds = self.convert("iris", IRIS_RAW, tmp_path)
        assert ds.n_samples == 4 and ds.n_features == 4 and ds.n_classes == 3
        assert ds.class_names[0] == "Iris-setosa"

    def test_label_first(self, tmp_path):
        raw = b"1,14.2,1.7\n2,13.2,2.9\n3,12.1,1.5\n"
        ds = self.convert("wine", raw, tmp_path)
        assert ds.n_features == 2 and ds.n_classes == 3

    def test_wdbc_drops_id(self, tmp_path):
        raw = b"8510426,B,13.5,14.3\n8510653,M,21.2,20.1\n"
        ds = self.convert("cancer", raw, tmp_path)
        assert ds.n_features == 2
        assert ds.class_names == ("B", "M")

    def test_ilpd_codes_gender_and_drops_missing(self, tmp_path):
        raw = (b"65,Female,0.7,187,16,18,6.8,3.3,0.9,1\n"
               b"62,Male,10.9,699,64,100,7.5,3.2,0.74,1\n"
               b"40,Male,0.9,310,61,58,7,3.4,,1\n"
               b"26,Female,0.9,154,16,12,7,3.5,1,2\n")
        ds = self.convert("ilpd", raw, tmp_path)
        assert ds.n_samples == 3  # missing-ratio row dropped
        assert ds.n_features == 9
        assert ds.features[0][1] == 0.0 and ds.features[1][1] == 1.0

    def test_parkinsons_keeps_status_out_of_features(self, tmp_path):
        raw = (b"name,MDVP:Fo(Hz),MDVP:Fhi(Hz),status,PPE\n"
               b"phon_R01_S01_1,119.992,157.302,1,0.284654\n"
               b"phon_R01_S01_2,122.400,148.650,0,0.368674\n")
        ds = self.convert("parkinson", raw, tmp_path)
        assert ds.n_features == 3
        assert ds.class_names == ("1", "0")

    def test_ecoli_drops_rare_classes(self, tmp_path):
        lines = []
        for i in range(6):
            lines.append(f"CP{i}  0.{i}1 0.40 0.48 0.50 cp")
        for i in range(5):
            lines.append(f"IM{i}  0.{i}2 0.40 0.48 0.50 im")
        lines.append("ODD1  0.11 0.40 0.48 0.50 imL")
        lines.append("ODD2  0.12 0.40 0.48 0.50 imS")
        ds = self.convert("ecoli", "\n".join(lines).encode(), tmp_path)
        assert ds.n_classes == 2
        assert ds.n_samples == 11

    def test_climate_skips_header_keeps_all_but_outcome(self, tmp_path):
        raw = (b"Study Run vconst_corr outcome\n"
               b"1 1 0.85 0\n1 2 0.60 1\n1 3 0.40 1\n")
        ds = self.convert("climate", raw, tmp_path)
        assert ds.n_features == 3
        assert ds.n_classes == 2

    def test_pmlb_target_column(self, tmp_path):
        tsv = "f1\ttarget\tf2\n1.0\t0\t2.0\n3.0\t1\t4.0\n"
        ds = self.convert("pima", gzip.compress(tsv.encode()), tmp_path)
        assert ds.n_features == 2
        assert ds.n_samples == 2

    # an empty edge field in a tab-separated file is a missing value: the
    # row is dropped, the other rows keep their columns
    @pytest.mark.parametrize("name, tsv, lines", [
        ("pima", "a\tb\ttarget\n6\t148\t1\n1\t85\t\n8\t183\t1\n",
         ["f0,f1,class", "6.0,148.0,1", "8.0,183.0,1"]),
        ("vehicle", "a\ttarget\tb\n\t2\t2\n1.5\t2\t2\n5\t3\t6.25\n",
         ["f0,f1,class", "1.5,2.0,2", "5.0,6.25,3"]),
        ("monks", "target\ta\tb\n1\t1\t2\n0\t3\t\n\t4\t5\n0\t5\t6\n",
         ["f0,f1,class", "1.0,2.0,1", "5.0,6.0,0"]),
    ], ids=["pima-last", "vehicle-first", "monks-both"])
    def test_pmlb_empty_edge_field_drops_row(self, tmp_path, name, tsv, lines):
        out = tmp_path / f"{name}.csv"
        convert_to_canonical(REGISTRY[name], gzip.compress(tsv.encode()), out)
        assert out.read_bytes() == "".join(f"{ln}\r\n" for ln in lines).encode()

    @pytest.mark.parametrize("name, raw, fault", [
        ("iris", b"", "empty file"),
        ("iris", b"\n \n", "empty file"),
        ("blood", b"Recency,Frequency,whether he/she donated\n",
         "no usable data rows"),
        ("pima", gzip.compress(b"a\tb\ttarget\n"), "no usable data rows"),
        ("iris", b"5.1,?,1.4,0.2,Iris-setosa\n4.9,3.0,1.4,NA,Iris-setosa\n",
         "no usable data rows"),
        ("iris", b"5.1,3.5,1.4,0.2,Iris-setosa\n4.9,3.0,Iris-setosa\n",
         "row 1 has 3 fields"),
    ], ids=["empty", "blank", "header-only", "pmlb-header-only",
            "all-missing", "ragged"])
    def test_unusable_raw_file_is_a_fetch_error(self, tmp_path, name, raw,
                                                fault):
        with pytest.raises(FetchError,
                           match=f"raw file conversion failed: {fault}"):
            convert_to_canonical(REGISTRY[name], raw, tmp_path / "out.csv")

    def test_ghost_codes_color(self, tmp_path):
        raw = (b"id,bone_length,rotting_flesh,hair_length,has_soul,color,type\n"
               b"0,0.35,0.35,0.47,0.88,clear,Ghoul\n"
               b"1,0.57,0.42,0.35,0.39,green,Goblin\n"
               b"2,0.33,0.81,0.37,0.17,black,Ghost\n")
        ds = self.convert("ghost", raw, tmp_path)
        assert ds.n_features == 5
        assert ds.n_classes == 3



def pmlb_gz(tsv):
    return gzip.compress(tsv.encode())


# One small raw file per registry layout, each with a blank line and a row
# holding a missing token, and the exact canonical CSV it converts to.
CANONICAL = {
    "iris": (b"5.1,3.5,1.4,0.2,Iris-setosa\n\n4.9,?,1.4,0.2,Iris-setosa\n"
             b"6.2,2.9,4.3,1.3,Iris-versicolor\n",
             ["f0,f1,f2,f3,class",
              "5.1,3.5,1.4,0.2,Iris-setosa",
              "6.2,2.9,4.3,1.3,Iris-versicolor"]),
    "banknote": (b"3.6216,8.6661,-2.8073,-0.44699,0\r\n"
                 b"4.5459,8.1674,-2.4586,NaN,0\r\n\r\n"
                 b"-1.3971,3.3191,-1.3927,-1.9948,1\r\n",
                 ["f0,f1,f2,f3,class",
                  "3.6216,8.6661,-2.8073,-0.44699,0",
                  "-1.3971,3.3191,-1.3927,-1.9948,1"]),
    "heart": (b"63.0,1.0,1.0,145.0,0\n67.0,1.0,4.0,?,2\n\n37.0,1.0,3.0,130.0,1\n",
              ["f0,f1,f2,f3,class",
               "63.0,1.0,1.0,145.0,0",
               "37.0,1.0,3.0,130.0,1"]),
    "wine": (b"1,14.23,1.71\n2,?,1.78\n\n3,13.2,2.36\n",
             ["f0,f1,class", "14.23,1.71,1", "13.2,2.36,3"]),
    "thyroid": (b"1,107,10.1\n\n2,113,9.9\n3,na,2.2\n3,127,12.9\n",
                ["f0,f1,class", "107.0,10.1,1", "113.0,9.9,2",
                 "127.0,12.9,3"]),
    "cancer": (b"842302,M,17.99,10.38\n842517,B,,17.77\n\n"
               b"84300903,B,19.69,21.25\n",
               ["f0,f1,class", "17.99,10.38,M", "19.69,21.25,B"]),
    "glass": (b"1,1.52101,13.64,1\n2,1.51761,?,1\n\n3,1.51618,13.53,2\n",
              ["f0,f1,class", "1.52101,13.64,1", "1.51618,13.53,2"]),
    # gender is coded in place, by first appearance among the kept rows
    "ilpd": (b"65,Female,0.7,1\n62,Male,10.9,1\n\n40,Male,,1\n26,Female,0.9,2\n",
             ["f0,f1,f2,class", "65.0,0.0,0.7,1", "62.0,1.0,10.9,1",
              "26.0,0.0,0.9,2"]),
    "blood": (b"Recency (months),Frequency (times),"
              b"whether he/she donated blood in March 2007\n"
              b"2,50,1\n\n0,?,1\n1,16,0\n",
              ["f0,f1,class", "2.0,50.0,1", "1.0,16.0,0"]),
    "climate": (b"Study Run vconst_corr outcome\n1  1 0.85 0\n\n1 2 ? 1\n"
                b"1\t3 0.40 1\n",
                ["f0,f1,f2,class", "1.0,1.0,0.85,0", "1.0,3.0,0.4,1"]),
    # imL has one member and is dropped; cp keeps its five
    "ecoli": (b"AAT_ECOLI   0.49  0.29  cp\nACEA_ECOLI  0.07  0.40  cp\n\n"
              b"ACEK_ECOLI  0.56  ?     cp\nACKA_ECOLI  0.59  0.49  cp\n"
              b"ADI_ECOLI   0.23  0.32  cp\nAMY2_ECOLI  0.29  0.28  imL\n"
              b"APT_ECOLI   0.21  0.34  cp\n",
              ["f0,f1,class", "0.49,0.29,cp", "0.07,0.4,cp", "0.59,0.49,cp",
               "0.23,0.32,cp", "0.21,0.34,cp"]),
    "parkinson": (b"name,MDVP:Fo(Hz),status,PPE\n"
                  b"phon_R01_S01_1,119.992,1,0.284654\n\n"
                  b"phon_R01_S01_2,?,1,0.368674\n"
                  b"phon_R01_S01_3,116.682,0,0.332634\n",
                  ["f0,f1,class", "119.992,0.284654,1",
                   "116.682,0.332634,0"]),
    # black first appears after the missing-token row: code 2
    "ghost": (b"id,bone_length,rotting_flesh,hair_length,has_soul,color,type\n"
              b"0,0.35,0.35,0.47,0.88,clear,Ghoul\n"
              b"1,0.57,0.42,0.35,0.39,green,Goblin\n\n"
              b"2,0.33,?,0.37,0.17,black,Ghost\n"
              b"4,0.46,0.39,0.13,0.46,black,Ghost\n"
              b"5,0.41,0.62,0.44,0.29,green,Goblin\n",
              ["f0,f1,f2,f3,f4,class",
               "0.35,0.35,0.47,0.88,0.0,Ghoul",
               "0.57,0.42,0.35,0.39,1.0,Goblin",
               "0.46,0.39,0.13,0.46,2.0,Ghost",
               "0.41,0.62,0.44,0.29,1.0,Goblin"]),
    "monks": (pmlb_gz("target\ta\tb\n1\t1\t2\n\n0\t3\tnan\n0\t5\t6\n"),
              ["f0,f1,class", "1.0,2.0,1", "5.0,6.0,0"]),
    "vehicle": (pmlb_gz("a\ttarget\tb\n1.5\t2\t2\n\n3\t1\t?\n5\t3\t6.25\n"),
                ["f0,f1,class", "1.5,2.0,2", "5.0,6.25,3"]),
    "pima": (pmlb_gz("a\tb\ttarget\n6\t148\t1\n\n1\t\t0\n8\t183\t1\n"),
             ["f0,f1,class", "6.0,148.0,1", "8.0,183.0,1"]),
}


class TestCanonicalBytes:
    def test_every_registry_layout_has_a_case(self):
        assert sorted(CANONICAL) == sorted(REGISTRY)

    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_layout(self, name, tmp_path):
        raw, lines = CANONICAL[name]
        out = tmp_path / f"{name}.csv"
        convert_to_canonical(REGISTRY[name], raw, out)
        assert out.read_bytes() == "".join(f"{ln}\r\n" for ln in lines).encode()

    def test_unregistered_name(self, tmp_path):
        with pytest.raises(FetchError, match="no converter for toy"):
            convert_to_canonical(datasets.DatasetDescriptor("toy", "uci", "1/toy"),
                                 IRIS_RAW, tmp_path / "toy.csv")

    def test_generated_corpus_digest(self, tmp_path):
        run = subprocess.run([sys.executable,
                              str(ROOT / "tools" / "canonical_digest.py")],
                             env=dict(os.environ, TMPDIR=str(tmp_path)),
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == f"{CORPUS_DIGEST}  (912 files)"


class TestFetch:
    def test_uci_zip_extraction(self):
        opener = lambda url: uci_zip("iris.data", IRIS_RAW)
        assert fetch_raw(REGISTRY["iris"], opener) == IRIS_RAW

    def test_kaggle_needs_credentials(self):
        with pytest.raises(FetchError, match="kaggle"):
            fetch_raw(REGISTRY["ghost"])

    def test_download_failure_wrapped(self):
        def opener(url):
            raise OSError("no route")
        with pytest.raises(FetchError, match="download failed"):
            fetch_raw(REGISTRY["banknote"], opener)

    def test_load_benchmark_uses_cache(self, tmp_path):
        calls = []

        def opener(url):
            calls.append(url)
            return uci_zip("data_banknote_authentication.txt",
                           b"3.6,8.6,-2.8,-0.44,0\n4.5,8.1,-2.4,-1.2,0\n"
                           b"-3.5,9.5,2.1,0.9,1\n-2.7,10.1,2.2,1.1,1\n")
        with pytest.warns(DatasetValidationWarning, match="rows 4"):
            first = load_benchmark("banknote", str(tmp_path), opener)
        with pytest.warns(DatasetValidationWarning, match="rows 4"):
            again = load_benchmark("banknote", str(tmp_path), opener)
        assert np.array_equal(first.features, again.features)
        assert len(calls) == 1

    def test_corrupt_cache_refetched(self, tmp_path):
        (tmp_path / "banknote.csv").write_text("not,a\nvalid")
        opener = lambda url: uci_zip(
            "data_banknote_authentication.txt",
            b"3.6,8.6,-2.8,-0.44,0\n-3.5,9.5,2.1,0.9,1\n")
        with pytest.warns(DatasetValidationWarning, match="rows 2"):
            ds = load_benchmark("banknote", str(tmp_path), opener)
        assert ds.n_samples == 2
        assert load_csv(tmp_path / "banknote.csv").n_samples == 2

    def test_unknown_name(self, tmp_path):
        with pytest.raises(KeyError):
            load_benchmark("nonesuch", str(tmp_path))

    def test_bad_archive_wrapped(self):
        with pytest.raises(FetchError, match="bad archive"):
            fetch_raw(REGISTRY["banknote"], lambda url: b"this is not a zip")

    def test_corrupt_cache_replaced_from_bundled_copy(self, tmp_path):
        (tmp_path / "iris.csv").write_text("not,a\nvalid")
        ds = load_benchmark("iris", str(tmp_path), no_download)
        with open(os.path.join(BUNDLED_DIR, "iris.csv"), "rb") as fh:
            assert (tmp_path / "iris.csv").read_bytes() == fh.read()
        assert ds.n_samples == 150

    def test_unparseable_sklearn_copy_falls_through_to_download(
            self, tmp_path, monkeypatch):
        def bad_copy(descriptor, out_path):
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write("not,a\nvalid")
            return True

        calls = []

        def opener(url):
            calls.append(url)
            return uci_zip("data_banknote_authentication.txt",
                           b"3.6,8.6,-2.8,-0.44,0\n-3.5,9.5,2.1,0.9,1\n")

        monkeypatch.setattr(datasets, "_sklearn_canonical", bad_copy)
        with pytest.warns(DatasetValidationWarning, match="rows 2"):
            ds = load_benchmark("banknote", str(tmp_path), opener)
        assert len(calls) == 1
        assert ds.n_samples == 2

    def test_corrupt_cache_then_bad_download_errors(self, tmp_path):
        (tmp_path / "banknote.csv").write_text("still,not\nvalid")
        opener = lambda url: uci_zip("data_banknote_authentication.txt",
                                     b"gibberish,that,cannot,parse,x\n")
        with pytest.raises(FetchError, match="conversion failed"):
            load_benchmark("banknote", str(tmp_path), opener)


sklearn_missing = False
try:
    import sklearn  # noqa: F401
except ImportError:
    sklearn_missing = True


needs_sklearn = pytest.mark.skipif(sklearn_missing,
                                   reason="scikit-learn not installed")


class TestLocalProviders:
    def test_iris_materializes_offline_and_validates(self, tmp_path):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error", DatasetValidationWarning)
            ds = load_benchmark("iris", str(tmp_path), no_download)
        assert ds.n_samples == 150
        assert ds.n_features == 4
        assert ds.class_counts.tolist() == [50, 50, 50]

    @needs_sklearn
    def test_cancer_matches_published_shape(self, tmp_path):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error", DatasetValidationWarning)
            ds = load_benchmark("cancer", str(tmp_path))
        assert ds.n_samples == 569
        assert ds.n_features == 30
        assert sorted(ds.class_counts.tolist(), reverse=True) == [357, 212]

    @needs_sklearn
    def test_wine_matches_published_shape(self, tmp_path):
        ds = load_benchmark("wine", str(tmp_path))
        assert (ds.n_samples, ds.n_features, ds.n_classes) == (178, 13, 3)
        assert sorted(ds.class_counts.tolist(), reverse=True) == [71, 59, 48]
