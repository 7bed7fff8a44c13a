import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blsbench import data
from blsbench.errors import ConfigError, DataFormatError


CSV = """f1,f2,label
1.0,2.0,yes
3.5,4.25,no
-1.0,0.5,yes
"""


# The dataset loader and the feature-file reader of `predict` share one parser.
READERS = [
    pytest.param(data.load_csv, id="load_csv"),
    pytest.param(lambda path: data.read_csv(path), id="feature_file"),
]


@pytest.fixture
def csv_path(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text(CSV)
    return p


class TestLoadCsv:
    def test_basic_load(self, csv_path):
        ds = data.load_csv(csv_path)
        assert ds.n_samples == 3 and ds.n_features == 2
        np.testing.assert_array_equal(ds.X[1], [3.5, 4.25])
        assert list(ds.labels) == ["yes", "no", "yes"]
        assert ds.name == "toy"

    @pytest.mark.parametrize("text", ["f1,f2,label\n", ""], ids=["header-only", "empty"])
    def test_file_without_data_rows_rejected(self, text, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match="empty.csv"):
            data.load_csv(path)

    def test_label_column_by_name(self, csv_path):
        ds = data.load_csv(csv_path, label_column="label")
        assert list(ds.labels) == ["yes", "no", "yes"]

    @pytest.mark.parametrize("header", [True, False])
    def test_file_without_feature_columns_rejected(self, header, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text(("label\n" if header else "") + "a\nb\n")
        with pytest.raises(DataFormatError) as exc:
            data.load_csv(p, header=header)
        assert str(exc.value) == f"{p}: no feature columns besides the label"

    def test_label_column_by_index(self, tmp_path):
        p = tmp_path / "first.csv"
        p.write_text("cls,a,b\nx,1,2\ny,3,4\n")
        ds = data.load_csv(p, label_column=0)
        assert list(ds.labels) == ["x", "y"]
        np.testing.assert_array_equal(ds.X, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("header", [True, False])
    def test_label_column_index_out_of_range_rejected(self, header, tmp_path):
        # A 3-column file takes indices -3..2; 3 must not wrap round to 0.
        p = tmp_path / "three.csv"
        p.write_text(("a,b,c\n" if header else "") + "1,2,3\n4,5,6\n")
        for index in (3, -4):
            with pytest.raises(DataFormatError, match=f"three.csv: column index {index} "):
                data.load_csv(p, label_column=index, header=header)
        assert data.load_csv(p, label_column=-3, header=header).labels == ("1", "4")

    @pytest.mark.parametrize("header,row", [(True, 3), (False, 2)])
    @pytest.mark.parametrize("label", ["", "  "])
    def test_empty_label_rejected_with_its_row(self, header, row, label, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text(("f1,label\n" if header else "") + f"1,a\n2,{label}\n3,b\n4,\n")
        with pytest.raises(DataFormatError) as exc:
            data.load_csv(p, header=header)
        assert str(exc.value) == f"{p}: empty label at row {row}"

    def test_headerless(self, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("1,2,pos\n3,4,neg\n")
        ds = data.load_csv(p, header=False)
        assert ds.n_samples == 2 and list(ds.labels) == ["pos", "neg"]

    @pytest.mark.parametrize("read", READERS)
    def test_bad_cell_reported_with_location(self, read, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n1,oops,3\n")
        with pytest.raises(DataFormatError) as exc:
            read(p)
        assert str(exc.value) == f"{p}: unparseable cell 'oops' at row 3, column b"

    @pytest.mark.parametrize("cell", ["nan", "inf", " -Infinity", "1e999"])
    @pytest.mark.parametrize("read", READERS)
    def test_non_finite_cell_reported_with_location(self, read, cell, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(f"a,b,c\n1,2,3\n1,{cell},3\n")
        with pytest.raises(DataFormatError) as exc:
            read(p)
        assert str(exc.value) == f"{p}: non-finite cell {cell!r} at row 3, column b"

    @pytest.mark.parametrize("cells,message", [
        (("inf", "oops"), "non-finite cell 'inf' at row 2, column b"),
        (("oops", "inf"), "unparseable cell 'oops' at row 2, column b"),
    ], ids=["non-finite-first", "unparseable-first"])
    @pytest.mark.parametrize("read", READERS)
    def test_first_bad_cell_in_file_order_reported(self, read, cells, message, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(f"a,b,c\n1,{cells[0]},3\n1,{cells[1]},3\n")
        with pytest.raises(DataFormatError) as exc:
            read(p)
        assert str(exc.value) == f"{p}: {message}"

    def test_non_finite_cell_column_counts_the_label(self, tmp_path):
        p = tmp_path / "first.csv"
        p.write_text("x,1,2\ny,3,inf\n")
        with pytest.raises(DataFormatError) as exc:
            data.load_csv(p, label_column=0, header=False)
        assert str(exc.value) == f"{p}: non-finite cell 'inf' at row 2, column 2"

    @pytest.mark.parametrize("text,message", [
        pytest.param("a,b,c\n1,2,3\n1,3\n", "row 3 has 2 cells, expected 3", id="short-row"),
        pytest.param("a,b,c\n1,2\n1,3\n", "row 2 has 2 cells, expected 3",
                     id="rows-narrower-than-header"),
        pytest.param("a\n1,x,3\n", "row 2 has 3 cells, expected 1", id="rows-wider-than-header"),
        pytest.param("\n1,2,3\n", "row 1 is empty", id="empty-header"),
    ])
    @pytest.mark.parametrize("read", READERS)
    def test_ragged_row_rejected(self, read, text, message, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError) as exc:
            read(p)
        assert str(exc.value) == f"{p}: {message}"


class TestDataset:
    @pytest.mark.parametrize("n,labels,message", [
        (3, ("a", "b"), "2 labels for 3 rows"),
        (1, ("a",), "a dataset needs at least 2 samples"),
    ])
    def test_inconsistent_dataset_rejected(self, n, labels, message):
        with pytest.raises(ConfigError, match=message):
            data.Dataset("d", np.zeros((n, 2)), labels)


class TestFolds:
    def test_partition_properties(self):
        plan = data.make_folds(23, 5, seed=3)
        all_test = np.concatenate([plan.test_indices(f) for f in range(5)])
        assert sorted(all_test) == list(range(23))
        for f in range(5):
            te = set(plan.test_indices(f))
            tr = set(plan.train_indices(f))
            assert te | tr == set(range(23)) and not (te & tr)

    def test_fold_sizes_balanced(self):
        plan = data.make_folds(23, 5, seed=0)
        sizes = sorted(len(plan.test_indices(f)) for f in range(5))
        assert sizes == [4, 4, 5, 5, 5]

    def test_seed_determinism(self):
        a = data.make_folds(50, 5, seed=9)
        b = data.make_folds(50, 5, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        c = data.make_folds(50, 5, seed=10)
        assert not np.array_equal(a.assignments, c.assignments)

    @pytest.mark.parametrize("n,k,message", [
        (10, 1, "k must be an integer >= 2, got 1"),
        (10, 0, "k must be an integer >= 2, got 0"),
        (10, 2.0, "k must be an integer >= 2, got 2.0"),
        (10, True, "k must be an integer >= 2, got True"),
        (4, 5, "k = 5 exceeds the sample count 4"),
        (10.0, 2, "the sample count must be a nonnegative integer, got 10.0"),
    ])
    def test_fold_count_out_of_range_rejected(self, n, k, message):
        with pytest.raises(ConfigError) as exc:
            data.make_folds(n, k, seed=0)
        assert str(exc.value) == message

    def test_numpy_integer_fold_count_accepted(self):
        plan = data.make_folds(23, np.int64(5), 3)
        assert plan.k == 5 and type(plan.k) is int
        np.testing.assert_array_equal(plan.assignments, data.make_folds(23, 5, 3).assignments)

    @pytest.mark.parametrize("k,assignments,message", [
        (2.0, np.array([0, 1]), "k must be an integer >= 2, got 2.0"),
        (1, np.array([0, 0]), "k must be an integer >= 2, got 1"),
        (2, [0, 1], "fold assignments must be a 1-D integer array, got a list"),
        (2, np.array([[0, 1]], dtype=np.int64),
         "fold assignments must be a 1-D integer array, got a 2-D int64 array"),
        (2, np.array([0.0, 1.0]),
         "fold assignments must be a 1-D integer array, got a 1-D float64 array"),
        (2, np.array([0] * 10 + [7] * 10), "fold assignments must lie in [0, 2), got 7"),
        (2, np.array([0, -1, 1]), "fold assignments must lie in [0, 2), got -1"),
        (3, np.array([0, 1] * 5), "fold 2 of 3 has no rows"),
    ], ids=["float-k", "k-below-2", "list", "2-d", "float-array", "above-k", "negative",
            "empty-fold"])
    def test_hand_built_fold_plan_checked(self, k, assignments, message):
        # A plan that make_folds did not build reaches the engine only through
        # these checks: an out-of-range fold would leave a fold that tests no row.
        with pytest.raises(ConfigError) as exc:
            data.FoldPlan(k, assignments)
        assert str(exc.value) == message

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, np.int64(-1)])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError) as exc:
            data.make_folds(10, 2, seed)
        assert str(exc.value) == f"fold seed must be a nonnegative integer, got {seed!r}"

    def test_numpy_integer_seed_accepted(self):
        a = data.make_folds(23, 5, np.int64(3))
        np.testing.assert_array_equal(a.assignments, data.make_folds(23, 5, 3).assignments)

    @given(st.integers(10, 60), st.integers(2, 6), st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_every_sample_in_exactly_one_fold(self, n, k, seed):
        plan = data.make_folds(n, k, seed)
        counts = np.bincount(plan.assignments, minlength=k)
        assert counts.sum() == n
        assert counts.max() - counts.min() <= 1


class TestNoise:
    def make_ds(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3)) * np.array([1.0, 5.0, 0.2])
        labels = np.array(["a", "b"] * (n // 2), dtype=object)
        return data.Dataset("toy", X, labels)

    def test_row_count_rule(self):
        ds = self.make_ds()
        noisy = data.inject_gaussian_noise(ds, level=5, seed=1)
        changed = (noisy.X != ds.X).any(axis=1).sum()
        assert changed == 10  # round(5% of 200)

    def test_rounding_of_row_count(self):
        ds = self.make_ds(n=30)
        noisy = data.inject_gaussian_noise(ds, level=5, seed=1)
        changed = (noisy.X != ds.X).any(axis=1).sum()
        assert changed == round(0.05 * 30)

    def test_input_not_mutated(self):
        ds = self.make_ds()
        before = ds.X.copy()
        data.inject_gaussian_noise(ds, level=50, seed=2)
        np.testing.assert_array_equal(ds.X, before)

    def test_labels_untouched(self):
        ds = self.make_ds()
        noisy = data.inject_gaussian_noise(ds, level=50, seed=2)
        assert list(noisy.labels) == list(ds.labels)

    def test_noise_scale_tracks_feature_std(self):
        # Perturbation magnitude on each feature should follow that
        # feature's empirical standard deviation.
        ds = self.make_ds(n=2000)
        sigma = ds.X.std(axis=0)
        deltas = []
        for seed in range(10):
            noisy = data.inject_gaussian_noise(ds, level=100, seed=seed)
            deltas.append(noisy.X - ds.X)
        observed = np.concatenate(deltas).std(axis=0)
        np.testing.assert_allclose(observed, sigma, rtol=0.1)

    def test_zero_level_is_identity(self):
        ds = self.make_ds()
        noisy = data.inject_gaussian_noise(ds, level=0, seed=3)
        np.testing.assert_array_equal(noisy.X, ds.X)

    def test_seed_determinism(self):
        ds = self.make_ds()
        a = data.inject_gaussian_noise(ds, level=20, seed=7)
        b = data.inject_gaussian_noise(ds, level=20, seed=7)
        np.testing.assert_array_equal(a.X, b.X)

    def test_numpy_integer_seed_accepted(self):
        ds = self.make_ds()
        a = data.inject_gaussian_noise(ds, level=20, seed=np.int64(7))
        np.testing.assert_array_equal(a.X, data.inject_gaussian_noise(ds, level=20, seed=7).X)

    @pytest.mark.parametrize("level", [0, 20])
    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed, level):
        with pytest.raises(ConfigError) as exc:
            data.inject_gaussian_noise(self.make_ds(), level=level, seed=seed)
        assert str(exc.value) == f"noise seed must be a nonnegative integer, got {seed!r}"

    @pytest.mark.parametrize("level", ["50", True, None, -1, 101.0, float("nan")])
    def test_level_outside_the_rule_is_config_error(self, level):
        with pytest.raises(ConfigError) as exc:
            data.inject_gaussian_noise(self.make_ds(), level=level, seed=0)
        assert str(exc.value) == f"noise level must be in [0, 100], got {level!r}"

    def test_invalid_level_rejected(self):
        ds = self.make_ds()
        with pytest.raises(ValueError):
            data.inject_gaussian_noise(ds, level=101, seed=0)
        with pytest.raises(ValueError):
            data.inject_gaussian_noise(ds, level=-1, seed=0)
