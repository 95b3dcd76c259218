import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmcoreset.scenarios import (
    Dataset,
    class_frequencies,
    load_csv,
    make_class_incremental,
    make_iid_incremental,
    make_sorted_scenario,
    save_csv,
    standardize_features,
    synth_blobs,
    train_test_split,
)


@pytest.fixture
def blob_data():
    return synth_blobs(seed=0, n_per_class=50, num_classes=4, dims=5, drift=1.0)


# --- csv ingestion -----------------------------------------------------------


def test_load_csv_maps_labels_by_first_appearance(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x1,x2,target\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
    data = load_csv(str(path), label_column="target")
    assert data.labels.tolist() == [0, 1, 0]
    assert np.allclose(data.features, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_empty_data_errors(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(str(path))


def test_load_csv_rejects_non_numeric_feature(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,label\noops,a\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(str(path))


def test_load_csv_measures_rows_against_the_header(tmp_path):
    # the first row once set the width, so a label column the header names fell past its end
    path = tmp_path / "short.csv"
    path.write_text("x,label\n0.5\n0.5,a\n")
    with pytest.raises(ValueError, match="row 0 has 1 cells, expected 2"):
        load_csv(str(path), label_column="label")


def test_csv_round_trip(tmp_path, blob_data):
    path = tmp_path / "round.csv"
    save_csv(blob_data, str(path))
    back = load_csv(str(path), label_column="label")
    assert np.abs(back.features - blob_data.features).max() <= 1e-12
    # labels come back renumbered by first appearance of the saved ones
    first_seen = {c: i for i, c in enumerate(dict.fromkeys(blob_data.labels.tolist()))}
    assert back.labels.tolist() == [first_seen[c] for c in blob_data.labels.tolist()]


def test_csv_round_trip_from_csv_origin(tmp_path):
    path = tmp_path / "orig.csv"
    path.write_text("x1,x2,target\n1.5,2.0,b\n3.25,4.0,a\n5.0,6.75,b\n")
    first = load_csv(str(path), label_column="target")
    again = tmp_path / "again.csv"
    save_csv(first, str(again))
    back = load_csv(str(again), label_column="label")
    assert np.abs(back.features - first.features).max() <= 1e-12
    assert np.array_equal(back.labels, first.labels)


def test_load_csv_missing_file():
    with pytest.raises(OSError):
        load_csv("/nonexistent/file.csv")


# --- sorted scenario -----------------------------------------------------------


def test_sorted_scenario_orders_rows():
    data = Dataset(np.array([[5.0], [1.0], [3.0]]), np.array([0, 0, 1]))
    test = Dataset(np.array([[0.0]]), np.array([0]))
    scen = make_sorted_scenario(data, test, feature_index=0, num_batches=3)
    values = [b.features[0, 0] for b in scen.batches]
    assert values == [1.0, 3.0, 5.0]
    assert scen.kind == "sorted"


def test_sorted_scenario_single_batch(blob_data):
    scen = make_sorted_scenario(*train_test_split(blob_data, 0.2, 0), num_batches=1)
    assert scen.num_tasks == 1
    assert scen.batches[0].num_examples == 160  # 80% of 200


def test_sorted_scenario_batch_sizes():
    data = Dataset(np.arange(10, dtype=float)[:, None], np.zeros(10, dtype=int))
    test = Dataset(np.array([[0.0]]), np.array([0]))
    scen = make_sorted_scenario(data, test, num_batches=3)
    assert [b.num_examples for b in scen.batches] == [4, 3, 3]


def test_sorted_scenario_is_stable_on_ties():
    data = Dataset(
        np.array([[1.0, 10.0], [1.0, 20.0], [0.0, 30.0]]), np.array([0, 1, 2])
    )
    test = Dataset(np.array([[0.0, 0.0]]), np.array([0]))
    scen = make_sorted_scenario(data, test, num_batches=3)
    assert [b.features[0, 1] for b in scen.batches] == [30.0, 10.0, 20.0]


def test_sorted_feature_non_decreasing_across_batches(blob_data):
    scen = make_sorted_scenario(*train_test_split(blob_data, 0.2, 0), num_batches=5)
    joined = np.concatenate([b.features[:, 0] for b in scen.batches])
    assert np.all(np.diff(joined) >= 0)


def test_sorted_scenario_too_many_batches():
    data = Dataset(np.ones((3, 1)), np.zeros(3, dtype=int))
    test = Dataset(np.array([[0.0]]), np.array([0]))
    with pytest.raises(ValueError):
        make_sorted_scenario(data, test, num_batches=5)


# --- class incremental ------------------------------------------------------------


def test_class_incremental_pairs(blob_data):
    scen = make_class_incremental(*train_test_split(blob_data, 0.2, 0), classes_per_task=2)
    assert scen.num_tasks == 2
    assert set(scen.batches[0].labels.tolist()) == {0, 1}
    assert set(scen.batches[1].labels.tolist()) == {2, 3}
    assert set(scen.test.labels.tolist()) == {0, 1, 2, 3}


def test_class_incremental_single_task():
    data = synth_blobs(seed=1, n_per_class=20, num_classes=2, dims=3)
    scen = make_class_incremental(*train_test_split(data, 0.2, 0), classes_per_task=2)
    assert scen.num_tasks == 1


def test_class_incremental_partition(blob_data):
    scen = make_class_incremental(*train_test_split(blob_data, 0.2, 0), classes_per_task=2)
    sizes = sum(b.num_examples for b in scen.batches)
    assert sizes == 160
    seen = [set(b.labels.tolist()) for b in scen.batches]
    assert seen[0] & seen[1] == set()
    assert seen[0] | seen[1] == {0, 1, 2, 3}


def test_class_incremental_rejects_indivisible(blob_data):
    with pytest.raises(ValueError, match="divisible"):
        make_class_incremental(*train_test_split(blob_data, 0.2, 0), classes_per_task=3)


# --- iid incremental ---------------------------------------------------------------


def test_iid_incremental_is_seeded(blob_data):
    a = make_iid_incremental(*train_test_split(blob_data, 0.2, 3), num_batches=4, seed=3)
    b = make_iid_incremental(*train_test_split(blob_data, 0.2, 3), num_batches=4, seed=3)
    for x, y in zip(a.batches, b.batches):
        assert np.array_equal(x.features, y.features)


def test_iid_incremental_preserves_rows(blob_data):
    scen = make_iid_incremental(*train_test_split(blob_data, 0.2, 3), num_batches=4, seed=3)
    train, _ = train_test_split(blob_data, 0.2, 3)
    stacked = np.vstack([b.features for b in scen.batches])
    assert np.array_equal(
        np.sort(stacked.ravel()), np.sort(train.features.ravel())
    )


def test_iid_batches_mirror_global_frequencies():
    data = synth_blobs(seed=5, n_per_class=1250, num_classes=4, dims=3)
    scen = make_iid_incremental(*train_test_split(data, 0.2, 5), num_batches=10, seed=5)
    table = class_frequencies(scen)
    global_freq = 0.25
    for t, batch in enumerate(scen.batches):
        sigma = np.sqrt(global_freq * (1 - global_freq) / batch.num_examples)
        assert np.abs(table[t] - global_freq).max() <= 3 * sigma + 0.02


# --- synthetic data -----------------------------------------------------------------


def test_blobs_are_deterministic():
    a = synth_blobs(seed=4, n_per_class=10, num_classes=3, dims=4, drift=0.5)
    b = synth_blobs(seed=4, n_per_class=10, num_classes=3, dims=4, drift=0.5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_label_counts():
    data = synth_blobs(seed=9, n_per_class=17, num_classes=3, dims=4)
    assert np.bincount(data.labels).tolist() == [17, 17, 17]


def test_blobs_are_linearly_separable():
    data = synth_blobs(seed=2, n_per_class=300, num_classes=2, dims=6, drift=0.0)
    train, test = train_test_split(data, 0.25, 0)
    centroids = np.stack([
        train.features[train.labels == c].mean(axis=0) for c in range(2)
    ])
    dists = ((test.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    accuracy = np.mean(np.argmin(dists, axis=1) == test.labels)
    assert accuracy >= 0.99


# --- frequencies and splits -----------------------------------------------------------


def test_class_frequency_rows_sum_to_one(blob_data):
    scen = make_sorted_scenario(*train_test_split(blob_data, 0.2, 0), num_batches=4)
    table = class_frequencies(scen)
    assert np.abs(table.sum(axis=1) - 1.0).max() <= 1e-12


def test_class_incremental_frequencies_are_task_local(blob_data):
    scen = make_class_incremental(*train_test_split(blob_data, 0.2, 0), classes_per_task=2)
    table = class_frequencies(scen)
    assert np.allclose(table[0][2:], 0.0)
    assert np.allclose(table[1][:2], 0.0)


def test_single_batch_frequencies_match_global(blob_data):
    scen = make_sorted_scenario(*train_test_split(blob_data, 0.2, 0), num_batches=1)
    table = class_frequencies(scen)
    counts = np.bincount(scen.batches[0].labels, minlength=4)
    assert np.allclose(table[0], counts / counts.sum())


def test_frequencies_recover_global_counts(blob_data):
    scen = make_sorted_scenario(*train_test_split(blob_data, 0.2, 0), num_batches=4)
    table = class_frequencies(scen)
    sizes = np.array([b.num_examples for b in scen.batches])
    recovered = (table * sizes[:, None]).sum(axis=0)
    train, _ = train_test_split(blob_data, 0.2, 0)
    assert np.allclose(recovered, np.bincount(train.labels, minlength=4))


def test_standardize_uses_train_statistics(blob_data):
    train, test = train_test_split(blob_data, 0.2, 0)
    strain, stest = standardize_features(train, test)
    assert np.abs(strain.features.mean(axis=0)).max() <= 1e-12
    assert np.abs(strain.features.std(axis=0) - 1.0).max() <= 1e-12
    # the identical transform was applied to the test split
    scale = train.features.std(axis=0)
    shift = train.features.mean(axis=0)
    assert np.allclose(stest.features, (test.features - shift) / scale)


def test_standardize_builds_one_new_array_per_dataset():
    data = synth_blobs(seed=0, n_per_class=500, num_classes=4, dims=50)
    tracemalloc.start()
    (standardized,) = standardize_features(data)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # the result and small per-feature statistics; no temporary of its size held beside it
    assert peak < 1.5 * data.features.nbytes
    expected = (data.features - data.features.mean(axis=0)) / data.features.std(axis=0)
    assert np.array_equal(standardized.features, expected)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    num_batches=st.integers(1, 8),
    kind=st.sampled_from(["sorted", "iid"]),
)
def test_batches_partition_the_train_split(seed, num_batches, kind):
    data = synth_blobs(seed=seed % 1000, n_per_class=10, num_classes=3, dims=3, drift=1.0)
    if kind == "sorted":
        scen = make_sorted_scenario(
            *train_test_split(data, 0.2, seed % 97), num_batches=num_batches
        )
    else:
        scen = make_iid_incremental(
            *train_test_split(data, 0.2, seed % 97), num_batches=num_batches, seed=seed % 97
        )
    train, _ = train_test_split(data, 0.2, seed % 97)
    stacked = np.vstack([b.features for b in scen.batches])
    assert stacked.shape == train.features.shape
    # same multiset of rows: compare via lexicographic sort
    assert np.array_equal(
        stacked[np.lexsort(stacked.T)], train.features[np.lexsort(train.features.T)]
    )
