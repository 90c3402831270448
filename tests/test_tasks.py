import numpy as np
import pytest

from rffnet.tasks import MONKS_TRAIN_SIZES, make_monks, monks_grid, monks_rule, two_blobs


def test_grid_is_full_attribute_space():
    grid = monks_grid()
    assert grid.shape == (432, 6)
    assert len({tuple(row) for row in grid}) == 432
    for j, c in enumerate((3, 3, 2, 3, 4, 2)):
        assert grid[:, j].min() == 1 and grid[:, j].max() == c


@pytest.mark.parametrize("task,row,label", [
    ("monks1", [1, 1, 1, 1, 2, 1], 1),   # a1 == a2
    ("monks1", [3, 1, 2, 3, 1, 2], 1),   # a5 == 1
    ("monks1", [1, 2, 1, 1, 2, 1], 0),
    ("monks2", [1, 1, 2, 2, 2, 2], 1),   # exactly two attributes equal 1
    ("monks2", [1, 1, 1, 2, 2, 2], 0),
    ("monks2", [2, 2, 2, 2, 2, 2], 0),
    ("monks3", [1, 2, 1, 1, 3, 1], 1),   # a5 == 3 and a4 == 1
    ("monks3", [2, 1, 1, 2, 2, 2], 1),   # a5 != 4 and a2 != 3
    ("monks3", [1, 3, 1, 2, 4, 1], 0),
])
def test_rules_hand_cases(task, row, label):
    assert monks_rule(task, np.array([row], dtype=float))[0] == label


def test_monks1_full_space_is_balanced():
    y = monks_rule("monks1", monks_grid())
    assert y.sum() == 216


def test_train_sizes_and_test_is_grid():
    for task, size in MONKS_TRAIN_SIZES.items():
        train, test = make_monks(task)
        assert train.n == size
        assert test.n == 432
        assert train.d == test.d == 6


def test_monks_deterministic():
    a, _ = make_monks("monks2")
    b, _ = make_monks("monks2")
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_monks3_training_noise_rate():
    train, _ = make_monks("monks3")
    clean = monks_rule("monks3", train.X)
    flips = int(np.sum(train.y != clean))
    assert flips == round(0.05 * train.n)


def test_monks12_training_labels_clean():
    for task in ("monks1", "monks2"):
        train, _ = make_monks(task)
        assert np.array_equal(train.y, monks_rule(task, train.X))


def test_two_blobs_shape_and_balance():
    data = two_blobs(101, seed=0)
    assert data.n == 101 and data.d == 2
    assert abs(int(data.y.sum()) - 50) <= 1
