import csv
import io
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as hst

import stresstune
import stresstune.core as core_module
from stresstune import Configuration, DissimilarityGraph

# pyproject's filterwarnings rule covers this process only; the environment
# carries it into sweep workers and CLI subprocesses.
os.environ.setdefault("PYTHONWARNINGS", "error::RuntimeWarning")


def child_env(**overrides: str) -> dict:
    """This process's environment, with ``overrides``, for a Python subprocess that imports this package."""
    src = str(Path(stresstune.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **overrides)


def pytest_collection_modifyitems(config, items):
    # The gate takes most of a full run. Run last (the sort is stable), it
    # leaves the unit suite complete when a time limit cuts the run short.
    items.sort(key=lambda item: item.get_closest_marker("gate") is not None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_square_corners():
    return Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def block_budget(n: int, rows: int):
    """Patch the dense block budget so that an n-column block holds ``rows`` rows."""
    return mock.patch.object(core_module, "_DENSE_BLOCK_BYTES", 8 * n * rows)


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@hst.composite
def small_graphs(draw):
    """Graphs of up to 30 nodes, often disconnected, often with trailing isolated nodes.

    Part of the weights are 0: stored zeros are edges too.
    """
    n = draw(hst.integers(1, 30))
    pairs = draw(
        hst.sets(
            hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1))
            .filter(lambda t: t[0] != t[1])
            .map(lambda t: (min(t), max(t))),
            max_size=2 * n,
        )
    )
    edges = sorted(pairs)
    ei = np.array([a for a, _ in edges], dtype=np.int64)
    ej = np.array([b for _, b in edges], dtype=np.int64)
    w = draw(hst.lists(hst.sampled_from([0.0, 1.0, 1.0, 1.0]), min_size=len(edges), max_size=len(edges)))
    return DissimilarityGraph(n, (ei, ej, np.array(w, dtype=np.float64)))


def patch_graph(seed: int, m: int, integer: bool, split: bool) -> DissimilarityGraph:
    """Random sparse graph on ``m`` nodes, about a sixth of its weights zero.

    With ``split`` no edge joins the two halves, so the graph is disconnected.
    """
    r = np.random.default_rng(seed)
    i = r.integers(0, m, size=3 * m)
    j = r.integers(0, m, size=3 * m)
    if split:
        j = np.where(i < m // 2, j % (m // 2), m // 2 + j % (m - m // 2))
    keep = i != j
    key = np.unique(np.minimum(i, j)[keep] * m + np.maximum(i, j)[keep])
    ei, ej = key // m, key % m
    w = r.integers(1, 10, size=key.size).astype(np.float64) if integer else r.uniform(0.1, 2.0, size=key.size)
    w[r.uniform(size=key.size) < 1 / 6] = 0.0
    return DissimilarityGraph(m, (ei, ej, w))


# CSV fields a malformed export may hold: a negative index, an index outside
# int64, non-finite and unparseable numbers, and arbitrary short text (which
# can itself carry commas, quotes and line breaks); the listed ones are drawn
# half the time.
_SPECIAL_FIELDS = hst.sampled_from(
    ["-1", "99999999999999999999", "1e400", "nan", "-inf", "", " 1 ", "0x1", '"']
)
_BAD_FIELDS = hst.one_of(_SPECIAL_FIELDS, _SPECIAL_FIELDS, hst.floats().map(repr), hst.text(max_size=4))


@hst.composite
def malformed_csv(draw, header: str, columns, ids: bool = False):
    """CSV text: ``header`` (or half the time a damaged copy), then up to eight rows.

    Rows draw each field from its strategy in ``columns`` (well-formed
    values); with ``ids`` the first fields are instead a shuffled 0..rows-1,
    as configuration ids are. Up to two rows are then damaged: a field
    replaced by a malformed one, the last field dropped, or a field added.
    Well-formed indices should stay small, so that no reader builds anything
    of order n.
    """
    first = header
    if draw(hst.booleans()):
        first = draw(hst.sampled_from([header.upper(), header.split(",", 1)[-1], ""]))
    rows = draw(hst.lists(hst.tuples(*columns).map(list), max_size=8))
    if ids:
        for row, i in zip(rows, draw(hst.permutations(range(len(rows))))):
            row[0] = str(i)
    for r in draw(hst.sets(hst.integers(0, len(rows) - 1), max_size=2)) if rows else ():
        damage = draw(hst.integers(0, 2))
        if damage == 0:
            rows[r][draw(hst.integers(0, len(columns) - 1))] = draw(_BAD_FIELDS)
        elif damage == 1:
            rows[r].pop()
        else:
            rows[r].append(draw(_BAD_FIELDS))
    end = draw(hst.sampled_from(["\n", "\r\n"]))
    return end.join([first, *(",".join(row) for row in rows)]) + end


def rows_fit_header(text: str, exact: list[str] | None = None) -> bool:
    """Whether every non-blank row of the CSV ``text`` has as many fields as its header.

    With ``exact``, the header stripped of spaces must also equal it.
    """
    rows = list(csv.reader(io.StringIO(text, newline=""))) or [[]]
    fits = all(len(row) == len(rows[0]) for row in rows[1:] if row)
    return fits and (exact is None or [h.strip() for h in rows[0]] == exact)


def agrees_with_old_reader(read, old_read, path, same, fits: bool) -> None:
    """Hold ``read`` to ``old_read`` (its earlier version in ``oracles``) on one file.

    Every refusal of ``read`` starts with the path. A file that ``read``
    accepts, ``old_read`` accepts too, and ``same(new, old)`` holds; a file
    that ``old_read`` accepts and that ``fits`` the width and header rules,
    ``read`` accepts.
    """
    try:
        new = read(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        new = None
    try:
        old = old_read(path)
    except ValueError:
        old = None
    if new is not None:
        assert old is not None and same(new, old)
    elif fits:
        assert old is None
