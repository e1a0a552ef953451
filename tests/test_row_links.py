"""Reach from grid-order row links against the full radius search.

``expand`` finds the seed's component without listing every link: over the
row links (``_row_links``) plus the links with an end outside the seed's
component over those (``_reach``).  These tests hold it to a breadth-first
search over every pair of ``conftest.BruteForceIndex``, in phase 1 and, with
a height gate, in phase 2: every row link is a true link, the reach masks
are equal, and the pairs of reach's one search (a flagged
``CentroidIndex.pairs`` call) are the full search's pairs with an end
flagged, for the ambiguous cells to read, or outside the seed's row-link
component.
"""

import numpy as np
from conftest import BruteForceIndex
from hypothesis import given
from hypothesis import strategies as st
from test_region_expansion import _breadth_first, _component

from gridseg.region_expansion import CentroidIndex, _gated, _reach, _row_links

GATE = 0.25


def _layout(cells, size, rng=None):
    """The distinct cells, ascending, and a centroid inside each: its
    centre, or a uniform draw with ``rng``."""
    cells = np.unique(np.asarray(cells, dtype=np.int64).reshape(-1, 3), axis=0)
    inside = 0.5 if rng is None else rng.uniform(0.0, 1.0, cells.shape)
    return cells, (cells + inside) * size


def _full_links(centroids, radius, gate):
    """Every pair within radius (and, with a gate, within it in height)."""
    i, j = BruteForceIndex(range(len(centroids)), centroids).pairs(radius)
    if gate is not None:
        keep = np.abs(centroids[i, 2] - centroids[j, 2]) <= gate
        i, j = i[keep], j[keep]
    return i, j


def _assert_reach_exact(cells, centroids, radius, gate, source, flags=None):
    """Check the row links, the reach from ``source`` and the pairs of its
    search, with the cells ``flags`` (default none) flagged; return the
    reach."""
    n = len(cells)
    flags = np.zeros(n, bool) if flags is None else flags
    ri, rj = _row_links(cells, centroids, radius)
    true = set(zip(*(a.tolist() for a in _full_links(centroids, radius, None))))
    assert (ri < rj).all() and set(zip(ri.tolist(), rj.tolist())) <= true
    index = CentroidIndex(np.arange(n), centroids)
    got, i, j = _reach(cells, index, source, radius, gate, flags)
    want = _breadth_first(n, *_full_links(centroids, radius, gate), source)
    assert np.flatnonzero(got).tolist() == want
    searched = flags | ~_component(n, *_gated_row_links(cells, centroids, radius, gate), source)
    assert (i < j).all()
    assert sorted(zip(i.tolist(), j.tolist())) == sorted(
        (a, b) for a, b in true if searched[a] or searched[b]
    )
    return got


def _gated_row_links(cells, centroids, radius, gate):
    return _gated(centroids[:, 2], *_row_links(cells, centroids, radius), gate)


def _assert_neighbors_exact(centroids, radius, flags):
    """Each flagged centroid's radius neighbors, from a search of the pairs
    with a flagged end, are those of the full search, once each."""
    n = len(centroids)

    def neighbors(i, j):
        found = {k: [] for k in np.flatnonzero(flags).tolist()}
        for a, b in zip(i.tolist(), j.tolist()):
            for k, other in ((a, b), (b, a)):
                if k in found:
                    found[k].append(other)
        return {k: sorted(v) for k, v in found.items()}

    got = neighbors(*CentroidIndex(np.arange(n), centroids).pairs(radius, flags))
    assert got == neighbors(*_full_links(centroids, radius, None))


@given(
    n=st.integers(1, 150),
    span=st.tuples(st.integers(1, 16), st.integers(1, 16), st.integers(1, 5)),
    size=st.sampled_from([(1.5, 1.0, 1.5), (1.5, 1.0, 0.2), (1.0, 1.0, 1.0), (0.5, 2.0, 0.2)]),
    radius=st.floats(0.0, 6.0),
    centred=st.booleans(),
    phase=st.sampled_from([1, 2]),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_reach_and_neighbors_equal_the_full_search(
    n, span, size, radius, centred, phase, share, seed
):
    # random cells in a box of cells, some on negative indices; centred
    # centroids put many pairs exactly at lattice distances
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, span, (n, 3)) - np.array(span) // 3
    cells, centroids = _layout(drawn, size, None if centred else rng)
    gate = GATE if phase == 2 else None
    source = int(rng.integers(len(cells)))
    flags = rng.random(len(cells)) < share
    _assert_reach_exact(cells, centroids, radius, gate, source, flags)
    _assert_neighbors_exact(centroids, radius, flags)


def test_seed_alone_in_its_row_component_joined_by_a_long_link():
    # the seed's two row candidates, (0, 9) and (1, 8), are out of reach,
    # and no other cell's candidate is the seed; the column below x = 1
    # holds a row-linked run whose top cell lies 1.41 from the seed
    cells, centroids = _layout(
        [(0, 5, 0), (0, 9, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0), (1, 8, 0)], (1.0, 1.0, 1.0)
    )
    ri, rj = _row_links(cells, centroids, 1.5)
    assert 0 not in ri.tolist() + rj.tolist()
    assert _component(len(cells), ri, rj, 0).tolist() == [True] + [False] * 5
    for gate in (None, GATE):
        reach = _assert_reach_exact(cells, centroids, 1.5, gate, 0)
        assert np.flatnonzero(reach).tolist() == [0, 2, 3, 4]


def test_rings_farther_apart_than_the_radius():
    # three rings of cells 6 m apart, as far beams lie on the ground, and
    # one spoke from the first ring to the second: grid order breaks each
    # ring into short runs, which only the full search joins
    size = np.array([1.5, 1.0, 1.5])
    points = []
    for r in (30.0, 36.0, 42.0):
        angles = np.arange(0.0, 2 * np.pi, 1.2 / r)
        points.append(np.column_stack([r * np.cos(angles), r * np.sin(angles), 0 * angles]))
    points.append(np.column_stack([np.arange(30.0, 36.5, 1.0), np.zeros(7), np.zeros(7)]))
    points = np.vstack(points)
    cells, first = np.unique(np.floor(points / size).astype(np.int64), axis=0, return_index=True)
    centroids = points[first]
    source = int(np.argmin(np.hypot(*(centroids[:, :2] - [-30.0, 0.0]).T)))
    for gate in (None, GATE):
        reach = _assert_reach_exact(cells, centroids, 5.0, gate, source)
        ring = np.hypot(centroids[:, 0], centroids[:, 1])
        assert reach[ring < 37.0].all() and not reach[ring > 41.0].any()
        ri, rj = _gated_row_links(cells, centroids, 5.0, gate)
        assert _component(len(cells), ri, rj, source).sum() < reach.sum()


def test_stacked_phase2_slabs(rng):
    # 8 x 6 columns of 0.2 m slabs, each column a stack of up to five with
    # gaps: adjacent slabs are within the gate, two apart over it
    size = (1.5, 1.0, 0.2)
    columns = [(x, y) for x in range(8) for y in range(6)]
    drawn = [(x, y, z) for x, y in columns for z in range(5) if rng.random() < 0.6]
    cells, centroids = _layout(drawn, size, rng)
    for radius in (1.0, 2.0, 5.0):
        for source in rng.choice(len(cells), 4, replace=False).tolist():
            _assert_reach_exact(cells, centroids, radius, GATE, source)


def test_a_gate_that_cuts_row_links():
    # a row of cells at z = 0.1 with one cell 0.3 m higher in the middle:
    # the gate cuts both its row links, and only a long link, over it,
    # joins the two ends
    size = (1.0, 1.0, 0.2)
    cells, centroids = _layout([(x, 0, 0) for x in range(5)], size)
    cells[2, 2], centroids[2, 2] = 2, 0.4
    ri, rj = _gated_row_links(cells, centroids, 5.0, GATE)
    assert list(zip(ri.tolist(), rj.tolist())) == [(0, 1), (3, 4)]
    reach = _assert_reach_exact(cells, centroids, 5.0, GATE, 0)
    assert reach.tolist() == [True, True, False, True, True]
    assert _assert_reach_exact(cells, centroids, 5.0, None, 0).all()
