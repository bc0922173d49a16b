import numpy as np
import pytest

from o3cp1.lattice import Lattice, LatticeError, build_lattice
import references


def test_build_examples():
    assert (build_lattice([4]).volume, build_lattice([4]).n_links) == (4, 4)
    lat = build_lattice([8, 8])
    assert (lat.volume, lat.n_links) == (64, 128)
    lat3 = build_lattice([2, 2, 2])
    assert (lat3.volume, lat3.n_links) == (8, 24)


def test_build_rejects_bad_dims():
    with pytest.raises(LatticeError):
        build_lattice([])
    with pytest.raises(LatticeError):
        build_lattice([4, 1])
    with pytest.raises(LatticeError):
        build_lattice([0])


def test_build_rejects_tables_numpy_cannot_allocate():
    # the volume is exact, not wrapped around in int64 (2**64 wrapped gives 0);
    # numpy refuses both index tables outright, so nothing is allocated
    for dims, volume in (([2**32, 2**32], 2**64), ([3_000_000_000] * 2, 9 * 10**18)):
        with pytest.raises(LatticeError, match=f"{volume} sites"):
            build_lattice(dims)


def test_neighbor_examples():
    lat = build_lattice([4])
    assert lat.neighbor(3, 0, +1) == 0
    assert lat.neighbor(0, 0, -1) == 3
    # row-major, direction 0 fastest
    assert build_lattice([2, 2]).neighbor(0, 1, +1) == 2


def test_neighbor_rejects_out_of_range():
    lat = build_lattice([4, 4])
    with pytest.raises(LatticeError):
        lat.neighbor(16, 0, +1)
    with pytest.raises(LatticeError):
        lat.neighbor(0, 2, +1)
    with pytest.raises(LatticeError):
        lat.neighbor(0, 0, 0)


@pytest.mark.parametrize("dims", [[2], [4], [5], [3, 4], [2, 2, 3], [4, 4]])
def test_neighbor_round_trip_and_bijection(dims):
    lat = build_lattice(dims)
    for mu in range(lat.ndim):
        fwd, bwd = lat.neighbors[:, mu]
        assert fwd.flags.c_contiguous and bwd.flags.c_contiguous  # gathers copy no index
        assert np.array_equal(lat.fwd(mu), fwd)
        coords, step = lat.site_coords(np.arange(lat.volume)), np.eye(lat.ndim, dtype=int)[mu]
        assert np.array_equal(lat.site_coords(fwd), (coords + step) % lat.dims)
        assert np.array_equal(bwd[fwd], np.arange(lat.volume))
        assert np.array_equal(fwd[bwd], np.arange(lat.volume))
        # bijection: every site appears exactly once as a forward neighbor
        assert len(set(fwd.tolist())) == lat.volume


@pytest.mark.parametrize("dims", [[3], [4, 5], [2, 3, 4]])
def test_coord_index_round_trip(dims):
    lat = build_lattice(dims)
    sites = np.arange(lat.volume)
    coords = lat.site_coords(sites)
    assert np.array_equal(references.coord_index(lat, coords), sites)
    assert coords.min() >= 0
    assert np.all(coords.max(axis=0) == np.array(dims) - 1)


def test_lattice_immutable():
    lat = build_lattice([4])
    with pytest.raises(Exception):
        lat.volume = 5
    assert not lat.neighbors.flags.writeable
