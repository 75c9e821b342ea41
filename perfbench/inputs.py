"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the benchmark seed, a stream id and an
index, so the same seed gives byte-identical meshes, grids, fields and
files. Grids have non-uniform spacing. Meshes jitter their interior nodes
only: boundary nodes stay exactly on the grid boundary, so the mesh covers
the grid completely and a bilinear supermesh transfer conserves the
trapezoidal integral to machine precision.
"""

from __future__ import annotations

import numpy as np

from fieldxfer import QuadMesh, ScalarField, StructuredGrid, rect_mesh, sample_field

UNIT_RECT = (0.0, 0.0, 1.0, 1.0)
# the paper's comparative-study domain (x0, y0, x1, y1)
COMPARATIVE_RECT = (20.0, -15.0, 150.0, 15.0)

# stream ids keep the random sequences of different inputs independent
_SERIES_PAIR, _SERIES_FIELD, _CLI_TRIPLE, _QUAD_PAIR, _QUAD_FIELD = range(1, 6)

# interior nodes move by at most this fraction of the element size per axis;
# below 0.25 every jittered quad stays strictly convex, as the clipper needs
JITTER = 0.2
# neighbouring grid spacings differ by up to (1 + s) / (1 - s)
SPACING_SPREAD = 0.3
FOURIER_MODES = 6


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([stream, seed, index])


def nonuniform_axis(lo, hi, n, rng) -> np.ndarray:
    """n strictly increasing coordinates from lo to hi (both exact)."""
    steps = 1.0 + rng.uniform(-SPACING_SPREAD, SPACING_SPREAD, n - 1)
    coords = lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum()
    coords[0], coords[-1] = lo, hi
    return coords


def nonuniform_grid(rect, nx, ny, rng) -> StructuredGrid:
    x0, y0, x1, y1 = rect
    return StructuredGrid(nonuniform_axis(x0, x1, nx, rng),
                          nonuniform_axis(y0, y1, ny, rng))


def jittered_mesh(rect, nx_e, ny_e, rng) -> QuadMesh:
    """Structured quad mesh on rect with randomly moved interior nodes."""
    x0, y0, x1, y1 = rect
    base = rect_mesh(x0, y0, x1, y1, nx_e, ny_e)
    nodes = base.nodes.copy().reshape(ny_e + 1, nx_e + 1, 2)
    h = np.array([(x1 - x0) / nx_e, (y1 - y0) / ny_e])
    inner = nodes[1:-1, 1:-1]
    inner += rng.uniform(-JITTER, JITTER, inner.shape) * h
    return QuadMesh(nodes.reshape(-1, 2), base.elements)


def fourier_function(rect, rng):
    """Random sum of plane waves with wavenumbers 0..4 per axis on rect."""
    x0, y0, x1, y1 = rect
    kx = rng.integers(0, 5, FOURIER_MODES)
    ky = rng.integers(0, 5, FOURIER_MODES)
    amp = rng.normal(size=FOURIER_MODES) / (1.0 + np.hypot(kx, ky))
    phase = rng.uniform(0.0, 2.0 * np.pi, FOURIER_MODES)
    offset = rng.uniform(0.5, 1.5)

    def f(x, y):
        u = (x - x0) / (x1 - x0)
        v = (y - y0) / (y1 - y0)
        out = np.full(np.shape(x), offset)
        for m in range(FOURIER_MODES):
            out += amp[m] * np.cos(2.0 * np.pi * (kx[m] * u + ky[m] * v) + phase[m])
        return out

    return f


def surrogate_function(name: str):
    """The study harness's source-term surrogates.

    A copy of ``fieldxfer.harness.surrogate_field``, kept here so that the
    benchmark's inputs do not change when the library does.
    """
    if name == "smooth":
        return lambda x, y: np.sin(0.2 * x) * np.exp(-((y / 5.0) ** 2))
    if name == "oscillatory":
        return lambda x, y: (np.sin(2.0 * x) * np.sin(2.0 * y)
                             * np.exp(-((y / 5.0) ** 2))
                             * (1.0 + 0.5 * np.tanh(4.0 * y)))
    raise ValueError(f"unknown surrogate {name!r}")


# --- per-workload inputs ------------------------------------------------------


def series_pair(seed: int):
    """40x40 jittered mesh and 101x101 non-uniform grid on the unit square."""
    rng = rng_for(seed, _SERIES_PAIR)
    mesh = jittered_mesh(UNIT_RECT, 40, 40, rng)
    grid = nonuniform_grid(UNIT_RECT, 101, 101, rng)
    return mesh, grid


def series_field(seed: int, grid: StructuredGrid, k: int) -> ScalarField:
    """Field k of the time series: a Fourier-mode sum of its own."""
    return sample_field(grid, fourier_function(UNIT_RECT, rng_for(seed, _SERIES_FIELD, k)))


def cli_triple(seed: int, k: int):
    """Request k of the one-shot supermesh workload: a new 80x80 mesh, a new
    131x31 grid on the comparative domain, and a surrogate field on it that
    alternates between smooth and oscillatory."""
    rng = rng_for(seed, _CLI_TRIPLE, k)
    mesh = jittered_mesh(COMPARATIVE_RECT, 80, 80, rng)
    grid = nonuniform_grid(COMPARATIVE_RECT, 131, 31, rng)
    name = "smooth" if k % 2 == 0 else "oscillatory"
    return mesh, sample_field(grid, surrogate_function(name))


def quad_pair(seed: int):
    """Fixed 100x100 jittered mesh and 601x601 non-uniform grid, unit square."""
    rng = rng_for(seed, _QUAD_PAIR)
    mesh = jittered_mesh(UNIT_RECT, 100, 100, rng)
    grid = nonuniform_grid(UNIT_RECT, 601, 601, rng)
    return mesh, grid


def quad_field(seed: int, grid: StructuredGrid, k: int) -> ScalarField:
    return sample_field(grid, fourier_function(UNIT_RECT, rng_for(seed, _QUAD_FIELD, k)))
