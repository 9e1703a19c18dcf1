import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from anyonpt import Grid, PoschlTeller
from anyonpt.spectra import PR_BOX_FRACTION, ROOT_SCREEN_FRACTION, SpectrumResult, _root_lengths

# CI runs with --hypothesis-profile=ci, so a failing example replays from the log.
settings.register_profile("ci", derandomize=True, deadline=None)

_DENSE_SPECTRA = {}


def dense_spectrum(h) -> SpectrumResult:
    """The dense oracle for ``solve_spectrum``: every eigenpair from ``np.linalg.eig``.

    A Dirichlet chain whose couplings differ (under drift) takes its eigenvalues from
    the chain with both couplings sqrt(upper lower), its image under the imaginary
    gauge, since a dense solve of H returns points of its pseudospectrum; each keeps
    H's vector of the nearest of H's eigenvalues.  Only a localized state's vector
    counts, and that state is well-conditioned: a state piled against a wall is
    continuum by its root length.

    Vectors are normalized under trapezoidal quadrature and labeled by the
    same rule: participation ratio below PR_BOX_FRACTION and root length
    below ROOT_SCREEN_FRACTION of the box.  A point state's length is the
    root length of its eigenvalue.  Eigenvalues are sorted by (Re, Im).  The result keeps
    no vectors and is cached per operator, since several tests ask for the
    same n = 1280 spectra.
    """
    key = (h.grid, h.boundary, h.upper, h.lower, h.diagonal.tobytes())
    if key not in _DENSE_SPECTRA:
        w, vecs = np.linalg.eig(h.dense())
        if h.boundary == "dirichlet" and h.upper != h.lower:
            g = np.sqrt(h.upper * h.lower)
            gauged = np.linalg.eigvals(dataclasses.replace(h, upper=g, lower=g).dense())
            w, vecs = gauged, vecs[:, np.abs(gauged[:, None] - w).argmin(axis=1)]
        order = np.lexsort((w.imag, w.real))
        w, vecs = w[order], vecs[:, order]
        vecs = vecs / np.sqrt(np.trapezoid(np.abs(vecs) ** 2, dx=h.grid.dx, axis=0))
        pr = 1.0 / np.trapezoid(np.abs(vecs) ** 4, dx=h.grid.dx, axis=0)
        lengths = _root_lengths(h, w)
        is_point = (pr < PR_BOX_FRACTION * h.grid.length) & (
            lengths < ROOT_SCREEN_FRACTION * h.grid.length
        )
        _DENSE_SPECTRA[key] = SpectrumResult(
            grid=h.grid,
            eigenvalues=w,
            localization_length=np.where(is_point, lengths, np.inf),
            eigenvectors=np.empty((h.dim, 0), dtype=complex),
            vector_indices=np.array([], dtype=int),
        )
    return _DENSE_SPECTRA[key]


@pytest.fixture
def sym_grid():
    return Grid(-30.0, 30.0, 600)


@pytest.fixture
def fine_grid():
    return Grid(-25.0, 25.0, 1250)


@pytest.fixture
def pt_well():
    return PoschlTeller(nu=1.0, delta=0.2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
