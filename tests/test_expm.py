"""The numpy Padé ``qcawalk.noise.expm`` against ``scipy.linalg.expm``, a
test-only reference: every degree branch and the squaring branch, real and
complex input, stacked calls and the exact identity at zero."""

import numpy as np
import pytest
import scipy.linalg

from qcawalk.noise import _PADE, _real_basis, _transfer, expm

# 1-norms that land in each branch: degrees 3, 5, 7, 9 and 13 just under
# their theta_m, then degree 13 after 2 and after 5 squarings
THETAS = [theta for _m, theta, _b in _PADE]
NORMS = {"1e-4": 1e-4, "deg3": 0.9 * THETAS[0], "deg5": 0.9 * THETAS[1],
         "deg7": 0.9 * THETAS[2], "deg9": 0.9 * THETAS[3], "deg13": 0.9 * THETAS[4],
         "squared_2x": 3.5 * THETAS[4], "squared_100": 100.0}


def _matrix(norm, complex_, seed=0, n=6):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    return a * (norm / np.abs(a).sum(axis=0).max())


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("norm", NORMS.values(), ids=NORMS.keys())
def test_matches_scipy(norm, complex_):
    a = _matrix(norm, complex_)
    got, want = expm(a), scipy.linalg.expm(a)
    assert got.dtype == want.dtype == (np.complex128 if complex_ else np.float64)
    # ~500 ulps of the result's scale
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_stacked_call_equals_per_matrix_calls():
    # one stack across every branch: each matrix keeps its own degree and s
    stack = np.array([_matrix(norm, True, seed) for seed, norm in enumerate(NORMS.values())])
    stack = np.stack([stack, stack[::-1]])  # (2, 8, 6, 6): leading axes are kept
    got = expm(stack)
    assert got.shape == stack.shape
    for index in np.ndindex(stack.shape[:2]):
        assert np.array_equal(got[index], expm(stack[index]))


@pytest.mark.parametrize("dtype", [float, complex])
def test_zero_matrix_gives_exact_identity(dtype):
    assert np.array_equal(expm(np.zeros((5, 5), dtype=dtype)), np.eye(5))
    assert np.array_equal(expm(np.zeros((3, 4, 4), dtype=dtype)), np.broadcast_to(np.eye(4), (3, 4, 4)))


@pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 3)), np.full((2, 2), np.nan),
                                 np.full((2, 2), np.inf)],
                         ids=["vector", "not_square", "nan", "inf"])
def test_bad_input_rejected(bad):
    with pytest.raises(ValueError, match="expm takes"):
        expm(bad)


@pytest.mark.parametrize("rate", [1e4, 1e9, 1e12])
def test_relaxation_channel_keeps_vacuum_and_trace(rate):
    # a steep Liouvillian takes up to 16 squarings; the vacuum stays an
    # exact fixed point, and the trace is kept to rounding, as scipy keeps it
    arity, t = 2, 5e-8
    r = _transfer("XY", np.pi / 2, arity, t, rate, 0.0)
    basis = _real_basis(2**arity)
    s = basis @ r @ basis.conj().T
    vacuum = np.zeros(16)
    vacuum[0] = 1.0
    assert np.array_equal(r[:, 0], vacuum)
    assert np.abs(np.eye(4).reshape(-1) @ s - np.eye(4).reshape(-1)).max() < 1e-14
