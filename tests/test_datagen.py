import json
import math

import numpy as np
import pytest

from hslasso.datagen import (
    SyntheticSpec,
    beta_pattern,
    equicorrelated_design,
    generate,
    noise_scale_for_snr,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=0, p=3, rho=0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(n=5, p=3, rho=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(n=5, p=3, rho=0.1, snr=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(n=5, p=3, rho=0.1, pattern="sparse-exp", sparsity=4)
    # dense-exp ignores the sparsity, but a bad one is an error there too
    for bad in (-3, 0, 4):
        with pytest.raises(ValueError, match="sparsity"):
            SyntheticSpec(n=5, p=3, rho=0.1, sparsity=bad)
    assert SyntheticSpec(n=5, p=3, rho=0.1, sparsity=3).metadata()["sparsity"] is None
    # sparsity=2.5 built and reported 2.5; n=2.5 and seed=1.5 failed in numpy
    # with a TypeError, seed=-1 with a message that named no field; snr=True
    # and rho=False were built, and the sidecar read "snr": true
    for field, bad in (("sparsity", 2.5), ("sparsity", True), ("n", 2.5), ("n", True),
                       ("p", 3.0), ("seed", 1.5), ("seed", True), ("seed", -1),
                       ("snr", True), ("rho", False), ("rho", np.False_), ("snr", "3")):
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{"n": 5, "p": 3, "rho": 0.1, "pattern": "sparse-exp", field: bad})
    for field, bad in (("n", np.True_), ("seed", np.float64(1.0)), ("rho", np.True_)):
        with pytest.raises(ValueError, match=f"{field} has the wrong type"):
            SyntheticSpec(**{"n": 5, "p": 3, "rho": 0.1, field: bad})
    # NumPy integers were rejected; they are stored as Python numbers, so the
    # sidecar and the draws are the int spec's
    spec = SyntheticSpec(n=np.int64(5), p=np.int64(3), rho=np.float64(0.1), snr=np.int32(2),
                         pattern="sparse-exp", sparsity=np.int64(2), seed=np.int64(7))
    plain = SyntheticSpec(n=5, p=3, rho=0.1, snr=2.0, pattern="sparse-exp", sparsity=2, seed=7)
    assert spec == plain
    assert [type(getattr(spec, f)) for f in ("n", "p", "rho", "snr", "sparsity", "seed")] == [
        int, int, float, float, int, int]
    assert json.dumps(spec.metadata()) == json.dumps(plain.metadata())
    assert generate(spec, 0.1).X.tobytes() == generate(plain, 0.1).X.tobytes()


def test_sparse_pattern_defaults_to_at_most_ten_nonzeros():
    assert SyntheticSpec(n=20, p=5, rho=0.1, pattern="sparse-exp").sparsity == 5
    assert SyntheticSpec(n=20, p=25, rho=0.1, pattern="sparse-exp").sparsity == 10


def test_beta_pattern_dense():
    spec = SyntheticSpec(n=5, p=25, rho=0.1)
    beta = beta_pattern(spec)
    assert beta[0] == -1.0  # first index is odd, exp(0) = 1
    assert abs(beta[20]) == pytest.approx(math.exp(-2.0), rel=1e-14)
    mags = np.abs(beta)
    assert np.all(np.diff(mags) < 0)  # strictly decreasing magnitudes
    assert np.all(beta[::2] < 0) and np.all(beta[1::2] > 0)  # alternating signs


def test_beta_pattern_sparse_zeroes_tail():
    spec = SyntheticSpec(n=5, p=20, rho=0.1, pattern="sparse-exp", sparsity=10)
    beta = beta_pattern(spec)
    assert np.all(beta[10:] == 0.0)
    dense = beta_pattern(SyntheticSpec(n=5, p=20, rho=0.1))
    assert np.array_equal(beta[:10], dense[:10])


def test_equicorrelated_rho_zero_is_iid():
    spec = SyntheticSpec(n=4, p=3, rho=0.0, seed=1)
    rng_a = np.random.Generator(np.random.PCG64(123))
    X = equicorrelated_design(spec, rng_a)
    rng_b = np.random.Generator(np.random.PCG64(123))
    rng_b.standard_normal(4)  # the unused shared factors
    G = rng_b.standard_normal((4, 3))
    assert np.array_equal(X, G)


def test_equicorrelated_sample_correlation():
    spec = SyntheticSpec(n=10_000, p=5, rho=0.1, seed=0)
    X = equicorrelated_design(spec, np.random.Generator(np.random.PCG64(7)))
    corr = np.corrcoef(X.T)
    off = corr[~np.eye(5, dtype=bool)]
    assert np.all(np.abs(off - 0.1) < 0.03)
    assert np.all(np.abs(np.var(X, axis=0) - 1.0) < 0.05)


def test_population_covariance_identity():
    # the row construction is the linear map A [g0; g] with
    # A = [sqrt(rho) 1 | sqrt(1-rho) I]; its covariance A A' must equal
    # (1-rho) I + rho 11' entrywise
    rho, p = 0.37, 6
    A = np.hstack([math.sqrt(rho) * np.ones((p, 1)),
                   math.sqrt(1 - rho) * np.eye(p)])
    target = (1 - rho) * np.eye(p) + rho * np.ones((p, p))
    assert np.allclose(A @ A.T, target, atol=1e-15)


def test_noise_scale_examples():
    spec = SyntheticSpec(n=5, p=4, rho=0.0, snr=1.0)
    beta = np.array([3.0, 0.0, -4.0, 0.0])
    assert noise_scale_for_snr(spec, beta) == pytest.approx(5.0)
    spec_hi = SyntheticSpec(n=5, p=4, rho=0.0, snr=1e12)
    assert noise_scale_for_snr(spec_hi, beta) < 1e-5
    with pytest.raises(ValueError):
        noise_scale_for_snr(spec, np.zeros(4))


def test_noise_scale_monte_carlo_snr():
    spec = SyntheticSpec(n=100_000, p=20, rho=0.1, snr=3.0, seed=5)
    beta = beta_pattern(spec)
    q = noise_scale_for_snr(spec, beta)
    X = equicorrelated_design(spec, np.random.Generator(np.random.PCG64(11)))
    snr_hat = float(np.var(X @ beta)) / q**2
    assert abs(snr_hat - 3.0) / 3.0 < 0.05


def test_generate_deterministic_and_shapes():
    spec = SyntheticSpec(n=50, p=20, rho=0.1, seed=42)
    a = generate(spec, lam=1e-3)
    b = generate(spec, lam=1e-3)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert a.lam == 1e-3
    assert (a.n, a.p) == (50, 20)
    c = generate(SyntheticSpec(n=50, p=20, rho=0.1, seed=43), lam=1e-3)
    assert not np.array_equal(a.y, c.y)


def test_generate_noiseless_limit():
    spec = SyntheticSpec(n=30, p=10, rho=0.1, snr=1e18, seed=3)
    pr = generate(spec, lam=1e-3)
    beta = beta_pattern(spec)
    assert np.max(np.abs(pr.y - pr.X @ beta)) < 1e-6


def test_generate_metadata_mentions_rng():
    spec = SyntheticSpec(n=5, p=4, rho=0.1, seed=9)
    meta = spec.metadata()
    assert "pcg64" in meta["rng"]
    assert meta["seed"] == 9
