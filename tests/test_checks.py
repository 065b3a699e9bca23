"""The batched property registry against its per-sample form, and its draws.

``checks.run_property_checks`` draws every sample's inputs first, in the
order of a loop over samples, and evaluates each identity once on the
(dim, n_samples) batch.  These tests hold it to the frozen one-sample-at-a-time
registry in ``oracles.py`` bitwise, check the ``verify`` CSV bytes, and check
that the chunked element draw leaves the generator where one scalar call per
double would.
"""

import csv
import io

import numpy as np
import pytest

from cubgreeks import checks
from cubgreeks.algebra import context
from cubgreeks.cli import main

from oracles import property_checks_per_sample, random_element_scalar

CONTEXTS = [(1, 3), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 4)]
SEEDS = [0, 1, 17, 123456789, 2**31 - 1]


def _bits(results):
    return [(name, float(err).hex(), tol) for name, err, tol in results]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d,m", CONTEXTS)
def test_batched_registry_is_bitwise_the_per_sample_registry(d, m, seed):
    batched = [(r.name, r.max_error, r.tolerance) for r in checks.run_property_checks(d, m, seed=seed)]
    assert _bits(batched) == _bits(property_checks_per_sample(d, m, seed=seed))


@pytest.mark.parametrize("d,m,seed", [(1, 5, 3), (2, 4, 0), (3, 4, 2**31 - 1)])
def test_verify_csv_bytes_match_the_per_sample_registry(tmp_path, capsys, d, m, seed):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--d", str(d), "--m", str(m), "--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "status", "max_error", "tolerance"])
    for name, err, tol in property_checks_per_sample(d, m, seed=seed):
        writer.writerow([name, "PASS" if err < tol else "FAIL", f"{err:.3e}", f"{tol:.1e}"])
    assert out.read_bytes() == buf.getvalue().encode()


class TestChunkedDraw:
    @pytest.mark.parametrize("sparsity", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("d,m", [(1, 3), (2, 5), (3, 4)])
    def test_same_coefficients_and_generator_state(self, d, m, sparsity):
        ctx = context(d, m)
        for seed in range(5):
            chunked, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            for scale in (1.0, 0.8):
                got = checks._random_element(ctx, chunked, sparsity=sparsity, scale=scale)
                want = random_element_scalar(ctx, scalar, sparsity=sparsity, scale=scale)
                assert got.tobytes() == want.tobytes()
                assert chunked.bit_generator.state == scalar.bit_generator.state
            assert chunked.random() == scalar.random()

    @pytest.mark.parametrize("last_kept", [True, False])
    def test_last_word_bernoulli(self, last_kept):
        # the draw ends on a coefficient when the last word's Bernoulli succeeds
        ctx = context(2, 3)
        for seed in range(200):
            probe = np.random.default_rng(seed)
            if (random_element_scalar(ctx, probe)[-1] != 0.0) == last_kept:
                break
        else:
            pytest.fail("no seed in 0..199 gives the wanted last word")
        chunked, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        got = checks._random_element(ctx, chunked)
        assert got.tobytes() == random_element_scalar(ctx, scalar).tobytes()
        assert (got[-1] != 0.0) == last_kept
        assert chunked.bit_generator.state == scalar.bit_generator.state

    def test_draws_stay_lazy(self):
        # the state after one element is the state after its exact double count
        ctx = context(2, 4)
        rng = np.random.default_rng(5)
        vec = checks._random_element(ctx, rng)
        used = np.random.default_rng(5)
        used.random(ctx.dim + np.count_nonzero(vec))
        assert rng.bit_generator.state == used.bit_generator.state
