"""The batched property registry against its per-sample form.

``checks.run_property_checks`` draws each input of a check for all samples
in one generator call and evaluates each identity once on the
(dim, n_samples) batch.  These tests hold it bitwise to the registry in
``oracles.py``, which reads the same draws one sample at a time through the
element-level API, check the ``verify`` CSV bytes, and check the
``lie-dimension`` row against the free Lie algebra's dimension.
"""

import csv
import dataclasses
import io

import pytest

from cubgreeks import algebra, checks
from cubgreeks.algebra import context
from cubgreeks.cli import main

from oracles import lyndon_count, property_checks_per_sample

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


@pytest.mark.parametrize(
    "d,m,dim",
    [
        (1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 5, 6), (1, 8, 17), (2, 2, 4), (2, 3, 8),
        (2, 4, 15), (2, 5, 31), (2, 6, 61), (3, 3, 18), (3, 4, 45), (4, 4, 111),
    ],
)
def test_lie_dimension_is_the_weighted_witt_count(d, m, dim):
    ctx = context(d, m)
    assert checks._lie_dimension(d, m) == dim == lyndon_count(ctx) == algebra.lie_basis(ctx).dim


@pytest.mark.parametrize("d,m", [(1, 3), (2, 4), (3, 4)])
def test_lie_basis_missing_a_word_fails_lie_dimension(monkeypatch, d, m):
    full_basis = algebra.lie_basis

    def short_basis(ctx):
        lie = full_basis(ctx)
        return dataclasses.replace(lie, words=lie.words[:-1], elements=lie.elements[:-1], matrix=lie.matrix[:, :-1])

    monkeypatch.setattr(algebra, "lie_basis", short_basis)
    rows = {r.name: r for r in checks.run_property_checks(d, m)}
    assert rows["lie-dimension"].max_error == 1.0
    assert not rows["lie-dimension"].passed
