import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from cubgreeks.algebra import (
    TensorElement,
    context,
    element_from_dict,
    element_to_dict,
    generator,
    max_abs_diff,
)
from cubgreeks.cubature import (
    expectation_degree3,
    formula_from_dict,
    formula_to_dict,
    greeks_two_point,
)
from cubgreeks.errors import DomainError, NoFormulaFoundError

from oracles import max_residual


class TestElementJson:
    def test_schema_and_order(self):
        ctx = context(2, 2)
        x = TensorElement(ctx, {(1, 2): 0.5, (1,): -2.0, (): 1.0})
        data = element_to_dict(x)
        assert data["d"] == 2 and data["m"] == 2
        words = [tuple(item["word"]) for item in data["coeffs"]]
        assert words == [(), (1,), (1, 2)]  # basis order

    def test_threshold_omits_dust(self):
        ctx = context(1, 2)
        x = TensorElement(ctx, {(1,): 1.0, (1, 1): 1e-16})
        data = element_to_dict(x)
        assert [tuple(i["word"]) for i in data["coeffs"]] == [(1,)]

    def test_roundtrip(self):
        ctx = context(2, 3)
        rng = np.random.default_rng(0)
        x = TensorElement(ctx, {w: rng.uniform(-1, 1) for w in ctx.basis})
        y = element_from_dict(json.loads(json.dumps(element_to_dict(x))))
        assert max_abs_diff(x, y) < 1e-15

    def test_pickle_roundtrip_after_coeffs_view(self):
        ctx = context(2, 2)
        x = TensorElement(ctx, {(1,): 0.25, (2, 1): -3.0})
        assert dict(x.coeffs) == {(1,): 0.25, (2, 1): -3.0}
        y = pickle.loads(pickle.dumps(x))
        assert y == x and dict(y.coeffs) == dict(x.coeffs)


class TestFormulaJson:
    def test_expectation_roundtrip(self):
        f = expectation_degree3(context(2, 3), 0.5)
        data = json.loads(json.dumps(formula_to_dict(f)))
        assert data["flavor"] == "expectation"
        g = formula_from_dict(data)
        assert max_residual(g) < 1e-10
        assert np.allclose(g.weights, f.weights)

    def test_greeks_roundtrip(self):
        ctx = context(2, 2)
        f = greeks_two_point(ctx, generator(ctx, 1), 0.25)
        data = json.loads(json.dumps(formula_to_dict(f)))
        assert data["flavor"] == "greeks"
        assert "direction" in data
        g = formula_from_dict(data)
        assert max_abs_diff(g.direction, f.direction) < 1e-15
        assert max_residual(g, g.target()) < 1e-10

    def test_import_verifies(self):
        f = expectation_degree3(context(1, 3), 0.5)
        data = formula_to_dict(f)
        data["items"][0]["w"] *= 1.01  # corrupt a weight
        with pytest.raises(NoFormulaFoundError):
            formula_from_dict(data)
        g = formula_from_dict(data, verify=False)
        assert max_residual(g) > 1e-4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("item", [0, 1])
    @pytest.mark.parametrize("flavor", ["expectation", "greeks"])
    def test_non_finite_weight_is_refused(self, flavor, item, bad):
        # a NaN weight once gave NaN residuals, which passed verification
        ctx = context(1, 3 if flavor == "expectation" else 2)
        f = expectation_degree3(ctx, 1.0) if flavor == "expectation" else greeks_two_point(ctx, generator(ctx, 1), 1.0)
        data = formula_to_dict(f)
        data["items"][item]["w"] = bad
        for verify in (True, False):
            with pytest.raises(DomainError, match="weights must be finite"):
                formula_from_dict(data, verify=verify)
        items = tuple((bad if j == item else w, p) for j, (w, p) in enumerate(f.items))
        with pytest.raises(DomainError, match="weights must be finite"):
            dataclasses.replace(f, items=items)

    def test_unknown_flavor(self):
        f = expectation_degree3(context(1, 3), 0.5)
        data = formula_to_dict(f)
        data["flavor"] = "other"
        with pytest.raises(DomainError):
            formula_from_dict(data)
