import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "labelshift"


def test_modules_import_only_public_names_from_siblings():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert offenders == []


# The names perfbench/traced.py rebinds, by module, and the leading positional parameters
# its hooks unpack from each call.
TRACED = {
    "predictor": {"predict_proba": ("pred", "features"), "train_predictor": ("train", "cfg")},
    "estimators": dict.fromkeys(
        ("estimate_mlls_em", "estimate_bbse", "estimate_rlls", "estimate_vrls"), ()),
    "federated": {**dict.fromkeys(("build_federation", "exchange_marginals",
                                   "crossnode_listing_ratios", "evaluate"), ()),
                  "train_global": ("fed", "weights", "cfg")},
    "data": dict.fromkeys(("load_idx", "resample_by_marginal", "gen_gaussian_mixture"), ()),
}


@pytest.mark.parametrize(
    "module, name, params",
    [(module, name, params) for module, names in TRACED.items() for name, params in names.items()],
    ids=[f"{module}.{name}" for module, names in TRACED.items() for name in names],
)
def test_traced_names_stay_module_globals_with_their_hooked_parameters(module, name, params):
    fn = vars(importlib.import_module(f"labelshift.{module}")).get(name)
    assert inspect.isfunction(fn)
    leading = list(inspect.signature(fn).parameters.values())[: len(params)]
    assert [(p.name, p.kind) for p in leading] == [
        (p, inspect.Parameter.POSITIONAL_OR_KEYWORD) for p in params]


def test_traced_class_members_keep_their_form():
    from labelshift.predictor import PredictorConfig, init_predictor
    from labelshift.types import LabeledDataset, ProbabilityMatrix

    assert isinstance(ProbabilityMatrix.__dict__["from_rows"], classmethod)
    init = inspect.signature(LabeledDataset.__init__).parameters
    assert list(init)[:2] == ["self", "features"]  # the hook reads args[0] or features=
    # The predictor key reads these five attributes of every scored Predictor.
    for hidden, architecture, size in ((0, "linear", 2 * 3 + 3), (4, "mlp", 2 * 4 + 4 + 4 * 3 + 3)):
        pred = init_predictor(PredictorConfig(hidden_units=hidden), 3, 2)
        assert (pred.architecture, pred.hidden_units, pred.m, pred.d) == (architecture, hidden,
                                                                          3, 2)
        assert isinstance(pred.parameters, np.ndarray) and pred.parameters.shape == (size,)
