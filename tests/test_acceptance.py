"""Acceptance gate: the nine shipping criteria, one test each.

Every test prints its criterion's one-line verdict (shown with -s, or in
the failure report) and asserts it. The identical checks back the
`lesionseg verify` subcommand, which must finish in under five minutes
on a single CPU core.
"""

import pytest

from lesionseg import verify


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    return verify.Workspace(tmp_path_factory.mktemp("acceptance"))


def _run(number, ws):
    result = verify.run_criterion(number, ws)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_gradient_suite(ws):
    _run(1, ws)


def test_criterion_2_metric_oracle(ws):
    _run(2, ws)


def test_criterion_3_attention_invariants(ws):
    _run(3, ws)


def test_criterion_4_prior_gating_identities(ws):
    _run(4, ws)


def test_criterion_5_overfit_experiment(ws):
    _run(5, ws)


def test_criterion_6_generalization(ws):
    _run(6, ws)


def test_criterion_7_ablation_direction(ws):
    _run(7, ws)


def test_criterion_8_determinism_and_persistence(ws):
    _run(8, ws)


def test_criterion_9_format_fidelity(ws):
    _run(9, ws)


def test_workspace_builds_each_tree_and_loads_each_split_once(tmp_path, monkeypatch):
    built, loaded = [], []
    monkeypatch.setattr(verify, "make_dataset",
                        lambda root, *args, **kwargs: built.append(root.name))
    monkeypatch.setattr(verify, "load_dataset",
                        lambda root, split: loaded.append((root.name, split)) or [split])
    ws = verify.Workspace(tmp_path)
    for _ in range(2):
        assert ws.overfit_train == ["train"]
    assert (built, loaded) == (["overfit"], [("overfit", "train")])   # no bench tree
    for _ in range(2):
        assert ws.bench == (["train"], ["val"])
    assert built == ["overfit", "bench"]
    assert loaded == [("overfit", "train"), ("bench", "train"), ("bench", "val")]
