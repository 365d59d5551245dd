"""Acceptance gate: the nine shipping criteria, one test each.

Every test prints its criterion's one-line verdict (shown with -s, or in
the failure report) and asserts it. The identical checks back the
`lesionseg verify` subcommand, which must finish in under five minutes
on a single CPU core.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from lesionseg import verify
from lesionseg.train import TrainResult


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


def test_criteria_6_and_7_share_one_bench_training(tmp_path, monkeypatch):
    bench, steps, seed = verify.BENCH_CONFIG, verify.ABLATION_STEPS, verify.BENCH_CONFIG.seed
    # the reused report stands for the full row that criterion 7 would train
    assert seed in verify.ABLATION_SEEDS
    assert (dataclasses.replace(bench, steps=steps, seed=seed, use_sfm=True, use_msff=True)
            == dataclasses.replace(bench, steps=steps))
    trained, scored, ablated = [], [], []

    def fake_train(config, sequences, log=None):
        trained.append(config)
        result = TrainResult(model=None)
        for step in range(1, config.steps + 1):
            result.model = step   # the fake model is its step count
            result.losses.append(1.0)
            if log is not None:
                log(result)
        return result

    def fake_evaluate(model, sequences):
        scored.append(model)
        return SimpleNamespace(dice=0.7 + model / 10000)

    def fake_ablate(config, train_seqs, eval_seqs, rows):
        ablated.append((config.seed, config.steps, rows))
        return [(row, SimpleNamespace(dice=0.5)) for row in rows]

    monkeypatch.setattr(verify, "make_dataset", lambda *args, **kwargs: None)
    monkeypatch.setattr(verify, "load_dataset", lambda root, split: [split])
    monkeypatch.setattr(verify, "train", fake_train)
    monkeypatch.setattr(verify, "evaluate", fake_evaluate)
    monkeypatch.setattr(verify, "ablate", fake_ablate)
    ws = verify.Workspace(tmp_path)
    seven = verify.run_criterion(7, ws)
    six = verify.run_criterion(6, ws)
    assert trained == [bench]
    assert scored == [steps, bench.steps]
    assert ablated == [(s, steps, ("baseline",) if s == seed else ("full", "baseline"))
                       for s in verify.ABLATION_SEEDS]
    full = np.mean([0.7 + steps / 10000 if s == seed else 0.5 for s in verify.ABLATION_SEEDS])
    assert f"full model dice {full:.3f} vs temporal-only baseline 0.500" in seven.detail
    assert f"test dice {0.7 + bench.steps / 10000:.3f}" in six.detail
