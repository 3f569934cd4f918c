import json
import os
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from rmrouter import cli, sim
from rmrouter.cli import build_parser, main
from rmrouter.errors import NonPSDError
from rmrouter.features import FusionParams, load_dataset, load_embeddings
from rmrouter.gaussian import ArmPosterior
from rmrouter.offline import (
    OfflineRouterModel,
    TrainConfig,
    load_behavior,
    load_model,
    model_to_dict,
)
from rmrouter.online import init_router, save_state, state_to_dict
from rmrouter.serialize import iter_csv, read_json, write_json
from rmrouter.sim import ReplayConfig, compare_runs, scenario_to_dict

from scenarios import two_specialists_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    scenario = two_specialists_scenario(
        pairs_per_step=8, n_steps=6, offline_pairs=120, seeds=[1, 2]
    )
    path = tmp_path / "scenario.json"
    write_json(path, scenario_to_dict(scenario))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def model_doc():
    rng = np.random.default_rng(4)
    fusion = FusionParams.random_init(3, 2, rng, 0.1)
    model = OfflineRouterModel(fusion, rng.standard_normal((2, 3)),
                               rng.standard_normal((2, 3)), 0.2, 2)
    return model_to_dict(model)


def train_args(data_dir, out, loss_csv=None, extra=()):
    args = [
        "train-offline",
        "--dataset", f"{data_dir}/dataset.jsonl",
        "--behavior", f"{data_dir}/behavior.jsonl",
        "--embeddings", f"{data_dir}/embeddings.jsonl",
        "--out", out,
        "--lr", "0.5",
        "--epochs", "20",
        "--batch-size", "32",
        "--seed", "3",
    ]
    if loss_csv:
        args += ["--loss-csv", loss_csv]
    return args + list(extra)


class TestPipeline:
    def test_full_workflow(self, tmp_path, scenario_file, capsys):
        data_dir = str(tmp_path / "data")
        assert main(["collect-behavior", "--scenario", scenario_file,
                     "--seed", "1", "--out-dir", data_dir]) == 0
        pairs = load_dataset(f"{data_dir}/dataset.jsonl")
        embs = load_embeddings(f"{data_dir}/embeddings.jsonl")
        correct, observed = load_behavior(f"{data_dir}/behavior.jsonl", [p.pair_id for p in pairs])
        assert len(pairs) == 120
        assert len(embs) == 120
        assert correct.shape == (120, 2) and observed.all()

        model_path = str(tmp_path / "model.json")
        loss_csv = str(tmp_path / "loss.csv")
        assert main(train_args(data_dir, model_path, loss_csv)) == 0
        out = capsys.readouterr().out
        assert "held-out routing accuracy" in out
        model = load_model(model_path)
        assert model.n_arms == 2
        assert model.lam == 0.2  # default combined-loss weight
        lines = [l for l in open(loss_csv).read().splitlines() if not l.startswith("#")]
        assert lines[0] == "epoch,total_loss,bt_loss,cls_loss"
        assert len(lines) == 1 + 20

        prior_path = str(tmp_path / "prior.json")
        assert main(["export-prior", "--model", model_path, "--out", prior_path]) == 0
        prior_doc = read_json(prior_path)
        assert np.array_equal(
            np.asarray(prior_doc["bt_embeddings"]), model.bt_embeddings
        )

        out_dir = str(tmp_path / "runs")
        assert main(["run-sim", "--scenario", scenario_file, "--router", "all",
                     "--out-dir", out_dir, "--prior-file", prior_path]) == 0
        summary = [
            l for l in open(f"{out_dir}/summary.csv").read().splitlines()
            if not l.startswith("#")
        ]
        n_routers = 2 + 5 + 3  # single:{0,1}, five fixed baselines, three prior-based
        assert len(summary) == 1 + n_routers * 2  # header + routers x seeds
        assert os.path.exists(f"{out_dir}/thompson_1.metrics.jsonl")
        assert os.path.exists(f"{out_dir}/thompson_1.decisions.jsonl")
        assert os.path.exists(f"{out_dir}/thompson_1.rewards.jsonl")
        assert os.path.exists(f"{out_dir}/thompson_1.state.json")

        report_path = str(tmp_path / "report.csv")
        assert main(["compare", "--summary", f"{out_dir}/summary.csv",
                     "--baseline", "random", "--out", report_path]) == 0
        out = capsys.readouterr().out
        assert "mean_delta" in out
        report_rows = [
            l for l in open(report_path).read().splitlines() if not l.startswith("#")
        ]
        assert len(report_rows) == 1 + n_routers * 2

        assert main(["inspect", model_path]) == 0
        out = capsys.readouterr().out
        assert "offline model: 2 arms" in out

    def test_lambda_zero_trains(self, tmp_path, scenario_file):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        model_path = str(tmp_path / "model.json")
        assert main(train_args(data_dir, model_path, extra=["--lambda", "0"])) == 0
        model = load_model(model_path)
        assert model.lam == 0.0
        # frozen classifier head keeps its tiny random init, far below the
        # trained ranking head
        assert np.linalg.norm(model.cls_embeddings) < 0.1 * np.linalg.norm(model.bt_embeddings)

    def test_router_all_without_prior_runs_base_suite(self, tmp_path, scenario_file):
        out_dir = str(tmp_path / "runs")
        assert main(["run-sim", "--scenario", scenario_file, "--router", "all",
                     "--seeds", "1", "--out-dir", out_dir]) == 0
        rows = [l for l in open(f"{out_dir}/summary.csv").read().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 1 + (2 + 5)  # header + single:{0,1} + fixed baselines

    def test_router_all_with_prior_runs_in_table_order(self, tmp_path, scenario_file):
        prior_path = tmp_path / "prior.json"
        prior = {"version": 1, "n_arms": 2, "d": 8, "bt_embeddings": np.eye(2, 8).tolist()}
        write_json(prior_path, prior)
        out_dir = str(tmp_path / "runs")
        assert main(["run-sim", "--scenario", scenario_file, "--router", "all", "--seeds", "1",
                     "--out-dir", out_dir, "--prior-file", str(prior_path),
                     "--weighted-alpha", "0.25"]) == 0
        rows = [l for l in open(f"{out_dir}/summary.csv").read().splitlines()
                if not l.startswith("#")]
        assert [row.split(",")[0] for row in rows[1:]] == [
            "single:0", "single:1", "random", "majority", "uwo", "linucb", "thompson",
            "offline", "weighted:0.25", "thompson-injected",
        ]

    def test_router_help_lists_every_router(self, capsys):
        assert main(["run-sim", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "single:<arm>" in out and "weighted:<alpha>" in out and "oracle" in out

    def test_metrics_jsonl_steps(self, tmp_path, scenario_file):
        out_dir = str(tmp_path / "runs")
        assert main(["run-sim", "--scenario", scenario_file, "--router", "random",
                     "--seeds", "1", "--out-dir", out_dir]) == 0
        lines = open(f"{out_dir}/random_1.metrics.jsonl").read().splitlines()
        meta = json.loads(lines[0])
        assert "_meta" in meta and meta["_meta"]["router"] == "random"
        assert len(lines) == 1 + 6  # meta + one row per step
        row = json.loads(lines[1])
        assert {"step", "routing_accuracy", "cumulative_regret", "rm_calls"} <= set(row)


class TestValidation:
    def test_missing_dataset_exits_2(self, tmp_path):
        code = main([
            "train-offline",
            "--dataset", str(tmp_path / "nope.jsonl"),
            "--behavior", str(tmp_path / "nope2.jsonl"),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2

    def test_invalid_router_exits_2_and_lists_names(self, tmp_path, scenario_file, capsys):
        code = main(["run-sim", "--scenario", scenario_file, "--router", "sorcery",
                     "--out-dir", str(tmp_path / "runs")])
        assert code == 2
        err = capsys.readouterr().err
        assert "thompson" in err and "majority" in err

    def test_repeated_router_exits_2_before_any_output(self, tmp_path, scenario_file, capsys):
        out_dir = tmp_path / "runs"
        code = main(["run-sim", "--scenario", scenario_file, "--router", "thompson,random,random",
                     "--seeds", "1", "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: routers must not repeat")
        assert not out_dir.exists()

    def test_model_missing_a_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        write_json(path, {"version": 1, "bt_embeddings": [[1, 2]]})
        assert main(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cls_embeddings" in err

    def test_prior_file_missing_a_key_exits_2(self, tmp_path, scenario_file, capsys):
        path = tmp_path / "prior.json"
        write_json(path, {"version": 1, "bt_embeddings": [[1, 2]]})
        code = main(["run-sim", "--scenario", scenario_file, "--router", "offline",
                     "--prior-file", str(path), "--out-dir", str(tmp_path / "runs")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_arms" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--seeds", "x"],
            ["--seeds", ","],
            ["--jobs", "0"],
            ["--jobs", "-2"],
            ["--router", "linucb", "--linucb-alpha", "nan"],
            ["--router", "all", "--linucb-alpha", "nan"],
            ["--router", "all", "--linucb-alpha", "-1"],
            ["--sigma-sq", "nan"],
            ["--router", "all", "--sigma-sq", "-1"],
            ["--router", "all", "--sigma-sq", "0"],
            ["--router", "all", "--prior-variance", "-1"],
            ["--router", "all", "--prior-variance", "nan"],
            ["--router", "all", "--light-c", "0", "--reward-variant", "light_advantage"],
            ["--router", "all", "--light-c", "2", "--reward-variant", "light_advantage"],
            ["--seeds", "1,1"],
        ],
    )
    def test_bad_run_sim_option_exits_2(self, tmp_path, scenario_file, capsys, extra):
        args = ["run-sim", "--scenario", scenario_file, "--out-dir", str(tmp_path / "runs")]
        if "--router" not in extra:
            args += ["--router", "random"]
        assert main(args + extra) == 2
        assert capsys.readouterr().err.startswith("error: ")
        # checked before the first run: no partial output
        assert not list(tmp_path.glob("runs/*.metrics.jsonl"))

    @pytest.mark.parametrize("alpha", ["nan", "1.5"])
    def test_router_all_bad_weighted_alpha_writes_nothing(
        self, tmp_path, scenario_file, capsys, alpha
    ):
        doc = read_json(scenario_file)
        n_arms, d = doc["n_arms"], len(doc["clusters"][0]["center"])
        prior = tmp_path / "prior.json"
        write_json(prior, {"version": 1, "n_arms": n_arms, "d": d,
                           "bt_embeddings": np.eye(n_arms, d).tolist()})
        out_dir = tmp_path / "runs"
        code = main(["run-sim", "--scenario", scenario_file, "--router", "all",
                     "--weighted-alpha", alpha, "--prior-file", str(prior),
                     "--out-dir", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "weighted alpha" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "field, value", [("center", np.nan), ("center", np.inf), ("spread", np.nan),
                         ("spread", np.inf)]
    )
    def test_non_finite_cluster_geometry_exits_2(self, tmp_path, capsys, field, value):
        doc = scenario_to_dict(two_specialists_scenario(pairs_per_step=8, n_steps=6, seeds=[1]))
        if field == "center":
            doc["clusters"][0]["center"][1] = value
        else:
            doc["clusters"][0]["spread"] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))  # NaN / Infinity literals, which json reads back
        code = main(["run-sim", "--scenario", str(path), "--router", "random",
                     "--out-dir", str(tmp_path / "runs")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(n_steps="x"),
            lambda doc: doc.update(offline_pairs=-1),
            lambda doc: doc.update(drift_step=1.5),
            lambda doc: doc["clusters"][0].update(spread="a"),
            lambda doc: doc.update(arm_profiles=[list(p.values()) for p in doc["arm_profiles"]]),
            lambda doc: doc.update(clusters=5),
            lambda doc: doc["arm_profiles"][0].update({"1": 1.5}),
            lambda doc: doc["arm_profiles"][0].update({"1": float("nan")}),
            lambda doc: doc.update(n_steps=6.9),
            lambda doc: doc.update(pairs_per_step=True),
            lambda doc: doc.update(seeds=[1.5]),
            lambda doc: doc.update(n_arms=2.5),
            lambda doc: doc.update(offline_pairs=10.5),
            lambda doc: doc["clusters"][1].update(cluster_id=1.5),
        ],
        ids=["n-steps-string", "negative-offline-pairs", "fractional-drift-step",
             "spread-string", "profiles-as-lists", "clusters-not-a-list", "accuracy-above-1",
             "nan-accuracy", "fractional-n-steps", "bool-pairs-per-step", "fractional-seed",
             "fractional-n-arms", "fractional-offline-pairs", "fractional-cluster-id"],
    )
    def test_malformed_scenario_exits_2(self, tmp_path, capsys, edit):
        doc = scenario_to_dict(two_specialists_scenario(pairs_per_step=8, n_steps=6, seeds=[1]))
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))  # json.dumps writes NaN
        code = main(["run-sim", "--scenario", str(path), "--router", "random",
                     "--out-dir", str(tmp_path / "runs")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "row",
        [
            {"rm_index": 1.7, "correct": 1},
            {"rm_index": "x", "correct": 1},
            {"rm_index": True, "correct": 1},
            {"rm_index": 1, "correct": 0.5},
            {"rm_index": 1, "correct": True},
        ],
        ids=["fractional-rm-index", "string-rm-index", "bool-rm-index", "fractional-correct",
             "bool-correct"],
    )
    def test_malformed_behavior_row_exits_2(self, tmp_path, scenario_file, capsys, row):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        with open(f"{data_dir}/behavior.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pair_id": "off-000000", **row}) + "\n")
        lines = len(open(f"{data_dir}/behavior.jsonl").read().splitlines())
        assert main(train_args(data_dir, str(tmp_path / "model.json"))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"(line {lines})" in err

    @pytest.mark.parametrize("flip", [False, True], ids=["exact-copy", "other-correct"])
    def test_repeated_behavior_row_exits_2(self, tmp_path, scenario_file, capsys, flip):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        path = f"{data_dir}/behavior.jsonl"
        lines = open(path, encoding="utf-8").read().splitlines()
        row = json.loads(lines[1])  # line 1 is the provenance line
        if flip:
            row["correct"] = 1 - row["correct"]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
        model_path = tmp_path / "model.json"
        assert main(train_args(data_dir, str(model_path))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and row["pair_id"] in err
        assert "repeats line 2" in err and f"(line {len(lines) + 1})" in err
        assert not model_path.exists()

    def test_model_index_far_above_the_rest_exits_2(self, tmp_path, scenario_file, capsys):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        with open(f"{data_dir}/behavior.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pair_id": "off-000000", "rm_index": 10**9, "correct": 1}) + "\n")
        model_path = tmp_path / "model.json"
        assert main(train_args(data_dir, str(model_path))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model 2 has no behavior row")
        assert not model_path.exists()

    def test_held_out_pair_without_embedding_exits_2(self, tmp_path, scenario_file, capsys):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        # the ids --holdout 0.25 --seed 3 holds out, as train-offline draws them
        pair_ids = [p.pair_id for p in load_dataset(f"{data_dir}/dataset.jsonl")]
        perm = np.random.default_rng(3).permutation(len(pair_ids))
        held_out = {pair_ids[i] for i in perm[:30]}
        path = f"{data_dir}/embeddings.jsonl"
        lines = open(path, encoding="utf-8").read().splitlines()
        kept = [l for l in lines if json.loads(l).get("pair_id") not in held_out]
        assert len(kept) == len(lines) - 30
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(kept) + "\n")
        model_path = tmp_path / "model.json"
        assert main(train_args(data_dir, str(model_path), extra=["--holdout", "0.25"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no embedding for pair(s)")
        assert any(pair_id in err for pair_id in held_out)
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "extra",
        [["--lr", "inf"], ["--lr", "nan"], ["--lambda", "nan"], ["--lambda", "inf"],
         ["--weight-decay", "nan"], ["--weight-decay", "inf"], ["--embed-dim", "0"],
         ["--encoder-dim", "1"]],
        ids=lambda extra: "=".join(extra).lstrip("-"),
    )
    def test_bad_training_setting_exits_2(self, tmp_path, scenario_file, capsys, extra):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        model_path = tmp_path / "model.json"
        args = train_args(data_dir, str(model_path), extra=extra)
        if extra[0] == "--embed-dim":  # it sizes the fusion layer, trained without --embeddings
            at = args.index("--embeddings")
            del args[at : at + 2]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "command, text",
        [("inspect", '"arms"'), ("inspect", "5"), ("export-prior", "[1]"), ("run-sim", "[1]")],
    )
    def test_non_object_document_exits_2(self, tmp_path, scenario_file, capsys, command, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        args = {
            "inspect": ["inspect", str(path)],
            "export-prior": ["export-prior", "--model", str(path),
                             "--out", str(tmp_path / "prior.json")],
            "run-sim": ["run-sim", "--scenario", scenario_file, "--router", "offline",
                        "--prior-file", str(path), "--out-dir", str(tmp_path / "runs")],
        }[command]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    def indefinite_first_arm(state):
        """``state`` with arm 0's covariance made indefinite through the unchecked
        update constructor; its diagonal stays positive."""
        arm = state.arms[0]
        cov = arm.covariance.copy()
        cov[0, 1] = cov[1, 0] = cov[0, 0] + cov[1, 1]
        state.arms[0] = ArmPosterior._updated(arm.mean, cov, arm.noise_variance, arm.update_count)
        return state

    def test_indefinite_final_state_exits_1_without_writing_it(
        self, tmp_path, scenario_file, capsys, monkeypatch
    ):
        # the last step's update of the second seed's replay leaves arm 0
        # indefinite; no later route or update sees it, and the replays before
        # it (both seed-1 routers, then seed 2's random) end cleanly
        final_updates = []

        def observe_then_corrupt(state, *step):
            state = observe(state, *step)
            if state.step == 6:
                final_updates.append(state)
                if len(final_updates) == 2:
                    return self.indefinite_first_arm(state)
            return state

        observe = sim.observe_feedback
        monkeypatch.setattr(sim, "observe_feedback", observe_then_corrupt)
        out_dir = tmp_path / "runs"
        code = main(["run-sim", "--scenario", scenario_file, "--router", "random,thompson",
                     "--seeds", "1,2", "--out-dir", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: arm 0 ends the replay with an invalid belief")
        assert "Traceback" not in err
        assert len(final_updates) == 2
        assert not list(out_dir.iterdir())

    def test_save_state_refuses_indefinite_arm(self, tmp_path):
        path = tmp_path / "state.json"
        with pytest.raises(NonPSDError):
            save_state(path, self.indefinite_first_arm(init_router(2, 3)))
        assert not path.exists()

    def test_injected_without_prior_file_exits_2(self, tmp_path, scenario_file):
        code = main(["run-sim", "--scenario", scenario_file, "--router", "thompson",
                     "--prior", "injected", "--out-dir", str(tmp_path / "runs")])
        assert code == 2

    def test_offline_router_needs_prior_file(self, tmp_path, scenario_file):
        code = main(["run-sim", "--scenario", scenario_file, "--router", "offline",
                     "--out-dir", str(tmp_path / "runs")])
        assert code == 2

    def test_unknown_scenario_key_exits_2(self, tmp_path):
        doc = scenario_to_dict(two_specialists_scenario(seeds=[1]))
        doc["typo_key"] = True
        path = tmp_path / "bad.json"
        write_json(path, doc)
        code = main(["collect-behavior", "--scenario", str(path),
                     "--out-dir", str(tmp_path / "d")])
        assert code == 2

    def test_version_mismatch_exits_2(self, tmp_path, capsys):
        state = init_router(2, 2)
        path = tmp_path / "state.json"
        save_state(path, state)
        doc = read_json(path)
        doc["version"] = 42
        write_json(path, doc)
        assert main(["inspect", str(path)]) == 2
        assert "supported" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["arms"][0].update(covariance=[1.0, 0.0, 1.0]),
            lambda doc: doc["arms"][0].update(covariance=[1.0, 2.0, 2.0, 1.0]),
            lambda doc: doc["arms"][0].pop("mean"),
            lambda doc: doc["arms"][0].update(mean=[float("nan"), 0.0]),
            lambda doc: doc["config"].update(sigma_sq=float("nan"), prior_variance=float("nan")),
            lambda doc: doc.update(step=1.7),
            lambda doc: doc.update(step=-4),
            lambda doc: doc["selection_counts"].__setitem__(0, -5),
            lambda doc: doc["arms"][0].update(update_count=-2),
            lambda doc: doc["arms"][0].update(update_count=True),
            lambda doc: doc["arms"][1].update(d=2.5),  # truncated, it would fit the arm
            lambda doc: doc["config"].update(sigma_sq=7.0),  # the arms' noise variance is 1
            lambda doc: doc["selection_counts"].__setitem__(0, 3),  # the arms' counts are 0
        ],
        ids=["covariance-length-3", "indefinite-covariance", "missing-mean", "nan-mean",
             "nan-config", "fractional-step", "negative-step", "negative-selection-count",
             "negative-update-count", "bool-update-count", "fractional-d",
             "sigma-sq-differs-from-arms", "selection-counts-differ-from-arms"],
    )
    def test_malformed_state_exits_2(self, tmp_path, capsys, edit):
        doc = state_to_dict(init_router(2, 2))
        edit(doc)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # json.dumps writes NaN
        assert main(["inspect", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    SUMMARY = "router,seed,final_annotation_accuracy\n"

    def compare(self, tmp_path, text, *extra):
        path = tmp_path / "summary.csv"
        path.write_text("# run-sim\n" + text, encoding="utf-8")
        return main(["compare", "--summary", str(path), "--baseline", "random", *extra])

    def test_bad_n_boot_exits_2(self, tmp_path, capsys):
        runs = self.SUMMARY + "random,1,0.5\nthompson,1,0.625\n"
        assert self.compare(tmp_path, runs, "--n-boot", "1") == 0
        for n_boot in ("0", "-3"):
            capsys.readouterr()
            assert self.compare(tmp_path, runs, "--n-boot", n_boot) == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "text",
        [
            "router,seed,total_rm_calls\nrandom,1,8\nthompson,1,8\n",
            SUMMARY + "random,1,abc\nthompson,1,0.5\n",
            SUMMARY + "random,1,nan\nthompson,1,0.5\n",
            SUMMARY + "random,1,0.5\nthompson,1,inf\n",
            SUMMARY + "random,x,0.5\nthompson,1,0.5\n",
            SUMMARY + "random,1\nthompson,1,0.5\n",
        ],
        ids=["no-accuracy-column", "non-numeric-accuracy", "nan-accuracy", "inf-accuracy",
             "non-integer-seed", "short-row"],
    )
    def test_malformed_summary_exits_2(self, tmp_path, capsys, text):
        assert self.compare(tmp_path, text) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestInspect:
    def test_fresh_zero_state(self, tmp_path, capsys):
        state = init_router(3, 4, prior_variance=0.5)
        path = str(tmp_path / "state.json")
        save_state(path, state)
        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert "step=0" in out
        assert out.count("|mean|=0.000000") == 3
        # trace of each covariance is d * prior_variance before any update
        assert out.count("trace(cov)=2.000000") == 3

    def test_injected_state_means_match_prior(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        prior = rng.standard_normal((2, 3))
        state = init_router(2, 3, prior_mode="injected", offline_prior=prior)
        for n, arm in enumerate(state.arms):
            assert np.all(np.abs(arm.mean - prior[n]) < 1e-12)
        path = str(tmp_path / "state.json")
        save_state(path, state)
        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        for n in range(2):
            assert f"arm {n}: |mean|={np.linalg.norm(prior[n]):.6f}" in out

    # x.x overflows for these finite entries; the norm itself does not
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_state_mean_near_overflow_prints_finite_norm(self, tmp_path, capsys):
        doc = state_to_dict(init_router(2, 3))
        doc["arms"][1]["mean"][2] = -1e308
        path = str(tmp_path / "state.json")
        write_json(path, doc)
        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert f"arm 1: |mean|={1e308:.6f} " in out and "inf" not in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_model_rows_near_overflow_print_finite_norms(self, tmp_path, capsys):
        bt, cls = np.zeros((2, 3)), np.eye(2, 3)
        bt[0, 1], cls[1, 0] = 1e308, -1e308
        path = str(tmp_path / "model.json")
        write_json(path, model_to_dict(OfflineRouterModel(None, bt, cls, 0.2, 2)))
        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert f"arm 0: |bt|={1e308:.6f} |cls|=1.000000" in out
        assert f"arm 1: |bt|=0.000000 |cls|={1e308:.6f}" in out and "inf" not in out


class TestDeterminism:
    def test_collect_behavior_rerun_byte_identical(self, tmp_path, scenario_file):
        dirs = [str(tmp_path / d) for d in ("a", "b")]
        for d in dirs:
            assert main(["collect-behavior", "--scenario", scenario_file,
                         "--seed", "5", "--out-dir", d]) == 0
        for name in ("dataset.jsonl", "embeddings.jsonl", "behavior.jsonl"):
            assert read_bytes(f"{dirs[0]}/{name}") == read_bytes(f"{dirs[1]}/{name}")

    def test_train_offline_rerun_byte_identical(self, tmp_path, scenario_file):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        outs = [str(tmp_path / f"model_{i}.json") for i in range(2)]
        for out in outs:
            assert main(train_args(data_dir, out)) == 0
        assert read_bytes(outs[0]) == read_bytes(outs[1])

    def test_run_sim_jobs_parallel_identical(self, tmp_path, scenario_file):
        dirs = [str(tmp_path / d) for d in ("seq", "par")]
        for d, jobs in zip(dirs, ("1", "2")):
            assert main(["run-sim", "--scenario", scenario_file, "--router",
                         "thompson,random", "--out-dir", d, "--jobs", jobs]) == 0
        assert read_bytes(f"{dirs[0]}/summary.csv") == read_bytes(f"{dirs[1]}/summary.csv")
        assert read_bytes(f"{dirs[0]}/thompson_1.metrics.jsonl") == read_bytes(
            f"{dirs[1]}/thompson_1.metrics.jsonl"
        )


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")  # json.dumps writes NaN and Infinity
    return str(path)


class TestDocumentChecks:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("router", ["offline", "weighted:0.5"])
    def test_non_finite_prior_file_exits_2_before_output(
        self, tmp_path, scenario_file, capsys, router, value
    ):
        bt = np.eye(2, 8).tolist()
        bt[1][3] = value
        prior = write_doc(tmp_path / "prior.json",
                          {"version": 1, "n_arms": 2, "d": 8, "bt_embeddings": bt})
        out_dir = tmp_path / "runs"
        code = main(["run-sim", "--scenario", scenario_file, "--router", router,
                     "--prior-file", prior, "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: offline_prior must be a finite")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["inspect", "export-prior"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update({"lambda": float("nan")}),
            lambda doc: doc.update({"lambda": float("inf")}),
            lambda doc: doc["bt_embeddings"][1].__setitem__(0, float("nan")),
            lambda doc: doc["bt_embeddings"][0].__setitem__(2, float("inf")),
            lambda doc: doc["cls_embeddings"][0].__setitem__(1, float("-inf")),
            lambda doc: doc["fusion"]["weight"][2].__setitem__(3, float("nan")),
            lambda doc: doc["fusion"]["bias"].__setitem__(0, float("inf")),
        ],
        ids=["nan-lambda", "inf-lambda", "nan-bt", "inf-bt", "minus-inf-cls", "nan-fusion-weight",
             "inf-fusion-bias"],
    )
    def test_non_finite_model_exits_2(self, tmp_path, capsys, command, edit):
        doc = model_doc()
        path = str(tmp_path / "model.json")
        write_json(path, doc)
        out = tmp_path / "prior.json"
        args = {"inspect": ["inspect", path],
                "export-prior": ["export-prior", "--model", path, "--out", str(out)]}[command]
        assert main(args) == 0
        capsys.readouterr()
        out.unlink(missing_ok=True)
        edit(doc)
        write_doc(tmp_path / "model.json", doc)
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["inspect", "export-prior"])
    def test_linear_fusion_model_exits_2(self, tmp_path, capsys, command):
        # the fusion layer is tanh only; a model file naming another activation is refused
        doc = model_doc()
        assert doc["fusion"]["activation"] == "tanh"
        doc["fusion"]["activation"] = "linear"
        path = str(tmp_path / "model.json")
        write_json(path, doc)
        out = tmp_path / "prior.json"
        args = {"inspect": ["inspect", path],
                "export-prior": ["export-prior", "--model", path, "--out", str(out)]}[command]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: fusion activation") and captured.out == ""
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestParserDefaults:
    def test_defaults_are_the_library_config_defaults(self):
        parser = build_parser()
        train = parser.parse_args(["train-offline", "--dataset", "d.jsonl",
                                   "--behavior", "b.jsonl", "--out", "m.json"])
        for name, value in asdict(TrainConfig()).items():
            assert (getattr(train, name), type(getattr(train, name))) == (value, type(value))
        run = parser.parse_args(["run-sim", "--scenario", "s.json", "--router", "random",
                                 "--out-dir", "runs"])
        replay = ReplayConfig()
        for name in ("sigma_sq", "linucb_alpha", "reward_variant", "light_c"):
            value = getattr(replay, name)
            assert (getattr(run, name), type(getattr(run, name))) == (value, type(value))


class TestChecksBeforeOutput:
    @pytest.mark.parametrize("case", ["single-arm-out-of-range", "prior-shape"])
    def test_run_sim_checks_every_run_before_the_first_replay(
        self, tmp_path, scenario_file, capsys, monkeypatch, case
    ):
        replays = []
        real = cli.run_replay
        monkeypatch.setattr(cli, "run_replay", lambda *a, **k: replays.append(a) or real(*a, **k))
        prior = write_doc(tmp_path / "prior.json", {"version": 1, "n_arms": 2, "d": 3,
                                                    "bt_embeddings": np.eye(2, 3).tolist()})
        out = tmp_path / "runs"
        extra = {"single-arm-out-of-range": ["--router", "random,single:99"],
                 "prior-shape": ["--router", "random,offline", "--prior-file", prior]}[case]
        code = main(["run-sim", "--scenario", scenario_file, "--out-dir", str(out), *extra])
        assert code == 2
        assert replays == []
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()

    def test_light_c_binds_only_routers_that_compute_rewards(
        self, tmp_path, scenario_file, capsys, monkeypatch
    ):
        # two arms leave one comparator; random and majority draw none
        replays = []
        real = cli.run_replay
        monkeypatch.setattr(cli, "run_replay", lambda *a, **k: replays.append(a) or real(*a, **k))
        light = ["--reward-variant", "light_advantage", "--light-c", "5"]
        out = tmp_path / "runs"
        args = ["run-sim", "--scenario", scenario_file, "--out-dir", str(out), *light]
        assert main(args + ["--router", "random,thompson"]) == 2
        assert replays == [] and not out.exists()
        assert "comparator count 5 must be in [1, 1]" in capsys.readouterr().err
        assert main(args + ["--router", "random,majority"]) == 0
        assert len(replays) == 4  # two routers, two seeds

    @staticmethod
    def empty_centre_scenario(tmp_path, scenario_file):
        doc = read_json(scenario_file)
        doc["clusters"] = [{"cluster_id": 0, "center": [], "spread": 0.25}]
        doc["arm_profiles"] = [{"0": 0.9}, {"0": 0.6}]
        return write_doc(tmp_path / "empty.json", doc)

    @pytest.mark.parametrize(
        "case",
        ["collect-behavior", "run-sim", "train-offline", "inspect-model", "export-prior",
         "inspect-state"],
    )
    def test_dimension_zero_exits_2_without_output(self, tmp_path, scenario_file, capsys, case):
        out = tmp_path / "out"
        model = {"version": 1, "d": 0, "n_arms": 2, "lambda": 0.2, "fusion": None,
                 "bt_embeddings": [[], []], "cls_embeddings": [[], []], "train_meta": {}}
        if case in ("collect-behavior", "run-sim"):
            scenario = self.empty_centre_scenario(tmp_path, scenario_file)
            args = {"collect-behavior": ["collect-behavior", "--scenario", scenario],
                    "run-sim": ["run-sim", "--scenario", scenario, "--router", "random"]}[case]
            args += ["--out-dir", str(out)]
        elif case == "train-offline":
            data_dir = tmp_path / "data"
            main(["collect-behavior", "--scenario", scenario_file, "--out-dir", str(data_dir)])
            path = data_dir / "embeddings.jsonl"
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            path.write_text("".join(json.dumps({**row, "vector": []}) + "\n" for row in rows))
            args = train_args(str(data_dir), str(out))
        elif case == "inspect-state":
            doc = state_to_dict(init_router(2, 2))
            for arm in doc["arms"]:
                arm.update(d=0, mean=[], covariance=[])
            args = ["inspect", write_doc(tmp_path / "state.json", doc)]
        else:
            path = write_doc(tmp_path / "model.json", model)
            args = (["inspect", path] if case == "inspect-model"
                    else ["export-prior", "--model", path, "--out", str(out)])
        capsys.readouterr()
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()


class TestCompareBaseline:
    def test_by_name_or_index_writes_one_report(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text("router,seed,final_annotation_accuracy\nthompson,1,0.625\n"
                           "random,1,0.5\nthompson,2,0.75\nrandom,2,0.375\n")
        reports = []
        for baseline in ("random", "1"):
            out = tmp_path / f"report-{baseline}.csv"
            assert main(["compare", "--summary", str(summary), "--baseline", baseline,
                         "--out", str(out)]) == 0
            reports.append((capsys.readouterr().out, out.read_bytes()))
        assert reports[0] == reports[1]
        assert b"baseline=random" in reports[0][1]
        for baseline in ("oracle", "2"):
            assert main(["compare", "--summary", str(summary), "--baseline", baseline]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: baseline") and captured.out == ""


    def test_report_cells_are_the_comparison_values(self, tmp_path, capsys):
        # every number cell of compare --out is the repr of the Python float
        # that compare_runs returned, never a numpy scalar's repr
        runs = [SimpleNamespace(router=r, seed=s, final_annotation_accuracy=a)
                for r, s, a in [("random", 1, 0.5), ("thompson", 1, 0.637890625),
                                ("random", 2, 0.1), ("thompson", 2, 0.7)]]
        summary, out = tmp_path / "summary.csv", tmp_path / "report.csv"
        summary.write_text("router,seed,final_annotation_accuracy\n" + "".join(
            f"{m.router},{m.seed},{m.final_annotation_accuracy!r}\n" for m in runs))
        assert main(["compare", "--summary", str(summary), "--baseline", "random",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        report = compare_runs(runs, "random")
        rows = [row for _, row in iter_csv(out)]
        assert len(rows) == 4
        for row in rows:
            at = report.seeds.index(int(row["seed"]))
            assert row["final_annotation_accuracy"] == repr(
                float(report.accuracies[row["router"]][at]))
            assert row["delta_vs_baseline"] == repr(float(report.deltas[row["router"]][at]))

    def test_missing_summary_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "summary.csv"
        assert main(["compare", "--summary", str(missing), "--baseline", "random"]) == 2
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"


class TestNegativeSeeds:
    @pytest.mark.parametrize(
        "case", ["scenario-seeds", "run-sim-seeds", "collect-behavior", "train-offline", "compare"]
    )
    def test_negative_seed_exits_2_before_any_output(self, tmp_path, scenario_file, capsys, case):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        summary = tmp_path / "summary.csv"
        summary.write_text("router,seed,final_annotation_accuracy\nrandom,1,0.5\nthompson,1,0.6\n")
        doc = read_json(scenario_file)
        doc["seeds"] = [-1]
        negative_scenario = write_doc(tmp_path / "negative.json", doc)
        out = tmp_path / "out"
        args = {
            "scenario-seeds": ["run-sim", "--scenario", negative_scenario, "--router", "random",
                               "--out-dir", str(out)],
            "run-sim-seeds": ["run-sim", "--scenario", scenario_file, "--router", "random",
                              "--seeds", "-5", "--out-dir", str(out)],
            "collect-behavior": ["collect-behavior", "--scenario", scenario_file, "--seed", "-3",
                                 "--out-dir", str(out)],
            "train-offline": train_args(data_dir, str(out)) + ["--seed", "-2"],
            "compare": ["compare", "--summary", str(summary), "--baseline", "random",
                        "--seed", "-1", "--out", str(out)],
        }[case]
        capsys.readouterr()
        assert main(args) == 2
        captured = capsys.readouterr()
        value = {"scenario-seeds": "-1", "run-sim-seeds": "-5", "collect-behavior": "-3",
                 "train-offline": "-2", "compare": "-1"}[case]
        assert f"got {value}" in captured.err or f"got [{value}]" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestPartialBehavior:
    def partial_data(self, tmp_path, drop):
        """150 pairs x 2 models; ``drop(pair_id, held_out)`` says which cells to delete."""
        scenario = tmp_path / "scenario.json"
        write_json(scenario, scenario_to_dict(
            two_specialists_scenario(pairs_per_step=8, n_steps=2, offline_pairs=150)
        ))
        data_dir = str(tmp_path / "data")
        assert main(["collect-behavior", "--scenario", str(scenario), "--seed", "1",
                     "--out-dir", data_dir]) == 0
        pair_ids = [p.pair_id for p in load_dataset(f"{data_dir}/dataset.jsonl")]
        # the pairs the default --holdout 0.2 holds out under train_args' --seed 3
        held_out = {pair_ids[i] for i in np.random.default_rng(3).permutation(150)[:30]}
        path = f"{data_dir}/behavior.jsonl"
        lines = open(path, encoding="utf-8").read().splitlines()
        rng = np.random.default_rng(0)
        kept = [lines[0]] + [
            line for line in lines[1:]
            if not drop(json.loads(line)["pair_id"] in held_out, rng)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(kept) + "\n")
        return data_dir, len(lines) - len(kept)

    def test_quarter_of_cells_missing_trains_and_writes(self, tmp_path, capsys):
        data_dir, dropped = self.partial_data(tmp_path, lambda held, rng: rng.random() < 0.25)
        assert 50 < dropped < 100  # about a quarter of 300 cells
        model_path = tmp_path / "model.json"
        capsys.readouterr()
        assert main(train_args(data_dir, str(model_path))) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("held-out routing accuracy"))
        scored = int(line.split("(")[1].split()[0])
        assert 0 < scored < 30 and line.endswith(f"({scored} of 30 held-out pairs scored)")
        assert 0.0 <= float(line.split()[3]) <= 1.0
        assert load_model(str(model_path)).n_arms == 2

    def test_no_held_out_bits_reports_n_a(self, tmp_path, capsys):
        data_dir, dropped = self.partial_data(tmp_path, lambda held, rng: held)
        assert dropped == 60
        model_path = tmp_path / "model.json"
        capsys.readouterr()
        assert main(train_args(data_dir, str(model_path))) == 0
        assert "held-out routing accuracy: n/a (0 of 30 held-out pairs scored)" in (
            capsys.readouterr().out
        )
        assert model_path.exists()


class TestDamagedFiles:
    """Damaged inputs that used to end in a traceback: each exits 2 and writes no output."""

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("dataset", lambda row: row.update(prompt=5)),
            ("dataset", lambda row: row.update(pair_id=["off-000000"])),
            ("embeddings", lambda row: row.update(pair_id=["off-000000"])),
            ("embeddings", lambda row: row.update(vector=0.5)),
            ("behavior", lambda row: row.update(rm_index=1e308)),
        ],
        ids=["number-prompt", "list-pair-id", "list-embedding-id", "scalar-vector",
             "rm-index-past-int64"],
    )
    def test_damaged_training_file_exits_2(self, tmp_path, scenario_file, capsys, name, edit):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        path = tmp_path / "data" / f"{name}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[-1])
        edit(row)
        path.write_text("\n".join(lines[:-1] + [json.dumps(row)]) + "\n", encoding="utf-8")
        model_path = tmp_path / "model.json"
        capsys.readouterr()
        assert main(train_args(data_dir, str(model_path))) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(pairs_per_step=1e308),
            lambda doc: doc.update(offline_pairs=10**30),
            lambda doc: doc.update(seeds=[1e308]),  # a 309-digit file name
        ],
        ids=["huge-pairs-per-step", "huge-offline-pairs", "huge-seed"],
    )
    def test_damaged_scenario_exits_2(self, tmp_path, capsys, edit):
        doc = scenario_to_dict(two_specialists_scenario(pairs_per_step=8, n_steps=6, seeds=[1]))
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "runs"
        code = main(["run-sim", "--scenario", str(path), "--router", "random",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(out_dir.glob("*"))

    # damaged bytes, each made from the valid JSON text of a document or of one row
    BYTES = {
        "not-utf8": lambda text: b"\xff\xfe" + text,
        "deep-nesting": lambda text: b"[" * 200_000 + text + b"]" * 200_000,
        "long-integer": lambda text: text.rstrip()[:-1] + b', "n": ' + b"1" * 5000 + b"}",
    }

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("damage", BYTES)
    @pytest.mark.parametrize("reader", ["state", "model", "export-prior", "scenario", "prior"])
    def test_damaged_document_bytes_exit_2(self, tmp_path, scenario_file, capsys, reader,
                                           damage):
        path, out = tmp_path / "doc.json", tmp_path / "out"
        if reader == "state":
            save_state(str(path), init_router(2, 2))
        elif reader == "scenario":
            path.write_bytes(read_bytes(scenario_file))
        elif reader == "prior":
            write_json(path, {"version": 1, "n_arms": 2, "d": 8, "bt_embeddings": np.eye(2, 8)})
        else:
            write_json(path, model_doc())
        path.write_bytes(self.BYTES[damage](path.read_bytes()))
        args = {
            "state": ["inspect", str(path)],
            "model": ["inspect", str(path)],
            "export-prior": ["export-prior", "--model", str(path), "--out", str(out)],
            "scenario": ["run-sim", "--scenario", str(path), "--router", "random",
                         "--out-dir", str(out)],
            "prior": ["run-sim", "--scenario", scenario_file, "--router", "offline",
                      "--prior-file", str(path), "--out-dir", str(out)],
        }[reader]
        assert main(args) == 2
        self.assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("damage", BYTES)
    @pytest.mark.parametrize("name", ["dataset", "behavior", "embeddings"])
    def test_damaged_training_bytes_exit_2(self, tmp_path, scenario_file, capsys, name, damage):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        path = tmp_path / "data" / f"{name}.jsonl"
        *rows, last = path.read_bytes().splitlines()
        path.write_bytes(b"\n".join(rows + [self.BYTES[damage](last)]) + b"\n")
        model_path = tmp_path / "model.json"
        capsys.readouterr()
        assert main(train_args(data_dir, str(model_path))) == 2
        self.assert_one_error_line(capsys)
        assert not model_path.exists()

    def test_lone_surrogate_in_dataset_text_exits_2(self, tmp_path, scenario_file, capsys):
        data_dir = str(tmp_path / "data")
        main(["collect-behavior", "--scenario", scenario_file, "--seed", "1",
              "--out-dir", data_dir])
        path = tmp_path / "data" / "dataset.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[0])
        row["prompt"] = "x\ud800"
        path.write_text("\n".join([json.dumps(row)] + lines[1:]) + "\n", encoding="utf-8")
        args = train_args(data_dir, str(tmp_path / "model.json"))
        at = args.index("--embeddings")  # the pairs are encoded from their text
        del args[at : at + 2]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: text to encode is not valid Unicode") and err.count("\n") == 1
        assert not (tmp_path / "model.json").exists()

    def test_non_utf8_summary_exits_2(self, tmp_path, capsys):
        path, out = tmp_path / "summary.csv", tmp_path / "report.csv"
        path.write_bytes(b"# run-sim\nrouter,seed,final_annotation_accuracy\n"
                         b"random,1,0.5\nthompson\xff,1,0.625\n")
        assert main(["compare", "--summary", str(path), "--baseline", "random",
                     "--out", str(out)]) == 2
        self.assert_one_error_line(capsys)
        assert not out.exists()


class TestScenarioLimits:
    """Scenario geometry and sizes at the edge of float64 and of memory."""

    def scenario_path(self, tmp_path, edit):
        doc = scenario_to_dict(two_specialists_scenario(pairs_per_step=8, n_steps=6,
                                                        offline_pairs=40, seeds=[1]))
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_huge_centre_entry_gives_unit_contexts(self, tmp_path, capsys, big):
        def edit(doc):
            doc["clusters"][1]["center"][0] = big

        path = self.scenario_path(tmp_path, edit)
        for split in ("offline", "stream"):
            out_dir = tmp_path / split
            assert main(["collect-behavior", "--scenario", path, "--seed", "1", "--split", split,
                         "--out-dir", str(out_dir)]) == 0
            embeddings = load_embeddings(str(out_dir / "embeddings.jsonl"))
            vectors = [e.vector for e in embeddings.values()]
            assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=0, atol=1e-12)
        assert main(["run-sim", "--scenario", path, "--router", "thompson,majority",
                     "--out-dir", str(tmp_path / "runs")]) == 0
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["collect-behavior", "run-sim"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["clusters"][1].update(spread=1e308),  # noise past 1.8 overflows
            # 2**50 stream pairs fit a numpy array's byte count; the 8 PiB draw fails at once
            lambda doc: doc.update(pairs_per_step=2**40, n_steps=2**10),
        ],
        ids=["context-past-float64", "out-of-memory"],
    )
    def test_unbuildable_scenario_exits_2_before_any_output(self, tmp_path, capsys, command,
                                                            edit):
        path = self.scenario_path(tmp_path, edit)
        out_dir = tmp_path / "out"
        args = {"collect-behavior": ["collect-behavior", "--scenario", path, "--seed", "1"],
                "run-sim": ["run-sim", "--scenario", path, "--router", "random"]}[command]
        assert main(args + ["--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not list(out_dir.glob("*"))
