import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_laws import BRANCHES

from urnlab import LimitKind, classify, cli, new_spec, predict, run_ensemble
from urnlab.cli import _float_cells, _sample_chunks, _write_sample_csvs, main
from urnlab.verify import U_FLOOR, EnsembleReport, PredictionOutcome

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TWO = {
    "replacement_matrix": [[0.7, 0.3], [0.4, 0.6]],
    "initial_composition": [4 / 7, 3 / 7],
    "horizon": 1500,
    "ensemble": 150,
    "seed": 31,
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload, **extra):
    cfg = dict(payload)
    cfg.setdefault("output_dir", str(tmp_path / "out"))
    args = [command, "--config", write_config(tmp_path, cfg)]
    for flag, value in extra.items():
        args += [f"--{flag}", str(value)]
    return main(args)


def test_classify_exit_zero(tmp_path, capsys):
    assert run(tmp_path, "classify", TWO) == 0
    out = capsys.readouterr().out
    assert "two-irreducible" in out


def test_predict_prints_law_table(tmp_path, capsys):
    assert run(tmp_path, "predict", TWO) == 0
    out = capsys.readouterr().out
    assert "normal" in out
    assert "n^0.5" in out


def test_oracle_check_passes(tmp_path, capsys):
    assert run(tmp_path, "oracle-check", TWO) == 0
    assert "OVERALL PASS" in capsys.readouterr().out


def test_verify_writes_artifacts_and_passes(tmp_path):
    assert run(tmp_path, "verify", TWO) == 0
    out = tmp_path / "out"
    names = {p.name for p in out.iterdir()}
    assert "report.txt" in names
    assert "verdicts.txt" in names
    assert "summary.json" in names
    assert "samples_1_fluct.csv" in names
    summary = json.loads((out / "summary.json").read_text())
    assert summary["family"] == "two-irreducible"
    assert summary["verdicts"]["overall"] is True
    header = (out / "samples_1_fluct.csv").read_text().splitlines()[0]
    assert header == "trajectory_id,checkpoint_n,raw_value,normalized_value,z_value,U_hat"


def test_artifacts_are_deterministic(tmp_path):
    assert run(tmp_path, "verify", TWO) == 0
    first = {
        p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
    }
    assert run(tmp_path, "verify", TWO) == 0
    second = {
        p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
    }
    assert first == second


# sha256 of every file `urnlab all` writes at horizon 1000 x ensemble 200 on
# the shipped configs.  They pin the artifact bytes, the sample CSVs' float
# formatting among them: the mixture configs fill the z_value and U_hat
# columns.  Regenerate them only for a deliberate format change.
ARTIFACT_DIGESTS = {
    "two_color": {
        "report.txt": "dafc8f9de6f455840a3768ad4206267e0df49e8ed5f80587c8c87e5ad1d22001",
        "samples_0_mass.csv": "08d131b737dd8c74377532bed63f8a5a26228807ab8d3284c64e8488dafd4b64",
        "samples_1_fluct.csv": "6ae0d2690682393b0c9cb5a207ae371276af888788b8ae7b023b2da926358cfe",
        "summary.json": "676f35010b79e7941077ad83a3802d44f827528e4c0950f6a28a6c5a68a8ca64",
        "verdicts.txt": "f8729131dbca2d27349542188f859727c019f504745a29178ff03a5e1244562a",
    },
    "three_color_mixture": {
        "report.txt": "847331511a5096441c28c565efef4fc2fcead2f931ff54f1b192b2c192c0fd5e",
        "samples_0_mass.csv": "9037f699900637f4cf87a71c7d86932a01f138c004275c5a70153217c3edce23",
        "samples_1_sub-total.csv": "1dcf661c87dc4595705f8629cbb9d48ee728e81a708cc9df722060fe36a58f90",
        "samples_2_sub-fluct.csv": "7e312902eb682f6ddb256809150cee5e8fa57a8365bb0a38e8d172f74e42ba62",
        "summary.json": "c0782bb94fea0cccf48dc9f67fa9aceda9bede54532e53f7d6d511ca2bb21ec3",
        "verdicts.txt": "91e73e25dd2b88135de38c6b54a26eb7885c12a62b5b558829dd2cdb783f1ab1",
    },
    "four_color_jordan": {
        "report.txt": "5874ead39f45017e65c75e96f5cc7eed3171dfb2c7f279966e7842194a82a727",
        "samples_0_mass.csv": "9037f699900637f4cf87a71c7d86932a01f138c004275c5a70153217c3edce23",
        "samples_1_sub-total.csv": "6693b7142ad2f26eee81f7226199e4bfdb9c2d3d05657ea4c3d53ab351b99ee9",
        "samples_2_sub-fluct.csv": "ea4a3a8a42d5520566eca3ceca7737670b064ba5d2cd28ad514f02aea45de3af",
        "samples_3_dom-fluct.csv": "2dd691caf0969b9bfc93dce89915b0efae945a8dbd6f4c1cc2341bdd41d10caf",
        "summary.json": "d1acb1d1e404d6a470e906142af957e5d87c688695002e77a46d2b672075906f",
        "verdicts.txt": "bdcc94efcc01fa25b4a2d980655637afe611bafeb4fbe684b6094ab24a034e74",
    },
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_DIGESTS))
def test_artifact_golden_digests(tmp_path, name):
    out = tmp_path / "out"
    main(["all", "--config", str(CONFIGS / f"{name}.json"), "--horizon", "1000",
          "--ensemble", "200", "--out", str(out)])
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
    }
    assert digests == ARTIFACT_DIGESTS[name]


def test_all_runs_oracle_and_verify(tmp_path, capsys):
    assert run(tmp_path, "all", TWO) == 0
    out = capsys.readouterr().out
    assert "mean-identity" in out
    assert "OVERALL PASS" in out
    verdicts = (tmp_path / "out" / "verdicts.txt").read_text()
    assert "conditional-variance" in verdicts


# A periodic dominant block gives dom_fluct the eigenvalue -1, whose exact
# mean pi_n(-1) * (C_0 . v) is 0 from n = 1 on; within REPEAT_TOL of -1
# classify counts the block as periodic too.
PERIODIC = {
    **{name: BRANCHES[name][:2] for name in ("two_dom_periodic", "four_diag_periodic")},
    "near_periodic": ([[0.5, 0.25, 0.25], [0, 2e-10, 1 - 2e-10], [0, 1 - 2e-10, 2e-10]],
                      [0.5, 0.25, 0.25]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["oracle-check", "all"])
@pytest.mark.parametrize("name", list(PERIODIC))
def test_periodic_dominant_block_gets_a_verdict(tmp_path, capsys, name, command):
    matrix, initial = PERIODIC[name]
    cfg = {"replacement_matrix": matrix, "initial_composition": initial,
           "horizon": 1000, "ensemble": 200, "seed": 5}
    code = run(tmp_path, command, cfg)
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), out
    assert "OVERALL PASS" in out


def test_unknown_config_key_exits_three(tmp_path, capsys):
    bad = dict(TWO)
    bad["horizo"] = 7
    assert run(tmp_path, "classify", bad) == 3
    assert "config.horizo" in capsys.readouterr().err


def test_invalid_matrix_exits_three(tmp_path, capsys):
    bad = dict(TWO)
    bad["replacement_matrix"] = [[0.7, -0.3], [0.4, 0.6]]
    assert run(tmp_path, "classify", bad) == 3
    assert "replacement_matrix[0][1]" in capsys.readouterr().err


def test_unsupported_structure_exits_two(tmp_path, capsys):
    bad = dict(TWO)
    bad["replacement_matrix"] = [
        [0.2, 0.8, 0.0],
        [0.3, 0.2, 0.5],
        [0.1, 0.2, 0.7],
    ]
    bad["initial_composition"] = [1 / 3] * 3
    assert run(tmp_path, "verify", bad) == 2
    assert "unsupported" in capsys.readouterr().err


def test_degenerate_initial_exits_two(tmp_path):
    bad = dict(TWO)
    bad["replacement_matrix"] = [[0.5, 0.5], [0.0, 1.0]]
    bad["initial_composition"] = [0.0, 1.0]
    assert run(tmp_path, "predict", bad) == 2


def test_resource_cap_exits_three(tmp_path, capsys):
    assert run(tmp_path, "verify", TWO, ensemble=10**7) == 3
    assert "resource cap" in capsys.readouterr().err


def test_wrong_variance_negative_control_exits_one(tmp_path):
    bad = dict(TWO)
    bad["variance_scale"] = 5.0
    bad["ensemble"] = 400
    assert run(tmp_path, "verify", bad) == 1


def test_prediction_selection(tmp_path, capsys):
    cfg = dict(TWO)
    cfg["predictions"] = ["fluct"]
    assert run(tmp_path, "simulate", cfg) == 0
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert "samples_0_fluct.csv" in names
    assert not any("mass" in n for n in names if n.endswith(".csv"))
    cfg["predictions"] = ["bogus"]
    assert run(tmp_path, "simulate", cfg) == 3
    assert "available: ['fluct', 'mass']" in capsys.readouterr().err
    cfg["predictions"] = ["fluct", "fluct"]
    cfg["output_dir"] = str(tmp_path / "twice")
    assert run(tmp_path, "verify", cfg) == 3
    assert "'fluct' is selected twice" in capsys.readouterr().err
    assert not (tmp_path / "twice").exists()


def test_checkpoint_list_must_reach_horizon(tmp_path, capsys):
    cfg = dict(TWO)
    cfg["checkpoints"] = [0, 100, 700]
    assert run(tmp_path, "verify", cfg) == 3
    assert "horizon" in capsys.readouterr().err


def test_checkpoints_checked_after_overrides(tmp_path, capsys):
    cfg = dict(TWO, horizon=1000, checkpoints=[0, 100, 1500])
    assert run(tmp_path, "verify", cfg, horizon=1500) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ensemble"]["checkpoints"] == [0, 100, 1500]
    cfg = dict(TWO, checkpoints=[0, 100, 1500])
    assert run(tmp_path, "verify", cfg, horizon=1000) == 3
    assert "config.checkpoints: checkpoints must lie within" in capsys.readouterr().err
    cfg = dict(TWO, checkpoints=[0, 100, 100, 1500])
    assert run(tmp_path, "verify", cfg) == 3
    assert "config.checkpoints: checkpoints must be strictly" in capsys.readouterr().err


def test_cli_overrides_config(tmp_path):
    assert run(tmp_path, "verify", TWO, seed=77, horizon=1200, ensemble=120) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ensemble"]["seed"] == 77
    assert summary["ensemble"]["horizon"] == 1200
    assert summary["ensemble"]["trajectories"] == 120


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "true", "1e999", "0", "-2"])
def test_bad_variance_scale_exits_three(tmp_path, capsys, text):
    cfg = dict(TWO, output_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg)[:-1] + f', "variance_scale": {text}}}')
    assert main(["verify", "--config", str(path)]) == 3
    assert (
        "config.variance_scale: must be a positive finite number"
        in capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


_SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    5e-324, -5e-324, 2.225073858507201e-308, 1.0, 1.0 + 2**-52, 1e16,
]
_FLOAT64 = st.one_of(
    st.floats(width=64),
    st.sampled_from(_SPECIAL_FLOATS),
    # Any bit pattern: NaNs with every payload and sign, subnormals.
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
)


@given(
    pool=st.lists(_FLOAT64, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 15), min_size=1, max_size=300),
)
@example(pool=[0.0], picks=[0, 1, 1, 0])
@example(pool=[math.nan, math.inf, 5e-324], picks=[4, 0, 1, 2, 3, 5, 0])
def test_float_cells_is_repr_of_every_value(pool, picks):
    # Each value comes with its negation, so +-0.0 pairs are common.
    pool = pool + [-x for x in pool]
    values = np.array([pool[i % len(pool)] for i in picks])
    expected = [repr(float(x)) for x in values.tolist()]
    assert _float_cells(values).tolist() == expected
    # A strided view and a 2-D array keep order and shape.
    assert _float_cells(np.stack([values, values], axis=1)[:, 1]).tolist() == expected
    assert _float_cells(values.reshape(1, -1)).tolist() == [expected]


def _reference_csv(report, outcome):
    """The line-by-line f-string formatter the sample CSVs were first
    written with: one repr per float cell."""
    row = outcome.prediction
    cps = report.checkpoints
    raw = report.track_values[:, :, report.track_labels.index(row.label)]
    with np.errstate(invalid="ignore", divide="ignore"):
        norm = row.normalization.at(cps)
        normalized = raw / norm[None, :]
    shown = np.isfinite(norm).tolist()
    cp_cells = [str(int(n)) for n in cps]
    z_cells = [""] * report.ensemble
    if outcome.z_sample is not None:
        z_cells = [repr(z) if math.isfinite(z) else "" for z in outcome.z_sample.tolist()]
    u_cells = [""] * report.ensemble
    if row.limit_kind is LimitKind.NORMAL_MIXTURE and report.u_hats is not None:
        u_cells = [repr(u) for u in report.u_hats.tolist()]
    text = "trajectory_id,checkpoint_n,raw_value,normalized_value,z_value,U_hat\n"
    inner = [",,"] * (len(cp_cells) - 1)
    for t, (raw_t, norm_t) in enumerate(zip(raw.tolist(), normalized.tolist())):
        ends = inner + [f",{z_cells[t]},{u_cells[t]}"]
        text += "".join(
            f"{t},{n},{x!r},{repr(y) if ok else ''}{end}\n"
            for n, x, y, ok, end in zip(cp_cells, raw_t, norm_t, shown, ends)
        )
    return text


def _hand_built_report():
    mix_rows = predict(classify(new_spec(
        [[0.3125, 0.1875, 0.5], [0.1875, 0.3125, 0.5], [0.0, 0.0, 1.0]],
        [0.25, 0.25, 0.5],
    )))
    two_rows = predict(classify(new_spec(TWO["replacement_matrix"], TWO["initial_composition"])))
    normal_row = next(r for r in two_rows if r.limit_kind is LimitKind.NORMAL)
    rows = (*mix_rows, normal_row)
    mixture = next(r for r in mix_rows if r.limit_kind is LimitKind.NORMAL_MIXTURE)
    checkpoints = np.array([0, 1, 3, 8])
    ensemble = 4
    values = np.array([0.25, -0.0, 0.0, 1.5, math.nan, -math.inf, 5e-324, 0.1 + 0.2])
    track_values = np.random.default_rng(5).choice(
        values, size=(ensemble, checkpoints.size, len(rows))
    )
    # Trajectory 1's U_hat is below U_FLOOR, so the mixture row drops it and
    # its z reads NaN.
    u_hats = np.array([2.5, U_FLOOR / 10, 2.5, 0.75])
    z_by_label = {mixture.label: np.array([0.5, math.nan, -0.0, math.nan]),
                  normal_row.label: np.array([math.inf, 1.25, 1.25, -0.0])}
    outcomes = tuple(
        PredictionOutcome(
            prediction=row,
            raw_terminal=track_values[:, -1, j],
            normalized_terminal=track_values[:, -1, j],
            sample_mean=0.0,
            sample_variance=0.0,
            expected_mean=None,
            mean_se=0.0,
            z_sample=z_by_label.get(row.label),
        )
        for j, row in enumerate(rows)
    )
    return EnsembleReport(
        horizon=8, ensemble=ensemble, seed=0, variance_scale=1.0,
        checkpoints=checkpoints, u_hats=u_hats, max_mass_drift=0.0,
        outcomes=outcomes, track_values=track_values,
        track_labels=tuple(r.label for r in rows),
    ), mixture


def test_sample_csvs_match_line_by_line_reference(tmp_path, monkeypatch):
    report, mixture = _hand_built_report()
    # Line budgets over 4 checkpoints: one trajectory per chunk, three (which
    # do not divide the 4 trajectories), and the whole ensemble.
    for budget in (1, 12, 4096):
        monkeypatch.setattr("urnlab.cli._CSV_LINES", budget)
        out = tmp_path / str(budget)
        out.mkdir()
        names = _write_sample_csvs(report, out)
        assert len(names) == len(report.outcomes)
        for name, outcome in zip(names, report.outcomes):
            assert (out / name).read_text() == _reference_csv(report, outcome)
    mixture_csv = names[report.track_labels.index(mixture.label)]
    lines = (out / mixture_csv).read_text().splitlines()
    terminal = [line.split(",") for line in lines if line.startswith("1,8,")]
    assert [cells[4:] for cells in terminal] == [["", "1e-13"]]


@pytest.mark.parametrize("budget", [None, 1000, 100], ids=["default", "1000", "100"])
def test_sample_chunks_stay_within_line_budget(monkeypatch, budget):
    # 251 checkpoints: the default budget of 4096 lines takes 16 trajectories
    # a chunk, 1000 takes 3, and 100, below one trajectory's lines, takes 1.
    spec = new_spec(TWO["replacement_matrix"], TWO["initial_composition"])
    rows = predict(classify(spec))
    checkpoints = [*range(0, 1000, 4), 1000]
    report = run_ensemble(spec, rows, horizon=1000, ensemble=100, seed=3,
                          checkpoints=checkpoints)
    if budget is not None:
        monkeypatch.setattr("urnlab.cli._CSV_LINES", budget)
    bound = max(cli._CSV_LINES, len(checkpoints))
    for outcome in report.outcomes:
        chunks = list(_sample_chunks(report, outcome))
        assert max(chunk.count("\n") for chunk in chunks) <= bound
        header = "trajectory_id,checkpoint_n,raw_value,normalized_value,z_value,U_hat\n"
        assert header + "".join(chunks) == _reference_csv(report, outcome)
