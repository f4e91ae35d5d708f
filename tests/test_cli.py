import os
import subprocess
import sys

import pytest

from helpers import random_dataset
import seqlabel
from seqlabel import __version__
from seqlabel.cli import main
from seqlabel.dataio import load_dataset, predictions_from_csv, save_dataset
from seqlabel.rng import derive_rng

FIG_SEQ_CSV = """# seqlabel-sequences v1
# meta: {"n_states": 2, "features": [{"kind": "numeric", "name": "x"}]}
seq_id,x,state
s,11.0,0
s,12.0,1
s,13.0,0
s,14.0,1
s,15.0,1
s,16.0,0
"""


def test_transform_worked_example(tmp_path, capsys):
    src = tmp_path / "seq.csv"
    src.write_text(FIG_SEQ_CSV)
    out = tmp_path / "block.csv"
    assert main(["transform", str(src), "--tau", "2", "-o", str(out)]) == 0
    d = load_dataset(str(out))
    assert d.n == 3
    assert d.instances[0] == ((12.0, 13.0, 0, 1), (0, 1))
    assert d.instances[1] == ((13.0, 14.0, 1, 0), (1, 1))
    assert d.instances[2] == ((14.0, 15.0, 0, 1), (1, 0))


def test_transform_rejects_short_sequence(tmp_path, capsys):
    src = tmp_path / "seq.csv"
    src.write_text(FIG_SEQ_CSV)
    rc = main(["transform", str(src), "--tau", "4"])
    captured = capsys.readouterr()
    assert rc != 0
    assert "error:" in captured.err
    assert captured.out == ""  # diagnostics stay off stdout


def write_toy_dataset(tmp_path, name="toy"):
    rng = derive_rng(0, "cli-ds", name)
    d = random_dataset(rng, n=40, T=3, max_L=2, name=name)
    path = tmp_path / f"{name}.csv"
    save_dataset(d, str(path))
    return d, path


@pytest.mark.parametrize("method", ["ic", "cc", "memm", "vcc", "pcc", "lp",
                                    "rakeld", "ct", "sicl"])
def test_train_predict_deterministic(tmp_path, method):
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    rc = main(["train", "--data", str(data_path), "--method", method,
               "--base", "nb", "--seed", "1", "--save", str(model_path)])
    assert rc == 0
    outs = []
    for run in range(2):
        out = tmp_path / f"pred{run}.csv"
        assert main(["predict", "--model", str(model_path), str(data_path),
                     "-o", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    preds = predictions_from_csv(outs[0])
    assert len(preds) == d.n
    assert all(d.schema.conforms(p) for p in preds)


def test_evaluate_kv_and_json(tmp_path, capsys):
    d, data_path = write_toy_dataset(tmp_path)
    model_path = tmp_path / "m.json"
    main(["train", "--data", str(data_path), "--method", "ic", "--base", "nb",
          "--seed", "1", "--save", str(model_path)])
    pred_path = tmp_path / "pred.csv"
    main(["predict", "--model", str(model_path), str(data_path), "-o", str(pred_path)])

    assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path)]) == 0
    kv = capsys.readouterr().out
    assert kv.startswith("hamming_loss=")

    assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path),
                 "--json"]) == 0
    import json

    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"hamming_loss", "zero_one_loss", "levenshtein_norm",
                        "per_horizon", "n"}
    assert rep["n"] == d.n
    assert len(rep["per_horizon"]) == d.schema.T


def test_evaluate_rejects_count_mismatch(tmp_path, capsys):
    d, data_path = write_toy_dataset(tmp_path)
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text("y0,y1,y2\n0,0,0\n")
    assert main(["evaluate", "--data", str(data_path), "--pred", str(pred_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_experiment_rejects_unknown_metric_before_any_cell(tmp_path, capsys):
    spec = tmp_path / "spec.ini"
    spec.write_text("[experiment]\nmetrics = hamming_loss, bogus\n\n"
                    "[dataset s]\nkind = synth-traveller\ntau = 2\nn_nodes = 5\n"
                    "n_steps = 40\n\n[method ic]\n")
    outdir = tmp_path / "out"
    assert main(["experiment", "--spec", str(spec), "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not outdir.exists()


def test_synth_traveller_cli_deterministic(tmp_path):
    outs = []
    for run in range(2):
        out = tmp_path / f"seq{run}.csv"
        assert main(["synth-traveller", "--n-nodes", "8", "--n-steps", "50",
                     "--seed", "3", "-o", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert main(["transform", str(tmp_path / "seq0.csv"), "--tau", "2",
                 "-o", str(tmp_path / "b.csv")]) == 0


def test_synth_traveller_config_file(tmp_path):
    cfg = tmp_path / "t.ini"
    cfg.write_text("[traveller]\nn_nodes = 6\nn_steps = 30\nseed = 2\nstay_prob = 1.0\n")
    out = tmp_path / "seq.csv"
    assert main(["synth-traveller", "--config", str(cfg), "-o", str(out)]) == 0
    text = out.read_text()
    states = {line.rsplit(",", 1)[-1] for line in text.splitlines()[3:]}
    assert len(states) == 1  # stay_prob 1.0 froze the walker


def test_version_command(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_console_script_entry_point():
    # the child process imports the same seqlabel package as this test
    src = os.path.dirname(os.path.dirname(seqlabel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "seqlabel.cli", "version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__
