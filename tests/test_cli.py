"""Tests for the command line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from swiptifc import PRESETS, draw_channel_set, save_channels, channel_digest
from swiptifc.cli import main


def test_show_preset_lists_names(capsys):
    assert main(["show-preset"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(PRESETS)


def test_show_preset_detail(capsys):
    assert main(["show-preset", "fig8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["preset"] == "fig8"
    labels = [v["label"] for v in doc["variants"]]
    assert labels == ["alpha07", "alpha10"]
    assert doc["variants"][0]["config"]["scheduling"] is True


def test_show_preset_unknown(capsys):
    assert main(["show-preset", "fig99"]) == 1
    assert "fig99" in capsys.readouterr().err


def test_run_preset_with_overrides(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--preset",
            "fig2",
            "--output",
            str(tmp_path),
            "--set",
            "e_grid_points=4",
            "--set",
            "seeds=[1]",
            "--set",
            "m_t=2",
            "--set",
            "m_r=2",
            "--set",
            "p=2.0",
            "--set",
            "ts_points=5",
        ]
    )
    assert rc == 0
    # single-variant presets write straight into the output directory
    out = tmp_path
    assert (out / "curve_meb_seed1.csv").exists()
    assert (out / "curve_mlb_seed1.csv").exists()
    assert (out / "curve_meb_ts_seed1.csv").exists()
    assert (out / "summary.json").exists()


def test_run_multi_variant_preset_uses_subdirs(tmp_path):
    rc = main(
        [
            "run",
            "--preset",
            "fig8",
            "--output",
            str(tmp_path),
            "--set",
            "e_grid_points=4",
            "--set",
            "seeds=[1]",
            "--set",
            "p=2.0",
        ]
    )
    assert rc == 0
    assert (tmp_path / "alpha07" / "summary.json").exists()
    assert (tmp_path / "alpha10" / "summary.json").exists()


def test_run_config_file(tmp_path):
    cfg = {
        "m_t": 2,
        "m_r": 2,
        "alpha": [[1.0, 0.8], [0.8, 1.0]],
        "p": 2.0,
        "strategies": ["meb"],
        "e_grid_points": 4,
        "seeds": [1],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "curve_meb_seed1.csv").exists()


def test_run_rejects_bad_override(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--preset",
            "fig2",
            "--output",
            str(tmp_path),
            "--set",
            "snr=10",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("override", ["m_t=2.5", 'seeds=["a"]', 'p="x"', "seeds=[-1]"])
def test_run_rejects_mistyped_override(tmp_path, capsys, override):
    rc = main(["run", "--preset", "fig2", "--output", str(tmp_path), "--set", override])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


def test_validate_channels_ok(tmp_path, capsys):
    cs = draw_channel_set(2, 2, np.array([[1.0, 0.8], [0.8, 1.0]]), seed=7)
    path = tmp_path / "ch.json"
    save_channels(cs, path)
    assert main(["validate-channels", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert channel_digest(cs) in out


def test_validate_channels_corrupt(tmp_path, capsys):
    cs = draw_channel_set(2, 2, np.array([[1.0, 0.8], [0.8, 1.0]]), seed=7)
    path = tmp_path / "ch.json"
    save_channels(cs, path)
    doc = json.loads(path.read_text())
    doc["matrices"]["h11"][0][0][0] += 0.5
    path.write_text(json.dumps(doc))
    assert main(["validate-channels", str(path)]) == 1
    assert "ERROR" in capsys.readouterr().err


def test_validate_channels_negative_seed(tmp_path, capsys):
    # draw_channel_set and ExperimentConfig refuse this seed; so does the file check
    cs = draw_channel_set(2, 2, np.array([[1.0, 0.8], [0.8, 1.0]]), seed=7)
    path = tmp_path / "ch.json"
    save_channels(cs, path)
    doc = json.loads(path.read_text())
    doc["seed"] = -7
    path.write_text(json.dumps(doc))
    assert main(["validate-channels", str(path)]) == 1
    assert "seed" in capsys.readouterr().err


def test_validate_channels_missing_file(tmp_path, capsys):
    assert main(["validate-channels", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().err


def test_oracle_suite(capsys):
    rc = main(["oracle-suite", "--trials", "2000", "--seed", "0"])
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("[oracle]")]
    assert rc == 0
    assert len(lines) >= 6
    assert all(": PASS" in ln for ln in lines)


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_runs_as_script():
    # `python -m swiptifc.cli` runs through the module's __main__ guard and
    # needs no install: the child imports the package as this process does
    proc = subprocess.run(
        [sys.executable, "-m", "swiptifc.cli", "show-preset"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fig2" in proc.stdout


def test_console_script_installed():
    proc = subprocess.run(["swiptifc", "show-preset"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fig2" in proc.stdout
