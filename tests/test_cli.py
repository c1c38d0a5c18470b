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


def test_run_reports_a_file_it_cannot_write(tmp_path, capsys):
    (tmp_path / "summary.json").mkdir()
    rc = main(["run", "--preset", "fig4", "--output", str(tmp_path), "--set", "e_grid_points=4",
               "--set", "m_t=2", "--set", "m_r=2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "summary.json" in err


@pytest.mark.parametrize("text", [b"{nope", b"[1, 2]", b"null", b"\xff{"])
def test_run_rejects_malformed_config_file(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_run_rejects_worker_count_below_one(tmp_path, capsys, workers):
    rc = main(["run", "--preset", "fig2", "--output", str(tmp_path), "--workers", workers])
    assert rc == 1
    assert "workers must be an integer >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


# an integer that JSON reads but a float cannot hold
HUGE = 10**400


@pytest.mark.parametrize(
    "override", [f"p={HUGE}", f"alpha=[[1.0, {HUGE}], [0.8, 1.0]]"], ids=["p", "alpha"]
)
def test_run_rejects_integer_too_large_for_a_float(tmp_path, capsys, override):
    rc = main(["run", "--preset", "fig2", "--output", str(tmp_path), "--set", override])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("size", [2**63, HUGE], ids=["2**63", "huge"])
@pytest.mark.parametrize("field", ["m_t", "m_r", "e_grid_points", "ts_points"])
def test_run_rejects_size_numpy_cannot_index(tmp_path, capsys, field, size):
    # sizes past numpy's index type only, so nothing is ever allocated
    rc = main(["run", "--preset", "fig2", "--output", str(tmp_path), "--set", f"{field}={size}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {field} is too large: numpy cannot index its arrays\n"
    assert not any(tmp_path.iterdir())


def test_validate_channels_integer_too_large_for_a_float(tmp_path, capsys):
    # each file is reported on its own line, and the files after it are checked
    cs = draw_channel_set(2, 2, np.array([[1.0, 0.8], [0.8, 1.0]]), seed=7)
    good = tmp_path / "good.json"
    save_channels(cs, good)
    cell, alpha = tmp_path / "cell.json", tmp_path / "alpha.json"
    doc = json.loads(good.read_text())
    doc["matrices"]["h21"][1][0][1] = HUGE
    cell.write_text(json.dumps(doc))
    doc = json.loads(good.read_text())
    doc["alpha"][0][1] = HUGE
    alpha.write_text(json.dumps(doc))
    assert main(["validate-channels", str(cell), str(alpha), str(good)]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        f"ERROR {cell}: field matrices.h21[1][0] must be a [re, im] pair",
        f"ERROR {alpha}: field alpha must be a 2x2 array of numbers",
    ]
    assert out == f"OK {channel_digest(cs)} {good}\n"


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


def test_validate_channels_goes_on_past_unreadable_files(tmp_path, capsys):
    # a missing file and a directory are reported on their own lines, and
    # the files after them are checked
    cs = draw_channel_set(2, 2, np.array([[1.0, 0.8], [0.8, 1.0]]), seed=7)
    good = tmp_path / "good.json"
    save_channels(cs, good)
    missing, folder = tmp_path / "nope.json", tmp_path / "dir"
    folder.mkdir()
    files = [good, missing, folder, good]
    assert main(["validate-channels", *map(str, files)]) == 1
    out, err = capsys.readouterr()
    assert [line.split(":")[0] for line in err.splitlines()] == [
        f"ERROR {missing}",
        f"ERROR {folder}",
    ]
    assert out == 2 * f"OK {channel_digest(cs)} {good}\n"


def test_oracle_suite(capsys):
    rc = main(["oracle-suite", "--trials", "2000", "--seed", "0"])
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("[oracle]")]
    assert rc == 0
    assert len(lines) >= 6
    assert all(": PASS" in ln for ln in lines)
    assert any("water-filling game matches the per-user game" in ln for ln in lines)


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
