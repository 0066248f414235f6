import json
import math
import os

import pytest

from spinlab.cli import ConfigError, load_config, main, run, verify


def write_config(path, body):
    path.write_text(body)
    return str(path)


class TestConfig:
    def test_load_valid(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = recurrence
seed = 7

[recurrence]
kernel = powerlaw(3.5)
radius = 128
""")
        cfg = load_config(p)
        assert cfg.name == "recurrence"
        assert cfg.seed == 7
        assert cfg.params["kernel"] == "powerlaw(3.5)"
        assert cfg.params["radius"] == 128
        assert len(cfg.hash) == 16

    def test_defaults_filled(self, tmp_path):
        p = write_config(tmp_path / "c.ini", "[experiment]\nname = extremal\n")
        cfg = load_config(p)
        assert cfg.params["c"] == 2.0
        assert cfg.params["grid"] == 4096

    def test_unknown_experiment(self, tmp_path):
        p = write_config(tmp_path / "c.ini", "[experiment]\nname = mystery\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_field_level_messages(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = sparseness

[sparseness]
eps = 1.5
bogus = 1
""")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        msgs = " ".join(err.value.messages)
        assert "sparseness.eps" in msgs
        assert "sparseness.bogus" in msgs

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.ini"))

    def test_hash_depends_on_seed(self, tmp_path):
        p = write_config(tmp_path / "c.ini", "[experiment]\nname = extremal\n")
        a = load_config(p, seed_override=1)
        b = load_config(p, seed_override=2)
        assert a.hash != b.hash


class TestRun:
    def test_extremal_c1_is_zero(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = extremal
out = %s

[extremal]
c = 1.0
smax = 2
""" % (tmp_path / "out"))
        run(load_config(p))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["schema"] == 1
        assert summary["metrics"]["max_value"] == pytest.approx(0.0, abs=1e-12)

    def test_sparseness_zero_eps(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = sparseness
out = %s

[sparseness]
eps = 0.0
ns = 8
samples = 5
""" % (tmp_path / "out"))
        run(load_config(p))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["metrics"]["frequencies"] == [0.0]

    def test_rows_are_attributable(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = extremal
seed = 3
out = %s
""" % (tmp_path / "out"))
        cfg = load_config(p)
        run(cfg)
        lines = (tmp_path / "out" / "extremal.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-3:] == ["experiment", "config_hash", "seed"]
        for ln in lines[1:]:
            cells = ln.split(",")
            assert cells[-3:] == ["extremal", cfg.hash, "3"]

    def test_deterministic_output_bytes(self, tmp_path):
        body = """
[experiment]
name = layers
seed = 5
out = %s

[layers]
n = 3
orbits = 2
kmax = 1
grid = 256
"""
        p1 = write_config(tmp_path / "c1.ini", body % (tmp_path / "o1"))
        p2 = write_config(tmp_path / "c2.ini", body % (tmp_path / "o2"))
        run(load_config(p1))
        run(load_config(p2))
        assert (tmp_path / "o1" / "layers.csv").read_bytes() == \
            (tmp_path / "o2" / "layers.csv").read_bytes()
        assert (tmp_path / "o1" / "summary.json").read_bytes() == \
            (tmp_path / "o2" / "summary.json").read_bytes()

    def test_layers_worst_margin_is_table_maximum(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = layers
seed = 7
out = %s

[layers]
n = 3
orbits = 2
kmax = 1
grid = 256
""" % (tmp_path / "out"))
        run(load_config(p))
        lines = (tmp_path / "out" / "layers.csv").read_text().splitlines()
        header = lines[0].split(",")
        dev, bound = header.index("sup_dev"), header.index("bound")
        margins = [float(c[dev]) - float(c[bound])
                   for c in (ln.split(",") for ln in lines[1:])]
        metrics = json.loads((tmp_path / "out" / "summary.json").read_text())["metrics"]
        assert max(margins) < 0
        assert metrics["worst_margin"] == pytest.approx(max(margins), abs=1e-9)
        assert metrics["all_within_bound"] is True

    def test_rotation_reports_widths_and_acceptance(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = rotation
seed = 3
out = %s

[rotation]
ns = 2,4
sweeps = 200
""" % (tmp_path / "out"))
        run(load_config(p))
        metrics = json.loads((tmp_path / "out" / "summary.json").read_text())["metrics"]
        assert len(metrics["widths"]) == len(metrics["acceptance_rates"]) == 2
        assert all(1e-3 <= w <= math.pi for w in metrics["widths"])
        assert all(0 < a < 1 for a in metrics["acceptance_rates"])

    def test_spinwave_energies_decrease(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = spinwave
out = %s

[spinwave]
ns = 8,12
""" % (tmp_path / "out"))
        run(load_config(p))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["metrics"]["decreasing"] is True

    def test_decompose51_ratio(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = decompose51
out = %s

[decompose51]
potential = absval
eps = 0.5
grid = 1024
""" % (tmp_path / "out"))
        run(load_config(p))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["metrics"]["ratio"] >= 1.0

    def test_twopoint_short_window_reports_unusable(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = twopoint
out = %s

[twopoint]
potential = xy(0.0)
n = 4
distances = 1,2
sweeps = 256
""" % (tmp_path / "out"))
        run(load_config(p))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "unusable" in summary["metrics"]["fit"]

    def test_runtime_error_removes_partial_outputs(self, tmp_path):
        # sigma = 2 staircase is infeasible: the runner raises after validation
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = aizenman
out = %s

[aizenman]
sigma = 2
n = 3
sweeps = 100
""" % (tmp_path / "out"))
        cfg = load_config(p)
        with pytest.raises(RuntimeError):
            run(cfg)
        out = tmp_path / "out"
        leftovers = [f for f in os.listdir(out)] if out.exists() else []
        assert "magnetization.csv" not in leftovers
        assert "summary.json" not in leftovers


class TestMain:
    def test_run_and_verify_roundtrip(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = recurrence
out = %s

[recurrence]
kernel = nn
radius = 128
""" % (tmp_path / "out"))
        assert main(["run", "--config", p]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["metrics"]["verdict"] == "recurrent"
        assert main(["verify", "--manifest", str(tmp_path / "out" / "manifest.json")]) == 0

    def test_config_error_exit_code(self, tmp_path):
        p = write_config(tmp_path / "c.ini", "[experiment]\nname = mystery\n")
        assert main(["run", "--config", p]) == 2
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = aizenman
out = %s

[aizenman]
sigma = 2
n = 3
sweeps = 100
""" % (tmp_path / "out"))
        assert main(["run", "--config", p]) == 1

    def test_presets_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "xy" in out and "nn" in out


class TestVerify:
    def _fresh_run(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = extremal
out = %s
""" % (tmp_path / "out"))
        run(load_config(p))
        return tmp_path / "out" / "manifest.json"

    def test_tampered_output_fails(self, tmp_path):
        manifest = self._fresh_run(tmp_path)
        csv = tmp_path / "out" / "extremal.csv"
        csv.write_text(csv.read_text() + "tampered\n")
        verdicts = verify(str(manifest))
        status = {v["criterion"]: v for v in verdicts}
        assert status["output:extremal.csv"]["status"] == "fail"
        assert "hash mismatch" in status["output:extremal.csv"]["detail"]

    def test_missing_output_reported(self, tmp_path):
        manifest = self._fresh_run(tmp_path)
        (tmp_path / "out" / "extremal.csv").unlink()
        verdicts = verify(str(manifest))
        status = {v["criterion"]: v["status"] for v in verdicts}
        assert status["output:extremal.csv"] == "missing"

    def test_empty_manifest(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"experiment": "extremal", "outputs": []}))
        verdicts = verify(str(mpath))
        assert all(v["status"] == "missing" for v in verdicts)

    def test_missing_manifest(self, tmp_path):
        verdicts = verify(str(tmp_path / "none.json"))
        assert verdicts[0]["status"] == "missing"

    def test_fresh_layers_predicate_evaluated(self, tmp_path):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = layers
out = %s

[layers]
n = 3
orbits = 2
kmax = 1
grid = 256
""" % (tmp_path / "out"))
        run(load_config(p))
        verdicts = verify(str(tmp_path / "out" / "manifest.json"))
        pred = [v for v in verdicts if v["criterion"] == "predicate:layers"]
        assert len(pred) == 1
        assert pred[0]["status"] in ("pass", "fail")
        assert "margin" in pred[0]["detail"]
