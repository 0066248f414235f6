import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from spinlab import cli
from spinlab.cli import (EXPERIMENTS, ConfigError, _fmt, _int_list, load_config, main,
                         run, verify)

# the smallest config of each experiment that still exercises its runner
TINY = {
    "layers": "n = 3\norbits = 1\nkmax = 1\ngrid = 256",
    "extremal": "smax = 1\ngrid = 256",
    "sparseness": "ns = 8\nsamples = 2",
    "recurrence": "kernel = nn\nradius = 128",
    "spinwave": "ns = 6,8",
    "entropy": "ns = 6\nsamples = 4",
    "rotation": "ns = 2\nsweeps = 64",
    "twopoint": "n = 4\ndistances = 1,2\nsweeps = 64",
    "aizenman": "n = 2\nsweeps = 64",
    "decompose51": "grid = 256",
}


def write_config(path, body):
    path.write_text(body)
    return str(path)


def _list_join(header, rows, cfg):
    # a table as one list of line strings, joined
    tail = [cfg.name, cfg.hash, str(cfg.seed)]
    lines = [",".join(header + ["experiment", "config_hash", "seed"])]
    lines += [",".join([_fmt(v) for v in row] + tail) for row in rows]
    return "\n".join(lines) + "\n"


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
        # at eps = 0.5 the ratio passes 2: the dominating Bernoulli density
        # ratio - 1 is at least 1, so the predicate refuses it
        with pytest.warns(UserWarning, match="vacuous"):
            run(load_config(p))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["metrics"]["ratio"] >= 2.0
        verdicts = verify(str(tmp_path / "out" / "manifest.json"))
        assert [v["status"] for v in verdicts
                if v["criterion"] == "predicate:decompose51"] == ["fail"]

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

    def test_atomic_write_memory_budget(self, tmp_path):
        # 64 KiB slices peak near 0.14 MB for a 4 MB text; encoding it in one
        # write took 4 MB
        text = ("0.123456789012,-3,17\n" * 200_000)[:4_000_000]
        path = str(tmp_path / "big.csv")
        tracemalloc.start()
        try:
            cli._atomic_write(path, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2e6
        with open(path) as f:
            assert f.read() == text

    def test_every_output_written_once_in_full(self, tmp_path, monkeypatch):
        # output bytes are counted from the text `_atomic_write` is handed,
        # so every file goes through it once, whole
        calls = []
        write = cli._atomic_write

        def spy(path, text):
            calls.append((path, text))
            write(path, text)

        monkeypatch.setattr(cli, "_atomic_write", spy)
        out = tmp_path / "out"
        cfg = load_config(write_config(tmp_path / "c.ini", """
[experiment]
name = spinwave
seed = 4
out = %s

[spinwave]
ns = 6,32
""" % out))
        manifest = run(cfg)
        paths = [e["path"] for e in manifest["outputs"]] + [str(out / "manifest.json")]
        assert sorted(path for path, _ in calls) == sorted(paths)
        for path, text in calls:
            with open(path, "rb") as f:
                assert f.read() == text.encode()
        # the field at n = 32 has 65^2 = 4225 cells, so its second block of
        # 4096 starts inside a row; its rows as ints and floats keep the bytes
        # of a list join of its lines
        header, blocks = EXPERIMENTS["spinwave"].run(cfg.params, cfg.seed)[0]["field.csv"]
        rows = [[int(x1), int(x2), v] for block in blocks for x1, x2, v in zip(*block)]
        assert [row[:2] for row in rows] == [[x1, x2] for x1 in range(-32, 33)
                                             for x2 in range(-32, 33)]
        assert (out / "field.csv").read_text() == _list_join(header, rows, cfg)
        # a table formatted by column: columns of floats, of no float, and of
        # ints mixed with floats
        mixed = [[1, 0.1, "a", True, np.float64(1 / 3), np.int64(7), 2],
                 [-2, 1e-20, "", False, np.float64(-0.0), np.int64(-8), 0.5],
                 [3, float("nan"), "c", True, float("inf"), np.int64(0), -1e300],
                 [4, -float("inf"), "d", False, np.float64(np.nan), np.int64(1), 3]]
        header = ["i", "f", "s", "b", "f64", "i64", "mixed"]
        cli._write_table(str(tmp_path / "mixed.csv"), header, cli._by_column(mixed), cfg)
        assert (tmp_path / "mixed.csv").read_text() == _list_join(header, mixed, cfg)
        # blocks of columns, read lazily, joined in order
        long = [[i, i / 7] for i in range(9000)]
        blocks = (list(zip(*long[i:i + 4096])) for i in range(0, 9000, 4096))
        cli._write_table(str(tmp_path / "long.csv"), ["i", "f"], blocks, cfg)
        assert (tmp_path / "long.csv").read_text() == _list_join(["i", "f"], long, cfg)
        # rows or columns of unequal length are refused
        with pytest.raises(ValueError):
            cli._write_table(str(tmp_path / "bad.csv"), ["i", "f"],
                             cli._by_column([[1, 0.5], [2]]), cfg)
        with pytest.raises(ValueError):
            cli._write_table(str(tmp_path / "bad.csv"), ["i", "f"], [[[1, 2], [0.5]]], cfg)
        assert not (tmp_path / "bad.csv").exists()


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

    @pytest.mark.parametrize("name, key, spec", [
        ("rotation", "potential", "bogus(1)"),
        ("decompose51", "potential", "aizenman(7)"),
        ("twopoint", "potential", "xy(1, 2)"),
        ("rotation", "potential", "xy(1.0"),
        ("decompose51", "potential", "aizenman(0.5"),
        ("recurrence", "kernel", "powerlaw(x)"),
        ("entropy", "kernel", "logcorr(1)"),
        ("rotation", "potential", "xy(nan)"),
        ("twopoint", "potential", "logsing(nan)"),
        ("layers", "potential", "xy(inf)"),
        ("recurrence", "kernel", "powerlaw(nan)"),
        ("entropy", "kernel", "logcorr_eps(2, nan)"),
        ("recurrence", "kernel", "powerlaw(-1e308)"),
        ("recurrence", "kernel", "logcorr_eps(2, 1e308)"),
        ("spinwave", "kernel", "logcorr_eps(2, -1e308)"),
    ])
    def test_bad_preset_is_config_error(self, tmp_path, capsys, name, key, spec):
        p = write_config(tmp_path / "c.ini", "[experiment]\nname = %s\nout = %s\n\n"
                         "[%s]\n%s = %s\n" % (name, tmp_path / "out", name, key, spec))
        assert main(["run", "--config", p]) == 2
        assert f"{name}.{key}: unknown or malformed preset" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_kernel_checked_at_the_config_radius(self, tmp_path, capsys):
        # powerlaw(-110) has finite mass at the default radius 512 and
        # overflows at 1000
        body = ("[experiment]\nname = recurrence\nout = %s\n\n[recurrence]\n"
                "kernel = powerlaw(-110)\nradius = %d\n")
        load_config(write_config(tmp_path / "ok.ini", body % (tmp_path / "out", 512)))
        p = write_config(tmp_path / "c.ini", body % (tmp_path / "out", 1000))
        assert main(["run", "--config", p]) == 2
        assert ("recurrence.kernel: kernel preset 'powerlaw(-110)' has mass inf "
                "at radius 1000") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_kernel_checked_at_the_config_radius_alone(self, tmp_path, capsys):
        # powerlaw(-115) overflows at the default radius 512 but not at 128
        body = ("[experiment]\nname = recurrence\nout = %s\n\n[recurrence]\n"
                "kernel = powerlaw(-115)\nradius = %d\n")
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path / "ok.ini", body % (out, 128))]) == 0
        assert (out / "recurrence.csv").exists()
        capsys.readouterr()
        assert main(["run", "--config", write_config(tmp_path / "c.ini", body % (out, 512))]) == 2
        err = capsys.readouterr().err
        assert "recurrence.kernel: unknown or malformed preset" in err
        assert ("recurrence.kernel: kernel preset 'powerlaw(-115)' has mass inf "
                "at radius 512") in err

    @pytest.mark.parametrize("kernel, radius", [("logcorr(3)", 512), ("powerlaw(-115)", 128)])
    def test_recurrence_verdict_from_the_tail(self, tmp_path, kernel, radius):
        # logcorr(3) is recurrent by Bertrand's series at s = 4; powerlaw(-115)
        # has infinite mass uncut, so only its truncated, recurrent walk exists
        out = tmp_path / "out"
        p = write_config(tmp_path / "c.ini", "[experiment]\nname = recurrence\nout = %s\n\n"
                         "[recurrence]\nkernel = %s\nradius = %d\n" % (out, kernel, radius))
        assert main(["run", "--config", p]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["verdict"] == "recurrent"
        assert main(["verify", "--manifest", str(out / "manifest.json")]) == 0

    def test_recurrence_without_integrals_fails(self, tmp_path):
        # a periodic walk gets its verdict but writes no I(rho) ladder
        table, summary = tmp_path / "recurrence.csv", tmp_path / "summary.json"
        table.write_text("rho,integral,experiment,config_hash,seed\n")
        summary.write_text(json.dumps({"metrics": {"verdict": "recurrent"}}))
        ok, detail = cli._check_recurrence({"recurrence.csv": str(table),
                                            "summary.json": str(summary)})
        assert not ok
        assert detail == "verdict recurrent"

    @pytest.mark.parametrize("name, key", sorted(
        (name, key) for name, exp in EXPERIMENTS.items()
        for key, (parse, *_) in exp.params.items() if parse is _int_list))
    @pytest.mark.parametrize("value", ["", " , "], ids=["empty", "commas"])
    def test_empty_list_is_config_error(self, tmp_path, capsys, name, key, value):
        p = write_config(tmp_path / "c.ini", "[experiment]\nname = %s\nout = %s\n\n"
                         "[%s]\n%s = %s\n" % (name, tmp_path / "out", name, key, value))
        assert main(["run", "--config", p]) == 2
        assert f"{name}.{key}: cannot parse" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_smeared_staircase_feasible_where_exact_is_not(self, tmp_path):
        # only the smeared state of this config has finite energy
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = aizenman
out = %s

[aizenman]
k = 16
delta = 0.8
sigma = 2
n = 1
sweeps = 64
""" % (tmp_path / "out"))
        assert main(["run", "--config", p]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["metrics"]["violations"] == 0

    def test_wide_arcs_infeasible_smeared_staircase(self, tmp_path, capsys):
        # 3 theta + 2 delta > pi: the certificate still gives its verdict,
        # infeasible, and the run ends on the empty conditional measure
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = aizenman
out = %s

[aizenman]
k = 12
delta = 0.8
sigma = 2
n = 1
sweeps = 64
""" % (tmp_path / "out"))
        assert main(["run", "--config", p]) == 1
        err = capsys.readouterr().err
        assert "no finite-energy configuration" in err
        assert "lifts uniquely" not in err

    def test_logsing_decomposition_refused(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = decompose51
out = %s

[decompose51]
potential = logsing
""" % (tmp_path / "out"))
        assert main(["run", "--config", p]) == 1
        assert "too rough for this eps" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("name, body, edge, message", [
        ("twopoint", "n = 2\nsweeps = 64", "n = 8\nsweeps = 64",
         "twopoint.distances: entries must be <= n = 2"),
        ("twopoint", "n = 3\ndistances = 1,4\nsweeps = 64",
         "n = 3\ndistances = 1,3\nsweeps = 64",
         "twopoint.distances: entries must be <= n = 3"),
        ("spinwave", "ns = 4,8\ninner = 4", "ns = 4,8\ninner = 3",
         "spinwave.inner: must be < every entry of ns"),
        ("entropy", "ns = 4\ninner = 6", "ns = 4\ninner = 3",
         "entropy.inner: must be < every entry of ns"),
    ], ids=["twopoint-default-distances", "twopoint-distance-4",
            "spinwave-inner-4", "entropy-inner-6"])
    def test_inconsistent_fields_are_config_error(self, tmp_path, capsys, name,
                                                  body, edge, message):
        # these configs reached the runner and exited 1 before
        head = "[experiment]\nname = %s\nout = %s\n\n[%s]\n" % (
            name, tmp_path / "out", name)
        load_config(write_config(tmp_path / "edge.ini", head + edge + "\n"))
        p = write_config(tmp_path / "c.ini", head + body + "\n")
        assert main(["run", "--config", p]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("distances", ["0,1,2,4,8", "-1,2"])
    def test_twopoint_nonpositive_distance_is_config_error(self, tmp_path, capsys,
                                                           distances):
        # log(0) in the power-law fit would leave an SVD failure in the summary
        p = write_config(tmp_path / "c.ini", "[experiment]\nname = twopoint\nout = %s\n\n"
                         "[twopoint]\ndistances = %s\n" % (tmp_path / "out", distances))
        assert main(["run", "--config", p]) == 2
        assert "twopoint.distances: entries must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_presets_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "xy" in out and "nn" in out
        listed = [ln for ln in out.splitlines() if ln.startswith("experiments: ")]
        assert listed == ["experiments: " + ", ".join(sorted(TINY))]

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_run_and_verify_each_experiment(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        p = write_config(tmp_path / "c.ini", f"""
[experiment]
name = {name}
out = {out}

[{name}]
{TINY[name]}
""")
        assert main(["run", "--config", p]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"config_hash", "code_version", "experiment",
                                 "seed", "wallclock", "outputs"}
        capsys.readouterr()
        main(["verify", "--manifest", str(out / "manifest.json")])
        verdicts = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        outputs = [v for v in verdicts if v["criterion"].startswith("output:")]
        assert len(outputs) == len(manifest["outputs"]) >= 2
        assert all(v["status"] == "pass" for v in outputs)


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

    def test_layers_kmax_beyond_box_stops_below_r(self, tmp_path):
        # the uniformity bound needs r >= k + 1, so k stops at n - 1
        p = write_config(tmp_path / "c.ini", """
[experiment]
name = layers
out = %s

[layers]
n = 3
orbits = 1
kmax = 4
grid = 256
""" % (tmp_path / "out"))
        assert main(["run", "--config", p]) == 0
        lines = (tmp_path / "out" / "layers.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "2"]
        assert main(["verify", "--manifest", str(tmp_path / "out" / "manifest.json")]) == 0

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
