import contextlib
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkeylab import broadcast, cli, clocksync, coinflip, ecurve, keyexchange, numtheory, qwalk
from qkeylab.errors import ConfigError
from qkeylab.cli import (
    DEFAULT_MASTER_SEED,
    ENV_MASTER_SEED,
    MAX_WORKERS,
    SCENARIOS,
    build_config,
    load_config_file,
    main,
    run,
)
from test_acceptance import MASTER_SEED, REPRO_CASES

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).parent.parent / "src"


class TestConfig:
    def test_defaults_applied(self):
        config = build_config("dh")
        assert config.params["p"] == 23 and config.params["g"] == 5
        assert config.master_seed == DEFAULT_MASTER_SEED

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            build_config("quantum-lottery")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bitrate"):
            build_config("dh", overrides={"bitrate": "5"})

    def test_missing_required_field_named(self):
        with pytest.raises(ConfigError, match="missing required field: a"):
            build_config("density", overrides={"b": "1", "x": "200"})

    def test_file_then_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\np = 29\ng = 2\nmaster_seed = 777\n")
        values = load_config_file(str(path))
        config = build_config("dh", file_values=values, overrides={"g": "3"})
        assert config.params["p"] == 29
        assert config.params["g"] == 3
        assert config.master_seed == 777

    def test_env_master_seed_beats_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("master_seed = 777\n")
        monkeypatch.setenv(ENV_MASTER_SEED, "4242")
        config = build_config("dh", file_values=load_config_file(str(path)))
        assert config.master_seed == 4242

    def test_explicit_seed_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_MASTER_SEED, "4242")
        assert build_config("dh", master_seed=1).master_seed == 1

    def test_malformed_file_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a key value pair\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))


class TestReports:
    def test_dh_report_matches_golden(self):
        report = run(build_config("dh"))
        assert report.render() == (GOLDEN_DIR / "report_dh.txt").read_text()
        assert report.exit_code == 0

    def test_pqdh_report_matches_golden(self):
        config = build_config("pqdh", overrides={"sessions": "2", "p_bits": "16"})
        assert run(config).render() == (GOLDEN_DIR / "report_pqdh.txt").read_text()

    def test_coinflip_report_matches_golden(self):
        config = build_config("coinflip", overrides={"sessions": "25"})
        assert run(config).render() == (GOLDEN_DIR / "report_coinflip.txt").read_text()

    def test_qwalk_sweep_report_matches_golden(self):
        config = build_config("qwalk-sweep", overrides={"sizes": "16,64"})
        assert run(config).render() == (GOLDEN_DIR / "report_qwalk_sweep.txt").read_text()

    def test_worker_count_never_in_report(self):
        config = build_config("teleport-demo", overrides={"trials": "50"}, workers=4)
        assert "workers" not in run(config).render()

    def test_pqdh_happy_path(self):
        report = run(build_config("pqdh", overrides={"sessions": "2"}))
        assert report.exit_code == 0
        rendered = report.render()
        assert "sessions_agreed = 2" in rendered
        assert "agreement = PASS" in rendered


class TestMain:
    def test_success_exit_zero(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        code = main(["dh", "--out", str(out_file)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == out_file.read_text()
        assert "result = pass" in captured.out

    def test_config_error_exit_two(self, capsys):
        code = main(["density"])  # a, b, x are required
        assert code == 2
        assert "missing required field" in capsys.readouterr().err

    def test_unknown_key_exit_two(self, capsys):
        code = main(["dh", "--config", "/nonexistent/path.cfg"])
        assert code == 2

    def test_failed_verdict_exit_one(self, capsys):
        # A density target that the scan cannot possibly meet.
        code = main(
            ["density", "--a", "-1", "--b", "0", "--x", "500", "--target", "0.1", "--tol", "0.01"]
        )
        assert code == 1
        assert "result = fail" in capsys.readouterr().out

    def test_master_seed_flag_changes_streams(self, capsys):
        main(["teleport-demo", "--trials", "20", "--master-seed", "1"])
        first = capsys.readouterr().out
        main(["teleport-demo", "--trials", "20", "--master-seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestDeterminism:
    @pytest.mark.parametrize("scenario,overrides", [
        ("teleport-demo", {"trials": "60"}),
        ("eve-bounded-storage", {"trials": "200"}),
        ("qwalk-search", {"n": "16", "trials": "100"}),
    ])
    def test_rerun_and_worker_invariance(self, scenario, overrides):
        base = run(build_config(scenario, overrides=overrides, workers=1)).render()
        again = run(build_config(scenario, overrides=overrides, workers=1)).render()
        fanned = run(build_config(scenario, overrides=overrides, workers=4)).render()
        assert base == again == fanned


def test_every_scenario_has_schema_and_runner():
    assert set(SCENARIOS) == {
        "teleport-demo",
        "clocksync",
        "dh",
        "pqdh",
        "private",
        "coinflip",
        "density",
        "prng",
        "qwalk-search",
        "qwalk-sweep",
        "eve-bounded-storage",
        "eve-qwalk",
    }


class TestTranscriptRecords:
    def test_unknown_channel_rejected(self):
        from qkeylab.errors import DomainError
        from qkeylab.transcript import Transcript

        t = Transcript()
        with pytest.raises(DomainError):
            t.add("step", "a", "b", "sidechannel", b"")

    def test_clock_monotone(self):
        from qkeylab.transcript import Transcript

        t = Transcript()
        t.add("one", "a", "b", "public", b"")
        t.add("two", "a", "b", "public", b"")
        t.add("three", "a", "b", "public", b"")
        assert [r.time_ns for r in t.records] == [0, 1, 2]


class TestSeedParsing:
    def test_hex_broadcast_seed_accepted(self):
        config = build_config("pqdh", overrides={"broadcast_seed": "0xDEADBEEF"})
        assert config.params["broadcast_seed"] == 0xDEADBEEF

    def test_decimal_broadcast_seed_accepted(self):
        config = build_config("private", overrides={"broadcast_seed": "12345"})
        assert config.params["broadcast_seed"] == 12345


class TestVanishedKeysInReports:
    def test_pqdh_report_shows_vanished_marker(self):
        report = run(build_config("pqdh", overrides={"sessions": "1", "p_bits": "16"}))
        assert "key_render = <vanished>" in report.render()

    def test_private_report_shows_vanished_marker(self):
        report = run(build_config("private", overrides={"sessions": "1", "length_bits": "32"}))
        assert "key_render = <vanished>" in report.render()


# -- the input contract ------------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(REPRO_CASES))
def test_repro_report_matches_golden(scenario):
    config = build_config(scenario, overrides=REPRO_CASES[scenario], master_seed=MASTER_SEED)
    expected = (GOLDEN_DIR / "repro" / f"{scenario}.txt").read_text()
    assert run(config).render() == expected


# psi_13, a composite that passes Miller-Rabin to every prime base up to 41.
PSI_13_CASE = ["dh", "--p", "3317044064679887385961981", "--g", "3"]

# (argv, QKEYLAB_MASTER_SEED or None, expected exit code)
CONTRACT_CASES = [
    (["dh", "--p", "abc"], None, 2),
    (["dh"], "xyz", 2),
    (["qwalk-sweep", "--sizes", "abc"], None, 2),
    (["teleport-demo", "--trials", "0"], None, 2),
    (["clocksync", "--trials", "-3"], None, 2),
    (["coinflip", "--sessions", "0"], None, 2),
    (["pqdh", "--sessions", "0"], None, 2),
    (["private", "--sessions", "0"], None, 2),
    (["eve-bounded-storage", "--trials", "0"], None, 2),
    (["qwalk-search", "--trials", "0"], None, 2),
    (["eve-qwalk", "--cap-factor", "nan"], None, 2),
    (["qwalk-sweep", "--cap-factor", "inf"], None, 2),
    (["private", "--bitrate", "inf"], None, 2),
    (["eve-bounded-storage", "--fraction", "2"], None, 2),
    (["qwalk-search", "--n", "15"], None, 2),
    (["density", "--a", "0", "--b", "0", "--x", "200"], None, 2),
    (["prng", "--bits", "0"], None, 2),
    (["eve-qwalk", "--depth", "7"], None, 2),
    (["dh", "--g", "0"], None, 2),
    (PSI_13_CASE, None, 2),
    (["dh", "--instances", "-1"], None, 2),
    (["dh", "--workers", "-5"], None, 2),
    (["dh", "--master-seed", "0x10"], None, 0),
    (["dh"], "0x10", 0),
]

# Inputs past a size cap: each must exit 2 before the work it would start.
WALK_CAP_CASES = [
    ["qwalk-search", "--trials", "1000000000000"],
    ["qwalk-search", "--t", "100000000"],
    # 17 sweep sizes, repeated (refused as a repeat) and distinct (past the count cap)
    ["qwalk-sweep", "--sizes", ",".join(["16"] * (qwalk.MAX_SWEEP_SIZES + 1))],
    ["qwalk-sweep", "--sizes", ",".join(str(n * n) for n in range(4, 5 + qwalk.MAX_SWEEP_SIZES))],
]
# A modulus past numtheory.MAX_PRIME_BITS, refused before the primality test.
MODULUS_CAP_CASES = [["dh", "--p", str((1 << numtheory.MAX_PRIME_BITS) + 1)]]
CAP_CASES = [
    ["density", "--a", "0", "--b", "-2", "--x", str(ecurve.MAX_SCAN + 1)],
    ["prng", "--bits", str(ecurve.MAX_SCAN + 1)],
    ["coinflip", "--k", "7"],
    ["coinflip", "--k", "1000000"],
    ["coinflip", "--b", str(10**400)],
    ["coinflip", "--challenge-factor", "100000"],
    *WALK_CAP_CASES,
    *MODULUS_CAP_CASES,
]

# Sizes past a cap and geometries that place a window nowhere on the stream:
# each must exit 2, and a size cap before the work it bounds.
HUGE = "100000000000000000000"
STREAM_CAP_CASES = [
    ["eve-bounded-storage", "--trials", "1", "--span", HUGE],
    ["eve-bounded-storage", "--trials", "1", "--span", "3000000000", "--fraction", "0.9"],
    ["eve-bounded-storage", "--trials", "1", "--length", str(broadcast.MAX_WINDOW_BITS + 1)],
    ["private", "--sessions", "1", "--length-bits", HUGE],
    ["pqdh", "--sessions", "1", "--p-bits", HUGE],
    ["dh", "--instances", "1", "--p-bits", HUGE],
    ["clocksync", "--trials", "1", "--shots-per-bit", HUGE],
    ["pqdh", "--sessions", "1", "--sync-shots-per-bit", HUGE],
]
GEOMETRY_CASES = [
    ["pqdh", "--sessions", "1", "--distance-a-m", "1e300"],
    ["pqdh", "--sessions", "1", "--distance-b-m", "1e300"],
    ["private", "--sessions", "1", "--distance-b-m", "1e300"],
    ["pqdh", "--sessions", "1", "--bitrate", "1e-300"],
]
# Sync windows, sync ladders too coarse for the bitrate and challenge ranges
# with no room: the message names every key involved.
SYNC_LADDER_KEYS = ("sync_t_max_ns", "sync_n_bits", "bitrate")
KEY_NAMED_CASES = [
    (["pqdh", "--sync-t-max-ns", "0"], ("sync_t_max_ns",)),
    (["private", "--offset-b-ns", "1e7"], ("offset_b_ns",)),
    (["pqdh", "--sessions", "2", "--p-bits", "32", "--sync-t-max-ns", "1e20"], SYNC_LADDER_KEYS),
    (["pqdh", "--sessions", "1", "--sync-t-max-ns", "1e300"], SYNC_LADDER_KEYS),
    (["private", "--sessions", "1", "--bitrate", "1e300"], SYNC_LADDER_KEYS),
    (["coinflip", "--challenge-factor", "0"], ("challenge_factor",)),
    (["clocksync", "--t-max-ns", "0"], ("t_max_ns",)),
    (["clocksync", "--delta-span", "0.6"], ("delta_span",)),
]


class TestInputContract:
    @pytest.mark.parametrize(
        "argv,env_seed,code",
        CONTRACT_CASES,
        ids=[" ".join(argv) + (f" env={env}" if env else "") for argv, env, _ in CONTRACT_CASES],
    )
    def test_exit_code(self, argv, env_seed, code, monkeypatch, capsys):
        monkeypatch.delenv(ENV_MASTER_SEED, raising=False)
        if env_seed is not None:
            monkeypatch.setenv(ENV_MASTER_SEED, env_seed)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert ("config error" in captured.err) == (code == 2)
        if code == 0:
            assert "master_seed = 16" in captured.out

    def test_hex_master_seed_in_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("master_seed = 0x10\n")
        assert main(["dh", "--config", str(path)]) == 0
        assert "master_seed = 16" in capsys.readouterr().out

    def test_non_utf8_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"p = 23\n# \xff\xfe\n")
        assert main(["dh", "--config", str(path)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_unwritable_out_path(self, tmp_path, capsys):
        assert main(["dh", "--out", str(tmp_path / "missing" / "r.txt")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_value_names_its_key(self):
        with pytest.raises(ConfigError, match="trials"):
            build_config("teleport-demo", overrides={"trials": "0"})
        with pytest.raises(ConfigError, match="sizes"):
            build_config("qwalk-sweep", file_values={"sizes": "16,x"})
        with pytest.raises(ConfigError, match=ENV_MASTER_SEED):
            with mock.patch.dict(os.environ, {ENV_MASTER_SEED: "xyz"}):
                build_config("dh")

    def test_bad_file_value_checked_even_when_overridden(self):
        with pytest.raises(ConfigError, match="master_seed"):
            build_config("dh", file_values={"master_seed": "xyz"}, master_seed=1)

    def test_workers_not_a_config_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'workers'"):
            build_config("dh", file_values={"workers": "2"})

    def test_workers_bounded(self):
        assert build_config("dh", workers=MAX_WORKERS).workers == MAX_WORKERS
        assert build_config("dh", workers="2").workers == 2
        for bad in (0, -1, MAX_WORKERS + 1, "abc"):
            with pytest.raises(ConfigError, match="workers"):
                build_config("dh", workers=bad)

    def test_choices_and_sizes_parsed_by_schema(self):
        with pytest.raises(ConfigError, match="graph"):
            build_config("qwalk-search", overrides={"graph": "star"})
        config = build_config("qwalk-sweep", overrides={"sizes": "16, 64"})
        assert config.params["sizes"] == (16, 64)
        for bad in ("16,4", "", "16,,64"):
            with pytest.raises(ConfigError, match="sizes"):
                build_config("qwalk-sweep", overrides={"sizes": bad})

    def test_pool_never_wider_than_trials(self, monkeypatch):
        widths = []

        class RecordingPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize):
                return map(fn, args)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        config = build_config("teleport-demo", workers=4)
        assert len(cli._map_trials(cli._teleport_trial, 3, config)) == 3
        assert len(cli._map_trials(cli._teleport_trial, 1, config)) == 1
        assert widths == [3]

    @pytest.mark.parametrize("argv", CAP_CASES, ids=" ".join)
    def test_size_caps_exit_2(self, argv, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("work started past the cap")

        for module, name in (
            (ecurve, "primes_up_to"),
            (coinflip, "primes_up_to"),
            (coinflip, "zeta_coefficients"),
            (qwalk, "walk_distribution"),
            (qwalk, "success_probability_trace"),
            (keyexchange, "is_probable_prime"),
        ):
            monkeypatch.setattr(module, name, refuse)
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_sync_window_too_small_for_its_rungs_exits_2(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a rung drew its shots before the check")

        monkeypatch.setattr(clocksync, "_ladder_p1", refuse)
        assert main(["clocksync", "--trials", "2", "--n-bits", "40", "--t-max-ns", "1e-300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: t_max_ns") and "n_bits" in err

    @pytest.mark.parametrize("sizes", ["16,16", "16,+16"])
    def test_repeated_sweep_sizes_exit_2_before_any_walk(self, sizes, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a walk started before the check")

        monkeypatch.setattr(qwalk, "scaling_sweep", refuse)
        assert main(["qwalk-sweep", "--sizes", sizes]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: sizes")

    @pytest.mark.parametrize("argv", STREAM_CAP_CASES, ids=" ".join)
    def test_stream_and_sync_caps_exit_2(self, argv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("work started past the cap")

        for module, name in (
            (keyexchange, "random_prime"),
            (broadcast, "bits_range"),
            (broadcast, "eve_store"),
            (clocksync, "_ladder_p1"),
        ):
            monkeypatch.setattr(module, name, refuse)
        assert main(argv) == 2
        assert "must be <=" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", GEOMETRY_CASES, ids=" ".join)
    def test_geometry_without_a_stream_position_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: local time" in err and "stream position" in err

    @pytest.mark.parametrize(
        "argv,keys", KEY_NAMED_CASES, ids=[" ".join(argv) for argv, _ in KEY_NAMED_CASES]
    )
    def test_sync_window_and_challenge_range_name_the_key(self, argv, keys, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a trial started before the check")

        monkeypatch.setattr(cli, "_map_trials", refuse)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and all(key in err for key in keys)

    @pytest.mark.parametrize("a,b", [(str(10**20), "1"), ("-3", str(-(10**30) - 1))])
    def test_huge_curve_coefficients_give_a_report(self, a, b, capsys):
        assert main(["density", "--a", a, "--b", b, "--x", "100"]) == 0
        out = capsys.readouterr().out
        assert "even_fraction = " in out and "splitting_degree = 6" in out


def _past_bounds(spec):
    """Values just outside a field's declared bounds and choices."""
    step = 0.5 if isinstance(spec.lo if spec.lo is not None else spec.hi, float) else 1
    out = []
    if spec.lo is not None:
        out.append(str(spec.lo - step))
    if spec.hi is not None:
        out.append(str(spec.hi + step))
    out += [choice + "x" for choice in spec.choices]
    return out


PERTURBATIONS = ("", "abc", "0x10", "0", "-1", "nan", "inf")
# Past every size and geometry a config may hold; counts are left alone,
# because a huge count is a long run, not a bad input.
SIZE_PERTURBATIONS = (HUGE, "1e300", "1e-300")
COUNT_FIELDS = ("trials", "sessions", "instances", "max_rounds")


@st.composite
def cli_inputs(draw):
    scenario = draw(st.sampled_from(sorted(REPRO_CASES)))
    schema, _ = SCENARIOS[scenario]
    fields = dict(REPRO_CASES[scenario])
    key = draw(st.sampled_from([None, *schema]))
    if key is not None:
        values = PERTURBATIONS + tuple(_past_bounds(schema[key]))
        if key not in COUNT_FIELDS:
            values += SIZE_PERTURBATIONS
        fields[key] = draw(st.sampled_from(values))
    in_file = {k for k in sorted(fields) if draw(st.booleans())}
    seeds = st.sampled_from((None, "12", "0x10") + PERTURBATIONS)
    return {
        "scenario": scenario,
        "argv_fields": {k: v for k, v in fields.items() if k not in in_file},
        "file_fields": {k: v for k, v in fields.items() if k in in_file},
        "file_seed": draw(seeds),
        "env_seed": draw(seeds),
        "workers": draw(st.sampled_from(("-1", "0", "1", "2"))),
    }


@settings(max_examples=120, deadline=None)
@given(case=cli_inputs())
def test_any_input_ends_in_report_or_clean_exit(case, tmp_path_factory):
    argv = [case["scenario"], "--workers", case["workers"]]
    for key, value in case["argv_fields"].items():
        argv += [f"--{key.replace('_', '-')}", value]
    lines = [f"{k} = {v}" for k, v in case["file_fields"].items()]
    if case["file_seed"] is not None:
        lines.append(f"master_seed = {case['file_seed']}")
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    argv += ["--config", str(path)]
    sink = io.StringIO()
    with (
        mock.patch.dict(os.environ),
        contextlib.redirect_stdout(sink),
        contextlib.redirect_stderr(sink),
    ):
        os.environ.pop(ENV_MASTER_SEED, None)
        if case["env_seed"] is not None:
            os.environ[ENV_MASTER_SEED] = case["env_seed"]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line itself
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2)


def test_cli_process_never_prints_traceback():
    path = os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    env.pop(ENV_MASTER_SEED, None)
    for argv, env_seed, code in [
        (["dh", "--master-seed", "0x10"], None, 0),
        (["dh", "--p", "abc"], None, 2),
        (["dh"], "xyz", 2),
        (["teleport-demo", "--trials", "0"], None, 2),
        (PSI_13_CASE, None, 2),
        *(
            (argv, None, 2)
            for argv in STREAM_CAP_CASES + GEOMETRY_CASES + WALK_CAP_CASES + MODULUS_CAP_CASES
        ),
    ]:
        proc_env = env if env_seed is None else {**env, ENV_MASTER_SEED: env_seed}
        proc = subprocess.run(
            [sys.executable, "-m", "qkeylab.cli", *argv],
            env=proc_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qkeylab; print('qkeylab.cli' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.strip() == "False"


def test_sync_ladder_defaults_named_once():
    expected = (clocksync.SYNC_N_BITS, clocksync.SYNC_T_MAX_NS, clocksync.SYNC_SHOTS_PER_BIT)
    assert expected == (14, 1.6384e6, 100)
    names = ("sync_n_bits", "sync_t_max_ns", "sync_shots_per_bit")
    for fn in (keyexchange.pq_dh, keyexchange.private_exchange):
        params = inspect.signature(fn).parameters
        assert tuple(params[name].default for name in names) == expected
